/**
 * @file
 * Tests for the parallel experiment engine: ThreadPool semantics
 * (results, exceptions, reuse), bit-exact determinism of the chunked
 * Monte-Carlo runner across worker counts, and Campaign result
 * tables matching the serial per-machine runners.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "model/montecarlo.hh"
#include "runtime/thread_pool.hh"
#include "sim/campaign.hh"

namespace ctamem {
namespace {

using model::McEstimate;
using model::McSpec;
using runtime::ThreadPool;

TEST(ThreadPool, SubmitDeliversResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionReachesFuture)
{
    ThreadPool pool(2);
    std::future<int> bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that ran the throwing task is still alive.
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::uint64_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(0, kCount,
                     [&](std::uint64_t i) { ++hits[i]; });
    for (std::uint64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    ThreadPool pool(2);
    pool.parallelFor(5, 5, [](std::uint64_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> visited{0};
    EXPECT_THROW(pool.parallelFor(0, 64,
                                  [&](std::uint64_t i) {
                                      ++visited;
                                      if (i == 13)
                                          throw std::logic_error("13");
                                  }),
                 std::logic_error);
    // The throwing job abandons at most the rest of its current
    // grain; the other jobs keep draining the shared cursor.  With 64
    // items on 4 workers the default grain is 2, so at most 1 index
    // is skipped.
    EXPECT_GE(visited.load(), 61u);
    // And the pool survives for the next round.
    EXPECT_EQ(pool.submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForHonorsGrainHint)
{
    ThreadPool pool(4);
    constexpr std::uint64_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    for (const std::uint64_t grain : {1u, 7u, 5000u}) {
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(0, kCount,
                         [&](std::uint64_t i) { ++hits[i]; }, grain);
        for (std::uint64_t i = 0; i < kCount; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "grain " << grain << " index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossRounds)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(0, 100,
                         [&](std::uint64_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
        EXPECT_EQ(pool.submit([round]() { return round; }).get(),
                  round);
    }
}

McSpec
boostedSpec()
{
    McSpec spec;
    spec.params.errors.pf = 0.05;
    spec.params.errors.p01True = 0.3;
    spec.params.errors.p10True = 0.7;
    spec.zeros = 1;
    spec.trials = 100'000;
    spec.chunkSize = 4'096;
    return spec;
}

TEST(RunMc, BitIdenticalAcrossThreadCounts)
{
    const McSpec spec = boostedSpec();
    const McEstimate serial = model::runMc(spec);
    EXPECT_EQ(serial.trials, spec.trials);
    for (const unsigned threads : {1u, 4u, 8u}) {
        ThreadPool pool(threads);
        const McEstimate parallel = model::runMc(spec, pool);
        EXPECT_EQ(serial.mean, parallel.mean)
            << threads << " threads";
        EXPECT_EQ(serial.stderr, parallel.stderr)
            << threads << " threads";
        EXPECT_EQ(serial.trials, parallel.trials);
    }
}

TEST(RunMc, UniformSamplerAlsoDeterministic)
{
    McSpec spec = boostedSpec();
    spec.sampler = model::Sampler::Uniform;
    spec.trials = 50'000;
    const McEstimate serial = model::runMc(spec);
    ThreadPool pool(6);
    const McEstimate parallel = model::runMc(spec, pool);
    EXPECT_EQ(serial.mean, parallel.mean);
    EXPECT_EQ(serial.stderr, parallel.stderr);
}

TEST(RunMc, BatchedBitIdenticalAcrossThreadCounts)
{
    // The batched kernel inherits the chunk-seeding contract: the
    // fold is in chunk-index order and every chunk's draws are
    // chunk-local, so the estimate is bit-identical at any pool size.
    for (const model::Sampler sampler :
         {model::Sampler::FixedZerosBatched,
          model::Sampler::UniformBatched}) {
        McSpec spec = boostedSpec();
        spec.sampler = sampler;
        const McEstimate serial = model::runMc(spec);
        EXPECT_EQ(serial.trials, spec.trials);
        for (const unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            const McEstimate parallel = model::runMc(spec, pool);
            EXPECT_EQ(serial.mean, parallel.mean)
                << threads << " threads";
            EXPECT_EQ(serial.stderr, parallel.stderr)
                << threads << " threads";
            EXPECT_EQ(serial.ess, parallel.ess)
                << threads << " threads";
            EXPECT_EQ(serial.trials, parallel.trials);
        }
    }
}

TEST(RunMc, ImportanceSampledAlsoDeterministic)
{
    McSpec spec = boostedSpec();
    spec.sampler = model::Sampler::FixedZerosBatched;
    spec.mode = model::Mode::ImportanceSampled;
    const McEstimate serial = model::runMc(spec);
    for (const unsigned threads : {2u, 8u}) {
        ThreadPool pool(threads);
        const McEstimate parallel = model::runMc(spec, pool);
        EXPECT_EQ(serial.mean, parallel.mean);
        EXPECT_EQ(serial.stderr, parallel.stderr);
        EXPECT_EQ(serial.ess, parallel.ess);
    }
}

TEST(RunMc, BatchedRaggedChunksCountAllTrials)
{
    // Neither the trial count nor the chunk size is a multiple of the
    // 64-lane block width: the last block of each chunk runs with a
    // partial lane mask and every trial is still counted exactly once.
    McSpec spec = boostedSpec();
    spec.sampler = model::Sampler::FixedZerosBatched;
    spec.trials = 10'001;
    spec.chunkSize = 1'000;
    const McEstimate serial = model::runMc(spec);
    EXPECT_EQ(serial.trials, 10'001u);
    ThreadPool pool(4);
    const McEstimate parallel = model::runMc(spec, pool);
    EXPECT_EQ(parallel.trials, 10'001u);
    EXPECT_EQ(serial.mean, parallel.mean);
}

TEST(RunMc, RaggedLastChunkCountsAllTrials)
{
    McSpec spec = boostedSpec();
    spec.trials = 10'001; // not a multiple of chunkSize
    spec.chunkSize = 1'000;
    const McEstimate serial = model::runMc(spec);
    EXPECT_EQ(serial.trials, 10'001u);
    ThreadPool pool(4);
    EXPECT_EQ(model::runMc(spec, pool).mean, serial.mean);
}

TEST(Campaign, CellsMatchSerialMachineRunners)
{
    using defense::DefenseKind;
    std::vector<sim::MachineConfig> configs(2);
    configs[0].defense = DefenseKind::None;
    configs[1].defense = DefenseKind::Cta;
    const std::vector<sim::AttackKind> attacks{
        sim::AttackKind::ProjectZero, sim::AttackKind::Algorithm1};

    sim::Campaign campaign;
    campaign.addGrid(configs, attacks);
    ASSERT_EQ(campaign.size(), 4u);

    ThreadPool pool(4);
    const sim::CampaignReport report = campaign.run(pool);
    ASSERT_EQ(report.cells.size(), 4u);

    std::size_t index = 0;
    for (const sim::AttackKind attack : attacks) {
        for (const sim::MachineConfig &config : configs) {
            sim::Machine machine(config);
            const attack::AttackResult expect =
                machine.runAttack(attack);
            const sim::CellResult &got = report.cells[index++];
            EXPECT_EQ(got.cell.attack, attack);
            EXPECT_EQ(got.cell.config.defense, config.defense);
            EXPECT_EQ(got.result.outcome, expect.outcome);
            EXPECT_EQ(got.result.hammerPasses, expect.hammerPasses);
            EXPECT_EQ(got.result.flipsInduced, expect.flipsInduced);
            EXPECT_EQ(got.result.ptesCorrupted,
                      expect.ptesCorrupted);
            EXPECT_EQ(got.result.selfReferences,
                      expect.selfReferences);
            EXPECT_EQ(got.result.attackTime, expect.attackTime);
        }
    }
}

TEST(Campaign, ParallelTableEqualsSerialTable)
{
    using defense::DefenseKind;
    std::vector<sim::MachineConfig> configs(2);
    configs[0].defense = DefenseKind::Para;
    configs[1].defense = DefenseKind::Anvil;

    sim::Campaign campaign;
    campaign.addGrid(configs, {sim::AttackKind::ProjectZero});
    const sim::CampaignReport serial = campaign.run();
    ThreadPool pool(4);
    const sim::CampaignReport parallel = campaign.run(pool);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].result.outcome,
                  parallel.cells[i].result.outcome);
        EXPECT_EQ(serial.cells[i].result.flipsInduced,
                  parallel.cells[i].result.flipsInduced);
        EXPECT_EQ(serial.cells[i].anvilTriggered,
                  parallel.cells[i].anvilTriggered);
    }
}

TEST(Campaign, DefaultLabelsNameAttackAndDefense)
{
    sim::MachineConfig config;
    config.defense = defense::DefenseKind::Cta;
    sim::Campaign campaign;
    campaign.add(config, sim::AttackKind::Drammer);
    EXPECT_EQ(campaign.cells().at(0).label,
              "Drammer templating vs CTA");
}

} // namespace
} // namespace ctamem
