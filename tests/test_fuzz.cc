/**
 * @file
 * Tests for the REF-interval timed hammer path and the pattern-fuzzing
 * subsystem: timed DisturbanceEvent coordinates, tREFI-boundary
 * pressure reset, the interval activation budget, the TRR-sampler
 * arms-race acceptance property (uniform suppressed, evolved pattern
 * flips cells), thread-count determinism of the evolutionary search,
 * and the manifest plumbing of the fuzz block.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/pattern.hh"
#include "runtime/thread_pool.hh"
#include "sim/campaign.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"

namespace ctamem {
namespace {

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

dram::DramConfig
timedConfig()
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.errors.pf = 5e-3; // boosted so victim rows have many flips
    config.seed = 7;
    return config;
}

/** Fill a whole row with one byte value. */
void
fillRow(dram::DramModule &module, std::uint64_t row,
        std::uint8_t value)
{
    std::vector<std::uint8_t> buffer(module.geometry().rowBytes(),
                                     value);
    module.write(row * module.geometry().rowBytes(), buffer.data(),
                 buffer.size());
}

/** Observer that records every DisturbanceEvent it sees. */
class CaptureObserver : public dram::DisturbanceObserver
{
  public:
    bool
    onHammer(const dram::DisturbanceEvent &event) override
    {
        events.push_back(event);
        return false;
    }

    std::vector<dram::DisturbanceEvent> events;
};

/** The trr-arms-race manifest cell as an in-process fuzz target. */
fuzz::FuzzTarget
armsRaceTarget()
{
    fuzz::FuzzTarget target;
    target.dram.capacity = 64 * MiB;
    target.dram.rowBytes = 128 * KiB;
    target.dram.banks = 1;
    target.dram.errors.pf = 1e-3;
    target.dram.seed = 1234;
    target.bank = 0;
    target.baseRow = 8;
    target.makeObserver = [] {
        return std::make_unique<defense::TrrSamplerObserver>(
            1, 2, deriveSeed(1234, seeds::kTrrSamplerStream));
    };
    return target;
}

fuzz::FuzzParams
armsRaceParams()
{
    fuzz::FuzzParams params;
    params.population = 12;
    params.generations = 6;
    params.windows = 1;
    params.timing.refsPerWindow = 1024;
    params.timing.actsPerInterval = 1300;
    params.builder.arenaRows = 32;
    params.builder.maxEntries = 8;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 12;
    return params;
}

TEST(TimedHammer, EventsCarryRefClockCoordinates)
{
    dram::DramModule module(timedConfig());
    CaptureObserver observer;
    dram::RowHammerEngine engine(module, &observer);
    engine.setRefTiming({8, 64});

    dram::HammerResult result;
    engine.activate(0, 5, 10, 3, result);
    ASSERT_EQ(observer.events.size(), 1u);
    EXPECT_TRUE(observer.events[0].timed);
    EXPECT_EQ(observer.events[0].refInterval, 0u);
    EXPECT_EQ(observer.events[0].phase, 3u);
    EXPECT_EQ(observer.events[0].aggressorRow, 5u);
    EXPECT_EQ(observer.events[0].activations, 10u);

    // The interval index advances with retired REFs.
    engine.refTick(0, result);
    engine.refTick(0, result);
    EXPECT_EQ(engine.refInterval(), 2u);
    engine.activate(0, 5, 10, 0, result);
    ASSERT_EQ(observer.events.size(), 2u);
    EXPECT_EQ(observer.events[1].refInterval, 2u);

    // Untimed whole-window passes are not REF-clocked.
    engine.hammerRow(0, 5);
    ASSERT_GE(observer.events.size(), 3u);
    EXPECT_FALSE(observer.events.back().timed);
    EXPECT_EQ(observer.events.back().refInterval, 0u);
    EXPECT_EQ(observer.events.back().phase, 0u);
}

TEST(TimedHammer, RefreshSlotResetsAccumulatedPressure)
{
    // The same total activation dose, delivered (a) inside one
    // refresh window and (b) split across the victim's refresh slot,
    // must disturb differently: the intervening refresh restores full
    // charge, so each half evaluates at half intensity.
    const std::uint64_t half =
        dram::RowHammerEngine::activationsPerPass / 4;

    dram::DramModule full_module(timedConfig());
    dram::RowHammerEngine full_engine(full_module);
    full_engine.setRefTiming({4, 2 * half});
    for (std::uint64_t row = 2; row <= 6; ++row)
        fillRow(full_module, row, 0xff);
    dram::HammerResult full;
    full_engine.activate(0, 3, 2 * half, 0, full);
    full_engine.activate(0, 5, 2 * half, 1, full);
    full_engine.drainPressure(0, full);
    EXPECT_GT(full.flips10, 0u);
    EXPECT_EQ(full_engine.pendingPressureRows(), 0u);

    dram::DramModule split_module(timedConfig());
    dram::RowHammerEngine split_engine(split_module);
    split_engine.setRefTiming({4, 2 * half});
    for (std::uint64_t row = 2; row <= 6; ++row)
        fillRow(split_module, row, 0xff);
    dram::HammerResult split;
    split_engine.activate(0, 3, half, 0, split);
    split_engine.activate(0, 5, half, 1, split);
    // Victim row 4 is refreshed by the interval-0 REF (4 % 4 == 0):
    // its half-window pressure is evaluated and cleared there.
    for (int tick = 0; tick < 4; ++tick)
        split_engine.refTick(0, split);
    split_engine.activate(0, 3, half, 0, split);
    split_engine.activate(0, 5, half, 1, split);
    split_engine.drainPressure(0, split);
    EXPECT_EQ(split_engine.pendingPressureRows(), 0u);

    // Same dose, strictly fewer flips: the boundary reset is real.
    EXPECT_LT(split.flips10, full.flips10);
}

TEST(TimedHammer, PatternReplayRespectsIntervalBudget)
{
    dram::DramModule module(timedConfig());
    CaptureObserver observer;
    dram::RowHammerEngine engine(module, &observer);
    const dram::RefTiming timing{16, 100};
    engine.setRefTiming(timing);

    // Three pairs asking for 100 activations per aggressor would
    // consume 600 per interval — six times the budget.
    fuzz::HammeringPattern pattern;
    pattern.periodIntervals = 1;
    for (std::uint64_t entry = 0; entry < 3; ++entry)
        pattern.entries.push_back(
            {2 + 4 * entry, 2, 1, 0, entry, 100});

    fuzz::runPattern(engine, pattern, {0, 8, 1});

    std::map<std::uint64_t, std::uint64_t> perInterval;
    for (const dram::DisturbanceEvent &event : observer.events) {
        ASSERT_TRUE(event.timed);
        perInterval[event.refInterval] += event.activations;
    }
    ASSERT_FALSE(perInterval.empty());
    for (const auto &[interval, activations] : perInterval)
        EXPECT_LE(activations, timing.actsPerInterval)
            << "interval " << interval << " over budget";
}

TEST(TrrSampler, UniformHammerIsReliablySuppressed)
{
    sim::MachineConfig config;
    config.memBytes = 64 * MiB;
    config.defense = defense::DefenseKind::TrrSampler;
    config.trrSamplers = 1;
    config.trrWindow = 2;
    config.fuzz = armsRaceParams();
    sim::Machine machine(config);

    const attack::AttackResult result =
        machine.runAttack(sim::AttackKind::UniformHammer);
    EXPECT_EQ(result.outcome, attack::Outcome::Detected);
    EXPECT_EQ(result.flipsInduced, 0u);
}

TEST(PatternFuzzer, EvolvesATrrSamplerBypass)
{
    // The arms-race acceptance property: against a sampler that
    // reliably suppresses uniform hammering (previous test), the
    // evolutionary search still finds a pattern flipping >= 1 cell.
    fuzz::PatternFuzzer fuzzer(armsRaceTarget(), armsRaceParams());

    // The fixed REF-synchronized family is sampled (and its sandwich
    // victim target-refreshed) every interval, so it scores at most
    // stray outer-victim flips.  The search must clearly beat it.
    const fuzz::FuzzParams params = armsRaceParams();
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    const std::uint64_t syncFlips =
        fuzzer.evaluate(builder.family("sync"));

    const fuzz::FuzzOutcome outcome = fuzzer.run();
    EXPECT_GE(outcome.bestFlips, 1u);
    EXPECT_GT(outcome.bestFlips, syncFlips);
    EXPECT_NE(outcome.firstBypassGeneration, ~0ULL);
    EXPECT_EQ(outcome.patternsEvaluated,
              params.population * params.generations);

    // The winning pattern replays to the same score.
    EXPECT_EQ(fuzzer.evaluate(outcome.best), outcome.bestFlips);
}

TEST(PatternFuzzer, OutcomeIsIdenticalAtAnyThreadCount)
{
    fuzz::FuzzParams params = armsRaceParams();
    params.population = 8;
    params.generations = 3;

    fuzz::PatternFuzzer serial_fuzzer(armsRaceTarget(), params);
    const fuzz::FuzzOutcome serial = serial_fuzzer.run();

    for (const unsigned threads : {1u, 4u, 8u}) {
        runtime::ThreadPool pool(threads);
        fuzz::PatternFuzzer fuzzer(armsRaceTarget(), params);
        const fuzz::FuzzOutcome outcome = fuzzer.run(&pool);
        EXPECT_EQ(outcome.best.hash(), serial.best.hash())
            << threads << " worker(s)";
        EXPECT_EQ(outcome.bestFlips, serial.bestFlips)
            << threads << " worker(s)";
        EXPECT_EQ(outcome.best, serial.best) << threads
                                             << " worker(s)";
    }
}

/**
 * Thirty searches on the trr-arms-race target — the scenario's own
 * search seed, then 29 derived ones — serially and on a four-worker
 * pool.  Each record holds the search seed and what the search found.
 */
json::Json
captureSearchOutcomes(std::vector<fuzz::FuzzOutcome> &outcomes)
{
    runtime::ThreadPool pool(4);
    json::Json records = json::Json::array();
    for (std::uint64_t i = 0; i < 30; ++i) {
        fuzz::FuzzParams params = armsRaceParams();
        params.seed = i == 0 ? 0 : deriveSeed(0xf0c5, i);
        fuzz::PatternFuzzer serial(armsRaceTarget(), params);
        fuzz::PatternFuzzer pooled(armsRaceTarget(), params);
        outcomes.push_back(serial.run());
        outcomes.push_back(pooled.run(&pool));
        for (const fuzz::FuzzOutcome *outcome :
             {&outcomes[outcomes.size() - 2], &outcomes.back()}) {
            json::Json record = json::Json::object();
            record.set("seed", serial.seed())
                .set("bestFlips", outcome->bestFlips)
                .set("bestHash", outcome->best.hash())
                .set("firstBypassGeneration",
                     outcome->firstBypassGeneration)
                .set("patternsEvaluated", outcome->patternsEvaluated);
            records.push(std::move(record));
        }
    }
    return records;
}

TEST(PatternFuzzer, SearchOutcomesMatchTheCheckedInGolden)
{
    // Captured before elite scores were carried between generations
    // and replays were compiled to their period: both must leave
    // every search's answer as it was.
    std::vector<fuzz::FuzzOutcome> outcomes;
    const json::Json actual = captureSearchOutcomes(outcomes);
    const json::Json golden =
        json::Json::parseFile(repoPath("tests/golden/fuzz_outcomes.json"));
    ASSERT_EQ(golden.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual.items()[i], golden.items()[i])
            << "search " << i / 2 << (i % 2 ? " (pool)" : " (serial)")
            << ": " << actual.items()[i].dump();
    }

    // Only the non-elite children of later generations are replayed.
    const fuzz::FuzzParams params = armsRaceParams();
    const std::uint64_t elite = params.population / 4;
    const std::uint64_t replays =
        params.population +
        (params.generations - 1) * (params.population - elite);
    EXPECT_EQ(replays, 57u);
    for (const fuzz::FuzzOutcome &outcome : outcomes)
        EXPECT_EQ(outcome.replays, replays);
    // The scenario's own search still finds its bypass at once.
    EXPECT_EQ(outcomes[0].bestFlips, 1288u);
    EXPECT_EQ(outcomes[0].firstBypassGeneration, 0u);
}

TEST(PatternFuzzer, ZeroBoundsAreRejectedAtConstruction)
{
    // Callers that build FuzzParams directly get the manifest
    // layer's precondition too, before any pattern is drawn.
    const auto rejects = [](void (*zero)(fuzz::FuzzParams &)) {
        fuzz::FuzzParams params = armsRaceParams();
        zero(params);
        EXPECT_THROW(fuzz::PatternFuzzer(armsRaceTarget(), params),
                     FatalError);
    };
    rejects([](fuzz::FuzzParams &p) { p.builder.maxPeriod = 0; });
    rejects([](fuzz::FuzzParams &p) { p.builder.maxSlots = 0; });
    rejects([](fuzz::FuzzParams &p) { p.builder.maxEntries = 0; });
    rejects([](fuzz::FuzzParams &p) { p.timing.actsPerInterval = 0; });
    rejects([](fuzz::FuzzParams &p) { p.timing.refsPerWindow = 0; });
    rejects([](fuzz::FuzzParams &p) { p.windows = 0; });

    fuzz::BuilderParams builder;
    builder.maxSlots = 0;
    EXPECT_THROW(fuzz::PatternBuilder(builder, dram::RefTiming{}),
                 FatalError);
}

TEST(FuzzScenario, ArmsRaceManifestLoads)
{
    const sim::Campaign campaign = sim::Campaign::fromManifest(
        repoPath("scenarios/trr-arms-race.json"));
    EXPECT_EQ(campaign.size(), 3u);
}

TEST(FuzzScenario, MachineConfigFuzzBlockRoundTrips)
{
    sim::MachineConfig config;
    config.trrSamplers = 2;
    config.trrWindow = 3;
    config.fuzz.population = 20;
    config.fuzz.generations = 9;
    config.fuzz.windows = 2;
    config.fuzz.seed = 99;
    config.fuzz.timing.refsPerWindow = 512;
    config.fuzz.timing.actsPerInterval = 640;
    config.fuzz.builder.arenaRows = 24;
    config.fuzz.builder.maxEntries = 5;
    config.fuzz.builder.maxPeriod = 3;
    config.fuzz.builder.maxSlots = 7;

    const sim::MachineConfig parsed =
        sim::machineConfigFromJson(sim::toJson(config));
    EXPECT_EQ(parsed, config);
}

} // namespace
} // namespace ctamem
