/**
 * @file
 * Equivalence of the fuzzer's store-free scorer with store replay.
 *
 * PatternFuzzer::evaluate() scores a candidate from the peak pressure
 * intensities of its REF schedule and per-row trip-threshold tables.
 * The oracle here is the scorer it replaced, rebuilt from public
 * APIs: boot a fresh module and engine, prime the arena flip-ready
 * (every vulnerable cell stores the value its flip direction
 * consumes), replay the pattern through runPattern and count the
 * flips the store actually took.  The two must agree on every
 * pattern: the published families and over a thousand random,
 * crossover and mutant candidates on the trr-arms-race target, plus
 * edge targets — the bank's first row, an arena running into the
 * bank's last row, one- and two-row arenas whose patterns reach rows
 * outside the primed range, two refresh windows, mixed cell types and
 * an undefended module.  A race test covers the trip-threshold tables
 * the scorer reads from the shared row profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/pattern.hh"
#include "runtime/thread_pool.hh"

namespace ctamem {
namespace {

/**
 * The store-replay score: flips a private, flip-ready replica of the
 * target takes when @p pattern is replayed on it.
 */
std::uint64_t
storeReplayScore(const fuzz::FuzzTarget &target,
                 const fuzz::FuzzParams &params,
                 const fuzz::HammeringPattern &pattern)
{
    dram::DramModule module(target.dram);
    std::unique_ptr<dram::DisturbanceObserver> observer;
    if (target.makeObserver)
        observer = target.makeObserver();
    dram::RowHammerEngine engine(module, observer.get());
    engine.setRefTiming(params.timing);

    const std::uint64_t rows = module.geometry().rowsPerBank();
    const std::uint64_t first =
        target.baseRow > 0 ? target.baseRow - 1 : 0;
    const std::uint64_t last =
        std::min(rows, target.baseRow + params.builder.arenaRows + 2);
    for (std::uint64_t row = first; row < last; ++row) {
        const std::uint64_t device = module.deviceRow(target.bank, row);
        const dram::RowVulnProfile &profile =
            engine.rowProfile(target.bank, device);
        if (!profile.mapped)
            continue;
        for (const dram::MaskWord &mw : profile.words)
            module.writeU64(profile.base + mw.word * 8ULL, mw.dir10);
    }

    fuzz::PatternRun run;
    run.bank = target.bank;
    run.baseRow = target.baseRow;
    run.windows = params.windows;
    return fuzz::runPattern(engine, pattern, run).total();
}

/** The trr-arms-race manifest cell. */
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
    params.timing.refsPerWindow = 1024;
    params.timing.actsPerInterval = 1300;
    params.builder.arenaRows = 32;
    params.builder.maxEntries = 8;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 12;
    return params;
}

/**
 * A small two-bank module for the edge targets: 256 rows a bank,
 * cell types alternating every 8 rows, boosted pf so short arenas
 * still carry flips.  The REF clock keeps a saturating pattern at
 * the untimed pass dose.
 */
fuzz::FuzzTarget
edgeTarget(std::uint64_t base_row)
{
    fuzz::FuzzTarget target;
    target.dram.capacity = 16 * MiB;
    target.dram.rowBytes = 32 * KiB;
    target.dram.banks = 2;
    target.dram.cellMap = dram::CellTypeMap::alternating(8);
    target.dram.errors.pf = 5e-3;
    target.dram.seed = 99;
    target.bank = 1;
    target.baseRow = base_row;
    target.makeObserver = [] {
        return std::make_unique<defense::TrrSamplerObserver>(1, 2, 5);
    };
    return target;
}

fuzz::FuzzParams
edgeParams(std::uint64_t arena_rows)
{
    fuzz::FuzzParams params;
    params.timing.refsPerWindow = 64;
    params.timing.actsPerInterval = 20400;
    params.builder.arenaRows = arena_rows;
    params.builder.maxEntries = 6;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 8;
    return params;
}

/**
 * The published families, then @p count seeded candidates in the
 * fuzzer's own shapes: random, mutant, and mutated crossovers (of
 * two randoms, or of a family with a random).
 */
std::vector<fuzz::HammeringPattern>
candidates(const fuzz::FuzzParams &params, std::uint64_t count)
{
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    std::vector<fuzz::HammeringPattern> patterns;
    for (const std::string &family : fuzz::patternFamilies())
        patterns.push_back(builder.family(family));
    for (std::uint64_t i = 0; i < count; ++i) {
        Rng rng(deriveSeed(0x5c0e, i));
        const fuzz::HammeringPattern a = builder.random(rng);
        switch (i % 4) {
          case 0:
            patterns.push_back(a);
            break;
          case 1:
            patterns.push_back(builder.mutate(a, rng));
            break;
          case 2:
            patterns.push_back(builder.mutate(
                builder.crossover(a, builder.random(rng), rng), rng));
            break;
          default:
            patterns.push_back(builder.mutate(
                builder.crossover(patterns[(i / 4) % 4], a, rng), rng));
            break;
        }
    }
    return patterns;
}

/** Score every candidate both ways; returns how many scored > 0. */
std::uint64_t
expectEquivalent(const fuzz::FuzzTarget &target,
                 const fuzz::FuzzParams &params, std::uint64_t count)
{
    const fuzz::PatternFuzzer fuzzer(target, params);
    std::uint64_t nonzero = 0;
    std::uint64_t index = 0;
    for (const fuzz::HammeringPattern &pattern :
         candidates(params, count)) {
        const std::uint64_t expected =
            storeReplayScore(target, params, pattern);
        EXPECT_EQ(fuzzer.evaluate(pattern), expected)
            << "candidate " << index << " (hash " << pattern.hash()
            << ")";
        nonzero += expected > 0;
        ++index;
    }
    return nonzero;
}

TEST(FuzzScorer, MatchesStoreReplayOnTheArmsRace)
{
    const std::uint64_t nonzero =
        expectEquivalent(armsRaceTarget(), armsRaceParams(), 1000);
    // Most candidates flip something; the identity is exercised.
    EXPECT_GT(nonzero, 500u);
}

TEST(FuzzScorer, MatchesAtTheBanksFirstRow)
{
    EXPECT_GT(expectEquivalent(edgeTarget(0), edgeParams(24), 150), 0u);
}

TEST(FuzzScorer, MatchesWhenTheArenaRunsIntoTheLastRow)
{
    // Aggressors reach the bank's last row; the sampler then targets
    // the row past it, and longer family offsets fall off the bank.
    const std::uint64_t rows = 256;
    EXPECT_GT(expectEquivalent(edgeTarget(rows - 24), edgeParams(24),
                               150),
              0u);
    EXPECT_GT(expectEquivalent(edgeTarget(rows - 4), edgeParams(2), 50),
              0u);
}

TEST(FuzzScorer, MatchesOnArenasShorterThanThePatterns)
{
    // One- and two-row arenas: the families and pair gaps reach
    // victims outside the primed range, which hold the module fill.
    EXPECT_GT(expectEquivalent(edgeTarget(40), edgeParams(1), 150), 0u);
    EXPECT_GT(expectEquivalent(edgeTarget(40), edgeParams(2), 150), 0u);
}

TEST(FuzzScorer, MatchesOverTwoWindows)
{
    fuzz::FuzzParams params = edgeParams(16);
    params.windows = 2;
    EXPECT_GT(expectEquivalent(edgeTarget(100), params, 150), 0u);
}

TEST(FuzzScorer, MatchesWithoutAnObserver)
{
    fuzz::FuzzTarget target = edgeTarget(60);
    target.makeObserver = nullptr;
    EXPECT_GT(expectEquivalent(target, edgeParams(16), 150), 0u);
}

TEST(FuzzScorer, ConcurrentFirstUseSortsEachProfileOnce)
{
    // A module seed no other test uses, so these profiles' threshold
    // tables do not exist yet: racing first requests — from bare
    // threads and from two searches' evaluations — must all see one
    // finished table per profile.
    fuzz::FuzzTarget target = armsRaceTarget();
    target.dram.seed = 0x51ab0e;
    const fuzz::FuzzParams params = armsRaceParams();

    dram::DramModule module(target.dram);
    dram::RowHammerEngine engine(module);
    std::vector<std::shared_ptr<const dram::RowVulnProfile>> profiles;
    for (std::uint64_t row = 0; row < 48; ++row)
        profiles.push_back(engine.sharedRowProfile(0, row));

    runtime::ThreadPool pool(4);
    std::vector<const std::vector<double> *> seen(4 * profiles.size());
    pool.parallelFor(
        0, seen.size(),
        [&](std::uint64_t i) {
            seen[i] = &profiles[i % profiles.size()]->sortedThresholds(
                module.faults());
        },
        /*grain=*/1);

    const std::vector<fuzz::HammeringPattern> patterns =
        candidates(params, 28);
    const fuzz::PatternFuzzer first(target, params);
    const fuzz::PatternFuzzer second(target, params);
    std::vector<std::uint64_t> scores(2 * patterns.size());
    pool.parallelFor(
        0, scores.size(),
        [&](std::uint64_t i) {
            const fuzz::PatternFuzzer &fuzzer = i % 2 ? second : first;
            scores[i] = fuzzer.evaluate(patterns[i / 2]);
        },
        /*grain=*/1);

    for (std::size_t p = 0; p < profiles.size(); ++p) {
        // The table is the row's vulnerable cells' thresholds, sorted.
        std::vector<double> expected;
        for (const dram::VulnerableBit &cell : engine.vulnerableBits(0, p))
            expected.push_back(cell.threshold);
        for (std::size_t i = p; i < seen.size(); i += profiles.size()) {
            EXPECT_EQ(seen[i], seen[p]) << "row " << p;
        }
        EXPECT_EQ(*seen[p], expected) << "row " << p;
        EXPECT_EQ(&profiles[p]->sortedThresholds(module.faults()),
                  seen[p]);
    }
    for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i],
                  storeReplayScore(target, params, patterns[i / 2]))
            << "candidate " << i / 2;
    }
}

} // namespace
} // namespace ctamem
