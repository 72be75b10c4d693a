/**
 * @file
 * Evolutionary search for TRR-bypassing hammering patterns.
 *
 * PatternFuzzer runs a (mu + lambda)-style loop over
 * HammeringPatterns: generation 0 seeds from the published pattern
 * families plus random fill, each candidate is scored by replaying
 * its REF schedule on a *private* engine (same module seed as the
 * target) against a freshly built defense observer, and survivors
 * are selected on flips induced.  Scoring needs no backing store:
 * evaluate() counts the cells the replay's peak per-row intensities
 * trip in a flip-ready arena, from the sorted trip thresholds the
 * arena's cached row profiles carry.  A score is a pure function of
 * the pattern, so elites that survive a generation verbatim keep
 * theirs instead of being replayed.  All randomness is
 * counter-seeded — child i of generation g draws from
 * Rng(deriveSeed(seed, g * stride + i)) —
 * and results merge by population index, so the best pattern is
 * bit-identical whether evaluations run serially or on any
 * runtime::ThreadPool width (the campaign determinism contract).
 *
 * The layer sits above dram and runtime only: defenses reach the
 * fuzzer as an opaque observer factory, so defense/ (and attack/,
 * which replays fuzzer output) can depend on fuzz/ without a cycle.
 */

#ifndef CTAMEM_FUZZ_FUZZER_HH
#define CTAMEM_FUZZ_FUZZER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dram/module.hh"
#include "fuzz/pattern.hh"

namespace ctamem::runtime {
class ThreadPool;
}

namespace ctamem::fuzz {

/** Search configuration (serialized in scenario manifests). */
struct FuzzParams
{
    std::uint64_t population = 16;
    std::uint64_t generations = 6;
    std::uint64_t windows = 1; //!< refresh windows per evaluation
    /** 0 derives the search seed from the target module's seed. */
    std::uint64_t seed = 0;
    BuilderParams builder;
    dram::RefTiming timing;

    bool operator==(const FuzzParams &) const = default;
};

/**
 * Fatal, naming the key, unless windows, refsPerWindow,
 * actsPerInterval, maxEntries, maxPeriod and maxSlots are all at
 * least 1: the search draws uniformly below the bounds (zero divides
 * by zero) and a zero-interval replay scores nothing.  The manifest
 * layer and the PatternFuzzer constructor share this precondition.
 */
void checkParams(const FuzzParams &params);

/** What the fuzzer attacks: a module config + a defense factory. */
struct FuzzTarget
{
    dram::DramConfig dram;
    std::uint64_t bank = 0;
    std::uint64_t baseRow = 8; //!< arena start (entry offsets add)
    /**
     * Builds one defense observer per evaluation (each candidate
     * faces a fresh mitigation state).  Every call must return an
     * observer in the same initial state — the determinism contract
     * already requires it, and the search relies on it to carry
     * elite scores.  Null = undefended module.
     */
    std::function<std::unique_ptr<dram::DisturbanceObserver>()>
        makeObserver;
};

/** Result of one fuzzing run. */
struct FuzzOutcome
{
    HammeringPattern best;
    std::uint64_t bestFlips = 0;
    /** Candidates ranked: population x generations. */
    std::uint64_t patternsEvaluated = 0;
    /**
     * Replays actually run: the whole first generation, then only
     * each later generation's non-elite children.
     */
    std::uint64_t replays = 0;
    std::uint64_t generations = 0;
    /** First generation with any flips; ~0 when never bypassed. */
    std::uint64_t firstBypassGeneration = ~0ULL;
};

/** Evolutionary pattern search against one target. */
class PatternFuzzer
{
  public:
    /** Fatals on @p params that fail checkParams(). */
    PatternFuzzer(FuzzTarget target, const FuzzParams &params);

    /**
     * Run the search; @p pool parallelizes candidate evaluations
     * (null = serial).  Same target + params give the same outcome
     * at any pool width.
     */
    FuzzOutcome run(runtime::ThreadPool *pool = nullptr);

    /**
     * Score one pattern: the flips its replay induces on a fresh
     * target replica whose arena — rows baseRow - 1 through
     * baseRow + arenaRows + 1 — is primed flip-ready (every
     * vulnerable cell stores the value its direction consumes) and
     * whose other rows hold the module's fill.  Computed without
     * materializing that replica: in such an arena each cell flips at
     * most once and the tripped sets nest by threshold, so a row's
     * flips are its flip-ready cells with threshold <= the peak
     * intensity its pressure reached.  Thread-safe and a pure
     * function of @p pattern.  The first call resolves the arena's
     * row profiles, whose threshold tables are built once per
     * profile and shared by every search over the same module.
     */
    std::uint64_t evaluate(const HammeringPattern &pattern) const;

    /** The resolved search seed (after the 0 = derive default). */
    std::uint64_t seed() const { return seed_; }

  private:
    /**
     * Sorted trip thresholds of each primed arena device row, owned
     * by the row profiles arenaProfiles_ keeps alive.
     */
    using ArenaThresholds =
        std::unordered_map<std::uint64_t, const std::vector<double> *>;

    /** The arena's tables, resolved on first use. */
    const ArenaThresholds &arenaThresholds() const;

    FuzzTarget target_;
    FuzzParams params_;
    PatternBuilder builder_;
    std::uint64_t seed_;
    mutable std::once_flag arenaOnce_;
    mutable std::vector<std::shared_ptr<const dram::RowVulnProfile>>
        arenaProfiles_;
    mutable ArenaThresholds arena_;
};

/** @name Process-wide fuzzer progress counters
 *
 * Aggregated across every PatternFuzzer in the process, exported
 * through the ctamemd `stats` response beside the profile-cache
 * counters — long fuzz campaigns are monitored the same way cell
 * sweeps are.
 */
/** @{ */

struct FuzzStats
{
    std::uint64_t runs = 0;              //!< completed run() calls
    std::uint64_t patternsEvaluated = 0;
    std::uint64_t generations = 0;
    std::uint64_t bypassesFound = 0;     //!< runs with bestFlips > 0
    std::uint64_t bestFlips = 0;         //!< max over all runs
};

FuzzStats fuzzStats();

/** @} */

} // namespace ctamem::fuzz

#endif // CTAMEM_FUZZ_FUZZER_HH
