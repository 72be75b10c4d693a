/**
 * @file
 * Blacksmith-style non-uniform hammering patterns.
 *
 * A HammeringPattern describes *when* aggressor rows are activated
 * within the refresh clock, not just how often: each entry is an
 * aggressor (or aggressor pair) with a frequency and phase in tREFI
 * intervals, an issue slot ordering its bursts within the interval,
 * and an activation amplitude.  Replayed through the engine's timed
 * path (RowHammerEngine::activate / refTick), patterns occupy the
 * frequency/phase/amplitude search space Blacksmith showed slips
 * past in-DRAM TRR samplers — e.g. decoy activations leading each
 * interval so the sampler's latch window never sees the real pair.
 *
 * PatternBuilder supplies the evolutionary operators (random,
 * mutate, crossover) plus named seed families replicating published
 * pattern shapes; everything draws from a caller-provided Rng so the
 * fuzzer's counter-seeding keeps the search bit-reproducible.
 */

#ifndef CTAMEM_FUZZ_PATTERN_HH
#define CTAMEM_FUZZ_PATTERN_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "dram/hammer.hh"

namespace ctamem::fuzz {

/**
 * One scheduled aggressor within a pattern.  Rows are offsets from
 * the replay's base row, so a pattern is position-independent and
 * can be templated anywhere in a bank.
 */
struct PatternEntry
{
    std::uint64_t rowOffset = 2;  //!< first aggressor, from base row
    /** Second aggressor at rowOffset + pairGap; 0 = single-sided. */
    std::uint64_t pairGap = 2;
    std::uint64_t frequency = 1;  //!< fires every this many intervals
    std::uint64_t phase = 0;      //!< interval residue it fires on
    std::uint64_t slot = 0;       //!< issue order within the interval
    std::uint64_t activations = 32; //!< per burst, per aggressor

    bool operator==(const PatternEntry &) const = default;
};

/** A frequency/phase-structured aggressor schedule. */
struct HammeringPattern
{
    /** Nominal period in tREFI intervals (bounds mutation ranges). */
    std::uint64_t periodIntervals = 4;
    std::vector<PatternEntry> entries;

    /** Order-sensitive content hash (the determinism fingerprint). */
    std::uint64_t hash() const;

    bool operator==(const HammeringPattern &) const = default;
};

/** Search-space bounds of the builder's operators. */
struct BuilderParams
{
    std::uint64_t arenaRows = 48; //!< rows the replay may touch
    std::uint64_t maxEntries = 8;
    std::uint64_t maxPeriod = 4;
    std::uint64_t maxSlots = 16;

    bool operator==(const BuilderParams &) const = default;
};

/** Evolutionary operators + published seed families. */
class PatternBuilder
{
  public:
    /**
     * Fatals when maxEntries, maxPeriod, maxSlots or the timing's
     * actsPerInterval is zero: the operators draw uniformly below
     * each of them.
     */
    PatternBuilder(const BuilderParams &params,
                   const dram::RefTiming &timing);

    /** A uniformly random pattern within the bounds. */
    HammeringPattern random(Rng &rng) const;

    /** One mutation step (amplitude/slot/row/frequency/add/drop). */
    HammeringPattern mutate(const HammeringPattern &pattern,
                            Rng &rng) const;

    /** Single-point entry crossover of two parents. */
    HammeringPattern crossover(const HammeringPattern &a,
                               const HammeringPattern &b,
                               Rng &rng) const;

    /**
     * Named seed pattern (see patternFamilies()); fatals on an
     * unknown name.
     */
    HammeringPattern family(std::string_view name) const;

  private:
    PatternEntry randomEntry(Rng &rng) const;

    BuilderParams params_;
    dram::RefTiming timing_;
};

/**
 * The seed families the fuzzer's generation 0 starts from:
 *  - "sync":       one double-sided pair saturating every interval
 *                  from slot 0 (the classic REF-synchronized hammer);
 *  - "single":     one single-sided aggressor, full budget;
 *  - "decoy-lead": a small decoy pair leading each interval, the
 *                  real pair in later slots (the TRR-sampler bypass);
 *  - "freq-split": two pairs alternating intervals at frequency 2.
 */
const std::vector<std::string> &patternFamilies();

/** Placement of one pattern replay. */
struct PatternRun
{
    std::uint64_t bank = 0;
    std::uint64_t baseRow = 0; //!< logical row entry offsets add to
    std::uint64_t windows = 1; //!< refresh windows to replay for
};

/**
 * Replay @p pattern through @p engine's timed path: for each tREFI
 * interval, issue the entries whose (frequency, phase) select it in
 * ascending (slot, entry index) order — clamped to the interval's
 * activation budget — then retire one REF.  Outstanding pressure is
 * drained (evaluated) at the end, so a one-window run still counts
 * the flips of rows whose refresh slot already passed.  The schedule
 * repeats with the lcm of the entry frequencies, so it is compiled
 * to one burst list per residue of that period before the replay.
 */
dram::HammerResult runPattern(dram::RowHammerEngine &engine,
                              const HammeringPattern &pattern,
                              const PatternRun &run);

} // namespace ctamem::fuzz

#endif // CTAMEM_FUZZ_PATTERN_HH
