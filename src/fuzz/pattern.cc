#include "fuzz/pattern.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hh"

namespace ctamem::fuzz {

std::uint64_t
HammeringPattern::hash() const
{
    std::uint64_t h = stableHash(
        periodIntervals, static_cast<std::uint64_t>(entries.size()));
    for (const PatternEntry &entry : entries) {
        h = stableHash(h, entry.rowOffset, entry.pairGap,
                       entry.frequency, entry.phase, entry.slot,
                       entry.activations);
    }
    return h;
}

PatternBuilder::PatternBuilder(const BuilderParams &params,
                               const dram::RefTiming &timing)
    : params_(params), timing_(timing)
{
    const std::pair<const char *, std::uint64_t> bounds[] = {
        {"maxEntries", params.maxEntries},
        {"maxPeriod", params.maxPeriod},
        {"maxSlots", params.maxSlots},
        {"actsPerInterval", timing.actsPerInterval}};
    for (const auto &[key, value] : bounds) {
        if (value == 0)
            fatal("fuzz.", key, " must be at least 1");
    }
}

PatternEntry
PatternBuilder::randomEntry(Rng &rng) const
{
    PatternEntry entry;
    entry.rowOffset = rng.below(
        params_.arenaRows > 2 ? params_.arenaRows - 2 : 1);
    entry.pairGap = 2 * rng.below(2); // 0 (single) or 2 (pair)
    entry.frequency = 1 + rng.below(params_.maxPeriod);
    entry.phase = rng.below(entry.frequency);
    entry.slot = rng.below(params_.maxSlots);
    entry.activations = 1 + rng.below(timing_.actsPerInterval);
    return entry;
}

HammeringPattern
PatternBuilder::random(Rng &rng) const
{
    HammeringPattern pattern;
    pattern.periodIntervals = 1 + rng.below(params_.maxPeriod);
    const std::uint64_t count = 1 + rng.below(params_.maxEntries);
    pattern.entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        pattern.entries.push_back(randomEntry(rng));
    return pattern;
}

HammeringPattern
PatternBuilder::mutate(const HammeringPattern &pattern,
                       Rng &rng) const
{
    HammeringPattern mutant = pattern;
    if (mutant.entries.empty()) {
        mutant.entries.push_back(randomEntry(rng));
        return mutant;
    }

    const std::uint64_t op = rng.below(6);
    const std::uint64_t which = rng.below(mutant.entries.size());
    PatternEntry &entry = mutant.entries[which];
    switch (op) {
      case 0: // amplitude
        entry.activations = 1 + rng.below(timing_.actsPerInterval);
        break;
      case 1: // issue order
        entry.slot = rng.below(params_.maxSlots);
        break;
      case 2: // placement
        entry.rowOffset = rng.below(
            params_.arenaRows > 2 ? params_.arenaRows - 2 : 1);
        entry.pairGap = 2 * rng.below(2);
        break;
      case 3: // frequency domain
        entry.frequency = 1 + rng.below(params_.maxPeriod);
        entry.phase = rng.below(entry.frequency);
        break;
      case 4: // grow
        if (mutant.entries.size() < params_.maxEntries)
            mutant.entries.push_back(randomEntry(rng));
        else
            entry.activations =
                1 + rng.below(timing_.actsPerInterval);
        break;
      default: // shrink
        if (mutant.entries.size() > 1)
            mutant.entries.erase(mutant.entries.begin() +
                                 static_cast<std::ptrdiff_t>(which));
        else
            entry.slot = rng.below(params_.maxSlots);
        break;
    }
    return mutant;
}

HammeringPattern
PatternBuilder::crossover(const HammeringPattern &a,
                          const HammeringPattern &b, Rng &rng) const
{
    HammeringPattern child;
    child.periodIntervals =
        rng.below(2) ? b.periodIntervals : a.periodIntervals;
    const std::uint64_t cutA = rng.below(a.entries.size() + 1);
    const std::uint64_t cutB = rng.below(b.entries.size() + 1);
    child.entries.assign(a.entries.begin(),
                         a.entries.begin() +
                             static_cast<std::ptrdiff_t>(cutA));
    child.entries.insert(child.entries.end(),
                         b.entries.begin() +
                             static_cast<std::ptrdiff_t>(cutB),
                         b.entries.end());
    if (child.entries.size() > params_.maxEntries)
        child.entries.resize(params_.maxEntries);
    if (child.entries.empty()) {
        child.entries.push_back(a.entries.empty()
                                    ? randomEntry(rng)
                                    : a.entries.front());
    }
    return child;
}

const std::vector<std::string> &
patternFamilies()
{
    static const std::vector<std::string> families{
        "sync", "single", "decoy-lead", "freq-split"};
    return families;
}

HammeringPattern
PatternBuilder::family(std::string_view name) const
{
    const std::uint64_t budget = timing_.actsPerInterval;
    HammeringPattern pattern;
    pattern.periodIntervals = 1;

    if (name == "sync") {
        pattern.entries.push_back(
            PatternEntry{0, 2, 1, 0, 0, budget / 2});
    } else if (name == "single") {
        pattern.entries.push_back(PatternEntry{0, 0, 1, 0, 0, budget});
    } else if (name == "decoy-lead") {
        // Decoys monopolize the sampler's early-slot latch window;
        // the real pair hammers from later slots, unobserved.
        const std::uint64_t decoy = 2;
        const std::uint64_t main_acts =
            budget > 4 * decoy ? (budget - 2 * decoy) / 2 : 1;
        pattern.entries.push_back(PatternEntry{6, 2, 1, 0, 0, decoy});
        pattern.entries.push_back(
            PatternEntry{0, 2, 1, 0, 8, main_acts});
    } else if (name == "freq-split") {
        pattern.periodIntervals = 2;
        pattern.entries.push_back(
            PatternEntry{0, 2, 2, 0, 0, budget / 2});
        pattern.entries.push_back(
            PatternEntry{4, 2, 2, 1, 0, budget / 2});
    } else {
        fatal("pattern family \"", std::string(name),
              "\" is not one of the known seeds");
    }
    return pattern;
}

dram::HammerResult
runPattern(dram::RowHammerEngine &engine,
           const HammeringPattern &pattern, const PatternRun &run)
{
    dram::HammerResult result;
    const dram::RefTiming &timing = engine.refTiming();
    const std::uint64_t rows =
        engine.module().geometry().rowsPerBank();
    const std::uint64_t intervals =
        run.windows * timing.refsPerWindow;

    // Issue order within an interval: ascending slot, entry index as
    // the tie-break (std::sort on the pair keeps it deterministic).
    std::vector<std::uint64_t> order(pattern.entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t lhs, std::uint64_t rhs) {
                  const std::uint64_t sl = pattern.entries[lhs].slot;
                  const std::uint64_t sr = pattern.entries[rhs].slot;
                  return sl != sr ? sl < sr : lhs < rhs;
              });
    // Entry i fires on the intervals t with t % frequency ==
    // phase % frequency, so which entries fire, and how the interval's
    // budget clamps their bursts, depends only on t modulo the lcm of
    // the frequencies.  Compile that period's burst lists once; past
    // the run's length nothing repeats, which also caps the lcm
    // before it can overflow.
    std::uint64_t period = 1;
    for (const PatternEntry &entry : pattern.entries) {
        const std::uint64_t step =
            period / std::gcd(period, entry.frequency);
        if (step > intervals / entry.frequency) {
            period = intervals;
            break;
        }
        period = step * entry.frequency;
    }

    struct Burst
    {
        std::uint64_t row;
        std::uint64_t acts;
        std::uint64_t position;
    };
    std::vector<Burst> bursts;
    // Residue r's bursts are bursts[starts[r], starts[r + 1]).
    std::vector<std::size_t> starts;
    starts.reserve(period + 1);
    for (std::uint64_t residue = 0; residue < period; ++residue) {
        starts.push_back(bursts.size());
        std::uint64_t budget = timing.actsPerInterval;
        std::uint64_t position = 0;
        for (const std::uint64_t index : order) {
            const PatternEntry &entry = pattern.entries[index];
            if (residue % entry.frequency !=
                entry.phase % entry.frequency) {
                continue; // not this entry's interval
            }
            const std::uint64_t count = entry.pairGap ? 2 : 1;
            for (std::uint64_t burst = 0; burst < count; ++burst) {
                if (budget == 0)
                    break;
                const std::uint64_t row = run.baseRow +
                                          entry.rowOffset +
                                          burst * entry.pairGap;
                const std::uint64_t acts =
                    std::min(entry.activations, budget);
                if (row < rows)
                    bursts.push_back(Burst{row, acts, position});
                budget -= acts;
                ++position;
            }
        }
    }
    starts.push_back(bursts.size());

    std::uint64_t residue = 0;
    for (std::uint64_t t = 0; t < intervals; ++t) {
        for (std::size_t b = starts[residue]; b < starts[residue + 1];
             ++b) {
            engine.activate(run.bank, bursts[b].row, bursts[b].acts,
                            bursts[b].position, result);
        }
        engine.refTick(run.bank, result);
        if (++residue == period)
            residue = 0;
    }
    engine.drainPressure(run.bank, result);
    return result;
}

} // namespace ctamem::fuzz
