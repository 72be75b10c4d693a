#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <utility>

#include "common/log.hh"
#include "runtime/thread_pool.hh"

namespace ctamem::fuzz {

namespace {

/**
 * Seed-stream stride between generations: child i of generation g
 * draws from stream g * kGenStride + i, so population sizes up to
 * the stride never collide across generations.
 */
constexpr std::uint64_t kGenStride = 1ULL << 20;

struct FuzzCounters
{
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> patternsEvaluated{0};
    std::atomic<std::uint64_t> generations{0};
    std::atomic<std::uint64_t> bypassesFound{0};
    std::atomic<std::uint64_t> bestFlips{0};
};

FuzzCounters &
counters()
{
    static FuzzCounters instance;
    return instance;
}

void
atomicMax(std::atomic<std::uint64_t> &slot, std::uint64_t value)
{
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

/** Peak evaluated intensity of every victim row of one replay. */
class PeakIntensity final : public dram::PressureSink
{
  public:
    void
    onPressure(std::uint64_t bank, std::uint64_t device_row,
               double intensity) override
    {
        (void)bank; // a replay hammers one bank
        double &peak = peaks[device_row];
        peak = std::max(peak, intensity);
    }

    std::map<std::uint64_t, double> peaks;
};

/**
 * Flips of a victim row outside the primed arena, which holds the
 * module's fill: only lanes storing the value their direction
 * consumes can flip, each at most once, so the count is those lanes
 * tripped at the row's peak intensity.
 */
std::uint64_t
fillStateFlips(dram::RowHammerEngine &engine, std::uint64_t bank,
               std::uint64_t device_row, double intensity)
{
    const dram::RowVulnProfile &profile =
        engine.rowProfile(bank, device_row);
    if (!profile.mapped)
        return 0;
    const dram::DramModule &module = engine.module();
    std::uint64_t flips = 0;
    for (const dram::MaskWord &mw : profile.words) {
        const Addr waddr = profile.base + mw.word * 8ULL;
        const std::uint64_t stored = module.readU64(waddr);
        const std::uint64_t ready =
            mw.vuln & ((mw.dir10 & stored) | (~mw.dir10 & ~stored));
        flips += std::popcount(
            module.faults().tripMaskWord(waddr, intensity, ready));
    }
    return flips;
}

} // namespace

FuzzStats
fuzzStats()
{
    const FuzzCounters &c = counters();
    FuzzStats stats;
    stats.runs = c.runs.load(std::memory_order_relaxed);
    stats.patternsEvaluated =
        c.patternsEvaluated.load(std::memory_order_relaxed);
    stats.generations = c.generations.load(std::memory_order_relaxed);
    stats.bypassesFound =
        c.bypassesFound.load(std::memory_order_relaxed);
    stats.bestFlips = c.bestFlips.load(std::memory_order_relaxed);
    return stats;
}

void
checkParams(const FuzzParams &params)
{
    const std::pair<const char *, std::uint64_t> positive[] = {
        {"windows", params.windows},
        {"refsPerWindow", params.timing.refsPerWindow},
        {"actsPerInterval", params.timing.actsPerInterval},
        {"maxEntries", params.builder.maxEntries},
        {"maxPeriod", params.builder.maxPeriod},
        {"maxSlots", params.builder.maxSlots}};
    for (const auto &[key, value] : positive) {
        if (value == 0)
            fatal("fuzz.", key, " must be at least 1");
    }
}

PatternFuzzer::PatternFuzzer(FuzzTarget target,
                             const FuzzParams &params)
    : target_(std::move(target)), params_(params),
      builder_(params.builder, params.timing),
      seed_(params.seed ? params.seed
                        : deriveSeed(target_.dram.seed,
                                     seeds::kFuzzStream))
{
    checkParams(params);
}

const PatternFuzzer::ArenaThresholds &
PatternFuzzer::arenaThresholds() const
{
    std::call_once(arenaOnce_, [this] {
        // A vacated arena row holds no data and never flips.
        static const std::vector<double> vacant;
        dram::DramModule module(target_.dram);
        dram::RowHammerEngine engine(module);
        const std::uint64_t rows = module.geometry().rowsPerBank();
        const std::uint64_t first =
            target_.baseRow > 0 ? target_.baseRow - 1 : 0;
        const std::uint64_t last = std::min(
            rows, target_.baseRow + params_.builder.arenaRows + 2);
        for (std::uint64_t row = first; row < last; ++row) {
            const std::uint64_t device =
                module.deviceRow(target_.bank, row);
            auto profile = engine.sharedRowProfile(target_.bank, device);
            arena_[device] = profile
                ? &profile->sortedThresholds(module.faults())
                : &vacant;
            if (profile)
                arenaProfiles_.push_back(std::move(profile));
        }
    });
    return arena_;
}

std::uint64_t
PatternFuzzer::evaluate(const HammeringPattern &pattern) const
{
    const ArenaThresholds &arena = arenaThresholds();

    // A private replica per evaluation: candidates never share
    // mutable state, which is what makes pool scheduling irrelevant
    // to the outcome.  Its store stays untouched — the replay only
    // reports pressure — so the replica costs no frames.
    dram::DramModule module(target_.dram);
    std::unique_ptr<dram::DisturbanceObserver> observer;
    if (target_.makeObserver)
        observer = target_.makeObserver();
    dram::RowHammerEngine engine(module, observer.get());
    engine.setRefTiming(params_.timing);
    PeakIntensity peak;
    engine.setPressureSink(&peak);

    PatternRun run;
    run.bank = target_.bank;
    run.baseRow = target_.baseRow;
    run.windows = params_.windows;
    runPattern(engine, pattern, run);

    // Every cell of a primed row is flip-ready: its flips are the
    // cells whose trip threshold the peak intensity reaches.
    std::uint64_t flips = 0;
    for (const auto &[device_row, intensity] : peak.peaks) {
        const auto table = arena.find(device_row);
        if (table == arena.end()) {
            flips += fillStateFlips(engine, target_.bank, device_row,
                                    intensity);
            continue;
        }
        const std::vector<double> &thresholds = *table->second;
        flips += static_cast<std::uint64_t>(
            std::upper_bound(thresholds.begin(), thresholds.end(),
                             intensity) -
            thresholds.begin());
    }
    return flips;
}

FuzzOutcome
PatternFuzzer::run(runtime::ThreadPool *pool)
{
    const std::uint64_t population =
        std::max<std::uint64_t>(2, params_.population);
    const std::uint64_t elite =
        std::max<std::uint64_t>(1, population / 4);
    const std::uint64_t parents =
        std::max<std::uint64_t>(2, population / 2);

    // Generation 0: the published families, then random fill.
    const std::vector<std::string> &families = patternFamilies();
    std::vector<HammeringPattern> current;
    current.reserve(population);
    for (std::uint64_t i = 0; i < population; ++i) {
        if (i < families.size()) {
            current.push_back(builder_.family(families[i]));
        } else {
            Rng rng(deriveSeed(seed_, i));
            current.push_back(builder_.random(rng));
        }
    }

    FuzzOutcome outcome;
    std::vector<std::uint64_t> flips(population);
    std::vector<std::uint64_t> ranked(population);

    for (std::uint64_t g = 0; g < params_.generations; ++g) {
        // Elites carried over verbatim keep their scores — evaluate()
        // is a pure function of the pattern — so only the new
        // candidates are replayed.
        const std::uint64_t fresh = g == 0 ? 0 : elite;
        const auto score = [&](std::uint64_t i) {
            flips[i] = evaluate(current[i]);
        };
        if (pool) {
            pool->parallelFor(fresh, population, score, /*grain=*/1);
        } else {
            for (std::uint64_t i = fresh; i < population; ++i)
                score(i);
        }
        outcome.patternsEvaluated += population;
        outcome.replays += population - fresh;
        ++outcome.generations;

        // Rank by flips; hash then index tie-breaks keep the order —
        // and therefore the whole search — thread-count independent.
        for (std::uint64_t i = 0; i < population; ++i)
            ranked[i] = i;
        std::sort(ranked.begin(), ranked.end(),
                  [&](std::uint64_t lhs, std::uint64_t rhs) {
                      if (flips[lhs] != flips[rhs])
                          return flips[lhs] > flips[rhs];
                      const std::uint64_t hl = current[lhs].hash();
                      const std::uint64_t hr = current[rhs].hash();
                      return hl != hr ? hl < hr : lhs < rhs;
                  });

        const std::uint64_t top = ranked[0];
        if (flips[top] > outcome.bestFlips ||
            (flips[top] == outcome.bestFlips &&
             flips[top] > 0 &&
             current[top].hash() < outcome.best.hash())) {
            outcome.best = current[top];
            outcome.bestFlips = flips[top];
        }
        if (flips[top] > 0 &&
            outcome.firstBypassGeneration == ~0ULL) {
            outcome.firstBypassGeneration = g;
        }

        if (g + 1 == params_.generations)
            break;

        // Next generation: elites survive verbatim, the rest are
        // crossover + mutation children of the top half.
        std::vector<HammeringPattern> next;
        next.reserve(population);
        std::vector<std::uint64_t> carried(population);
        for (std::uint64_t i = 0; i < elite; ++i) {
            next.push_back(current[ranked[i]]);
            carried[i] = flips[ranked[i]];
        }
        for (std::uint64_t i = elite; i < population; ++i) {
            Rng rng(deriveSeed(seed_, (g + 1) * kGenStride + i));
            const HammeringPattern &pa =
                current[ranked[rng.below(parents)]];
            const HammeringPattern &pb =
                current[ranked[rng.below(parents)]];
            next.push_back(
                builder_.mutate(builder_.crossover(pa, pb, rng), rng));
        }
        current = std::move(next);
        flips = std::move(carried);
    }

    FuzzCounters &c = counters();
    c.runs.fetch_add(1, std::memory_order_relaxed);
    c.patternsEvaluated.fetch_add(outcome.patternsEvaluated,
                                  std::memory_order_relaxed);
    c.generations.fetch_add(outcome.generations,
                            std::memory_order_relaxed);
    if (outcome.bestFlips > 0)
        c.bypassesFound.fetch_add(1, std::memory_order_relaxed);
    atomicMax(c.bestFlips, outcome.bestFlips);
    return outcome;
}

} // namespace ctamem::fuzz
