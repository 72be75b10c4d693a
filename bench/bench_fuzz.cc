/**
 * @file
 * Pattern-fuzzer benchmark: evaluation throughput of the evolutionary
 * search and whether it still finds a TRR-sampler bypass.  Emits
 * BENCH_fuzz.json (gated by scripts/check_bench.py --suite fuzz).
 *
 * The workload is the trr-arms-race configuration: a 64 MiB single
 * bank with the paper's fault statistics at pf = 1e-3, defended by a
 * deliberately weak sampler (1 slot, 2-burst latch window) so the
 * search deterministically lands on a decoy-lead bypass.  The gate
 * covers
 *
 *   patterns_per_s  candidate evaluations per second (higher better)
 *   bypass_found    1.0 when the best pattern flips >= 1 cell — the
 *                   arms-race acceptance property; a drop to 0 means
 *                   the search or the physics regressed, not the box
 *
 * and compares exactly
 *
 *   replays                      pattern replays the search ran
 *   best_flips                   flips of the best pattern found
 *   generations_to_first_bypass  first generation with any flips
 *
 * which are deterministic outputs of the counter-seeded search: a
 * diff in them is a change of work or answers, never noise.
 *
 * Usage: bench_fuzz [--smoke] [--out <path>]
 *   --smoke  tiny population/generation counts (the bench-smoke ctest
 *            entry; only proves the bench still runs)
 *   --out    JSON report path (default: BENCH_fuzz.json)
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <string>

#include "common/bench_report.hh"
#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "fuzz/fuzzer.hh"
#include "runtime/thread_pool.hh"

namespace {

using namespace ctamem;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The trr-arms-race cell, shrunk to bench scale. */
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
armsRaceParams(bool smoke)
{
    fuzz::FuzzParams params;
    params.population = smoke ? 6 : 12;
    params.generations = smoke ? 2 : 6;
    params.windows = 1;
    params.timing.refsPerWindow = 1024;
    params.timing.actsPerInterval = 1300;
    params.builder.arenaRows = 32;
    params.builder.maxEntries = 8;
    params.builder.maxPeriod = 4;
    params.builder.maxSlots = 12;
    return params;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_fuzz.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--smoke] [--out <path>]\n";
            return 2;
        }
    }

    BenchReport report;
    const fuzz::FuzzTarget target = armsRaceTarget();
    const fuzz::FuzzParams params = armsRaceParams(smoke);

    // Warm the shared row-profile cache so patterns_per_s measures
    // the search loop, not the one-time profile derivation.
    fuzz::PatternFuzzer(armsRaceTarget(), params)
        .evaluate(fuzz::PatternBuilder(params.builder, params.timing)
                      .family("sync"));

    runtime::ThreadPool pool(smoke ? 2 : 4);
    Clock::time_point start = Clock::now();
    fuzz::PatternFuzzer fuzzer(target, params);
    const fuzz::FuzzOutcome outcome = fuzzer.run(&pool);
    const double seconds = secondsSince(start);

    report.add("patterns_per_s", outcome.patternsEvaluated / seconds,
               "patterns/s", outcome.patternsEvaluated);
    report.add("bypass_found", outcome.bestFlips > 0 ? 1.0 : 0.0,
               "bool", 1);
    report.add("generations_to_first_bypass",
               outcome.firstBypassGeneration == ~0ULL
                   ? -1.0
                   : static_cast<double>(
                         outcome.firstBypassGeneration),
               "generations", outcome.generations);
    report.add("best_flips", static_cast<double>(outcome.bestFlips),
               "flips", outcome.patternsEvaluated);
    report.add("replays", static_cast<double>(outcome.replays),
               "replays", outcome.patternsEvaluated);

    if (!smoke && outcome.bestFlips == 0) {
        std::cerr << "bench_fuzz: search found no bypass — the "
                     "arms-race property regressed\n";
        return 1;
    }

    if (!report.writeFile(out)) {
        std::cerr << "bench_fuzz: cannot write " << out << '\n';
        return 1;
    }
    report.writeJson(std::cout);
    std::cout << "report: " << out << '\n';
    return 0;
}
