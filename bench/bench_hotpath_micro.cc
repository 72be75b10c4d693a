/**
 * @file
 * Hot-path microbenchmarks: page-walk rate (TLB off/on), raw DRAM
 * store throughput (sequential and hammer-pass row-stride), and a
 * small Campaign sweep — the three layers the simulated-access fast
 * path crosses.  Emits BENCH_hotpath.json (see
 * DESIGN.md "Hot-path architecture") so successive PRs can track the
 * perf trajectory.
 *
 * Usage: bench_hotpath_micro [--smoke] [--out <path>]
 *   --smoke  tiny iteration counts (the bench-smoke ctest entry; only
 *            proves the bench still runs, numbers are meaningless)
 *   --out    JSON report path (default: BENCH_hotpath.json)
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_report.hh"
#include "kernel/kernel.hh"
#include "model/montecarlo.hh"
#include "sim/campaign.hh"

namespace {

using namespace ctamem;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A kernel with one process and @p pages resident anonymous pages. */
struct WalkFixture
{
    kernel::Kernel kernel;
    int pid;
    VAddr base;
    std::uint64_t pages;

    explicit WalkFixture(std::uint64_t pages_)
        : kernel(makeConfig()), pid(kernel.createProcess("bench")),
          pages(pages_)
    {
        base = kernel.mmapAnon(pid, pages * pageSize,
                               paging::PageFlags{true, true});
        if (base == 0) {
            std::cerr << "bench: mmap failed\n";
            std::exit(1);
        }
        for (std::uint64_t i = 0; i < pages; ++i) {
            if (!kernel.writeUser(pid, base + i * pageSize, i + 1)) {
                std::cerr << "bench: populate failed\n";
                std::exit(1);
            }
        }
    }

    static kernel::KernelConfig
    makeConfig()
    {
        kernel::KernelConfig config;
        config.dram.capacity = 64 * MiB;
        config.dram.banks = 1;
        return config;
    }
};

/** Full 4-level walks, no TLB: the walker + DRAM-read fast path. */
double
benchWalksTlbOff(WalkFixture &fx, std::uint64_t iterations)
{
    paging::PageWalker &walker = fx.kernel.mmu().walker();
    const Pfn root = fx.kernel.process(fx.pid).rootPfn;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const VAddr vaddr = fx.base + (i % fx.pages) * pageSize;
        const paging::WalkResult result = walker.walk(
            root, vaddr, paging::AccessType::Read,
            paging::Privilege::User);
        sink += result.phys;
    }
    const double wall = secondsSince(start);
    if (sink == 0)
        std::cerr << "bench: impossible sink\n";
    return static_cast<double>(iterations) / wall;
}

/** MMU translations over a TLB-resident working set: the hit path. */
double
benchWalksTlbOn(WalkFixture &fx, std::uint64_t iterations)
{
    paging::Mmu &mmu = fx.kernel.mmu();
    const Pfn root = fx.kernel.process(fx.pid).rootPfn;
    // Working set well under the 64-entry TLB: almost pure hits.
    const std::uint64_t working_set = std::min<std::uint64_t>(
        fx.pages, 32);
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const VAddr vaddr = fx.base + (i % working_set) * pageSize;
        sink += mmu.translate(root, vaddr, paging::AccessType::Read,
                              paging::Privilege::User).phys;
    }
    const double wall = secondsSince(start);
    if (sink == 0)
        std::cerr << "bench: impossible sink\n";
    return static_cast<double>(iterations) / wall;
}

/** Sequential 64-bit stores into the sparse store, in MiB/s. */
double
benchDramWrite(dram::DramModule &module, std::uint64_t words,
               std::uint64_t passes)
{
    const Addr base = 8 * MiB;
    const auto start = Clock::now();
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
        for (std::uint64_t w = 0; w < words; ++w)
            module.writeU64(base + w * 8, w ^ pass);
    }
    const double wall = secondsSince(start);
    return static_cast<double>(words * passes * 8) / wall /
           static_cast<double>(MiB);
}

/** Sequential 64-bit loads from the sparse store, in MiB/s. */
double
benchDramRead(dram::DramModule &module, std::uint64_t words,
              std::uint64_t passes)
{
    const Addr base = 8 * MiB;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
        for (std::uint64_t w = 0; w < words; ++w)
            sink += module.readU64(base + w * 8);
    }
    const double wall = secondsSince(start);
    if (sink == 0 && words > 1)
        std::cerr << "bench: impossible sink\n";
    return static_cast<double>(words * passes * 8) / wall /
           static_cast<double>(MiB);
}

/**
 * Row-stride 64-bit loads over a mostly untouched 256 MiB module, in
 * reads/s: the hammer pass's access pattern.  Consecutive loads land
 * in different 128 KiB rows, and 15 of every 16 frames were never
 * written, so nearly every load looks up a frame that is absent.
 */
double
benchDramReadSparse(std::uint64_t reads)
{
    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.banks = 1;
    dram::DramModule module(config);
    for (Addr addr = 0; addr < config.capacity; addr += 16 * pageSize)
        module.writeU64(addr, addr | 1);
    const std::uint64_t rows = config.capacity / config.rowBytes;
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < reads; ++i) {
        const Addr row = (i % rows) * config.rowBytes;
        sink += module.readU64(row + (i * 8 * 61) % config.rowBytes);
    }
    const double wall = secondsSince(start);
    if (sink == 0)
        std::cerr << "bench: impossible sink\n";
    return static_cast<double>(reads) / wall;
}

/** Monte-Carlo trials/s of one sampler on the boosted headline spec. */
double
benchMcTrials(model::Sampler sampler, std::uint64_t trials)
{
    model::McSpec spec;
    spec.params.errors.pf = 0.05;
    spec.params.errors.p01True = 0.3;
    spec.params.errors.p10True = 0.7;
    spec.sampler = sampler;
    spec.zeros = 1;
    spec.trials = trials;
    const auto start = Clock::now();
    const model::McEstimate estimate = model::runMc(spec);
    const double wall = secondsSince(start);
    if (estimate.trials != trials)
        std::cerr << "bench: trial count mismatch\n";
    return static_cast<double>(trials) / wall;
}

/** Wall-clock of a small end-to-end Campaign sweep. */
double
benchCampaign(bool smoke)
{
    sim::MachineConfig none;
    none.memBytes = 64 * MiB;
    none.ptpBytes = 2 * MiB;
    sim::MachineConfig cta = none;
    cta.defense = defense::DefenseKind::CtaRestricted;

    sim::Campaign campaign;
    campaign.add(none, sim::AttackKind::ProjectZero);
    if (!smoke) {
        campaign.add(cta, sim::AttackKind::ProjectZero);
        campaign.add(none, sim::AttackKind::Drammer);
        campaign.add(cta, sim::AttackKind::Drammer);
    }
    return campaign.run().wallSeconds;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_hotpath.json";
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

    const std::uint64_t walk_iters = smoke ? 20'000 : 2'000'000;
    const std::uint64_t hit_iters = smoke ? 20'000 : 4'000'000;
    const std::uint64_t dram_words = smoke ? 64'000 : 512 * 1024;
    const std::uint64_t dram_passes = smoke ? 1 : 8;

    BenchReport report;

    WalkFixture fx(/*pages=*/256);
    const double walks_off = benchWalksTlbOff(fx, walk_iters);
    report.add("walk_tlb_off", walks_off, "walks/s", walk_iters);
    std::cout << "walk_tlb_off:   " << walks_off << " walks/s\n";

    const double walks_on = benchWalksTlbOn(fx, hit_iters);
    report.add("walk_tlb_on", walks_on, "translations/s", hit_iters);
    std::cout << "walk_tlb_on:    " << walks_on
              << " translations/s\n";

    dram::DramConfig dram_config;
    dram_config.capacity = 64 * MiB;
    dram_config.banks = 1;
    dram::DramModule module(dram_config);
    const double wr = benchDramWrite(module, dram_words, dram_passes);
    report.add("dram_write", wr, "MiB/s", dram_words * dram_passes);
    std::cout << "dram_write:     " << wr << " MiB/s\n";

    const double rd = benchDramRead(module, dram_words, dram_passes);
    report.add("dram_read", rd, "MiB/s", dram_words * dram_passes);
    std::cout << "dram_read:      " << rd << " MiB/s\n";

    const std::uint64_t sparse_reads = smoke ? 64'000 : 16'000'000;
    const double sparse = benchDramReadSparse(sparse_reads);
    report.add("dram_read_sparse", sparse, "reads/s", sparse_reads);
    std::cout << "dram_read_sparse: " << sparse << " reads/s\n";

    const std::uint64_t mc_scalar_trials = smoke ? 20'000 : 2'000'000;
    const std::uint64_t mc_batched_trials = smoke ? 64'000 : 8'000'000;
    const double mc_scalar =
        benchMcTrials(model::Sampler::FixedZeros, mc_scalar_trials);
    report.add("mc_trials_per_s_scalar", mc_scalar, "trials/s",
               mc_scalar_trials);
    std::cout << "mc_trials_per_s_scalar: " << mc_scalar
              << " trials/s\n";

    const double mc_batched = benchMcTrials(
        model::Sampler::FixedZerosBatched, mc_batched_trials);
    report.add("mc_trials_per_s", mc_batched, "trials/s",
               mc_batched_trials);
    std::cout << "mc_trials_per_s: " << mc_batched
              << " trials/s (batched/scalar "
              << mc_batched / mc_scalar << "x)\n";

    const double sweep = benchCampaign(smoke);
    report.add("campaign_sweep", sweep, "s", smoke ? 1 : 4);
    std::cout << "campaign_sweep: " << sweep << " s\n";

    if (!report.writeFile(out)) {
        std::cerr << "bench: cannot write " << out << '\n';
        return 1;
    }
    std::cout << "report: " << out << '\n';
    return 0;
}
