/**
 * @file
 * Campaign-service benchmarks: per-cell throughput of a cold
 * submission vs a fully cached resubmission, the result-cache hit
 * rate, the cold-boot machine start, and the cold run's p50/p99 cell
 * latency.  Emits BENCH_svc.json (gated by
 * scripts/check_bench.py --suite svc).
 *
 * The workload is the paper-default Table-1 grid — the same manifest
 * a client would submit over the pipe protocol — driven through
 * CampaignService in-process so the numbers measure the service, not
 * the pipe.
 *
 * Usage: bench_svc [--smoke] [--out <path>]
 *   --smoke  single defense/attack pair (the bench-smoke ctest
 *            entry; only proves the bench still runs)
 *   --out    JSON report path (default: BENCH_svc.json)
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/registry.hh"
#include "common/bench_report.hh"
#include "defense/registry.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/scenarios.hh"
#include "svc/server.hh"
#include "svc/wire.hh"

namespace {

using namespace ctamem;
using json::Json;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The paper-default grid as a submit-ready manifest object. */
Json
paperDefaultManifest(bool smoke)
{
    std::vector<defense::DefenseKind> defenses =
        sim::scenarios::table1Defenses();
    std::vector<attack::AttackKind> attacks =
        sim::scenarios::table1Attacks();
    if (smoke) {
        defenses.resize(1);
        attacks.resize(1);
    }

    Json defensesJson = Json::array();
    for (const defense::DefenseKind kind : defenses)
        defensesJson.push(std::string(defense::defenseToken(kind)));
    Json attacksJson = Json::array();
    for (const attack::AttackKind kind : attacks)
        attacksJson.push(std::string(attack::attackToken(kind)));

    Json manifest = Json::object();
    manifest.set("schema_version", sim::kScenarioSchemaVersion)
        .set("defenses", std::move(defensesJson))
        .set("attacks", std::move(attacksJson));
    return manifest;
}

/** Submit @p manifest once; returns the parsed response frames. */
std::vector<Json>
submit(svc::CampaignService &service, const Json &manifest)
{
    Json request = Json::object();
    request.set("type", std::string("submit"))
        .set("id", std::uint64_t{1})
        .set("manifest", manifest);

    std::stringstream in;
    svc::writeFrame(in, request);
    std::stringstream out;
    service.serve(in, out);

    std::vector<Json> frames;
    while (auto frame = svc::readFrame(out))
        frames.push_back(std::move(*frame));
    if (frames.empty() ||
        frames.back().at("type").asString() != "done") {
        std::cerr << "bench_svc: submission did not complete\n";
        std::exit(1);
    }
    return frames;
}

double
percentile(std::vector<double> sorted, double fraction)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(fraction * (sorted.size() - 1) +
                                 0.5));
    return sorted[index];
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_svc.json";
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

    const Json manifest = paperDefaultManifest(smoke);
    BenchReport report;

    // --- cold vs fully cached submission -------------------------
    svc::ServiceConfig config;
    config.cacheDir.clear(); // in-memory only: no disk-state carry
    svc::CampaignService service(config);

    Clock::time_point start = Clock::now();
    const std::vector<Json> cold = submit(service, manifest);
    const double coldSeconds = secondsSince(start);
    const std::uint64_t cells = cold.front().at("cells").asU64();

    start = Clock::now();
    const std::vector<Json> cached = submit(service, manifest);
    const double cachedSeconds = secondsSince(start);
    if (cached.back().at("cachedCells").asU64() != cells) {
        std::cerr << "bench_svc: resubmission was not fully cached\n";
        return 1;
    }

    report.add("jobs_per_s_cold", cells / coldSeconds, "cells/s",
               cells);
    report.add("jobs_per_s_cached", cells / cachedSeconds, "cells/s",
               cells);
    // Hit rate of the resubmission: the fraction of its cells the
    // content-addressed cache replayed (1.0 when memoization works).
    report.add("cache_hit_rate",
               static_cast<double>(
                   cached.back().at("cachedCells").asU64()) /
                   cells,
               "fraction", cells);
    report.add("cached_speedup", coldSeconds / cachedSeconds, "x",
               cells);

    // --- cold-run cell latency percentiles -----------------------
    std::vector<double> latencies;
    for (const Json &row :
         cold.back().at("report").at("cells").items())
        latencies.push_back(row.at("wallSeconds").asDouble());
    report.add("cell_latency_p50", percentile(latencies, 0.50), "s",
               cells);
    report.add("cell_latency_p99", percentile(latencies, 0.99), "s",
               cells);

    // --- cold boot -----------------------------------------------
    // The config whose boot does the most work: CTA with multi-level
    // zoning and PS-bit screening (the plan scan dominates boot).
    sim::MachineConfig ctaConfig;
    ctaConfig.defense = defense::DefenseKind::Cta;
    ctaConfig.ctaMultiLevelZones = true;
    ctaConfig.ctaScreenPageSize = true;

    const std::uint64_t boots = smoke ? 3 : 40;
    start = Clock::now();
    for (std::uint64_t i = 0; i < boots; ++i) {
        sim::Machine machine(ctaConfig);
    }
    const double coldBoot = secondsSince(start) / boots;

    report.add("cold_boot", coldBoot * 1e3, "ms", boots);

    if (!report.writeFile(out)) {
        std::cerr << "bench_svc: cannot write " << out << '\n';
        return 1;
    }
    report.writeJson(std::cout);
    std::cout << "report: " << out << '\n';
    return 0;
}
