/**
 * @file
 * The three benchmark workloads and their per-layer attribution.
 * perfbench/README.md explains why each workload exists and which
 * end-to-end metric each per-layer metric should move.
 */

#ifndef CTAMEM_PERFBENCH_WORKLOADS_HH
#define CTAMEM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop right before the first timed op (set-up repeats). */
    bool setupOnly = false;
    /** Checkout root holding scenarios/ and the BENCH_*.json files. */
    std::string root = ".";
    /** Chrome trace output of a traced run; empty = none. */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    double setupSeconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks outside the ops and the planted-failure self-test passed. */
    bool checksOk = true;
    /** End-to-end metrics untraced, per-layer metrics traced. */
    std::vector<Metric> metrics;
    /** One line per failed check or self-test result. */
    std::vector<std::string> notes;
};

/** Run one workload; throws on unreadable inputs. */
RunResult runWorkload(const Options &options, Clock::time_point start);

} // namespace perfbench

#endif // CTAMEM_PERFBENCH_WORKLOADS_HH
