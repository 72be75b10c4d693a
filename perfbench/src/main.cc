/**
 * @file
 * ctabench: one benchmark run of one workload.  perfbench/run.py is
 * the entry point that builds this binary, repeats set-up and prints
 * the benchmark's result line; this program prints its own notes and
 * then one JSON line of raw results.
 *
 * Usage: ctabench --workload <name> --seed <n> --seconds <s>
 *                 [--trace 0|1] [--trace-out <file>] [--setup-only]
 *                 [--root <checkout>]
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "workloads.hh"

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload <name> --seed <n> --seconds <s>"
                 " [--trace 0|1] [--trace-out <file>] [--setup-only]"
                 " [--root <checkout>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    perfbench::Options options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const bool hasValue = i + 1 < argc;
            if (arg == "--setup-only")
                options.setupOnly = true;
            else if (!hasValue)
                return usage(argv[0]);
            else if (arg == "--workload")
                options.workload = argv[++i];
            else if (arg == "--seed")
                options.seed = std::stoull(argv[++i]);
            else if (arg == "--seconds")
                options.seconds = std::stod(argv[++i]);
            else if (arg == "--trace")
                options.trace = std::stoi(argv[++i]) != 0;
            else if (arg == "--trace-out")
                options.traceOut = argv[++i];
            else if (arg == "--root")
                options.root = argv[++i];
            else
                return usage(argv[0]);
        }
    } catch (const std::exception &) {
        return usage(argv[0]);
    }
    if (options.workload.empty() || options.seconds <= 0)
        return usage(argv[0]);

    perfbench::RunResult result;
    try {
        result = perfbench::runWorkload(options, start);
    } catch (const std::exception &err) {
        std::cerr << "ctabench: " << err.what() << '\n';
        return 1;
    }

    using ctamem::json::Json;
    for (const std::string &note : result.notes)
        std::cout << note << '\n';
    Json metrics = Json::object();
    for (const perfbench::Metric &metric : result.metrics) {
        Json entry = Json::object();
        entry.set("value", metric.value).set("unit", metric.unit);
        metrics.set(metric.name, std::move(entry));
    }
    Json line = Json::object();
    line.set("setup_s", result.setupSeconds)
        .set("attempted", result.attempted)
        .set("failed", result.failed)
        .set("checks_ok", result.checksOk)
        .set("metrics", std::move(metrics));
    // One line: the pretty printer's newlines are not part of the data.
    std::string text = line.dump();
    for (char &c : text)
        if (c == '\n')
            c = ' ';
    std::cout << text << std::endl;
    return EXIT_SUCCESS;
}
