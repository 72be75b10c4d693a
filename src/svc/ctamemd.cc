/**
 * @file
 * ctamemd: the campaign service daemon.
 *
 * Speaks the framed pipe protocol (svc/wire.hh) on stdin/stdout —
 * run it under a supervisor or drive it from scripts/ctamem_client.py:
 *
 *   scripts/ctamem_client.py --daemon build/ctamemd \
 *       submit scenarios/paper-default.json
 *
 * All diagnostics go to stderr; stdout carries only protocol frames.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "svc/server.hh"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --workers N        worker threads (default: cores)\n"
        << "  --queue N          max in-flight cells (default 64)\n"
        << "  --mem-entries N    in-memory cache entries "
           "(default 1024)\n"
        << "  --cache-dir PATH   disk cache directory (default "
           ".ctamem-cache)\n"
        << "  --no-disk-cache    keep results in memory only\n"
        << "Protocol frames are read from stdin and written to "
           "stdout.\n";
    return 2;
}

bool
parseCount(const std::string &text, std::uint64_t &value)
{
    try {
        std::size_t used = 0;
        value = std::stoull(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ctamem::svc::ServiceConfig config;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        std::uint64_t value = 0;
        if (arg == "--workers" && hasValue &&
            parseCount(argv[++i], value)) {
            config.workers = static_cast<unsigned>(value);
        } else if (arg == "--queue" && hasValue &&
                   parseCount(argv[++i], value)) {
            config.queueCapacity = value;
        } else if (arg == "--mem-entries" && hasValue &&
                   parseCount(argv[++i], value)) {
            config.memCacheEntries = value;
        } else if (arg == "--cache-dir" && hasValue) {
            config.cacheDir = argv[++i];
        } else if (arg == "--no-disk-cache") {
            config.cacheDir.clear();
        } else {
            return usage(argv[0]);
        }
    }

    std::ios::sync_with_stdio(false);
    // cin and cerr are tied to cout by default, so the serve loop's
    // blocking reads (and any stderr diagnostics) would flush cout
    // from outside the service's output mutex — a data race against
    // worker threads streaming frames. Untie them: the service
    // flushes after every frame itself.
    std::cin.tie(nullptr);
    std::cerr.tie(nullptr);
    try {
        ctamem::svc::CampaignService service(config);
        service.serve(std::cin, std::cout);
    } catch (const std::exception &err) {
        std::cerr << "ctamemd: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
