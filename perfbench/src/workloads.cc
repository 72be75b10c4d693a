#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "checks.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "defense/registry.hh"
#include "dram/hammer.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/pattern.hh"
#include "runtime/thread_pool.hh"
#include "sim/campaign.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "svc/cache.hh"
#include "svc/server.hh"
#include "svc/wire.hh"

namespace perfbench {

using namespace ctamem;
using json::Json;

namespace {

/**
 * Client threads of manifests-cold, service workers of svc-edit and
 * pool width of fuzz-search: the benchmark shares a 4-core box, so no
 * workload keeps more than two cores busy.
 */
constexpr unsigned kThreads = 2;

/** Ops a run needs so that at least 10 lie beyond its p90. */
constexpr std::size_t kMinOps = 100;

/** Trace track of the main thread; client threads take 1, 2, ... */
constexpr unsigned kMainTrack = 0;

/** Stream ids of the seeds the benchmark derives from --seed. */
constexpr std::uint64_t kRowOrderStream = 0x0e17;
constexpr std::uint64_t kKnobOffsetStream = 0x0ff5;
constexpr std::uint64_t kFreshModuleStream = 0xb01d;
constexpr std::uint64_t kSearchSeedStream = 0xf022;

/** Linear-interpolated quantile @p q of @p values (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
total(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum;
}

double
mean(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : total(values) / values.size();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Run @p body inside a span and return its duration in seconds. */
template <typename F>
double
timed(Tracer &tracer, const char *name, unsigned track, F &&body)
{
    Tracer::Scope scope(tracer, name, track);
    const Clock::time_point start = Clock::now();
    body();
    return secondsSince(start);
}

Json
loadManifest(const Options &options, const std::string &name)
{
    return Json::parseFile(options.root + "/scenarios/" + name + ".json");
}

std::string
defenseOf(const sim::CampaignCell &cell)
{
    // Read through the JSON form so the benchmark depends on the
    // manifest tokens, not on the in-memory defense identifiers.
    return sim::toJson(cell.config).at("defense").asString();
}

/** Process-wide counters sampled around the timed loop. */
struct Counters
{
    dram::ProfileCacheStats profiles;
    fuzz::FuzzStats fuzz;
    svc::CacheStats cache;
};

Counters
sample(svc::CampaignService *service)
{
    Counters c;
    c.profiles = dram::profileCacheStats();
    c.fuzz = fuzz::fuzzStats();
    if (service)
        c.cache = service->cache().stats();
    return c;
}

/** One submission's framed round trip, as the client saw it. */
struct Reply
{
    double seconds = 0.0; //!< encode + serve + decode
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
    std::size_t bytes = 0; //!< response stream length
    std::uint64_t accepted = 0;
    bool done = false;
    std::string error;
    std::vector<char> cached;
    /** Each cell frame's result value as sent, by manifest index. */
    std::vector<std::string> rows;
};

/**
 * A ctamemd client speaking the framed protocol to an in-process
 * CampaignService over in-memory streams: one serve() call per
 * submission, from the submit frame to the done frame.
 */
class Client
{
  public:
    Client(svc::CampaignService &service, Tracer &tracer, unsigned track)
        : service_(service), tracer_(tracer), track_(track)
    {}

    Reply
    submit(const Json &manifest)
    {
        Json request = Json::object();
        request.set("type", "submit")
            .set("id", nextId_++)
            .set("manifest", manifest);

        Reply reply;
        std::stringstream in;
        std::stringstream out;
        std::vector<std::pair<std::uint64_t, std::streampos>> cellFrames;
        const Clock::time_point start = Clock::now();
        reply.encodeSeconds =
            timed(tracer_, "svc.writeFrame", track_,
                  [&] { svc::writeFrame(in, request); });
        timed(tracer_, "svc.CampaignService.serve", track_,
              [&] { service_.serve(in, out); });
        const Clock::time_point decodeStart = Clock::now();
        for (;;) {
            const std::streampos pos = out.tellg();
            std::optional<Json> frame;
            timed(tracer_, "svc.readFrame", track_,
                  [&] { frame = svc::readFrame(out); });
            if (!frame)
                break;
            const std::string &type = frame->at("type").asString();
            if (type == "accepted") {
                reply.accepted = frame->at("cells").asU64();
                reply.cached.assign(reply.accepted, 0);
                reply.rows.assign(reply.accepted, {});
            } else if (type == "cell") {
                const std::uint64_t index = frame->at("index").asU64();
                if (index < reply.cached.size())
                    reply.cached[index] = frame->at("cached").asBool();
                cellFrames.emplace_back(index, pos);
            } else if (type == "done") {
                reply.done = true;
            } else {
                reply.error = frame->dump();
            }
        }
        reply.decodeSeconds = secondsSince(decodeStart);
        reply.seconds = secondsSince(start);

        // Keep each row's raw bytes so replays can be compared byte
        // for byte; the result member is the frame's last.
        const std::string buffer = out.str();
        reply.bytes = buffer.size();
        for (const auto &[index, pos] : cellFrames) {
            const auto offset = static_cast<std::size_t>(pos);
            std::uint32_t size = 0;
            for (int i = 0; i < 4; ++i) {
                size |= std::uint32_t{static_cast<unsigned char>(
                            buffer[offset + i])}
                    << (8 * i);
            }
            const std::string_view payload(buffer.data() + offset + 4,
                                           size);
            constexpr std::string_view key = "\"result\":";
            const std::size_t row = payload.find(key);
            if (index < reply.rows.size() && row != payload.npos) {
                const std::size_t from = row + key.size();
                reply.rows[index] = std::string(
                    payload.substr(from, payload.rfind('}') - from));
            }
        }
        samples.push_back(reply);
        samples.back().rows.clear();
        samples.back().cached.clear();
        return reply;
    }

    /** Every submission's timings and sizes, rows dropped. */
    std::vector<Reply> samples;

  private:
    svc::CampaignService &service_;
    Tracer &tracer_;
    unsigned track_;
    std::uint64_t nextId_ = 0;
};

/** The fuzz target and search parameters of a scenario manifest. */
struct FuzzSetup
{
    fuzz::FuzzTarget target;
    fuzz::FuzzParams params;
    std::uint64_t machineSeed = 0;
};

FuzzSetup
fuzzSetupFrom(const Json &manifest)
{
    const sim::CampaignCell cell =
        sim::campaignFromJson(manifest).cells().front();
    const sim::MachineConfig &config = cell.config;

    FuzzSetup setup;
    setup.params = config.fuzz;
    setup.machineSeed = config.seed;
    {
        // The machine owns the MachineConfig -> DramConfig mapping.
        sim::Machine machine(config);
        setup.target.dram = machine.dram().config();
    }
    const defense::DefenseSpec *spec =
        defense::Registry::instance().find(defenseOf(cell));
    if (!spec || !spec->makeObserver)
        throw std::runtime_error("fuzz target defense has no observer");
    defense::DefenseParams params;
    params.seed = config.seed;
    params.ptpBytes = config.ptpBytes;
    params.ctaMultiLevelZones = config.ctaMultiLevelZones;
    params.ctaScreenPageSize = config.ctaScreenPageSize;
    params.refreshBoostFactor = config.refreshBoostFactor;
    params.paraProbability = config.paraProbability;
    params.anvilThreshold = config.anvilThreshold;
    params.softTrrThreshold = config.softTrrThreshold;
    params.softTrrTracked = config.softTrrTracked;
    params.trrSamplers = config.trrSamplers;
    params.trrWindow = config.trrWindow;
    setup.target.makeObserver = [factory = spec->makeObserver, params] {
        return factory(params);
    };
    return setup;
}

/**
 * Forwards to a defense observer and reports, when destroyed, how
 * long it lived.
 */
class LifetimeObserver : public dram::DisturbanceObserver
{
  public:
    LifetimeObserver(std::unique_ptr<dram::DisturbanceObserver> inner,
                     std::function<void(double)> report)
        : inner_(std::move(inner)), report_(std::move(report))
    {}

    ~LifetimeObserver() override { report_(secondsSince(born_)); }

    bool
    onHammer(const dram::DisturbanceEvent &event) override
    {
        return inner_->onHammer(event);
    }

    void
    onRef(const dram::RefEvent &event,
          std::vector<std::uint64_t> &refresh_rows) override
    {
        inner_->onRef(event, refresh_rows);
    }

  private:
    std::unique_ptr<dram::DisturbanceObserver> inner_;
    std::function<void(double)> report_;
    const Clock::time_point born_ = Clock::now();
};

/** Loop facts the attribution pass needs besides the counters. */
struct LoopFacts
{
    std::vector<double> opSeconds;
    double wallSeconds = 0.0;
    unsigned clientThreads = 1;
    Counters before;
    Counters after;
};

/** What the per-layer attribution pass probes for one workload. */
struct Probe
{
    /** Cells to probe; cold workloads return fresh seeds per call. */
    std::function<std::vector<sim::CampaignCell>()> cells;
    bool cold = false;
    /** Manifests the workload expands (scenario.expand_s). */
    std::vector<Json> manifests;
    /** Best pattern of the loop's last search (fuzz-search). */
    std::optional<fuzz::HammeringPattern> best;
    /** Derived-seed CTA cells run, and those that broke the invariant. */
    std::uint64_t ctaCells = 0;
    std::uint64_t ctaBreaches = 0;
    /** Edit/resubmit hit ratios measured in the loop (svc-edit). */
    double editHitRatio = 0.0;
    double resubmitHitRatio = 0.0;
};

class Run
{
  public:
    Run(const Options &options, Clock::time_point start)
        : options(options), seed(stableHash(options.seed)), start(start),
          tracer(options.trace, start)
    {
        tracer.nameTrack(kMainTrack, "main");
    }

    const Options &options;
    /**
     * Base of every input stream.  deriveSeed(s, i) XORs i into s, so
     * streams taken straight from neighbouring --seed values would
     * mostly coincide; hashing the seed first keeps them apart.
     */
    const std::uint64_t seed;
    const Clock::time_point start;
    Tracer tracer;
    RunResult result;
    /** Submissions made through Client objects, for wire.* metrics. */
    std::vector<Reply> wire;
    /** campaignFromJson calls timed by the benchmark. */
    std::vector<double> expandSeconds;

    void endSetup() { result.setupSeconds = secondsSince(start); }

    /** A failed check outside the timed ops (set-up, threads). */
    void
    checkFailure(const std::string &why)
    {
        result.checksOk = false;
        result.notes.push_back("check failed: " + why);
    }

    void
    opFailure(std::uint64_t op, const std::string &why)
    {
        // Every failed op is counted; the first few are described.
        if (result.notes.size() < 40)
            result.notes.push_back("op " + std::to_string(op) +
                                   " failed: " + why);
    }

    /** Record one planted wrong expectation's verdict. */
    void
    planted(const std::string &what, const std::string &verdict)
    {
        if (verdict.empty()) {
            result.checksOk = false;
            result.notes.push_back("self-test: planted " + what +
                                   " was NOT detected");
        } else {
            result.notes.push_back("self-test: planted " + what +
                                   " detected (" + verdict + ")");
        }
    }

    void
    metric(std::string name, double value, std::string unit)
    {
        result.metrics.push_back(
            {std::move(name), value, std::move(unit)});
    }

    void
    endToEnd(const LoopFacts &loop, double work)
    {
        metric("setup_s", result.setupSeconds, "s");
        metric("work_per_s", work / loop.wallSeconds, "1/s");
        metric("op_p50_s", quantile(loop.opSeconds, 0.5), "s");
        metric("op_p90_s", quantile(loop.opSeconds, 0.9), "s");
        metric("peak_rss_mib", peakRssMib(), "MiB");
    }

    void attribute(const LoopFacts &loop, Probe &probe);
};

/**
 * Run @p cells through runCellCached calls from @p threads client
 * threads sharing one ordered list; returns each call's seconds.
 */
std::vector<double>
runCellsOn(svc::CampaignService &service,
           const std::vector<sim::CampaignCell> &cells, unsigned threads,
           Tracer &tracer)
{
    std::vector<double> seconds(cells.size());
    std::mutex mutex;
    std::size_t next = 0;
    std::exception_ptr error;
    auto client = [&](unsigned track) {
        try {
            for (;;) {
                std::size_t index;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (next == cells.size() || error)
                        return;
                    index = next++;
                }
                seconds[index] = timed(
                    tracer, "svc.CampaignService.runCellCached", track,
                    [&] { service.runCellCached(cells[index]); });
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(client, t + 1);
    for (std::thread &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
    return seconds;
}

svc::ServiceConfig
inMemoryService(unsigned workers)
{
    svc::ServiceConfig config;
    config.workers = workers;
    config.cacheDir.clear();
    return config;
}

void
Run::attribute(const LoopFacts &loop, Probe &probe)
{
    Tracer::Scope phase(tracer, "attribution", kMainTrack);

    // Counter deltas over the timed loop.
    const auto &pb = loop.before.profiles;
    const auto &pa = loop.after.profiles;
    const double builds = static_cast<double>(pa.misses - pb.misses);
    const double hits = static_cast<double>(pa.hits - pb.hits);

    // runtime: busy share of the client threads, and per-cell time at
    // two client threads over the same cells at one.
    const double busy = ratio(total(loop.opSeconds),
                              loop.clientThreads * loop.wallSeconds);
    double contention = 0.0;
    double profileBuild = 0.0;
    std::vector<double> replay;
    std::vector<double> cacheKey;
    {
        const std::vector<sim::CampaignCell> cells = probe.cells();
        svc::CampaignService two(inMemoryService(1));
        const double twoThreads =
            mean(runCellsOn(two, cells, kThreads, tracer));

        // A fresh-seed module: every rowProfile call is a cold build.
        // For cold probes the cache is first shrunk to one entry per
        // shard, and these builds displace those survivors, so the
        // one-thread pass below rebuilds every profile it needs.
        const std::size_t capacity = dram::profileCacheStats().capacity;
        if (probe.cold)
            dram::profileCacheSetCapacity(1);
        {
            sim::MachineConfig config = cells.front().config;
            config.seed = deriveSeed(seed, kFreshModuleStream);
            sim::Machine machine(config);
            const std::uint64_t rows = config.memBytes / config.rowBytes /
                config.banks;
            std::vector<double> seconds;
            for (std::uint64_t i = 0; i < 64; ++i) {
                const std::uint64_t row = (1 + 37 * i) % rows;
                seconds.push_back(timed(
                    tracer, "dram.RowHammerEngine.rowProfile", kMainTrack,
                    [&] { machine.engine().rowProfile(0, row); }));
            }
            profileBuild = quantile(seconds, 0.5);
        }
        if (probe.cold)
            dram::profileCacheSetCapacity(capacity);

        svc::CampaignService one(inMemoryService(1));
        const double oneThread = mean(runCellsOn(one, cells, 1, tracer));
        contention = ratio(twoThreads, oneThread);

        // svc: replay of cached cells and their cache keys.
        for (const sim::CampaignCell &cell : cells) {
            bool cached = false;
            replay.push_back(timed(
                tracer, "svc.CampaignService.runCellCached", kMainTrack,
                [&] { cached = one.runCellCached(cell).cached; }));
            if (!cached)
                result.notes.push_back("attribution: probe cell was not "
                                       "replayed from the cache");
            cacheKey.push_back(timed(tracer, "svc.cellCacheKey",
                                     kMainTrack,
                                     [&] { svc::cellCacheKey(cell); }));
        }

        // wire: the probe cells resubmitted as an explicit-cell manifest.
        Json manifest = Json::object();
        Json list = Json::array();
        for (const sim::CampaignCell &cell : cells)
            list.push(sim::toJson(cell));
        manifest.set("schema_version", sim::kScenarioSchemaVersion)
            .set("cells", std::move(list));
        Client client(one, tracer, kMainTrack);
        for (int i = 0; i < 5; ++i)
            if (!client.submit(manifest).done)
                result.notes.push_back("attribution: probe submission "
                                       "did not complete");
        wire.insert(wire.end(), client.samples.begin(),
                    client.samples.end());
    }

    // scenario: manifest expansion.
    for (int i = 0; i < 10; ++i) {
        for (const Json &manifest : probe.manifests) {
            expandSeconds.push_back(
                timed(tracer, "sim.campaignFromJson", kMainTrack,
                      [&] { sim::campaignFromJson(manifest); }));
        }
    }

    // sim/attack and the component StatGroups of machines built here.
    std::vector<double> boot;
    std::vector<double> attack;
    double passes = 0, flips = 0, walks = 0, tlbHits = 0, tlbMisses = 0,
           faults = 0, pteAllocs = 0, allocs = 0;
    for (const sim::CampaignCell &cell : probe.cells()) {
        std::unique_ptr<sim::Machine> machine;
        boot.push_back(timed(tracer, "sim.Machine", kMainTrack, [&] {
            machine = std::make_unique<sim::Machine>(cell.config);
        }));
        attack.push_back(timed(tracer, "sim.Machine.runAttack",
                               kMainTrack,
                               [&] { machine->runAttack(cell.attack); }));
        StatGroup &engine = machine->engine().stats();
        passes += engine.value("passes");
        flips += engine.value("flips10") + engine.value("flips01");
        paging::Mmu &mmu = machine->kernel().mmu();
        walks += mmu.walker().stats().value("walks");
        tlbHits += mmu.tlb().stats().value("hits");
        tlbMisses += mmu.tlb().stats().value("misses");
        faults += machine->kernel().stats().value("pageFaults");
        pteAllocs += machine->kernel().stats().value("pteAllocs");
        allocs += machine->kernel().phys().stats().value("allocs");
    }

    // fuzz: evaluation, search overhead and one replay of the best
    // pattern on an engine the benchmark owns.
    FuzzSetup setup =
        fuzzSetupFrom(loadManifest(options, "trr-arms-race"));
    runtime::ThreadPool pool(kThreads);

    // Search self time: a search's seconds minus its evaluations'
    // share of the pool.  Each evaluation builds one observer through
    // the target's factory and drops it when it returns, so a wrapper
    // observer's lifetime brackets the evaluation from outside.
    std::vector<double> searchSelf;
    {
        std::mutex mutex;
        double evaluating = 0.0;
        fuzz::FuzzTarget target = setup.target;
        target.makeObserver = [&, inner = setup.target.makeObserver] {
            return std::make_unique<LifetimeObserver>(
                inner(), [&](double seconds) {
                    std::lock_guard<std::mutex> lock(mutex);
                    evaluating += seconds;
                });
        };
        for (std::uint64_t i = 0; i < 3; ++i) {
            fuzz::FuzzParams params = setup.params;
            params.seed = deriveSeed(seed, kSearchSeedStream + i);
            fuzz::PatternFuzzer fuzzer(target, params);
            fuzz::FuzzOutcome outcome;
            evaluating = 0.0;
            const double seconds =
                timed(tracer, "fuzz.PatternFuzzer.run", kMainTrack,
                      [&] { outcome = fuzzer.run(&pool); });
            searchSelf.push_back(seconds - evaluating / pool.size());
            if (!probe.best)
                probe.best = outcome.best;
        }
    }

    std::vector<double> evaluate;
    {
        fuzz::PatternFuzzer fuzzer(setup.target, setup.params);
        for (int i = 0; i < 5; ++i) {
            evaluate.push_back(
                timed(tracer, "fuzz.PatternFuzzer.evaluate", kMainTrack,
                      [&] { fuzzer.evaluate(*probe.best); }));
        }
    }

    dram::DramModule module(setup.target.dram);
    const std::unique_ptr<dram::DisturbanceObserver> observer =
        setup.target.makeObserver();
    dram::RowHammerEngine engine(module, observer.get());
    engine.setRefTiming(setup.params.timing);
    fuzz::PatternRun patternRun;
    patternRun.bank = setup.target.bank;
    patternRun.baseRow = setup.target.baseRow;
    patternRun.windows = setup.params.windows;
    const double replayPattern =
        timed(tracer, "fuzz.runPattern", kMainTrack, [&] {
            fuzz::runPattern(engine, *probe.best, patternRun);
        });

    std::vector<double> encode, decode, bytes;
    for (const Reply &reply : wire) {
        encode.push_back(reply.encodeSeconds);
        decode.push_back(reply.decodeSeconds);
        bytes.push_back(static_cast<double>(reply.bytes));
    }
    const auto &fb = loop.before.fuzz;
    const auto &fa = loop.after.fuzz;
    const auto &cb = loop.before.cache;
    const auto &ca = loop.after.cache;
    const double cacheHits = static_cast<double>(ca.hits - cb.hits);
    const double cacheMisses = static_cast<double>(ca.misses - cb.misses);

    metric("sim.boot_s", quantile(boot, 0.5), "s");
    metric("attack.run_s", quantile(attack, 0.5), "s");
    metric("attack.run_p90_s", quantile(attack, 0.9), "s");
    metric("dram.profile_builds", builds, "count");
    metric("dram.profile_hits", hits, "count");
    metric("dram.profile_hit_ratio", ratio(hits, hits + builds), "ratio");
    metric("dram.profile_build_s", profileBuild, "s");
    metric("dram.hammer_passes", passes, "count");
    metric("dram.flips", flips, "count");
    metric("paging.walks", walks, "count");
    metric("paging.tlb_miss_ratio", ratio(tlbMisses, tlbHits + tlbMisses),
           "ratio");
    metric("kernel.page_faults", faults, "count");
    metric("kernel.pte_allocs", pteAllocs, "count");
    metric("mm.allocs", allocs, "count");
    metric("runtime.busy_ratio", busy, "ratio");
    metric("runtime.contention_ratio", contention, "ratio");
    metric("svc.replay_s", quantile(replay, 0.5), "s");
    metric("svc.cache_key_s", quantile(cacheKey, 0.5), "s");
    metric("svc.cache_hit_ratio",
           ratio(cacheHits, cacheHits + cacheMisses), "ratio");
    metric("svc.edit_hit_ratio", probe.editHitRatio, "ratio");
    metric("svc.resubmit_hit_ratio", probe.resubmitHitRatio, "ratio");
    metric("svc.cache_insertions",
           static_cast<double>(ca.insertions - cb.insertions), "count");
    metric("svc.cache_misses", cacheMisses, "count");
    metric("wire.encode_s", quantile(encode, 0.5), "s");
    metric("wire.decode_s", quantile(decode, 0.5), "s");
    metric("wire.response_bytes", quantile(bytes, 0.5), "bytes");
    metric("scenario.expand_s", quantile(expandSeconds, 0.5), "s");
    metric("fuzz.patterns",
           static_cast<double>(fa.patternsEvaluated - fb.patternsEvaluated),
           "count");
    metric("fuzz.generations",
           static_cast<double>(fa.generations - fb.generations), "count");
    metric("fuzz.bypass_ratio",
           ratio(static_cast<double>(fa.bypassesFound - fb.bypassesFound),
                 static_cast<double>(fa.runs - fb.runs)),
           "ratio");
    metric("fuzz.evaluate_s", quantile(evaluate, 0.5), "s");
    metric("fuzz.search_self_s", quantile(searchSelf, 0.5), "s");
    metric("fuzz.replay_s", replayPattern, "s");
    StatGroup &timedStats = engine.stats();
    metric("dram.timed_activations",
           static_cast<double>(timedStats.value("timedActivations")),
           "count");
    metric("dram.ref_ticks",
           static_cast<double>(timedStats.value("refTicks")), "count");
    metric("dram.trr_refreshes",
           static_cast<double>(timedStats.value("trrRefreshes")), "count");
    metric("cta.derived_cells", static_cast<double>(probe.ctaCells),
           "count");
    metric("cta.derived_breaches", static_cast<double>(probe.ctaBreaches),
           "count");
    metric("trace.op_p50_s", quantile(loop.opSeconds, 0.5), "s");
    metric("trace.op_p90_s", quantile(loop.opSeconds, 0.9), "s");
    metric("trace.spans", static_cast<double>(tracer.size()), "count");
}

// ---------------------------------------------------------------------
// manifests-cold

RunResult
manifestsCold(Run &run)
{
    const Options &options = run.options;
    const std::vector<std::string> names = {
        "paper-default", "aarch64-default", "trr-arms-race"};
    std::vector<Json> manifests;
    std::vector<sim::CampaignCell> base;
    std::size_t paperCells = 0;
    for (const std::string &name : names) {
        manifests.push_back(loadManifest(options, name));
        const std::vector<sim::CampaignCell> cells =
            sim::campaignFromJson(manifests.back()).cells();
        if (name == "paper-default")
            paperCells = cells.size();
        base.insert(base.end(), cells.begin(), cells.end());
    }
    const Table1 table1 = loadTable1(options.root + "/BENCH_table1.json");
    svc::CampaignService service(inMemoryService(1));
    const std::size_t n = base.size();

    // Repetition 0 keeps the manifest seeds; every later repetition
    // gets its own derived machine seed, so its row profiles and
    // result-cache keys are cold.
    auto cellAt = [&](std::size_t index) {
        sim::CampaignCell cell = base[index % n];
        if (const std::size_t rep = index / n)
            cell.config.seed = deriveSeed(run.seed, rep);
        return cell;
    };

    run.endSetup();
    if (options.setupOnly)
        return run.result;

    struct Done
    {
        std::size_t index;
        sim::CellResult result;
        bool cached;
    };
    std::vector<std::vector<Done>> done(kThreads);
    std::uint64_t ctaCells = 0;
    std::uint64_t ctaBreaches = 0;
    std::vector<std::vector<double>> seconds(kThreads);
    std::mutex claimMutex;
    std::size_t next = 0;
    bool closed = false;
    std::string threadError;

    LoopFacts loop;
    loop.clientThreads = kThreads;
    loop.before = sample(&service);
    const Clock::time_point loopStart = Clock::now();

    // Whole repetitions only: a new one starts while the run is short
    // of its seconds or of kMinOps ops.
    auto claim = [&]() -> std::optional<std::size_t> {
        std::lock_guard<std::mutex> lock(claimMutex);
        if (!closed && next % n == 0 && next >= kMinOps &&
            secondsSince(loopStart) >= options.seconds)
            closed = true;
        if (closed)
            return std::nullopt;
        return next++;
    };
    auto client = [&](unsigned t) {
        try {
            while (const std::optional<std::size_t> index = claim()) {
                const sim::CampaignCell cell = cellAt(*index);
                svc::CampaignService::CellOutcome outcome;
                seconds[t].push_back(
                    timed(run.tracer, "svc.CampaignService.runCellCached",
                          t + 1,
                          [&] { outcome = service.runCellCached(cell); }));
                done[t].push_back(
                    {*index, std::move(outcome.result), outcome.cached});
            }
        } catch (const std::exception &err) {
            std::lock_guard<std::mutex> lock(claimMutex);
            closed = true;
            threadError = err.what();
        }
    };
    {
        Tracer::Scope scope(run.tracer, "loop", kMainTrack);
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kThreads; ++t) {
            run.tracer.nameTrack(t + 1, "client " + std::to_string(t));
            clients.emplace_back(client, t);
        }
        for (std::thread &thread : clients)
            thread.join();
    }
    loop.wallSeconds = secondsSince(loopStart);
    loop.after = sample(&service);
    for (const std::vector<double> &s : seconds)
        loop.opSeconds.insert(loop.opSeconds.end(), s.begin(), s.end());
    if (!threadError.empty())
        run.checkFailure("client thread stopped: " + threadError);

    // Output checks, after the clock stops.
    //
    // At the manifest seeds (repetition 0) every CTA cell must keep
    // the invariant, as Table 1 and the per-arch sweeps claim.  At
    // derived seeds the model's CTA guarantee is probabilistic: the
    // fault rate is boosted to pf = 1e-3 for simulation scale, single-
    // level CTA leaves upper paging levels open (the paper's Section 7),
    // and Algorithm 1 reports a breach as "statistically expected".  So
    // derived-seed breaches are counted and listed, not failed.
    std::optional<Json> paperRow;
    std::optional<Json> ctaRow;
    for (const std::vector<Done> &list : done) {
        for (const Done &d : list) {
            ++run.result.attempted;
            const Json row = sim::toJson(d.result);
            const std::string &defense =
                row.at("cell").at("config").at("defense").asString();
            std::string why;
            if (d.cached)
                why = "cold cell was served from the result cache";
            if (why.empty() && d.index < paperCells) {
                why = checkTable1Row(row, table1);
                if (!paperRow)
                    paperRow = row;
            }
            if (why.empty())
                why = checkCtaInvariant(row);
            if (d.index >= n && (defense == "cta" ||
                                 defense == "cta-restricted")) {
                ++ctaCells;
                if (!why.empty()) {
                    ++ctaBreaches;
                    run.result.notes.push_back(
                        "derived-seed CTA breach, op " +
                        std::to_string(d.index) + ": " + why);
                    why.clear();
                }
            }
            if (!ctaRow && defense == "cta")
                ctaRow = row;
            if (!why.empty()) {
                ++run.result.failed;
                run.opFailure(d.index, why);
            }
        }
    }

    // Planted wrong expectations: each check must report them.
    if (paperRow && ctaRow) {
        Table1 wrongClass = table1;
        wrongClass[table1Key(*paperRow)].outcomeClass += "-planted";
        run.planted("Table-1 outcome class",
                    checkTable1Row(*paperRow, wrongClass));
        Table1 wrongFlips = table1;
        ++wrongFlips[table1Key(*paperRow)].flips;
        run.planted("Table-1 flip count",
                    checkTable1Row(*paperRow, wrongFlips));
        Json escalated = *ctaRow;
        escalated.set("outcome", "ESCALATED");
        run.planted("escalated CTA cell", checkCtaInvariant(escalated));
        Json selfRef = *ctaRow;
        selfRef.set("selfReferences", std::uint64_t{1});
        run.planted("self-referencing CTA cell", checkCtaInvariant(selfRef));
    } else {
        run.checkFailure("no paper-default or CTA row to self-test on");
    }

    if (!options.trace) {
        run.endToEnd(loop, static_cast<double>(loop.opSeconds.size()));
        return run.result;
    }

    Probe probe;
    probe.cold = true;
    probe.ctaCells = ctaCells;
    probe.ctaBreaches = ctaBreaches;
    probe.manifests = manifests;
    std::size_t nextRep = (next + n - 1) / n;
    probe.cells = [&] {
        std::vector<sim::CampaignCell> cells;
        const std::size_t first = nextRep++ * n;
        for (std::size_t i = 0; i < n; ++i)
            cells.push_back(cellAt(first + i));
        return cells;
    };
    run.attribute(loop, probe);
    return run.result;
}

// ---------------------------------------------------------------------
// svc-edit

/**
 * Knobs the edit loop may change, one per defense row.  None is a
 * fault-model field (pf, seed, memBytes, rowBytes, cellPeriod), so an
 * edited cell hammers the same rows and finds its profiles cached.
 */
struct EditKnob
{
    const char *defense;
    const char *knob;
};
constexpr EditKnob kEditKnobs[] = {
    {"para", "paraProbability"},
    {"anvil", "anvilThreshold"},
};

/**
 * The default value of @p knob nudged by a step that is new for every
 * @p n: relative 1e-9 steps for real knobs, unit steps for integers.
 */
Json
nudged(const std::string &knob, std::uint64_t n)
{
    const Json base = sim::toJson(sim::MachineConfig{}).at(knob);
    if (base.numKind() == Json::NumKind::Double)
        return Json(base.asDouble() * (1.0 + 1e-9 * static_cast<double>(n)));
    return Json(base.asU64() + n);
}

RunResult
svcEdit(Run &run)
{
    const Options &options = run.options;
    const Json manifest = loadManifest(options, "paper-default");
    const Table1 table1 = loadTable1(options.root + "/BENCH_table1.json");
    const sim::Campaign original = sim::campaignFromJson(manifest);

    // Editable defense rows of this manifest, in a seed-shuffled
    // rotation.
    std::vector<EditKnob> knobs;
    for (const Json &defense : manifest.at("defenses").items())
        for (const EditKnob &k : kEditKnobs)
            if (defense.asString() == k.defense)
                knobs.push_back(k);
    if (knobs.empty())
        throw std::runtime_error("paper-default has no editable row");
    for (std::size_t i = knobs.size() - 1; i > 0; --i) {
        const std::size_t j =
            deriveSeed(run.seed, kRowOrderStream + i) % (i + 1);
        std::swap(knobs[i], knobs[j]);
    }
    const std::uint64_t knobOffset =
        deriveSeed(run.seed, kKnobOffsetStream) % 1000;

    // Edit e: paper-default with one defense row's knob nudged.
    auto edited = [&](std::uint64_t e) {
        const EditKnob &k = knobs[e % knobs.size()];
        Json configs = Json::array();
        for (const Json &defense : manifest.at("defenses").items()) {
            Json config = Json::object();
            config.set("defense", defense);
            if (defense.asString() == k.defense)
                config.set(k.knob, nudged(k.knob, knobOffset + e + 1));
            configs.push(std::move(config));
        }
        Json out = Json::object();
        for (const Json::Member &member : manifest.members()) {
            if (member.key == "defenses")
                out.set("configs", configs);
            else
                out.set(member.key, member.value);
        }
        return out;
    };

    svc::CampaignService service(inMemoryService(kThreads));
    Client client(service, run.tracer, 1);
    run.tracer.nameTrack(1, "client");

    // Prime the service with one cold paper-default submission.
    const Reply primed = client.submit(manifest);
    if (!primed.done || primed.accepted != original.size() ||
        !primed.error.empty())
        throw std::runtime_error("priming submission failed: " +
                                 primed.error);
    for (std::size_t i = 0; i < primed.rows.size(); ++i) {
        const std::string &bytes = primed.rows[i];
        const Json row = Json::parse(bytes);
        for (const std::string &why :
             {checkTable1Row(row, table1), checkCtaInvariant(row)})
            if (!why.empty())
                run.checkFailure("priming row " + std::to_string(i) + ": " +
                                 why);
    }
    run.endSetup();
    if (options.setupOnly)
        return run.result;

    LoopFacts loop;
    loop.before = sample(&service);
    double editHits = 0, editLookups = 0, resubmitHits = 0,
           resubmitLookups = 0;
    std::vector<std::string> editRows;
    std::vector<char> changed;
    Json current;
    std::uint64_t op = 0;
    const Clock::time_point loopStart = Clock::now();
    {
        Tracer::Scope scope(run.tracer, "loop", kMainTrack);
        // Whole groups of one edit and three resubmissions.
        while (op % 4 != 0 || op < kMinOps ||
               secondsSince(loopStart) < options.seconds) {
            const bool edit = op % 4 == 0;
            if (edit) {
                current = edited(op / 4);
                sim::Campaign campaign;
                run.expandSeconds.push_back(
                    timed(run.tracer, "sim.campaignFromJson", 1, [&] {
                        campaign = sim::campaignFromJson(current);
                    }));
                changed.assign(campaign.size(), 0);
                for (std::size_t i = 0; i < campaign.size(); ++i)
                    changed[i] = !(i < original.size() &&
                                   campaign.cells()[i] ==
                                       original.cells()[i]);
            }
            const svc::CacheStats before = service.cache().stats();
            const Reply reply = client.submit(current);
            const svc::CacheStats after = service.cache().stats();
            loop.opSeconds.push_back(reply.seconds);
            (edit ? editHits : resubmitHits) += after.hits - before.hits;
            (edit ? editLookups : resubmitLookups) +=
                (after.hits + after.misses) - (before.hits + before.misses);

            // Checks.
            ++run.result.attempted;
            std::string why;
            if (!reply.done || !reply.error.empty() ||
                reply.accepted != changed.size())
                why = "submission not completed: " + reply.error;
            if (edit)
                editRows.assign(changed.size(), {});
            for (std::size_t i = 0; why.empty() && i < changed.size();
                 ++i) {
                if (!changed[i]) {
                    why = checkReplayRow(reply.cached[i], reply.rows[i],
                                         primed.rows[i]);
                } else if (edit) {
                    if (reply.cached[i])
                        why = "edited cell " + std::to_string(i) +
                            " was served from the cache";
                    const std::string &bytes = reply.rows[i];
                    if (why.empty())
                        why = checkCtaInvariant(Json::parse(bytes));
                    editRows[i] = bytes;
                } else {
                    why = checkReplayRow(reply.cached[i], reply.rows[i],
                                         editRows[i]);
                }
            }
            if (!why.empty()) {
                ++run.result.failed;
                run.opFailure(op, why);
            }
            ++op;
        }
    }
    loop.wallSeconds = secondsSince(loopStart);
    loop.after = sample(&service);
    run.wire = client.samples;

    // Planted wrong expectations.
    const std::string &row0 = primed.rows.front();
    run.planted("altered expected row",
                checkReplayRow(true, row0, row0 + " "));
    run.planted("uncached replay", checkReplayRow(false, row0, row0));
    {
        const Json row = Json::parse(row0);
        Table1 wrong = table1;
        wrong[table1Key(row)].outcomeClass += "-planted";
        run.planted("Table-1 outcome class", checkTable1Row(row, wrong));
    }

    if (!options.trace) {
        run.endToEnd(loop, static_cast<double>(op * original.size()));
        return run.result;
    }

    Probe probe;
    probe.manifests = {manifest, edited(0)};
    probe.editHitRatio = ratio(editHits, editLookups);
    probe.resubmitHitRatio = ratio(resubmitHits, resubmitLookups);
    const std::uint64_t freshEdit = op / 4 + 1;
    probe.cells = [&] {
        const sim::Campaign campaign =
            sim::campaignFromJson(edited(freshEdit));
        std::vector<sim::CampaignCell> cells;
        for (std::size_t i = 0; i < campaign.size(); ++i)
            if (!(campaign.cells()[i] == original.cells()[i]))
                cells.push_back(campaign.cells()[i]);
        return cells;
    };
    run.attribute(loop, probe);
    return run.result;
}

// ---------------------------------------------------------------------
// fuzz-search

RunResult
fuzzSearch(Run &run)
{
    const Options &options = run.options;
    const Json manifest = loadManifest(options, "trr-arms-race");
    const FuzzBaseline baseline =
        loadFuzzBaseline(options.root + "/BENCH_fuzz.json");
    FuzzSetup setup = fuzzSetupFrom(manifest);
    runtime::ThreadPool pool(kThreads);
    const std::uint64_t expectedPatterns =
        setup.params.population * setup.params.generations;

    // Build the arena's row profiles: one evaluation primes every
    // arena row through the shared cache.
    {
        fuzz::PatternFuzzer warm(setup.target, setup.params);
        warm.evaluate(fuzz::PatternBuilder(setup.params.builder,
                                           setup.params.timing)
                          .family("sync"));
    }
    run.endSetup();
    if (options.setupOnly)
        return run.result;

    LoopFacts loop;
    loop.before = sample(nullptr);
    Probe probe;
    std::optional<fuzz::FuzzOutcome> first;
    double patterns = 0.0;
    std::uint64_t op = 0;
    run.tracer.nameTrack(1, "client");
    const Clock::time_point loopStart = Clock::now();
    {
        Tracer::Scope scope(run.tracer, "loop", kMainTrack);
        while (op < kMinOps || secondsSince(loopStart) < options.seconds) {
            // Op 0 keeps the scenario's search seed; every later op
            // searches from its own derived seed.
            fuzz::FuzzParams params = setup.params;
            if (op > 0)
                params.seed = deriveSeed(run.seed, op);
            fuzz::PatternFuzzer fuzzer(setup.target, params);
            fuzz::FuzzOutcome outcome;
            loop.opSeconds.push_back(
                timed(run.tracer, "fuzz.PatternFuzzer.run", 1,
                      [&] { outcome = fuzzer.run(&pool); }));
            patterns += static_cast<double>(outcome.patternsEvaluated);

            ++run.result.attempted;
            const std::string why = checkFuzzOutcome(
                outcome, expectedPatterns,
                op == 0 ? std::optional<FuzzBaseline>(baseline)
                        : std::nullopt);
            if (!why.empty()) {
                ++run.result.failed;
                run.opFailure(op, why);
            }
            if (op == 0)
                first = outcome;
            probe.best = outcome.best;
            ++op;
        }
    }
    loop.wallSeconds = secondsSince(loopStart);
    loop.after = sample(nullptr);

    // Planted wrong expectations.
    run.planted("pattern count",
                checkFuzzOutcome(*first, expectedPatterns + 1, baseline));
    FuzzBaseline wrongFlips = baseline;
    ++wrongFlips.bestFlips;
    run.planted("best_flips baseline",
                checkFuzzOutcome(*first, expectedPatterns, wrongFlips));
    FuzzBaseline wrongGeneration = baseline;
    ++wrongGeneration.firstBypassGeneration;
    run.planted("first-bypass generation",
                checkFuzzOutcome(*first, expectedPatterns, wrongGeneration));

    if (!options.trace) {
        run.endToEnd(loop, patterns);
        return run.result;
    }

    probe.manifests = {manifest};
    probe.cells = [&] { return sim::campaignFromJson(manifest).cells(); };
    run.attribute(loop, probe);
    return run.result;
}

} // namespace

RunResult
runWorkload(const Options &options, Clock::time_point start)
{
    Run run(options, start);
    RunResult result;
    if (options.workload == "manifests-cold")
        result = manifestsCold(run);
    else if (options.workload == "svc-edit")
        result = svcEdit(run);
    else if (options.workload == "fuzz-search")
        result = fuzzSearch(run);
    else
        throw std::runtime_error("unknown workload " + options.workload);
    if (options.trace && !options.traceOut.empty() &&
        !run.tracer.writeChromeTrace(options.traceOut))
        throw std::runtime_error("cannot write " + options.traceOut);
    return result;
}

} // namespace perfbench
