/**
 * @file
 * Tests for the campaign service stack: wire framing, the two-tier
 * content-addressed result cache, and the CampaignService protocol
 * loop — streaming, backpressure, and, over every checked-in
 * manifest, served cells equal to a local run and a bit-identical
 * resubmission.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "dram/hammer.hh"
#include "sim/scenario.hh"
#include "svc/cache.hh"
#include "svc/server.hh"
#include "svc/wire.hh"

namespace ctamem::svc {
namespace {

using json::Json;
using sim::CampaignCell;

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

/** A scratch directory removed on scope exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path() /
                 ("ctamem-test-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---------------------------------------------------------------
// Wire framing

TEST(Wire, FramesRoundTrip)
{
    Json message = Json::object();
    message.set("type", std::string("submit"))
        .set("id", std::uint64_t{7})
        .set("nested", Json::array());

    std::stringstream stream;
    writeFrame(stream, message);
    writeFrame(stream, Json::object().set("type",
                                          std::string("ping")));

    const auto first = readFrame(stream);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->dump(), message.dump());
    const auto second = readFrame(stream);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->at("type").asString(), "ping");
    EXPECT_FALSE(readFrame(stream).has_value()); // clean EOF
}

TEST(Wire, CleanEofBetweenFramesIsNotAnError)
{
    std::stringstream empty;
    EXPECT_FALSE(readFrame(empty).has_value());
}

TEST(Wire, TruncatedPrefixThrows)
{
    std::stringstream stream;
    stream.write("\x05\x00", 2);
    EXPECT_THROW(readFrame(stream), WireError);
}

TEST(Wire, TruncatedPayloadThrows)
{
    std::stringstream stream;
    writeFrame(stream, Json::object().set("k", std::string("v")));
    std::string bytes = stream.str();
    bytes.resize(bytes.size() - 3); // cut into the payload
    std::stringstream cut(bytes);
    EXPECT_THROW(readFrame(cut), WireError);
}

TEST(Wire, OversizedLengthPrefixThrows)
{
    std::stringstream stream;
    stream.write("\xff\xff\xff\xff", 4);
    EXPECT_THROW(readFrame(stream), WireError);
}

TEST(Wire, NonJsonPayloadThrows)
{
    std::stringstream stream;
    stream.write("\x03\x00\x00\x00!!!", 7);
    EXPECT_THROW(readFrame(stream), WireError);
}

// ---------------------------------------------------------------
// Content-addressed cache

TEST(Cache, KeysSeparateCellsAndTrackSchema)
{
    CampaignCell cell;
    cell.label = "a";
    const std::string base = cellCacheKey(cell);
    EXPECT_EQ(cellCacheKey(cell), base); // stable

    CampaignCell other = cell;
    other.config.seed += 1;
    EXPECT_NE(cellCacheKey(other), base);

    other = cell;
    other.attack = sim::AttackKind::Drammer;
    EXPECT_NE(cellCacheKey(other), base);

    other = cell;
    other.label = "b";
    EXPECT_NE(cellCacheKey(other), base);
}

TEST(Cache, MemoryTierHitsAndMisses)
{
    ResultCache cache(4);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.insert("k1", Json::object().set("x", std::uint64_t{1}));
    const auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("x").asU64(), 1u);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.memHits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.memEntries, 1u);
}

TEST(Cache, LruEvictsOldestAtCapacity)
{
    ResultCache cache(2);
    cache.insert("a", Json::object());
    cache.insert("b", Json::object());
    ASSERT_TRUE(cache.lookup("a").has_value()); // "a" now most recent
    cache.insert("c", Json::object());          // evicts "b"

    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.memEntries, 2u);
}

TEST(Cache, DiskTierSurvivesTheProcessCache)
{
    TempDir dir("cache");
    {
        ResultCache cache(4, dir.path());
        cache.insert("k", Json::object().set("v", std::uint64_t{42}));
    }
    ResultCache fresh(4, dir.path());
    const auto hit = fresh.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("v").asU64(), 42u);

    const CacheStats stats = fresh.stats();
    EXPECT_EQ(stats.diskHits, 1u);
    EXPECT_EQ(stats.memEntries, 1u); // promoted into the LRU

    // Second lookup is served from memory.
    ASSERT_TRUE(fresh.lookup("k").has_value());
    EXPECT_EQ(fresh.stats().memHits, 1u);
}

TEST(Cache, RacingDiskWritersOfOneKeyLeaveOneCompleteEntry)
{
    // Writers of one key carry different values (rows hold wall-clock
    // fields), here of different lengths so that one writer's bytes
    // over another's would show.  Once one insert has landed, every
    // disk lookup, during the race and after it, must return one
    // whole entry, and no writer's temp file may be left behind.
    TempDir dir("cache-race");
    constexpr unsigned kWriters = 8;
    constexpr unsigned kRounds = 32;
    const auto valueOf = [](std::uint64_t w, std::uint64_t r) {
        return Json::object()
            .set("writer", w)
            .set("round", r)
            .set("pad", std::string((8 - w) * 16 * 1024, char('a' + w)));
    };
    const auto complete = [&](const std::optional<Json> &hit) {
        if (!hit)
            return false;
        const std::uint64_t w = hit->at("writer").asU64();
        const std::uint64_t r = hit->at("round").asU64();
        return w < kWriters && r < kRounds && *hit == valueOf(w, r);
    };

    ResultCache cache(4, dir.path());
    cache.insert("k", valueOf(0, 0));
    std::atomic<bool> writing{true};
    std::atomic<unsigned> torn{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            do {
                ResultCache fresh(1, dir.path());
                if (!complete(fresh.lookup("k")))
                    ++torn;
            } while (writing);
        });
    }
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned r = 0; r < kRounds; ++r)
                cache.insert("k", valueOf(w, r));
        });
    }
    for (std::thread &writer : writers)
        writer.join();
    writing = false;
    for (std::thread &reader : readers)
        reader.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_TRUE(complete(ResultCache(1, dir.path()).lookup("k")));
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
}

// ---------------------------------------------------------------
// CampaignService protocol

std::vector<Json>
roundTrip(CampaignService &service, const std::vector<Json> &requests)
{
    std::stringstream in;
    for (const Json &request : requests)
        writeFrame(in, request);
    std::stringstream out;
    service.serve(in, out);
    std::vector<Json> responses;
    while (auto frame = readFrame(out))
        responses.push_back(std::move(*frame));
    return responses;
}

Json
submitRequest(const Json &manifest, std::uint64_t id)
{
    Json request = Json::object();
    request.set("type", std::string("submit"))
        .set("id", id)
        .set("manifest", manifest);
    return request;
}

/** The smallest checked-in manifest, truncated via base tweaks. */
Json
tinyManifest(std::uint64_t seed = 1)
{
    Json base = Json::object();
    base.set("seed", seed);
    Json manifest = Json::object();
    manifest.set("schema_version", sim::kScenarioSchemaVersion)
        .set("base", std::move(base))
        .set("defenses",
             Json::array().push(std::string("none")).push(
                 std::string("cta")))
        .set("attacks",
             Json::array().push(std::string("projectzero")));
    return manifest;
}

ServiceConfig
testServiceConfig(const std::string &cacheDir = {})
{
    ServiceConfig config;
    config.workers = 2;
    config.cacheDir = cacheDir;
    return config;
}

TEST(Service, PingStatsAndUnknownTypes)
{
    CampaignService service(testServiceConfig());
    Json ping = Json::object();
    ping.set("type", std::string("ping"));
    Json stats = Json::object();
    stats.set("type", std::string("stats"));
    Json bogus = Json::object();
    bogus.set("type", std::string("frobnicate"));

    const auto responses = roundTrip(service, {ping, stats, bogus});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].at("type").asString(), "pong");
    EXPECT_EQ(responses[1].at("type").asString(), "stats");
    EXPECT_EQ(responses[1].at("schemaVersion").asU64(),
              sim::kScenarioSchemaVersion);
    EXPECT_EQ(responses[1].at("profileCache").at("raceLosses").asU64(),
              dram::profileCacheStats().raceLosses);
    EXPECT_EQ(responses[2].at("type").asString(), "error");
}

TEST(Service, SubmissionStreamsCellsThenReport)
{
    CampaignService service(testServiceConfig());
    const auto responses =
        roundTrip(service, {submitRequest(tinyManifest(), 5)});

    ASSERT_GE(responses.size(), 2u);
    EXPECT_EQ(responses.front().at("type").asString(), "accepted");
    const std::uint64_t cells =
        responses.front().at("cells").asU64();
    EXPECT_EQ(cells, 2u);
    EXPECT_EQ(responses.back().at("type").asString(), "done");
    EXPECT_EQ(responses.back().at("id").asU64(), 5u);

    // Every index streams exactly once, in some completion order.
    std::vector<bool> seen(cells, false);
    for (std::size_t i = 1; i + 1 < responses.size(); ++i) {
        ASSERT_EQ(responses[i].at("type").asString(), "cell");
        seen[responses[i].at("index").asU64()] = true;
    }
    for (std::size_t i = 0; i < cells; ++i)
        EXPECT_TRUE(seen[i]) << "cell " << i << " never streamed";

    // The report is manifest-ordered regardless of completion order.
    const Json &report = responses.back().at("report");
    ASSERT_EQ(report.at("cells").size(), cells);
    EXPECT_EQ(report.at("cells")
                  .items()[0]
                  .at("cell")
                  .at("config")
                  .at("defense")
                  .asString(),
              "none");
}

TEST(Service, ResubmissionIsFullyCachedAndBitIdentical)
{
    CampaignService service(testServiceConfig());
    const Json request = submitRequest(tinyManifest(), 1);
    const auto cold = roundTrip(service, {request});
    const auto cached = roundTrip(service, {request});

    ASSERT_EQ(cold.back().at("type").asString(), "done");
    ASSERT_EQ(cached.back().at("type").asString(), "done");
    EXPECT_EQ(cached.back().at("cachedCells").asU64(), 2u);

    // Bit-identical: the replayed report's cell table serializes to
    // the same bytes as the cold run's (wallSeconds of the *report*
    // wrapper differs; the cells and their stored timings do not).
    EXPECT_EQ(cold.back().at("report").at("cells").dump(),
              cached.back().at("report").at("cells").dump());
    EXPECT_EQ(cold.back().at("report").at("cellSecondsTotal").dump(),
              cached.back()
                  .at("report")
                  .at("cellSecondsTotal")
                  .dump());

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.cellsExecuted, 2u);
    EXPECT_EQ(counters.cellsCached, 2u);
}

TEST(Service, DiskCacheServesAFreshService)
{
    TempDir dir("svc-disk");
    const Json request = submitRequest(tinyManifest(2), 1);

    std::string coldCells;
    {
        CampaignService service(testServiceConfig(dir.path()));
        const auto cold = roundTrip(service, {request});
        coldCells = cold.back().at("report").at("cells").dump();
    }

    // A brand-new service (empty memory tier) replays from disk.
    CampaignService fresh(testServiceConfig(dir.path()));
    const auto cached = roundTrip(fresh, {request});
    EXPECT_EQ(cached.back().at("cachedCells").asU64(), 2u);
    EXPECT_EQ(cached.back().at("report").at("cells").dump(),
              coldCells);
    EXPECT_EQ(fresh.counters().cellsExecuted, 0u);
}

TEST(Service, OverCapacitySubmissionsAreRejected)
{
    ServiceConfig config = testServiceConfig();
    config.queueCapacity = 1; // the 2-cell manifest cannot fit
    CampaignService service(config);

    const auto responses =
        roundTrip(service, {submitRequest(tinyManifest(), 9)});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].at("type").asString(), "rejected");
    EXPECT_EQ(responses[0].at("reason").asString(), "queue-full");
    EXPECT_EQ(responses[0].at("id").asU64(), 9u);
    EXPECT_EQ(service.counters().jobsRejected, 1u);
}

TEST(Service, BadManifestsGetErrorFrames)
{
    CampaignService service(testServiceConfig());

    Json badVersion = tinyManifest();
    badVersion.set("schema_version",
                   sim::kScenarioSchemaVersion + 1);
    Json noManifest = Json::object();
    noManifest.set("type", std::string("submit"))
        .set("id", std::uint64_t{3});

    const auto responses = roundTrip(
        service, {submitRequest(badVersion, 2), noManifest});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].at("type").asString(), "error");
    EXPECT_NE(responses[0].at("message").asString().find(
                  "schema_version"),
              std::string::npos);
    EXPECT_EQ(responses[1].at("type").asString(), "error");
}

TEST(Service, ZeroFuzzBoundsGetErrorFramesNotACrash)
{
    // A zero search bound used to reach Rng::below(0) in a pool
    // worker and take the daemon down; it is now a submit error.
    CampaignService service(testServiceConfig());
    Json fuzz = Json::object();
    fuzz.set("maxSlots", std::uint64_t{0});
    Json base = Json::object();
    base.set("fuzz", std::move(fuzz));
    Json manifest = tinyManifest();
    manifest.set("base", std::move(base))
        .set("attacks", Json::array().push(std::string("fuzz_hammer")));

    const auto responses = roundTrip(
        service,
        {submitRequest(manifest, 4), submitRequest(tinyManifest(), 5)});
    // The error, then the next submission: accepted, 2 cells, done.
    ASSERT_EQ(responses.size(), 5u);
    EXPECT_EQ(responses[0].at("type").asString(), "error");
    EXPECT_NE(
        responses[0].at("message").asString().find("fuzz.maxSlots"),
        std::string::npos);
    EXPECT_EQ(responses.back().at("type").asString(), "done");
}

TEST(Service, ShutdownAnswersByeAndStops)
{
    CampaignService service(testServiceConfig());
    Json shutdown = Json::object();
    shutdown.set("type", std::string("shutdown"));
    Json ping = Json::object();
    ping.set("type", std::string("ping"));

    // The ping after shutdown is never read.
    const auto responses = roundTrip(service, {shutdown, ping});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].at("type").asString(), "bye");
}

TEST(Service, CheckedInManifestsReplayBitIdentically)
{
    // For every checked-in manifest, the served cold cells equal a
    // local Campaign run's (wall-clock aside), and resubmitting
    // yields a report whose cells are byte-identical to the cold
    // run's.
    CampaignService service(testServiceConfig());
    std::size_t manifests = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             repoPath("scenarios"))) {
        if (entry.path().extension() != ".json")
            continue;
        ++manifests;
        const Json manifest =
            Json::parseFile(entry.path().string());
        const Json request = submitRequest(manifest, manifests);

        const auto cold = roundTrip(service, {request});
        const auto warm = roundTrip(service, {request});
        ASSERT_EQ(cold.back().at("type").asString(), "done")
            << entry.path();
        ASSERT_EQ(warm.back().at("type").asString(), "done")
            << entry.path();

        const std::uint64_t cells =
            cold.front().at("cells").asU64();
        EXPECT_EQ(warm.back().at("cachedCells").asU64(), cells)
            << entry.path();
        EXPECT_EQ(cold.back().at("report").at("cells").dump(),
                  warm.back().at("report").at("cells").dump())
            << entry.path();

        sim::CampaignReport local =
            sim::campaignFromJson(manifest).run();
        const Json::Array &served =
            cold.back().at("report").at("cells").items();
        ASSERT_EQ(served.size(), local.cells.size()) << entry.path();
        for (std::size_t i = 0; i < served.size(); ++i) {
            sim::CellResult fromService =
                sim::cellResultFromJson(served[i]);
            fromService.wallSeconds = 0;
            local.cells[i].wallSeconds = 0;
            EXPECT_EQ(sim::toJson(fromService).dump(),
                      sim::toJson(local.cells[i]).dump())
                << entry.path() << " cell " << i;
        }
    }
    EXPECT_GE(manifests, 4u);
}

} // namespace
} // namespace ctamem::svc
