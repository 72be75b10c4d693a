/**
 * @file
 * Tests for the declarative scenario layer: registry name round
 * trips, config <-> JSON round trips over the Table-1 grid, golden
 * byte-stable output, and manifest-vs-programmatic campaign equality
 * for every checked-in scenario.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "attack/registry.hh"
#include "common/log.hh"
#include "defense/registry.hh"
#include "paging/arch.hh"
#include "sim/scenario.hh"
#include "sim/scenarios.hh"

namespace ctamem::sim {
namespace {

using defense::DefenseKind;
using json::Json;
using json::JsonError;

std::string
repoPath(const std::string &relative)
{
    return std::string(CTAMEM_SOURCE_DIR) + "/" + relative;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Registry, DefenseNamesRoundTrip)
{
    const auto &specs = defense::Registry::instance().all();
    ASSERT_GE(specs.size(), 9u); // 8 built-ins + SoftTRR
    for (const auto &spec : specs) {
        // token -> kind, display -> kind, kind -> token/display.
        EXPECT_EQ(defense::parseDefenseKind(spec->name), spec->kind)
            << spec->name;
        EXPECT_EQ(defense::parseDefenseKind(spec->display),
                  spec->kind)
            << spec->display;
        EXPECT_STREQ(defense::defenseToken(spec->kind),
                     spec->name.c_str());
        EXPECT_STREQ(defense::defenseName(spec->kind),
                     spec->display.c_str());
    }
    EXPECT_EQ(defense::parseDefenseKind("no-such-defense"),
              std::nullopt);
}

TEST(Registry, AttackNamesRoundTrip)
{
    const auto &specs = attack::Registry::instance().all();
    // 5 untimed attacks + uniform/sync_hammer/fuzz_hammer.
    ASSERT_EQ(specs.size(), 8u);
    for (const auto &spec : specs) {
        EXPECT_EQ(attack::parseAttackKind(spec->name), spec->kind)
            << spec->name;
        EXPECT_EQ(attack::parseAttackKind(spec->display), spec->kind)
            << spec->display;
        EXPECT_STREQ(attack::attackToken(spec->kind),
                     spec->name.c_str());
        EXPECT_STREQ(attack::attackName(spec->kind),
                     spec->display.c_str());
    }
    EXPECT_EQ(attack::parseAttackKind("no-such-attack"),
              std::nullopt);
}

TEST(Scenario, MachineConfigRoundTripsOverTable1Grid)
{
    // Every Table-1 config, plus every tunable moved off its default.
    std::vector<MachineConfig> grid = scenarios::table1Configs();
    MachineConfig tweaked;
    tweaked.memBytes = 512 * MiB;
    tweaked.rowBytes = 64 * KiB;
    tweaked.banks = 4;
    tweaked.cellPeriod = 128;
    tweaked.pf = 5e-4;
    tweaked.seed = 99;
    tweaked.defense = DefenseKind::SoftTrr;
    tweaked.ptpBytes = 8 * MiB;
    tweaked.refreshBoostFactor = 8;
    tweaked.paraProbability = 0.01;
    tweaked.anvilThreshold = 123'456;
    tweaked.softTrrThreshold = 250'000;
    tweaked.softTrrTracked = 16;
    grid.push_back(tweaked);

    for (const MachineConfig &config : grid) {
        const MachineConfig back =
            machineConfigFromJson(toJson(config));
        EXPECT_TRUE(back == config)
            << defense::defenseName(config.defense);
        // And through actual text, not just the value tree.
        const MachineConfig reparsed =
            machineConfigFromJson(Json::parse(toJson(config).dump()));
        EXPECT_TRUE(reparsed == config);
    }
}

TEST(Scenario, CtaConfigRoundTrips)
{
    cta::CtaConfig config;
    config.ptpBytes = 16 * MiB;
    config.minIndicatorZeros = 3;
    config.multiLevelZones = true;
    config.screenPageSizeBit = true;
    const cta::CtaConfig back = ctaConfigFromJson(toJson(config));
    EXPECT_EQ(back.ptpBytes, config.ptpBytes);
    EXPECT_EQ(back.minIndicatorZeros, config.minIndicatorZeros);
    EXPECT_EQ(back.multiLevelZones, config.multiLevelZones);
    EXPECT_EQ(back.screenPageSizeBit, config.screenPageSizeBit);
}

TEST(Scenario, CampaignCellRoundTrips)
{
    CampaignCell cell;
    cell.config.defense = DefenseKind::CtaRestricted;
    cell.config.pf = 1e-4;
    cell.attack = AttackKind::Drammer;
    cell.label = "drammer vs restricted CTA";
    const CampaignCell back = campaignCellFromJson(toJson(cell));
    EXPECT_TRUE(back == cell);
}

TEST(Scenario, ConfigOverlaysOntoBase)
{
    MachineConfig base;
    base.defense = DefenseKind::Cta;
    base.pf = 1e-4;
    const Json overlay = Json::parse(R"({"pf": 0.01, "seed": 7})");
    const MachineConfig merged =
        machineConfigFromJson(overlay, base);
    EXPECT_EQ(merged.defense, DefenseKind::Cta); // kept from base
    EXPECT_DOUBLE_EQ(merged.pf, 0.01);           // overridden
    EXPECT_EQ(merged.seed, 7u);                  // overridden
}

TEST(Scenario, UnknownKeysAreHardErrors)
{
    EXPECT_THROW(machineConfigFromJson(
                     Json::parse(R"({"memBytez": 1024})")),
                 JsonError);
    EXPECT_THROW(ctaConfigFromJson(
                     Json::parse(R"({"ptbBytes": 1024})")),
                 JsonError);
    EXPECT_THROW(campaignCellFromJson(
                     Json::parse(R"({"atack": "drammer"})")),
                 JsonError);
    EXPECT_THROW(campaignFromJson(
                     Json::parse(R"({"defences": ["cta"]})")),
                 JsonError);
    // ...while comment-prefixed keys are fine anywhere.
    EXPECT_NO_THROW(machineConfigFromJson(
        Json::parse(R"({"comment": "x", "comment-2": "y"})")));
}

TEST(Scenario, ManifestSchemaViolationsThrow)
{
    // A grid needs attacks...
    EXPECT_THROW(
        campaignFromJson(Json::parse(R"({"defenses": ["cta"]})")),
        JsonError);
    // ...defenses and configs are exclusive...
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["cta"], "configs": [{}],
                         "attacks": ["drammer"]})")),
                 JsonError);
    // ...an empty manifest describes no cells...
    EXPECT_THROW(campaignFromJson(Json::parse("{}")), JsonError);
    // ...and unknown defense/attack names fail loudly.
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["ctaa"],
                         "attacks": ["drammer"]})")),
                 JsonError);
    EXPECT_THROW(campaignFromJson(Json::parse(
                     R"({"defenses": ["cta"],
                         "attacks": ["hammer2000"]})")),
                 JsonError);
}

TEST(Scenario, SchemaVersionGatesManifests)
{
    // The current version parses...
    Json manifest = Json::parse(
        R"({"defenses": ["cta"], "attacks": ["drammer"]})");
    manifest.set("schema_version", kScenarioSchemaVersion);
    EXPECT_EQ(campaignFromJson(manifest).size(), 1u);

    // ...and so does v3: v4 is a strict superset (the arch/granule
    // keys default to the historical x86-64 machine), so the v3
    // manifest corpus keeps its exact meaning.
    manifest.set("schema_version", std::uint64_t{3});
    EXPECT_EQ(campaignFromJson(manifest).size(), 1u);

    // ...any other version is a hard error naming the field, never a
    // best-effort parse of a stale manifest.
    for (const std::uint64_t bad :
         {std::uint64_t{0}, std::uint64_t{2},
          kScenarioSchemaVersion + 1}) {
        manifest.set("schema_version", bad);
        try {
            campaignFromJson(manifest);
            FAIL() << "schema_version " << bad << " was accepted";
        } catch (const JsonError &err) {
            EXPECT_NE(std::string(err.what()).find("schema_version"),
                      std::string::npos);
        }
    }
}

TEST(Scenario, CheckedInManifestsCarryTheSchemaVersion)
{
    for (const auto &entry : std::filesystem::directory_iterator(
             repoPath("scenarios"))) {
        if (entry.path().extension() != ".json")
            continue;
        const Json manifest =
            Json::parseFile(entry.path().string());
        const Json *version = manifest.find("schema_version");
        ASSERT_NE(version, nullptr) << entry.path();
        EXPECT_EQ(version->asU64(), kScenarioSchemaVersion)
            << entry.path();
    }
}

TEST(Scenario, ArchKeysRoundTripAndGateTheirValues)
{
    // Non-default backend: both keys serialize and round-trip.
    MachineConfig config;
    config.arch = paging::Isa::AArch64;
    config.granule = 16 * KiB;
    EXPECT_TRUE(machineConfigFromJson(toJson(config)) == config);

    // At the defaults they serialize to *nothing*: a v3 manifest and
    // its v4 twin produce identical canonical dumps, so svc cache
    // keys for unchanged machines survive the schema bump.
    const std::string dump = toJson(MachineConfig{}).dump();
    EXPECT_EQ(dump.find("arch"), std::string::npos);
    EXPECT_EQ(dump.find("granule"), std::string::npos);

    // Unknown ISA names and unsupported (isa, granule) pairs are
    // hard errors at parse time, not boot-time fatals.
    EXPECT_THROW(
        machineConfigFromJson(Json::parse(R"({"arch": "riscv"})")),
        JsonError);
    EXPECT_THROW(machineConfigFromJson(
                     Json::parse(R"({"granule": 16384})")),
                 JsonError); // x86-64 is 4 KiB only
    EXPECT_THROW(machineConfigFromJson(Json::parse(
                     R"({"arch": "aarch64", "granule": 8192})")),
                 JsonError);
    EXPECT_NO_THROW(machineConfigFromJson(Json::parse(
        R"({"arch": "aarch64", "granule": 65536})")));
}

TEST(Scenario, MachineConfigGoldenBytes)
{
    // The serialized default config, byte for byte.  If this fails
    // because MachineConfig deliberately changed, regenerate the
    // golden file from toJson(MachineConfig{}).dump().
    const std::string golden =
        readFile(repoPath("tests/golden/machine_config.json"));
    EXPECT_EQ(toJson(MachineConfig{}).dump() + "\n", golden);
}

/** A fixed 2-cell report: no attacks run, every field pinned. */
CampaignReport
twoCellReport()
{
    CampaignReport report;
    CellResult first;
    first.cell.config.defense = DefenseKind::None;
    first.cell.attack = AttackKind::ProjectZero;
    first.cell.label = "spray vs vanilla";
    first.result.outcome = attack::Outcome::Escalated;
    first.result.attackTime = 123456789;
    first.result.hammerPasses = 3;
    first.result.flipsInduced = 17;
    first.result.ptesCorrupted = 2;
    first.result.selfReferences = 1;
    first.result.detail = "golden fixture, not a real run";

    CellResult second;
    second.cell.config.defense = DefenseKind::Cta;
    second.cell.config.pf = 1e-4;
    second.cell.attack = AttackKind::Algorithm1;
    second.cell.label = "algorithm1 vs cta";
    second.result.outcome = attack::Outcome::Blocked;
    second.result.detail = "zone holds";
    second.anvilTriggered = false;

    report.cells.push_back(std::move(first));
    report.cells.push_back(std::move(second));
    report.wallSeconds = 0.0; // pinned: golden bytes can't drift
    return report;
}

TEST(Scenario, CampaignReportGoldenBytes)
{
    const std::string golden =
        readFile(repoPath("tests/golden/campaign_report.json"));
    EXPECT_EQ(twoCellReport().toJson().dump() + "\n", golden);
}

TEST(Scenario, ReportJsonRoundTripsItsCells)
{
    const Json j = twoCellReport().toJson();
    ASSERT_EQ(j.at("cells").size(), 2u);
    // The embedded cell configs parse back to the originals.
    const CampaignCell back = campaignCellFromJson(
        j.at("cells").items()[1].at("cell"));
    EXPECT_TRUE(back == twoCellReport().cells[1].cell);
}

TEST(Scenario, ManifestsMatchTheirProgrammaticTwins)
{
    const struct
    {
        const char *path;
        Campaign campaign;
    } pairs[] = {
        {"scenarios/paper-default.json", scenarios::paperDefault()},
        {"scenarios/hardened.json", scenarios::hardened()},
        {"scenarios/ablation.json", scenarios::pfAblation()},
    };
    for (const auto &[path, programmatic] : pairs) {
        const Campaign loaded =
            Campaign::fromManifest(repoPath(path));
        // Cell-for-cell identical: same configs, same attacks, same
        // labels, same order — so the two runs produce the same
        // report table.
        EXPECT_TRUE(loaded.cells() == programmatic.cells()) << path;
    }
}

TEST(Scenario, AnnotatedExampleManifestLoads)
{
    const Campaign campaign = Campaign::fromManifest(
        repoPath("scenarios/example-annotated.json"));
    // 2 defenses x 2 attacks + 1 explicit cell.
    ASSERT_EQ(campaign.size(), 5u);
    const CampaignCell &last = campaign.cells().back();
    EXPECT_EQ(last.label, "drammer vs a hardened mobile stack");
    EXPECT_EQ(last.config.defense, DefenseKind::SoftTrr);
    EXPECT_EQ(last.config.softTrrThreshold, 250'000u);
    // base fields flowed into the explicit cell's config.
    EXPECT_EQ(last.config.seed, 1234u);
}

TEST(Scenario, ManifestCampaignRunsLikeProgrammatic)
{
    // The acceptance check end to end, on a small deterministic
    // slice: running the manifest-loaded campaign produces the same
    // outcomes as the programmatic preset.
    Campaign manifest = Campaign::fromManifest(
        repoPath("scenarios/ablation.json"));
    Campaign programmatic = scenarios::pfAblation();
    manifest.truncate(2);
    programmatic.truncate(2);
    const CampaignReport a = manifest.run();
    const CampaignReport b = programmatic.run();
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_TRUE(a.cells[i].cell == b.cells[i].cell);
        EXPECT_EQ(a.cells[i].result.outcome,
                  b.cells[i].result.outcome);
        EXPECT_EQ(a.cells[i].result.flipsInduced,
                  b.cells[i].result.flipsInduced);
    }
}

TEST(Scenario, SoftTrrEntersSweepsPurelyByName)
{
    // SoftTRR was added via registration only (no machine.cc /
    // kernel.cc edits): naming it in a manifest is enough to put it
    // in a Table-1-style sweep.
    const Campaign campaign =
        Campaign::fromManifest(repoPath("scenarios/hardened.json"));
    bool found = false;
    for (const CampaignCell &cell : campaign.cells())
        found |= cell.config.defense == DefenseKind::SoftTrr;
    EXPECT_TRUE(found);

    MachineConfig config;
    config.defense = DefenseKind::SoftTrr;
    Machine machine(config);
    ASSERT_NE(machine.observer(), nullptr);
    EXPECT_STREQ(machine.observer()->name(), "SoftTRR");
}

/**
 * Parse a machine config whose fuzz block sets @p key to 0; returns
 * the FatalError message, or "" when the parse was accepted.
 */
std::string
zeroFuzzKeyError(const std::string &key)
{
    try {
        machineConfigFromJson(
            Json::parse(R"({"fuzz": {")" + key + R"(": 0}})"));
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

// Each of these once reached Rng::below(0) (SIGFPE) or ran a search
// of zero REF intervals; the manifest layer now names the key.
TEST(FuzzBlock, ZeroMaxPeriodIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("maxPeriod").find("fuzz.maxPeriod"),
              std::string::npos);
}

TEST(FuzzBlock, ZeroMaxSlotsIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("maxSlots").find("fuzz.maxSlots"),
              std::string::npos);
}

TEST(FuzzBlock, ZeroMaxEntriesIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("maxEntries").find("fuzz.maxEntries"),
              std::string::npos);
}

TEST(FuzzBlock, ZeroActsPerIntervalIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("actsPerInterval")
                  .find("fuzz.actsPerInterval"),
              std::string::npos);
}

TEST(FuzzBlock, ZeroRefsPerWindowIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("refsPerWindow").find("fuzz.refsPerWindow"),
              std::string::npos);
}

TEST(FuzzBlock, ZeroWindowsIsRejected)
{
    EXPECT_NE(zeroFuzzKeyError("windows").find("fuzz.windows"),
              std::string::npos);
    // The other keys keep accepting zero (0 = derive the seed).
    EXPECT_EQ(zeroFuzzKeyError("seed"), "");
}

} // namespace
} // namespace ctamem::sim
