#include "sim/scenario.hh"

#include "attack/registry.hh"
#include "defense/registry.hh"
#include "fuzz/fuzzer.hh"

namespace ctamem::sim {

using json::Json;
using json::JsonError;

namespace {

/** "comment", "comment-1", "commentary"... all ignored. */
bool
isComment(const std::string &key)
{
    return key.rfind("comment", 0) == 0;
}

[[noreturn]] void
unknownKey(const char *what, const std::string &key)
{
    throw JsonError(std::string("unknown ") + what + " key \"" + key +
                    "\"");
}

defense::DefenseKind
parseDefense(const Json &j)
{
    const std::string &name = j.asString();
    const auto kind = defense::parseDefenseKind(name);
    if (!kind) {
        std::string known;
        for (const auto &spec : defense::Registry::instance().all())
            known += " " + spec->name;
        throw JsonError("unknown defense \"" + name +
                        "\" (known:" + known + ")");
    }
    return *kind;
}

AttackKind
parseAttack(const Json &j)
{
    const std::string &name = j.asString();
    const auto kind = parseAttackKind(name);
    if (!kind) {
        std::string known;
        for (const auto &spec : attack::Registry::instance().all())
            known += " " + spec->name;
        throw JsonError("unknown attack \"" + name +
                        "\" (known:" + known + ")");
    }
    return *kind;
}

unsigned
asUnsigned(const Json &j)
{
    const std::uint64_t value = j.asU64();
    if (value > 0xffffffffULL)
        throw JsonError("value out of unsigned range");
    return static_cast<unsigned>(value);
}

Json
fuzzToJson(const fuzz::FuzzParams &params)
{
    Json j = Json::object();
    j.set("population", params.population)
        .set("generations", params.generations)
        .set("windows", params.windows)
        .set("seed", params.seed)
        .set("refsPerWindow", params.timing.refsPerWindow)
        .set("actsPerInterval", params.timing.actsPerInterval)
        .set("arenaRows", params.builder.arenaRows)
        .set("maxEntries", params.builder.maxEntries)
        .set("maxPeriod", params.builder.maxPeriod)
        .set("maxSlots", params.builder.maxSlots);
    return j;
}

fuzz::FuzzParams
fuzzFromJson(const Json &j, const fuzz::FuzzParams &base)
{
    fuzz::FuzzParams params = base;
    for (const Json::Member &member : j.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key))
            continue;
        else if (key == "population")
            params.population = value.asU64();
        else if (key == "generations")
            params.generations = value.asU64();
        else if (key == "windows")
            params.windows = value.asU64();
        else if (key == "seed")
            params.seed = value.asU64();
        else if (key == "refsPerWindow")
            params.timing.refsPerWindow = value.asU64();
        else if (key == "actsPerInterval")
            params.timing.actsPerInterval = value.asU64();
        else if (key == "arenaRows")
            params.builder.arenaRows = value.asU64();
        else if (key == "maxEntries")
            params.builder.maxEntries = value.asU64();
        else if (key == "maxPeriod")
            params.builder.maxPeriod = value.asU64();
        else if (key == "maxSlots")
            params.builder.maxSlots = value.asU64();
        else
            unknownKey("fuzz", key);
    }
    fuzz::checkParams(params);
    return params;
}

} // namespace

Json
toJson(const MachineConfig &config)
{
    Json j = Json::object();
    j.set("memBytes", config.memBytes)
        .set("rowBytes", config.rowBytes)
        .set("banks", config.banks)
        .set("cellPeriod", config.cellPeriod)
        .set("pf", config.pf)
        .set("seed", config.seed)
        .set("defense",
             std::string(defense::defenseToken(config.defense)))
        .set("ptpBytes", config.ptpBytes)
        .set("ctaMultiLevelZones", config.ctaMultiLevelZones)
        .set("ctaScreenPageSize", config.ctaScreenPageSize)
        .set("refreshBoostFactor", config.refreshBoostFactor)
        .set("paraProbability", config.paraProbability)
        .set("anvilThreshold", config.anvilThreshold)
        .set("softTrrThreshold", config.softTrrThreshold)
        .set("softTrrTracked", config.softTrrTracked)
        .set("trrSamplers", config.trrSamplers)
        .set("trrWindow", config.trrWindow)
        .set("fuzz", fuzzToJson(config.fuzz));
    // The historical x86-64 machine serializes exactly as it did in
    // schema v3: the arch keys appear only off the default, keeping
    // golden manifests and cache keys byte-identical.
    if (config.arch != paging::Isa::X86_64 ||
        config.granule != 4 * KiB) {
        j.set("arch", std::string(paging::isaName(config.arch)))
            .set("granule", config.granule);
    }
    return j;
}

MachineConfig
machineConfigFromJson(const Json &j, const MachineConfig &base)
{
    MachineConfig config = base;
    for (const Json::Member &member : j.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key))
            continue;
        else if (key == "memBytes")
            config.memBytes = value.asU64();
        else if (key == "rowBytes")
            config.rowBytes = value.asU64();
        else if (key == "banks")
            config.banks = value.asU64();
        else if (key == "cellPeriod")
            config.cellPeriod = value.asU64();
        else if (key == "pf")
            config.pf = value.asDouble();
        else if (key == "seed")
            config.seed = value.asU64();
        else if (key == "defense")
            config.defense = parseDefense(value);
        else if (key == "ptpBytes")
            config.ptpBytes = value.asU64();
        else if (key == "ctaMultiLevelZones")
            config.ctaMultiLevelZones = value.asBool();
        else if (key == "ctaScreenPageSize")
            config.ctaScreenPageSize = value.asBool();
        else if (key == "refreshBoostFactor")
            config.refreshBoostFactor = asUnsigned(value);
        else if (key == "paraProbability")
            config.paraProbability = value.asDouble();
        else if (key == "anvilThreshold")
            config.anvilThreshold = value.asU64();
        else if (key == "softTrrThreshold")
            config.softTrrThreshold = value.asU64();
        else if (key == "softTrrTracked")
            config.softTrrTracked = value.asU64();
        else if (key == "trrSamplers")
            config.trrSamplers = asUnsigned(value);
        else if (key == "trrWindow")
            config.trrWindow = asUnsigned(value);
        else if (key == "fuzz")
            config.fuzz = fuzzFromJson(value, base.fuzz);
        else if (key == "arch") {
            if (!paging::parseIsa(value.asString(), config.arch)) {
                throw JsonError("unknown arch \"" + value.asString() +
                                "\" (known: x86_64 aarch64)");
            }
        } else if (key == "granule")
            config.granule = value.asU64();
        else
            unknownKey("MachineConfig", key);
    }
    // Reject unbuildable (arch, granule) pairs at parse time, where
    // the error can name the manifest instead of aborting the run.
    if (config.arch == paging::Isa::X86_64) {
        if (config.granule != 4 * KiB)
            throw JsonError("x86_64 supports only the 4 KiB granule");
    } else if (config.granule != 4 * KiB &&
               config.granule != 16 * KiB &&
               config.granule != 64 * KiB) {
        throw JsonError("aarch64 granule must be 4, 16 or 64 KiB");
    }
    return config;
}

Json
toJson(const cta::CtaConfig &config)
{
    Json j = Json::object();
    j.set("ptpBytes", config.ptpBytes)
        .set("minIndicatorZeros", config.minIndicatorZeros)
        .set("multiLevelZones", config.multiLevelZones)
        .set("screenPageSizeBit", config.screenPageSizeBit);
    return j;
}

cta::CtaConfig
ctaConfigFromJson(const Json &j, const cta::CtaConfig &base)
{
    cta::CtaConfig config = base;
    for (const Json::Member &member : j.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key))
            continue;
        else if (key == "ptpBytes")
            config.ptpBytes = value.asU64();
        else if (key == "minIndicatorZeros")
            config.minIndicatorZeros = asUnsigned(value);
        else if (key == "multiLevelZones")
            config.multiLevelZones = value.asBool();
        else if (key == "screenPageSizeBit")
            config.screenPageSizeBit = value.asBool();
        else
            unknownKey("CtaConfig", key);
    }
    return config;
}

Json
toJson(const CampaignCell &cell)
{
    Json j = Json::object();
    j.set("label", cell.label)
        .set("attack", std::string(attackToken(cell.attack)))
        .set("config", toJson(cell.config));
    return j;
}

CampaignCell
campaignCellFromJson(const Json &j, const MachineConfig &base)
{
    CampaignCell cell;
    cell.config = base;
    for (const Json::Member &member : j.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key))
            continue;
        else if (key == "label")
            cell.label = value.asString();
        else if (key == "attack")
            cell.attack = parseAttack(value);
        else if (key == "config")
            cell.config = machineConfigFromJson(value, base);
        else
            unknownKey("CampaignCell", key);
    }
    return cell;
}

Json
toJson(const CellResult &result)
{
    Json j = Json::object();
    j.set("cell", toJson(result.cell))
        .set("outcome",
             std::string(attack::outcomeName(result.result.outcome)))
        .set("detail", result.result.detail)
        .set("attackTime",
             static_cast<std::uint64_t>(result.result.attackTime))
        .set("hammerPasses", result.result.hammerPasses)
        .set("flipsInduced", result.result.flipsInduced)
        .set("ptesCorrupted", result.result.ptesCorrupted)
        .set("selfReferences", result.result.selfReferences)
        .set("anvilTriggered", result.anvilTriggered)
        .set("wallSeconds", result.wallSeconds);
    return j;
}

CellResult
cellResultFromJson(const Json &j)
{
    CellResult result;
    for (const Json::Member &member : j.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key))
            continue;
        else if (key == "cell")
            result.cell = campaignCellFromJson(value);
        else if (key == "outcome") {
            const auto outcome =
                attack::parseOutcome(value.asString());
            if (!outcome) {
                throw JsonError("unknown outcome \"" +
                                value.asString() + "\"");
            }
            result.result.outcome = *outcome;
        } else if (key == "detail")
            result.result.detail = value.asString();
        else if (key == "attackTime")
            result.result.attackTime = value.asU64();
        else if (key == "hammerPasses")
            result.result.hammerPasses = value.asU64();
        else if (key == "flipsInduced")
            result.result.flipsInduced = value.asU64();
        else if (key == "ptesCorrupted")
            result.result.ptesCorrupted = value.asU64();
        else if (key == "selfReferences")
            result.result.selfReferences = value.asU64();
        else if (key == "anvilTriggered")
            result.anvilTriggered = value.asBool();
        else if (key == "wallSeconds")
            result.wallSeconds = value.asDouble();
        else
            unknownKey("CellResult", key);
    }
    return result;
}

Json
CampaignReport::toJson() const
{
    Json cellArray = Json::array();
    for (const CellResult &cell : cells)
        cellArray.push(sim::toJson(cell));
    Json j = Json::object();
    j.set("cells", std::move(cellArray))
        .set("wallSeconds", wallSeconds)
        .set("cellSecondsTotal", cellSecondsTotal());
    return j;
}

Campaign
campaignFromJson(const Json &manifest)
{
    MachineConfig base;
    std::vector<MachineConfig> configs;
    std::vector<AttackKind> attacks;
    const Json *configsJson = nullptr;
    const Json *cellsJson = nullptr;
    bool haveDefenses = false;

    // First pass: pull `base` so config/cell parsing can layer on it
    // regardless of key order.
    if (const Json *baseJson = manifest.find("base"))
        base = machineConfigFromJson(*baseJson);

    for (const Json::Member &member : manifest.members()) {
        const std::string &key = member.key;
        const Json &value = member.value;
        if (isComment(key) || key == "base")
            continue;
        else if (key == "schema_version") {
            // A manifest written against an incompatible schema must
            // fail loudly, not parse loosely.  v3 is accepted: v4 is
            // a strict superset whose added keys default to the v3
            // meaning.
            const std::uint64_t version = value.asU64();
            if (version != kScenarioSchemaVersion && version != 3) {
                throw JsonError(
                    "manifest schema_version " +
                    std::to_string(version) +
                    " does not match this build's schema version " +
                    std::to_string(kScenarioSchemaVersion));
            }
        } else if (key == "name" || key == "description")
            (void)value.asString();
        else if (key == "defenses") {
            haveDefenses = true;
            for (const Json &d : value.items()) {
                MachineConfig config = base;
                config.defense = parseDefense(d);
                configs.push_back(config);
            }
        } else if (key == "configs") {
            configsJson = &value;
        } else if (key == "attacks") {
            for (const Json &a : value.items())
                attacks.push_back(parseAttack(a));
        } else if (key == "cells") {
            cellsJson = &value;
        } else {
            unknownKey("manifest", key);
        }
    }

    if (haveDefenses && configsJson) {
        throw JsonError(
            "manifest: \"defenses\" and \"configs\" are exclusive "
            "ways to build the grid rows");
    }
    if (configsJson) {
        for (const Json &c : configsJson->items())
            configs.push_back(machineConfigFromJson(c, base));
    }
    if (!configs.empty() && attacks.empty()) {
        throw JsonError("manifest: a defense/config grid needs an "
                        "\"attacks\" list");
    }

    Campaign campaign;
    campaign.addGrid(configs, attacks);
    if (cellsJson) {
        for (const Json &c : cellsJson->items())
            campaign.add(campaignCellFromJson(c, base));
    }
    if (campaign.size() == 0)
        throw JsonError("manifest describes no cells");
    return campaign;
}

Campaign
Campaign::fromManifest(const std::string &path)
{
    return campaignFromJson(Json::parseFile(path));
}

} // namespace ctamem::sim
