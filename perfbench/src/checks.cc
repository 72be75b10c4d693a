#include "checks.hh"

namespace perfbench {

using ctamem::json::Json;

Table1
loadTable1(const std::string &path)
{
    const Json baseline = Json::parseFile(path);
    Table1 table;
    for (const Json::Member &member : baseline.members()) {
        Table1Entry entry;
        entry.outcomeClass = member.value.at("unit").asString();
        entry.flips =
            static_cast<std::uint64_t>(member.value.at("value").asDouble());
        entry.passes = member.value.at("iterations").asU64();
        table.emplace(member.key, std::move(entry));
    }
    return table;
}

FuzzBaseline
loadFuzzBaseline(const std::string &path)
{
    const Json j = Json::parseFile(path);
    FuzzBaseline baseline;
    baseline.bestFlips = static_cast<std::uint64_t>(
        j.at("best_flips").at("value").asDouble());
    baseline.firstBypassGeneration = static_cast<std::uint64_t>(
        j.at("generations_to_first_bypass").at("value").asDouble());
    return baseline;
}

std::string
table1Key(const Json &row)
{
    const Json &cell = row.at("cell");
    return cell.at("attack").asString() + "__" +
        cell.at("config").at("defense").asString();
}

std::string
checkTable1Row(const Json &row, const Table1 &expected)
{
    const std::string key = table1Key(row);
    const auto it = expected.find(key);
    if (it == expected.end())
        return key + ": no BENCH_table1.json entry";
    std::string outcomeClass = row.at("outcome").asString();
    if (row.at("anvilTriggered").asBool())
        outcomeClass += "*";
    const std::uint64_t flips = row.at("flipsInduced").asU64();
    const std::uint64_t passes = row.at("hammerPasses").asU64();
    const Table1Entry &want = it->second;
    if (outcomeClass != want.outcomeClass || flips != want.flips ||
        passes != want.passes) {
        return key + ": got " + outcomeClass + "/" +
            std::to_string(flips) + " flips/" + std::to_string(passes) +
            " passes, BENCH_table1.json has " + want.outcomeClass + "/" +
            std::to_string(want.flips) + "/" + std::to_string(want.passes);
    }
    return {};
}

std::string
checkCtaInvariant(const Json &row)
{
    const std::string &defense =
        row.at("cell").at("config").at("defense").asString();
    if (defense != "cta" && defense != "cta-restricted")
        return {};
    const std::string &outcome = row.at("outcome").asString();
    const std::uint64_t selfReferences = row.at("selfReferences").asU64();
    if (outcome == "ESCALATED" || outcome == "SELF-REFERENCE" ||
        selfReferences != 0) {
        return row.at("cell").at("label").asString() + " (seed " +
            std::to_string(row.at("cell").at("config").at("seed").asU64()) +
            "): CTA invariant broken, outcome " + outcome + ", " +
            std::to_string(selfReferences) + " self-references";
    }
    return {};
}

std::string
checkReplayRow(bool cached, std::string_view row,
               std::string_view expected_row)
{
    if (!cached)
        return "unchanged cell was not served from the cache";
    if (row != expected_row)
        return "cached row differs from the row first computed";
    return {};
}

std::string
checkFuzzOutcome(const ctamem::fuzz::FuzzOutcome &outcome,
                 std::uint64_t expected_patterns,
                 const std::optional<FuzzBaseline> &baseline)
{
    if (outcome.patternsEvaluated != expected_patterns) {
        return "search evaluated " +
            std::to_string(outcome.patternsEvaluated) +
            " patterns, expected " + std::to_string(expected_patterns);
    }
    if (baseline && (outcome.bestFlips != baseline->bestFlips ||
                     outcome.firstBypassGeneration !=
                         baseline->firstBypassGeneration)) {
        return "default-seed search found " +
            std::to_string(outcome.bestFlips) +
            " flips at generation " +
            std::to_string(outcome.firstBypassGeneration) +
            ", BENCH_fuzz.json has " + std::to_string(baseline->bestFlips) +
            " at generation " +
            std::to_string(baseline->firstBypassGeneration);
    }
    return {};
}

} // namespace perfbench
