/**
 * @file
 * Output checks of the benchmark.  Every timed op's output is checked
 * against one of these, and an op that fails any of them counts as a
 * failed op.  Each check returns an empty string when the output is
 * right and a one-line reason otherwise, so every run can feed them
 * planted wrong expectations and prove that each one can fail.
 *
 *  - checkTable1Row: a paper-default cell run with the manifest seed
 *    must reproduce its BENCH_table1.json entry exactly (outcome
 *    class, flips induced, hammer passes);
 *  - checkCtaInvariant: the paper's claim — a CTA or CTA-restricted
 *    cell never escalates and never yields a self-referencing PTE;
 *  - checkReplayRow: a cell served from the result cache comes back
 *    flagged cached and byte-identical to the row first computed;
 *  - checkFuzzOutcome: a search evaluates population x generations
 *    patterns, and the default-seed search reproduces BENCH_fuzz.json.
 */

#ifndef CTAMEM_PERFBENCH_CHECKS_HH
#define CTAMEM_PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "fuzz/fuzzer.hh"

namespace perfbench {

/** One BENCH_table1.json entry. */
struct Table1Entry
{
    std::string outcomeClass; //!< outcome name, "*" when ANVIL fired
    std::uint64_t flips = 0;
    std::uint64_t passes = 0;
};

/** Entries keyed "<attack>__<defense>". */
using Table1 = std::map<std::string, Table1Entry>;

Table1 loadTable1(const std::string &path);

/** The deterministic BENCH_fuzz.json outputs of the default search. */
struct FuzzBaseline
{
    std::uint64_t bestFlips = 0;
    std::uint64_t firstBypassGeneration = 0;
};

FuzzBaseline loadFuzzBaseline(const std::string &path);

/** "<attack>__<defense>" of a CellResult row (sim::toJson form). */
std::string table1Key(const ctamem::json::Json &row);

std::string checkTable1Row(const ctamem::json::Json &row,
                           const Table1 &expected);

std::string checkCtaInvariant(const ctamem::json::Json &row);

/**
 * @param row          result bytes of the returned cell frame
 * @param expected_row result bytes first computed for the cell
 */
std::string checkReplayRow(bool cached, std::string_view row,
                           std::string_view expected_row);

/**
 * @param baseline only for the default-seed search; nullopt otherwise
 */
std::string checkFuzzOutcome(const ctamem::fuzz::FuzzOutcome &outcome,
                             std::uint64_t expected_patterns,
                             const std::optional<FuzzBaseline> &baseline);

} // namespace perfbench

#endif // CTAMEM_PERFBENCH_CHECKS_HH
