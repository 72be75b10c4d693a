/**
 * @file
 * Pins the REF-clocked timed hammer path — the one attack replay
 * (sync_hammer, fuzz_hammer) runs on real machines.
 *
 * The golden test replays 200 seeded patterns through runPattern on
 * real engines (two banks, remap-free 8 KiB rows, 16 device rows per
 * refresh slot, TRR samplers of varying shape, arenas at both bank
 * edges) and compares flip counts, REF/TRR counters, outstanding
 * pressure and a hash of the flip-event sink against
 * tests/golden/timed_path.json.  Any change to the pressure
 * bookkeeping that moves a single flip, counter or event shows up
 * there.  Two focused tests cover bank isolation of the REF and drain
 * walks and TRR targets past the top of the bank.
 *
 * The schedule oracle keeps runPattern's original per-interval loop —
 * every entry tested against every interval — and checks that the
 * compiled replay, which precomputes one burst list per residue of the
 * frequencies' period, issues the identical onHammer/onRef sequence
 * and returns the identical result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "defense/trr_sampler.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "fuzz/pattern.hh"

namespace ctamem {
namespace {

using json::Json;

std::string
readFile(const std::string &relative)
{
    std::ifstream in(std::string(CTAMEM_SOURCE_DIR) + "/" + relative);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Two banks of 4096 rows: refsPerWindow 256 leaves 16 rows a slot. */
dram::DramConfig
twoBankConfig()
{
    dram::DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 8 * KiB;
    config.banks = 2;
    config.errors.pf = 5e-3;
    config.seed = 4242;
    return config;
}

constexpr dram::RefTiming kTiming{256, 5100};
constexpr std::uint64_t kPatterns = 200;
constexpr std::uint64_t kPerEngine = 4;  //!< patterns sharing a clock
constexpr std::uint64_t kArenaRows = 24;

/** Fill rows [first, last) of @p bank with one byte value. */
void
fillRows(dram::DramModule &module, std::uint64_t bank,
         std::uint64_t first, std::uint64_t last, std::uint8_t value)
{
    const dram::Geometry &geom = module.geometry();
    std::vector<std::uint8_t> buffer(geom.rowBytes(), value);
    for (std::uint64_t row = first; row < last; ++row) {
        module.write(geom.address(dram::Location{bank, row, 0}),
                     buffer.data(), buffer.size());
    }
}

/** Order-sensitive hash of every flip the sink collected. */
std::uint64_t
sinkHash(const std::vector<dram::FlipEvent> &events)
{
    std::uint64_t h = stableHash(events.size());
    for (const dram::FlipEvent &event : events) {
        h = stableHash(h, event.addr, event.bit,
                       static_cast<std::uint64_t>(event.dir));
    }
    return h;
}

/**
 * Replay the seeded pattern set and record, per pattern, what the
 * timed path reported.  Every kPerEngine patterns share one module,
 * engine and sampler, so the REF clock, TRR state and lazily created
 * per-bank bookkeeping carry over between replays.
 */
Json
captureTimedPath()
{
    const fuzz::BuilderParams builderParams{kArenaRows, 6, 4, 12};
    const fuzz::PatternBuilder builder(builderParams, kTiming);
    const std::vector<std::string> &families = fuzz::patternFamilies();
    const std::uint8_t fills[] = {0x00, 0xff, 0x55, 0xa3};

    Json records = Json::array();
    std::unique_ptr<dram::DramModule> module;
    std::unique_ptr<defense::TrrSamplerObserver> observer;
    std::unique_ptr<dram::RowHammerEngine> engine;
    std::vector<dram::FlipEvent> sink;
    for (std::uint64_t i = 0; i < kPatterns; ++i) {
        Rng rng(deriveSeed(0x71ed, i));
        if (i % kPerEngine == 0) {
            module = std::make_unique<dram::DramModule>(twoBankConfig());
            const std::uint64_t group = i / kPerEngine;
            if (group % 5 == 4) {
                observer.reset(); // an undefended module
            } else {
                observer = std::make_unique<defense::TrrSamplerObserver>(
                    1 + group % 3, 1 + group % 4,
                    deriveSeed(0x7225, group));
            }
            engine = std::make_unique<dram::RowHammerEngine>(
                *module, observer.get());
            engine->setRefTiming(kTiming);
            sink.clear();
            engine->setEventSink(&sink);
        }

        fuzz::HammeringPattern pattern;
        if (i < families.size()) {
            pattern = builder.family(families[i]);
        } else if (i % 3 == 0) {
            pattern = builder.random(rng);
        } else if (i % 3 == 1) {
            pattern = builder.mutate(builder.random(rng), rng);
        } else {
            const fuzz::HammeringPattern a = builder.random(rng);
            const fuzz::HammeringPattern b = builder.random(rng);
            pattern = builder.mutate(builder.crossover(a, b, rng), rng);
        }

        const std::uint64_t rows = module->geometry().rowsPerBank();
        fuzz::PatternRun run;
        run.bank = i % 2;
        run.windows = 1 + (i % 5 == 3);
        switch (i % 4) {
          case 0: run.baseRow = 0; break;
          case 1: run.baseRow = rows - kArenaRows / 2; break;
          default: run.baseRow = 1 + rng.below(rows - 2 * kArenaRows);
        }
        const std::uint64_t first = run.baseRow > 0 ? run.baseRow - 1 : 0;
        const std::uint64_t last =
            std::min(rows, run.baseRow + kArenaRows + 12);
        fillRows(*module, run.bank, first, last, fills[rng.below(4)]);

        const dram::HammerResult result =
            fuzz::runPattern(*engine, pattern, run);
        Json record = Json::object();
        record.set("flips10", result.flips10)
            .set("flips01", result.flips01)
            .set("refTicks", engine->stats().value("refTicks"))
            .set("trrRefreshes", engine->stats().value("trrRefreshes"))
            .set("pending",
                 static_cast<std::uint64_t>(engine->pendingPressureRows()))
            .set("sinkHash", sinkHash(sink));
        records.push(std::move(record));
    }
    return records;
}

TEST(TimedPathGolden, SeededReplaysMatchCheckedInCounters)
{
    const Json actual = captureTimedPath();
    const Json golden = Json::parse(readFile("tests/golden/timed_path.json"));
    ASSERT_EQ(golden.size(), kPatterns);
    std::uint64_t flips = 0;
    for (std::uint64_t i = 0; i < kPatterns; ++i) {
        EXPECT_EQ(actual.items()[i], golden.items()[i])
            << "pattern " << i << ": " << actual.items()[i].dump();
        flips += actual.items()[i].at("flips10").asU64() +
                 actual.items()[i].at("flips01").asU64();
    }
    // The pin is only as good as the flips it exercises.
    EXPECT_GT(flips, 1000u);
}

TEST(TimedPath, RefAndDrainLeaveOtherBanksAlone)
{
    dram::DramModule module(twoBankConfig());
    dram::RowHammerEngine engine(module);
    engine.setRefTiming({4, 1000});
    fillRows(module, 0, 0, 16, 0xff);
    fillRows(module, 1, 0, 16, 0xff);

    dram::HammerResult result;
    const std::uint64_t dose = dram::RowHammerEngine::activationsPerPass;
    for (const std::uint64_t bank : {0u, 1u}) {
        engine.activate(bank, 3, dose, 0, result);
        engine.activate(bank, 5, dose, 1, result);
    }
    // Victims 2, 4 and 6 in each bank.
    EXPECT_EQ(engine.pendingPressureRows(), 6u);

    // Interval 0 refreshes slot 0 — rows 0, 4, 8... of bank 0 only.
    engine.refTick(0, result);
    EXPECT_EQ(engine.pendingPressureRows(), 5u);
    EXPECT_GT(result.total(), 0u);

    const std::uint64_t before = result.total();
    engine.drainPressure(0, result);
    EXPECT_EQ(engine.pendingPressureRows(), 3u);
    EXPECT_GT(result.total(), before);

    // Bank 1's pressure survived both walks intact: draining it now
    // flips exactly what the same dose does on a fresh engine.
    dram::HammerResult bank1;
    engine.drainPressure(1, bank1);
    EXPECT_EQ(engine.pendingPressureRows(), 0u);

    dram::DramModule fresh_module(twoBankConfig());
    dram::RowHammerEngine fresh(fresh_module);
    fresh.setRefTiming({4, 1000});
    fillRows(fresh_module, 1, 0, 16, 0xff);
    dram::HammerResult reference;
    fresh.activate(1, 3, dose, 0, reference);
    fresh.activate(1, 5, dose, 1, reference);
    fresh.drainPressure(1, reference);
    EXPECT_EQ(bank1.flips10, reference.flips10);
    EXPECT_EQ(bank1.flips01, reference.flips01);
}

TEST(TimedPath, TrrTargetsPastTheTopRowAreCountedNotStored)
{
    dram::DramModule module(twoBankConfig());
    const std::uint64_t top = module.geometry().rowsPerBank() - 1;
    // One slot, a latch window covering every burst: the sampler
    // holds the top row and targets top - 1 and top + 1 at REF.
    defense::TrrSamplerObserver observer(1, 4, 1);
    dram::RowHammerEngine engine(module, &observer);
    engine.setRefTiming({8, 1000});

    dram::HammerResult result;
    engine.activate(0, top, 500, 0, result);
    EXPECT_EQ(engine.pendingPressureRows(), 1u); // only top - 1
    engine.refTick(0, result);
    EXPECT_EQ(engine.stats().value("trrRefreshes"), 2u);
    EXPECT_EQ(engine.pendingPressureRows(), 0u);

    // The same on the second bank, whose pressure is created lazily
    // by this very burst.
    engine.activate(1, top, 500, 0, result);
    engine.refTick(1, result);
    EXPECT_EQ(engine.stats().value("trrRefreshes"), 4u);
    EXPECT_EQ(engine.pendingPressureRows(), 0u);
    EXPECT_EQ(result.total(), 0u);
}

/**
 * runPattern as it was before the replay was compiled to its period:
 * every interval tests every entry for its firing interval.  Kept
 * verbatim as the schedule oracle.
 */
dram::HammerResult
referenceRunPattern(dram::RowHammerEngine &engine,
                    const fuzz::HammeringPattern &pattern,
                    const fuzz::PatternRun &run)
{
    dram::HammerResult result;
    const dram::RefTiming &timing = engine.refTiming();
    const std::uint64_t rows =
        engine.module().geometry().rowsPerBank();
    const std::uint64_t intervals =
        run.windows * timing.refsPerWindow;

    std::vector<std::uint64_t> order(pattern.entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint64_t lhs, std::uint64_t rhs) {
                  const std::uint64_t sl = pattern.entries[lhs].slot;
                  const std::uint64_t sr = pattern.entries[rhs].slot;
                  return sl != sr ? sl < sr : lhs < rhs;
              });
    std::vector<std::uint64_t> next(pattern.entries.size());
    for (std::size_t i = 0; i < next.size(); ++i) {
        const fuzz::PatternEntry &entry = pattern.entries[i];
        next[i] = entry.phase % entry.frequency;
    }

    for (std::uint64_t t = 0; t < intervals; ++t) {
        std::uint64_t budget = timing.actsPerInterval;
        std::uint64_t position = 0;
        for (const std::uint64_t index : order) {
            if (next[index] != t)
                continue;
            const fuzz::PatternEntry &entry = pattern.entries[index];
            next[index] += entry.frequency;
            const std::uint64_t bursts = entry.pairGap ? 2 : 1;
            for (std::uint64_t burst = 0; burst < bursts; ++burst) {
                if (budget == 0)
                    break;
                const std::uint64_t row = run.baseRow +
                                          entry.rowOffset +
                                          burst * entry.pairGap;
                const std::uint64_t acts =
                    std::min(entry.activations, budget);
                if (row < rows) {
                    engine.activate(run.bank, row, acts, position,
                                    result);
                }
                budget -= acts;
                ++position;
            }
        }
        engine.refTick(run.bank, result);
    }
    engine.drainPressure(run.bank, result);
    return result;
}

/**
 * Records every burst and REF the engine announces, in order, then
 * defers to a TRR sampler so targeted refreshes shape the result.
 */
class ScheduleRecorder final : public dram::DisturbanceObserver
{
  public:
    explicit ScheduleRecorder(std::uint64_t seed) : trr_(1, 2, seed) {}

    bool
    onHammer(const dram::DisturbanceEvent &event) override
    {
        calls.push_back({event.refInterval, event.aggressorRow,
                         event.activations, event.phase});
        return trr_.onHammer(event);
    }

    void
    onRef(const dram::RefEvent &event,
          std::vector<std::uint64_t> &refresh_rows) override
    {
        calls.push_back({event.interval, ~0ULL, 0, 0}); // a REF
        trr_.onRef(event, refresh_rows);
    }

    /** (interval, aggressor row or ~0 for a REF, acts, phase). */
    std::vector<std::array<std::uint64_t, 4>> calls;

  private:
    defense::TrrSamplerObserver trr_;
};

/**
 * Replay one pattern both ways on fresh engines and compare all;
 * adds the flips and bursts the replay produced to @p flips and
 * @p bursts.
 */
void
expectSameSchedule(const fuzz::HammeringPattern &pattern,
                   const dram::RefTiming &timing,
                   const fuzz::PatternRun &run, std::uint64_t seed,
                   std::uint64_t &flips, std::uint64_t &bursts)
{
    struct Side
    {
        dram::DramModule module{twoBankConfig()};
        ScheduleRecorder recorder;
        dram::RowHammerEngine engine{module, &recorder};
        explicit Side(std::uint64_t s) : recorder(s) {}
    };
    Side compiled(seed), reference(seed);
    const std::uint64_t rows = compiled.module.geometry().rowsPerBank();
    const std::uint64_t first = run.baseRow > 0 ? run.baseRow - 1 : 0;
    const std::uint64_t last = std::min(rows, run.baseRow + 40);
    for (Side *side : {&compiled, &reference}) {
        fillRows(side->module, run.bank, first, last,
                 static_cast<std::uint8_t>(seed));
        side->engine.setRefTiming(timing);
        side->engine.setRecordEvents(true);
    }

    const dram::HammerResult got =
        fuzz::runPattern(compiled.engine, pattern, run);
    const dram::HammerResult want =
        referenceRunPattern(reference.engine, pattern, run);
    ASSERT_EQ(compiled.recorder.calls, reference.recorder.calls)
        << "pattern hash " << pattern.hash();
    EXPECT_EQ(got.flips10, want.flips10);
    EXPECT_EQ(got.flips01, want.flips01);
    EXPECT_EQ(got.suppressed, want.suppressed);
    flips += got.total();
    bursts += std::count_if(
        compiled.recorder.calls.begin(), compiled.recorder.calls.end(),
        [](const std::array<std::uint64_t, 4> &call) {
            return call[1] != ~0ULL;
        });
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t i = 0; i < got.events.size(); ++i) {
        EXPECT_EQ(got.events[i].addr, want.events[i].addr);
        EXPECT_EQ(got.events[i].bit, want.events[i].bit);
        EXPECT_EQ(got.events[i].dir, want.events[i].dir);
    }
}

/** Families, then @p count random, mutant and crossover patterns. */
std::vector<fuzz::HammeringPattern>
schedulePatterns(const fuzz::BuilderParams &params,
                 const dram::RefTiming &timing, std::uint64_t count)
{
    const fuzz::PatternBuilder builder(params, timing);
    std::vector<fuzz::HammeringPattern> patterns;
    for (const std::string &family : fuzz::patternFamilies())
        patterns.push_back(builder.family(family));
    for (std::uint64_t i = 0; i < count; ++i) {
        Rng rng(deriveSeed(0x5c4e, i));
        const fuzz::HammeringPattern a = builder.random(rng);
        switch (i % 3) {
          case 0: patterns.push_back(a); break;
          case 1: patterns.push_back(builder.mutate(a, rng)); break;
          default:
            patterns.push_back(builder.mutate(
                builder.crossover(a, builder.random(rng), rng), rng));
        }
    }
    return patterns;
}

TEST(TimedPath, CompiledReplayIssuesTheReferenceSchedule)
{
    const fuzz::BuilderParams params{kArenaRows, 8, 4, 12};
    const std::vector<fuzz::HammeringPattern> patterns =
        schedulePatterns(params, kTiming, 1000);
    std::uint64_t flips = 0, bursts = 0;
    for (std::uint64_t i = 0; i < patterns.size(); ++i) {
        fuzz::PatternRun run;
        run.bank = i % 2;
        run.baseRow = 1 + 97 * i % 3000;
        expectSameSchedule(patterns[i], kTiming, run, i, flips, bursts);
    }
    // The oracle is only as good as the schedule it exercises.
    EXPECT_GT(flips, 1000u);
    EXPECT_GT(bursts, 100'000u);
}

TEST(TimedPath, CompiledReplayMatchesOnScheduleEdges)
{
    std::uint64_t flips = 0, bursts = 0;
    // A period longer than the run: lcm(frequencies <= 13) exceeds
    // 8 intervals, so the compiled period is capped at the run.
    {
        const dram::RefTiming timing{8, 400};
        const fuzz::BuilderParams params{kArenaRows, 8, 13, 6};
        for (const fuzz::HammeringPattern &pattern :
             schedulePatterns(params, timing, 120)) {
            fuzz::PatternRun run;
            run.baseRow = 50;
            expectSameSchedule(pattern, timing, run, 3, flips, bursts);
            run.windows = 2;
            expectSameSchedule(pattern, timing, run, 4, flips, bursts);
        }
    }

    const dram::RefTiming tight{16, 7};
    fuzz::HammeringPattern pattern;
    pattern.entries = {
        // budget 7: 4 + 3 exhausts it mid-pair ...
        fuzz::PatternEntry{0, 2, 1, 0, 0, 4},
        // ... so this single-sided entry never fires in interval 0
        fuzz::PatternEntry{9, 0, 1, 0, 1, 2},
        // single-sided, phase past its frequency, zero activations
        fuzz::PatternEntry{5, 0, 3, 5, 0, 0},
        fuzz::PatternEntry{12, 0, 5, 2, 2, 3},
        fuzz::PatternEntry{3, 2, 11, 7, 0, 1},
    };
    const std::uint64_t rows = 4096;
    for (const std::uint64_t base :
         {std::uint64_t{0}, std::uint64_t{200}, rows - 6, rows - 1}) {
        fuzz::PatternRun run;
        run.bank = 1;
        run.baseRow = base; // the last two reach past the last row
        for (const std::uint64_t windows : {1, 2}) {
            run.windows = windows;
            expectSameSchedule(pattern, tight, run, base + windows, flips,
                               bursts);
            expectSameSchedule(pattern, kTiming, run, base, flips, bursts);
        }
    }
    // Budget-exhausting random patterns over two windows.
    const fuzz::BuilderParams params{kArenaRows, 8, 4, 12};
    for (const fuzz::HammeringPattern &random :
         schedulePatterns(params, tight, 150)) {
        fuzz::PatternRun run;
        run.baseRow = rows - kArenaRows / 2;
        run.windows = 2;
        expectSameSchedule(random, tight, run, 9, flips, bursts);
    }
    // Budgets this small flip nothing: the schedule is the check.
    EXPECT_GT(bursts, 10'000u);
}

} // namespace
} // namespace ctamem
