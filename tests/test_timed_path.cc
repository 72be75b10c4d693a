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
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
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

} // namespace
} // namespace ctamem
