/**
 * @file
 * Unit and property tests for the RowHammer engine: flip directions
 * per cell type, intensity thresholds, victim selection, observer
 * suppression, templating stability.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dram/hammer.hh"
#include "dram/module.hh"

namespace ctamem::dram {
namespace {

DramConfig
hammerConfig(double pf = 5e-3)
{
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    // Period 4 gives both cell types close together.
    config.cellMap = CellTypeMap::alternating(4);
    config.errors.pf = pf; // boosted so every row has many flips
    config.seed = 3;
    return config;
}

/** Fill a whole row with one byte value. */
void
fillRow(DramModule &module, std::uint64_t row, std::uint8_t value)
{
    std::vector<std::uint8_t> buffer(module.geometry().rowBytes(),
                                     value);
    module.write(row * module.geometry().rowBytes(), buffer.data(),
                 buffer.size());
}

TEST(Hammer, TrueCellVictimsFlipDownOnly)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    engine.setRecordEvents(true); // this test inspects the flip list
    // The disturbance reaches the victim (row 1) and the outer
    // neighbours of the aggressors (row 3); fill them all with ones.
    for (std::uint64_t row = 0; row <= 3; ++row)
        fillRow(module, row, 0xff);

    // Rows 0..3 are true cells; double-sided hammer on victim row 1.
    const HammerResult result = engine.hammerDoubleSided(0, 1);
    EXPECT_GT(result.flips10, 0u);
    EXPECT_EQ(result.flips01, 0u); // all-ones data: only 1->0 possible
    for (const FlipEvent &event : result.events)
        EXPECT_EQ(event.dir, FlipDirection::OneToZero);
}

TEST(Hammer, TrueCellAllZeroDataRarelyFlips)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0x00);

    const HammerResult result = engine.hammerDoubleSided(0, 1);
    // 0->1 flips exist but at 0.2% of the vulnerable population.
    EXPECT_EQ(result.flips10, 0u);
    const std::size_t vulnerable =
        engine.vulnerableBits(0, 1).size();
    EXPECT_LT(result.flips01, vulnerable / 50);
}

TEST(Hammer, AntiCellVictimsFlipUp)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    // Rows 4..7 are anti-cells.
    fillRow(module, 5, 0x00);
    const HammerResult result = engine.hammerDoubleSided(0, 5);
    EXPECT_GT(result.flips01, 0u);
    EXPECT_EQ(result.flips10, 0u);
}

TEST(Hammer, DoubleSidedBeatsSingleSided)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0xff);
    const HammerResult double_sided = engine.hammerDoubleSided(0, 1);

    DramModule module2(hammerConfig());
    RowHammerEngine engine2(module2);
    fillRow(module2, 1, 0xff);
    fillRow(module2, 0, 0xff);
    // Single-sided on row 0 disturbs row 1 at lower intensity.
    const HammerResult single = engine2.hammerRow(0, 0);
    EXPECT_GT(double_sided.flips10, single.flips10);
}

TEST(Hammer, RepeatHammerIsIdempotentOnSameData)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 1, 0xff);
    const HammerResult first = engine.hammerDoubleSided(0, 1);
    const HammerResult second = engine.hammerDoubleSided(0, 1);
    EXPECT_GT(first.flips10, 0u);
    EXPECT_EQ(second.flips10, 0u); // already flipped
}

TEST(Hammer, TemplatingIsReproducible)
{
    // Same module seed => same flip locations (memory templating).
    auto run = [] {
        DramModule module(hammerConfig());
        RowHammerEngine engine(module);
        engine.setRecordEvents(true);
        fillRow(module, 1, 0xff);
        return engine.hammerDoubleSided(0, 1).events;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].bit, b[i].bit);
    }
}

TEST(Hammer, DifferentSeedDifferentTemplate)
{
    DramConfig config_a = hammerConfig();
    DramConfig config_b = hammerConfig();
    config_b.seed = 999;
    DramModule module_a(config_a);
    DramModule module_b(config_b);
    RowHammerEngine engine_a(module_a);
    RowHammerEngine engine_b(module_b);
    engine_a.setRecordEvents(true);
    engine_b.setRecordEvents(true);
    fillRow(module_a, 1, 0xff);
    fillRow(module_b, 1, 0xff);
    const auto a = engine_a.hammerDoubleSided(0, 1).events;
    const auto b = engine_b.hammerDoubleSided(0, 1).events;
    bool identical = a.size() == b.size();
    for (std::size_t i = 0; identical && i < a.size(); ++i)
        identical = a[i].addr == b[i].addr && a[i].bit == b[i].bit;
    EXPECT_FALSE(identical);
}

/** Observer that suppresses every pass and records calls. */
class SuppressAll : public DisturbanceObserver
{
  public:
    bool
    onHammer(const DisturbanceEvent &) override
    {
        ++calls;
        return true;
    }

    int calls = 0;
};

TEST(Hammer, ObserverCanSuppressFlips)
{
    DramModule module(hammerConfig());
    SuppressAll observer;
    RowHammerEngine engine(module, &observer);
    fillRow(module, 1, 0xff);
    const HammerResult result = engine.hammerDoubleSided(0, 1);
    EXPECT_TRUE(result.suppressed);
    EXPECT_EQ(result.total(), 0u);
    EXPECT_GT(observer.calls, 0);
    EXPECT_EQ(engine.stats().value("suppressedPasses"), 1u);
}

TEST(Hammer, VulnerableBitScanMatchesFaultModel)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    const auto &bits = engine.vulnerableBits(0, 1);
    const FaultModel &faults = module.faults();
    const Addr base = 1 * 128 * KiB;
    for (const VulnerableBit &cell : bits) {
        EXPECT_TRUE(faults.vulnerable(base + cell.column, cell.bit));
    }
    // Expected count: rowBytes * 8 * pf.
    const double expected = 128.0 * KiB * 8 * 5e-3;
    EXPECT_NEAR(static_cast<double>(bits.size()), expected,
                expected * 0.1);
}

TEST(Hammer, EdgeRowFallsBackToSingleSided)
{
    DramModule module(hammerConfig());
    RowHammerEngine engine(module);
    fillRow(module, 0, 0xff);
    fillRow(module, 1, 0xff);
    // Victim at row 0 has no row above it: must not crash.
    const HammerResult result = engine.hammerDoubleSided(0, 0);
    (void)result;
    SUCCEED();
}

TEST(Hammer, RemappedRowMovesVictims)
{
    // After remapping, hammering the logical row disturbs the
    // neighbours of its *device* row — the CATT-bypass mechanism.
    DramConfig config = hammerConfig();
    config.cellMap = CellTypeMap::uniform(CellType::True);
    DramModule module(config);
    RowHammerEngine engine(module);
    engine.setRecordEvents(true);

    // Remap logical row 100 to device row 200.
    module.remapRow(0, 100, 200);
    fillRow(module, 199, 0xff); // logical 199 == device 199
    fillRow(module, 201, 0xff);
    fillRow(module, 99, 0xff);
    fillRow(module, 101, 0xff);

    const HammerResult result = engine.hammerRow(0, 100);
    // Victims are device rows 199/201, not 99/101.
    for (const FlipEvent &event : result.events) {
        const std::uint64_t row =
            event.addr / module.geometry().rowBytes();
        EXPECT_TRUE(row == 199 || row == 201)
            << "unexpected victim row " << row;
    }
}

TEST(Hammer, ProfileCacheCountsHitsAndMisses)
{
    // Fresh seed so these keys cannot collide with profiles other
    // tests in this binary already cached.
    DramConfig config = hammerConfig();
    config.seed = 0x90f17eULL;
    DramModule module(config);

    const ProfileCacheStats before = profileCacheStats();
    RowHammerEngine first(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        first.rowProfile(0, row);
    ProfileCacheStats after = profileCacheStats();
    EXPECT_EQ(after.misses - before.misses, 16u);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.raceLosses, before.raceLosses); // serial: no race

    // A second engine over the same module shares every profile.
    RowHammerEngine second(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        second.rowProfile(0, row);
    after = profileCacheStats();
    EXPECT_EQ(after.hits - before.hits, 16u);
    EXPECT_EQ(after.misses - before.misses, 16u);
}

TEST(Hammer, ProfileCacheRaceLossesCountDuplicateBuilds)
{
    // Engines on several threads profile the same rows at once.  How
    // many builds race is up to the scheduler, but every miss either
    // inserted its row's profile or lost the race and was counted.
    DramConfig config = hammerConfig();
    config.seed = 0x4ace1055ULL;
    DramModule module(config);
    constexpr std::uint64_t kRows = 16;
    constexpr unsigned kThreads = 4;

    const ProfileCacheStats before = profileCacheStats();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&module] {
            RowHammerEngine engine(module);
            for (std::uint64_t row = 0; row < kRows; ++row)
                engine.rowProfile(0, row);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const ProfileCacheStats after = profileCacheStats();

    const std::uint64_t misses = after.misses - before.misses;
    const std::uint64_t losses = after.raceLosses - before.raceLosses;
    EXPECT_EQ(misses - losses, kRows);
    EXPECT_EQ(after.hits - before.hits + misses, kRows * kThreads);
}

TEST(Hammer, ProfileCacheShrinkEvictsToCapacity)
{
    DramConfig config = hammerConfig();
    config.seed = 0xca9ac17eULL;
    DramModule module(config);
    RowHammerEngine engine(module);
    for (std::uint64_t row = 0; row < 16; ++row)
        engine.rowProfile(0, row);

    const ProfileCacheStats before = profileCacheStats();
    ASSERT_GE(before.entries, 16u);

    profileCacheSetCapacity(8);
    const ProfileCacheStats shrunk = profileCacheStats();
    EXPECT_EQ(shrunk.capacity, 8u);
    EXPECT_LE(shrunk.entries, 8u);
    EXPECT_GE(shrunk.evictions - before.evictions,
              before.entries - 8u);

    // Eviction never invalidates a held profile: the engine's
    // shared_ptr keeps its rows alive, so re-reads still work.
    EXPECT_EQ(engine.rowProfile(0, 3).base,
              module.rowBase(0, 3));

    profileCacheSetCapacity(1024); // restore the default bound
    EXPECT_EQ(profileCacheStats().capacity, 1024u);
}

} // namespace
} // namespace ctamem::dram
