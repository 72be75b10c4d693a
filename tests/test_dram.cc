/**
 * @file
 * Unit tests for the DRAM substrate: geometry/address mapping,
 * cell-type maps, sparse storage, fault model, decay, re-mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "dram/cell_types.hh"
#include "dram/fault_model.hh"
#include "dram/geometry.hh"
#include "dram/module.hh"
#include "dram/sparse_store.hh"

namespace ctamem::dram {
namespace {

DramConfig
smallConfig()
{
    DramConfig config;
    config.capacity = 256 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 8;
    config.cellMap = CellTypeMap::alternating(64);
    config.seed = 7;
    return config;
}

TEST(Geometry, RoundTripBankBlocked)
{
    Geometry geom(256 * MiB, 128 * KiB, 8, AddressScheme::BankBlocked);
    EXPECT_EQ(geom.totalRows(), 2048u);
    EXPECT_EQ(geom.rowsPerBank(), 256u);
    EXPECT_EQ(geom.pagesPerRow(), 32u);
    for (Addr addr : {Addr{0}, Addr{131071}, Addr{131072},
                      Addr{200 * MiB + 12345}, 256 * MiB - 1}) {
        const Location loc = geom.locate(addr);
        EXPECT_EQ(geom.address(loc), addr);
    }
}

TEST(Geometry, RoundTripRowInterleaved)
{
    Geometry geom(256 * MiB, 128 * KiB, 8,
                  AddressScheme::RowInterleaved);
    for (Addr addr : {Addr{0}, Addr{131072}, Addr{77 * MiB + 999}}) {
        const Location loc = geom.locate(addr);
        EXPECT_EQ(geom.address(loc), addr);
    }
    // Consecutive rows land in consecutive banks.
    EXPECT_EQ(geom.locate(0).bank, 0u);
    EXPECT_EQ(geom.locate(128 * KiB).bank, 1u);
}

TEST(Geometry, ContiguityWithinBankBlock)
{
    Geometry geom(256 * MiB, 128 * KiB, 8, AddressScheme::BankBlocked);
    // Adjacent addresses in one bank block are adjacent rows.
    const Location a = geom.locate(0);
    const Location b = geom.locate(128 * KiB);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row + 1, b.row);
}

TEST(Geometry, RejectsBadParameters)
{
    EXPECT_THROW(Geometry(100, 128 * KiB), FatalError);
    EXPECT_THROW(Geometry(256 * MiB, 100), FatalError);
    EXPECT_THROW(Geometry(256 * MiB, 128 * KiB, 3), FatalError);
    EXPECT_THROW(Geometry(1 * MiB, 128 * KiB, 16), FatalError);
}

TEST(CellTypes, AlternatingLayout)
{
    CellTypeMap map = CellTypeMap::alternating(512);
    EXPECT_EQ(map.rowType(0), CellType::True);
    EXPECT_EQ(map.rowType(511), CellType::True);
    EXPECT_EQ(map.rowType(512), CellType::Anti);
    EXPECT_EQ(map.rowType(1023), CellType::Anti);
    EXPECT_EQ(map.rowType(1024), CellType::True);

    CellTypeMap anti_first = CellTypeMap::alternating(512, false);
    EXPECT_EQ(anti_first.rowType(0), CellType::Anti);
    EXPECT_EQ(anti_first.rowType(512), CellType::True);
}

TEST(CellTypes, RatioLayouts)
{
    CellTypeMap mostly_true = CellTypeMap::mostlyTrue(1000);
    unsigned anti = 0;
    for (std::uint64_t row = 0; row < 1001; ++row)
        if (mostly_true.rowType(row) == CellType::Anti)
            ++anti;
    EXPECT_EQ(anti, 1u);

    CellTypeMap uniform = CellTypeMap::uniform(CellType::Anti);
    EXPECT_EQ(uniform.rowType(12345), CellType::Anti);
}

TEST(CellTypes, ChargedAndDischargedValues)
{
    EXPECT_EQ(chargedBit(CellType::True), 1);
    EXPECT_EQ(dischargedBit(CellType::True), 0);
    EXPECT_EQ(chargedBit(CellType::Anti), 0);
    EXPECT_EQ(dischargedBit(CellType::Anti), 1);
}

TEST(SparseStore, ReadWriteRoundTrip)
{
    SparseStore store;
    EXPECT_EQ(store.readByte(12345), 0);
    store.writeByte(12345, 0xab);
    EXPECT_EQ(store.readByte(12345), 0xab);

    store.writeU64(8 * MiB, 0x1122334455667788ULL);
    EXPECT_EQ(store.readU64(8 * MiB), 0x1122334455667788ULL);
}

TEST(SparseStore, CrossPageSpan)
{
    SparseStore store;
    std::uint8_t buffer[pageSize * 2];
    for (std::size_t i = 0; i < sizeof(buffer); ++i)
        buffer[i] = static_cast<std::uint8_t>(i * 37);
    const Addr base = 3 * pageSize - 100; // straddles three frames
    store.write(base, buffer, sizeof(buffer));
    std::uint8_t back[sizeof(buffer)];
    store.read(base, back, sizeof(back));
    EXPECT_EQ(std::memcmp(buffer, back, sizeof(buffer)), 0);
    EXPECT_EQ(store.frameCount(), 3u);
}

TEST(SparseStore, BitAccess)
{
    SparseStore store;
    store.writeBit(999, 3, true);
    EXPECT_TRUE(store.readBit(999, 3));
    EXPECT_FALSE(store.readBit(999, 2));
    store.writeBit(999, 3, false);
    EXPECT_EQ(store.readByte(999), 0);
}

TEST(SparseStore, LazyMaterialization)
{
    SparseStore store;
    EXPECT_FALSE(store.touched(0));
    EXPECT_EQ(store.frameCount(), 0u);
    (void)store.readU64(64 * MiB); // reads do not materialize
    EXPECT_EQ(store.frameCount(), 0u);
    store.writeByte(64 * MiB, 1);
    EXPECT_TRUE(store.touched(64 * MiB));
    EXPECT_EQ(store.frameCount(), 1u);
}

TEST(SparseStore, WordStraddlingFramesRoundTrips)
{
    // The U64 fast path only covers within-frame words; a straddling
    // word must still round-trip through the span-wise path.
    SparseStore store(0xcc);
    const Addr straddle = pageSize - 3;
    store.writeU64(straddle, 0x0102030405060708ULL);
    EXPECT_EQ(store.readU64(straddle), 0x0102030405060708ULL);
    EXPECT_EQ(store.frameCount(), 2u);

    // An untouched straddling word reads as the fill pattern.
    EXPECT_EQ(store.readU64(7 * pageSize - 4), 0xccccccccccccccccULL);
    EXPECT_EQ(store.frameCount(), 2u);
}

TEST(SparseStore, FrameCacheSurvivesInterleavingAndClear)
{
    SparseStore store(0x55);
    // Prime the last-frame cache, then bounce between frames; every
    // access must see its own frame's data, not the cached one.
    store.writeByte(0, 1);
    store.writeByte(pageSize, 2);
    EXPECT_EQ(store.readByte(0), 1);
    EXPECT_EQ(store.readByte(pageSize), 2);
    EXPECT_EQ(store.readByte(1), 0x55); // rest of frame keeps fill

    // Force many materializations so the frame map rehashes; the
    // cached pointer must stay valid (frames are stable heap blocks).
    store.writeByte(0, 7);
    for (Pfn pfn = 2; pfn < 200; ++pfn)
        store.writeByte(pfnToAddr(pfn), static_cast<std::uint8_t>(pfn));
    EXPECT_EQ(store.readByte(0), 7);

    // clear() drops the cache along with the frames: stale pointers
    // must not resurrect old contents.
    store.clear();
    EXPECT_EQ(store.frameCount(), 0u);
    EXPECT_EQ(store.readByte(0), 0x55);
    store.writeByte(0, 9);
    EXPECT_EQ(store.readByte(0), 9);
}

/**
 * Randomized model check of SparseStore against a byte map: mixed
 * spans, frame-straddling words, byte and bit writes, whole-frame
 * writes onto new and existing frames, and clear(), over addresses
 * that include leaf boundaries and the top frame of an 8 GiB module.
 */
class SparseStoreModel : public ::testing::TestWithParam<int>
{
};

TEST_P(SparseStoreModel, MatchesByteMap)
{
    const auto fill = static_cast<std::uint8_t>(GetParam());
    constexpr Addr kLimit = 8 * GiB;
    const Pfn top = addrToPfn(kLimit) - 1;
    const std::vector<Pfn> pfns = {0, 1, 2, 511, 512, 513, 4097,
                                   top - 1, top};

    SparseStore store(fill);
    std::map<Addr, std::uint8_t> bytes; // every byte ever written
    std::set<Pfn> frames;               // every frame materialized
    std::mt19937_64 rng(0x5eed0000ULL + fill);

    const auto expected = [&](Addr addr) -> std::uint8_t {
        const auto it = bytes.find(addr);
        return it == bytes.end() ? fill : it->second;
    };
    const auto record = [&](Addr addr, std::uint8_t value) {
        bytes[addr] = value;
        frames.insert(addrToPfn(addr));
    };
    // An address whose [addr, addr + len) stays below kLimit, biased
    // toward frame ends so spans and words straddle frames often.
    const auto pick = [&](std::size_t len) -> Addr {
        const Pfn pfn = pfns[rng() % pfns.size()];
        const std::uint64_t offset = rng() % 4 == 0
            ? pageSize - 1 - rng() % 16
            : rng() % pageSize;
        return std::min<Addr>(pfnToAddr(pfn) + offset, kLimit - len);
    };
    const auto checkFrames = [&] {
        ASSERT_EQ(store.frameCount(), frames.size());
        const std::vector<Pfn> touched = store.touchedFrames();
        ASSERT_TRUE(std::is_sorted(touched.begin(), touched.end()));
        ASSERT_EQ(touched,
                  std::vector<Pfn>(frames.begin(), frames.end()));
        for (const Pfn pfn : pfns) {
            ASSERT_EQ(store.touched(pfnToAddr(pfn) + pageMask),
                      frames.contains(pfn))
                << "pfn " << pfn;
        }
    };

    for (int op = 0; op < 6000; ++op) {
        switch (rng() % 10) {
          case 0: { // span write, possibly across frames
            std::vector<std::uint8_t> data(rng() % (2 * pageSize + 1));
            for (std::uint8_t &b : data)
                b = static_cast<std::uint8_t>(rng());
            const Addr addr = pick(data.size());
            store.write(addr, data.data(), data.size());
            for (std::size_t i = 0; i < data.size(); ++i)
                record(addr + i, data[i]);
            break;
          }
          case 1: { // span read
            std::vector<std::uint8_t> out(rng() % (2 * pageSize + 1));
            const Addr addr = pick(out.size());
            store.read(addr, out.data(), out.size());
            for (std::size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], expected(addr + i)) << addr + i;
            break;
          }
          case 2: { // word write, straddling or not
            const Addr addr = pick(8);
            const std::uint64_t value = rng();
            store.writeU64(addr, value);
            for (unsigned i = 0; i < 8; ++i)
                record(addr + i,
                       static_cast<std::uint8_t>(value >> (8 * i)));
            break;
          }
          case 3: { // word read
            const Addr addr = pick(8);
            std::uint64_t want = 0;
            for (unsigned i = 0; i < 8; ++i)
                want |= std::uint64_t{expected(addr + i)} << (8 * i);
            ASSERT_EQ(store.readU64(addr), want) << addr;
            break;
          }
          case 4: { // byte write and read back
            const Addr addr = pick(1);
            const auto value = static_cast<std::uint8_t>(rng());
            store.writeByte(addr, value);
            record(addr, value);
            ASSERT_EQ(store.readByte(addr), value);
            break;
          }
          case 5: { // bit write (materializes even when unchanged)
            const Addr addr = pick(1);
            const unsigned bit = rng() % 8;
            const bool value = rng() & 1;
            store.writeBit(addr, bit, value);
            const unsigned mask = 1u << bit;
            const unsigned byte = expected(addr);
            record(addr, static_cast<std::uint8_t>(
                             value ? byte | mask : byte & ~mask));
            ASSERT_EQ(store.readBit(addr, bit), value);
            break;
          }
          case 6:
          case 7: { // whole-frame write onto a new or existing frame
            const Pfn pfn = pfns[rng() % pfns.size()];
            std::vector<std::uint8_t> data(pageSize);
            for (std::uint8_t &b : data)
                b = static_cast<std::uint8_t>(rng());
            store.write(pfnToAddr(pfn), data.data(), data.size());
            for (std::size_t i = 0; i < data.size(); ++i)
                record(pfnToAddr(pfn) + i, data[i]);
            break;
          }
          case 8: { // byte read
            const Addr addr = pick(1);
            ASSERT_EQ(store.readByte(addr), expected(addr)) << addr;
            break;
          }
          case 9:
            if (rng() % 16 == 0) {
                store.clear();
                bytes.clear();
                frames.clear();
            }
            break;
        }
        if (op % 64 == 0)
            checkFrames();
    }
    checkFrames();
    for (const Pfn pfn : frames) {
        std::vector<std::uint8_t> frame(pageSize);
        store.read(pfnToAddr(pfn), frame.data(), frame.size());
        for (std::uint64_t i = 0; i < pageSize; ++i)
            ASSERT_EQ(frame[i], expected(pfnToAddr(pfn) + i));
    }
}

INSTANTIATE_TEST_SUITE_P(Fills, SparseStoreModel,
                         ::testing::Values(0x00, 0xa5));

TEST(FaultModel, VulnerabilityRateMatchesPf)
{
    FaultModel faults(11, ErrorStats{});
    std::uint64_t vulnerable = 0;
    const std::uint64_t cells = 2'000'000;
    for (std::uint64_t i = 0; i < cells; ++i)
        if (faults.vulnerable(i / 8, static_cast<unsigned>(i % 8)))
            ++vulnerable;
    // Expected 200 +- statistical noise.
    EXPECT_NEAR(static_cast<double>(vulnerable), 200.0, 60.0);
}

TEST(FaultModel, DirectionDistributionInTrueCells)
{
    FaultModel faults(11, ErrorStats{});
    std::uint64_t down = 0;
    const std::uint64_t cells = 100'000;
    for (std::uint64_t i = 0; i < cells; ++i) {
        if (faults.flipDirection(i, 0, CellType::True) ==
            FlipDirection::OneToZero) {
            ++down;
        }
    }
    // 99.8% of vulnerable true-cells flip downward.
    EXPECT_NEAR(static_cast<double>(down) / cells, 0.998, 0.002);
}

TEST(FaultModel, AntiCellsMirrorDirections)
{
    FaultModel faults(11, ErrorStats{});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const FlipDirection in_true =
            faults.flipDirection(i, 0, CellType::True);
        const FlipDirection in_anti =
            faults.flipDirection(i, 0, CellType::Anti);
        EXPECT_NE(in_true == FlipDirection::OneToZero,
                  in_anti == FlipDirection::OneToZero);
    }
}

TEST(FaultModel, StablePropertiesAcrossQueries)
{
    FaultModel faults(42, ErrorStats{});
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_EQ(faults.vulnerable(i, 1), faults.vulnerable(i, 1));
        EXPECT_EQ(faults.tripThreshold(i, 1),
                  faults.tripThreshold(i, 1));
    }
}

TEST(FaultModel, RetentionScalesWithTemperature)
{
    FaultModel faults(42, ErrorStats{});
    const SimTime warm = faults.retentionTime(1000, 0, 20.0);
    const SimTime cold = faults.retentionTime(1000, 0, -40.0);
    EXPECT_GT(warm, 100 * milliseconds);
    // -40C is 60 degrees colder: retention should be ~2^6 = 64x.
    EXPECT_NEAR(static_cast<double>(cold) / warm, 64.0, 1.0);
}

TEST(Module, CellTypeFollowsLayout)
{
    DramModule module(smallConfig());
    // Rows 0..63 of bank 0 are true, 64..127 anti (period 64).
    EXPECT_EQ(module.rowCellType(0, 0), CellType::True);
    EXPECT_EQ(module.rowCellType(0, 63), CellType::True);
    EXPECT_EQ(module.rowCellType(0, 64), CellType::Anti);
    // cellTypeAt agrees with locate + rowCellType.
    const Addr addr = 70 * 128 * KiB; // row 70 of bank 0
    EXPECT_EQ(module.cellTypeAt(addr), CellType::Anti);
}

TEST(Module, DecayDrivesTowardDischargedValue)
{
    DramModule module(smallConfig());
    // Fill one true-cell row page and one anti-cell row page.
    const Addr true_addr = 0;
    const Addr anti_addr = 64 * 128 * KiB;
    for (unsigned i = 0; i < pageSize; ++i) {
        module.writeByte(true_addr + i, 0xff);
        module.writeByte(anti_addr + i, 0x00);
    }
    module.setRefreshEnabled(false);
    module.advance(600 * seconds);
    module.setRefreshEnabled(true);

    // Essentially everything decays after 10 minutes.
    std::uint64_t true_ones = 0;
    std::uint64_t anti_zeros = 0;
    for (unsigned i = 0; i < pageSize; ++i) {
        true_ones += popcount(module.readByte(true_addr + i));
        anti_zeros += 8 - popcount(module.readByte(anti_addr + i));
    }
    EXPECT_LT(true_ones, pageSize / 100);
    EXPECT_LT(anti_zeros, pageSize / 100);
    EXPECT_GT(module.stats().value("decayedBits"), 0u);
}

TEST(Module, RefreshPreventsDecay)
{
    DramModule module(smallConfig());
    module.writeByte(0, 0xff);
    module.advance(600 * seconds); // refresh enabled: no decay
    EXPECT_EQ(module.readByte(0), 0xff);
}

TEST(Module, ReenablingRefreshResetsClock)
{
    DramModule module(smallConfig());
    module.writeByte(0, 0xff);
    module.setRefreshEnabled(false);
    module.advance(50 * milliseconds); // under the retention floor
    module.setRefreshEnabled(true);
    module.setRefreshEnabled(false);
    module.advance(50 * milliseconds);
    module.setRefreshEnabled(true);
    // Two short unrefreshed windows do not add up to one long one.
    EXPECT_EQ(module.readByte(0), 0xff);
}

TEST(Module, RemapRequiresSameCellType)
{
    DramModule module(smallConfig());
    // Row 0 (true) remapped to row 10 (true): allowed.
    module.remapRow(0, 0, 10);
    EXPECT_EQ(module.deviceRow(0, 0), 10u);
    EXPECT_EQ(module.logicalRow(0, 10), 0u);
    // Swap semantics: device row 0 now hosts logical row 10.
    EXPECT_EQ(module.logicalRow(0, 0), 10u);
    EXPECT_EQ(module.deviceRow(0, 10), 0u);
    // Row 1 (true) to row 64 (anti): rejected.
    EXPECT_THROW(module.remapRow(0, 1, 64), FatalError);
    EXPECT_EQ(module.remapCount(), 1u);
}

TEST(Module, RemapPreservesCellTypeView)
{
    DramModule module(smallConfig());
    module.remapRow(0, 0, 10);
    EXPECT_EQ(module.rowCellType(0, 0), CellType::True);
}

} // namespace
} // namespace ctamem::dram
