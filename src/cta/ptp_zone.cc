#include "cta/ptp_zone.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "paging/pte.hh"

namespace ctamem::cta {

using mm::FrameSpan;

PtpZone::PtpZone(dram::DramModule &module, const CtaConfig &config)
    : module_(module), arch_(config.arch),
      indicator_(module.geometry().capacity(), config.ptpBytes),
      multiLevel_(config.multiLevelZones)
{
    allocsLIds_[0] = failuresLIds_[0] = 0;
    for (unsigned partition = 1; partition <= 4; ++partition) {
        allocsLIds_[partition] = stats_.registerCounter(
            "allocsL" + std::to_string(partition));
        failuresLIds_[partition] = stats_.registerCounter(
            "failuresL" + std::to_string(partition));
    }
    freesId_ = stats_.registerCounter("frees");
    const auto &geom = module.geometry();
    const std::uint64_t row_bytes = geom.rowBytes();
    const std::uint64_t capacity = geom.capacity();

    if (config.ptpBytes % row_bytes != 0) {
        fatal("ZONE_PTP size ", config.ptpBytes,
              " must be a multiple of the DRAM row size ", row_bytes);
    }
    // Never let the zone eat more than half the machine; a layout
    // that anti-cell-starved that badly is a configuration error.
    const Addr floor = capacity / 2;

    Addr row = capacity;
    while (trueBytes_ < config.ptpBytes) {
        if (row < floor + row_bytes) {
            fatal("cannot collect ", config.ptpBytes,
                  " true-cell bytes above the low water mark; "
                  "collected ", trueBytes_, " with ",
                  skippedAntiBytes_, " anti-cell bytes skipped");
        }
        row -= row_bytes;
        if (module.cellTypeAt(row) == dram::CellType::True) {
            const Pfn base = addrToPfn(row);
            const std::uint64_t frames = row_bytes / pageSize;
            if (!spans_.empty() &&
                spans_.back().basePfn == base + frames) {
                // Extend the previous (higher) span downward.
                spans_.back().basePfn = base;
                spans_.back().frames += frames;
            } else {
                spans_.push_back(FrameSpan{base, frames});
            }
            trueBytes_ += row_bytes;
        } else {
            skippedAntiBytes_ += row_bytes;
        }
    }
    lowWaterMark_ = row;

    partitionLevels(config);
    if (config.screenPageSizeBit && multiLevel_)
        screenPageSizeBits();

    for (unsigned level = 1; level <= 4; ++level) {
        for (const FrameSpan &span : levelSpans_[level]) {
            levelBuddies_[level].emplace_back(span.basePfn,
                                              span.frames);
        }
    }
}

void
PtpZone::partitionLevels(const CtaConfig &config)
{
    if (!config.multiLevelZones) {
        levelSpans_[1] = spans_;
        return;
    }

    const std::uint64_t total = trueBytes_ / pageSize;
    const unsigned top = arch_->levels;
    const std::uint64_t granule_frames = arch_->granuleFrames();
    // Heuristic reservations: leaf tables dominate (each level-k
    // table serves entriesPerTable level-(k-1) tables), so the upper
    // levels get small slices; higher levels sit at higher physical
    // addresses.  Slices are rounded down to whole table granules so
    // every partition can hand out naturally aligned granule runs.
    std::array<std::uint64_t, 5> want{};
    std::uint64_t upper = 0;
    for (unsigned level = top; level >= 2; --level) {
        want[level] = level == 2
                          ? std::min<std::uint64_t>(512, total / 8)
                          : std::min<std::uint64_t>(256, total / 16);
        want[level] &= ~(granule_frames - 1);
        upper += want[level];
    }
    want[1] = total - upper;

    // spans_ is ordered top-of-memory first; carve in root-first
    // level order so higher levels land higher.
    std::size_t span_idx = 0;
    std::uint64_t offset = 0; // frames consumed from spans_[span_idx]
    for (unsigned level = top; level >= 1; --level) {
        std::uint64_t need = want[level];
        while (need > 0) {
            if (span_idx >= spans_.size())
                ctamem_panic("level partition overran ZONE_PTP");
            const FrameSpan &span = spans_[span_idx];
            const std::uint64_t available = span.frames - offset;
            const std::uint64_t take =
                std::min<std::uint64_t>(need, available);
            // Spans are stored top-first; frames are carved from the
            // top of each span downward.
            const Pfn base = span.basePfn + available - take;
            levelSpans_[level].push_back(FrameSpan{base, take});
            need -= take;
            offset += take;
            if (offset == span.frames) {
                ++span_idx;
                offset = 0;
            }
        }
        if (level == 1)
            break;
    }
}

void
PtpZone::screenPageSizeBits()
{
    // Only levels whose entries can carry the block marker need
    // screening: on x86 a PD/PDPT entry whose PS bit flips '1'->'0'
    // stops being a 2 MiB / 1 GiB leaf, on ARM a table descriptor
    // whose type bit flips '1'->'0' *becomes* a block leaf — either
    // way the dangerous direction in true-cells is '1'->'0' on the
    // descriptor's block bit.  Level>=2 candidate granules with a
    // vulnerable block-bit cell in any slot are dropped whole.
    const dram::FaultModel &faults = module_.faults();
    const std::uint64_t granule_frames = arch_->granuleFrames();
    const std::uint64_t slots = arch_->entriesPerTable();
    for (unsigned level = 2; level <= arch_->levels; ++level) {
        std::vector<FrameSpan> clean;
        for (const FrameSpan &span : levelSpans_[level]) {
            for (Pfn pfn = span.basePfn; pfn < span.endPfn();
                 pfn += granule_frames) {
                bool exploitable = false;
                for (std::uint64_t slot = 0;
                     slot < slots && !exploitable; ++slot) {
                    const Addr addr = pfnToAddr(pfn) + slot * 8;
                    if (faults.vulnerable(addr, arch_->blockBit) &&
                        faults.flipDirection(
                            addr, arch_->blockBit,
                            dram::CellType::True) ==
                            dram::FlipDirection::OneToZero) {
                        exploitable = true;
                    }
                }
                if (exploitable) {
                    screenedFrames_ += granule_frames;
                } else if (!clean.empty() &&
                           clean.back().endPfn() == pfn) {
                    clean.back().frames += granule_frames;
                } else {
                    clean.push_back(FrameSpan{pfn, granule_frames});
                }
            }
        }
        levelSpans_[level] = std::move(clean);
    }
}

std::optional<Pfn>
PtpZone::allocate(unsigned level)
{
    if (level < 1 || level > arch_->levels) {
        fatal("PtpZone::allocate: level must be 1..", arch_->levels,
              " on ", arch_->name, ", got ", level);
    }
    const unsigned partition = multiLevel_ ? level : 1;
    stats_.at(allocsLIds_[partition]).increment();
    const unsigned order = arch_->tableOrder();
    for (mm::BuddyAllocator &buddy : levelBuddies_[partition]) {
        if (auto pfn = buddy.allocate(order)) {
            static const std::array<std::uint8_t, pageSize> zeros{};
            for (std::uint64_t frame = 0;
                 frame < arch_->granuleFrames(); ++frame) {
                module_.write(pfnToAddr(*pfn + frame), zeros.data(),
                              pageSize);
            }
            return pfn;
        }
    }
    stats_.at(failuresLIds_[partition]).increment();
    return std::nullopt;
}

void
PtpZone::free(Pfn pfn)
{
    stats_.at(freesId_).increment();
    for (unsigned level = 1; level <= 4; ++level) {
        for (mm::BuddyAllocator &buddy : levelBuddies_[level]) {
            if (buddy.contains(pfn)) {
                buddy.free(pfn, arch_->tableOrder());
                return;
            }
        }
    }
    ctamem_panic("PtpZone::free: pfn ", pfn, " not in ZONE_PTP");
}

bool
PtpZone::contains(Pfn pfn) const
{
    for (unsigned level = 1; level <= 4; ++level)
        for (const FrameSpan &span : levelSpans_[level])
            if (span.contains(pfn))
                return true;
    return false;
}

std::uint64_t
PtpZone::freeFrames() const
{
    std::uint64_t total = 0;
    for (unsigned level = 1; level <= 4; ++level)
        for (const mm::BuddyAllocator &buddy : levelBuddies_[level])
            total += buddy.freeFrames();
    return total;
}

std::uint64_t
PtpZone::totalFrames() const
{
    std::uint64_t total = 0;
    for (unsigned level = 1; level <= 4; ++level)
        for (const mm::BuddyAllocator &buddy : levelBuddies_[level])
            total += buddy.totalFrames();
    return total;
}

} // namespace ctamem::cta
