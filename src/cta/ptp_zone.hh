/**
 * @file
 * ZONE_PTP: the true-cell page-table zone above the low water mark.
 *
 * The builder walks DRAM rows downward from the top of physical
 * memory, collecting true-cell rows into sub-zones and skipping
 * anti-cell stripes (Figure 8 of the paper), until the configured
 * amount of true-cell memory is gathered.  The lowest collected
 * address is the low water mark; skipped anti-cell bytes are the
 * §6.2 capacity loss.
 *
 * With multi-level zoning (Section 7) the collected frames are
 * partitioned per paging level, higher levels at higher physical
 * addresses, and — optionally — candidate frames whose PS-bit cells
 * can flip '1'->'0' are screened out of the level>=2 partitions.
 */

#ifndef CTAMEM_CTA_PTP_ZONE_HH
#define CTAMEM_CTA_PTP_ZONE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cta/config.hh"
#include "cta/indicator.hh"
#include "dram/module.hh"
#include "mm/buddy.hh"
#include "mm/zone.hh"

namespace ctamem::cta {

/** The page-table zone and its allocator. */
class PtpZone
{
  public:
    /**
     * Build the zone from @p module's cell layout.
     * @throws FatalError when the module cannot supply the requested
     *         true-cell bytes above the 4 GiB line.
     */
    PtpZone(dram::DramModule &module, const CtaConfig &config);

    /** @name Layout results */
    /** @{ */
    /** Lowest physical address belonging to ZONE_PTP. */
    Addr lowWaterMark() const { return lowWaterMark_; }

    /** True-cell bytes collected (== config.ptpBytes). */
    std::uint64_t trueBytes() const { return trueBytes_; }

    /** Anti-cell bytes skipped while collecting (capacity loss). */
    std::uint64_t skippedAntiBytes() const { return skippedAntiBytes_; }

    /** Frames dropped by PS-bit screening. */
    std::uint64_t screenedFrames() const { return screenedFrames_; }

    /** True-cell sub-zones, ordered top of memory first. */
    const std::vector<mm::FrameSpan> &subZones() const
    {
        return spans_;
    }

    /** The machine's PTP indicator. */
    const PtpIndicator &indicator() const { return indicator_; }
    /** @} */

    /** @name Allocation */
    /** @{ */
    /**
     * Allocate one zeroed table granule for a level-@p level table
     * (1 = leaf table .. root level).  Returns the base PFN of a
     * naturally aligned run of granuleFrames() 4 KiB frames (one
     * frame on x86-64).  Without multi-level zoning all levels share
     * one partition.
     */
    std::optional<Pfn> allocate(unsigned level);

    /** Return a frame obtained from allocate(). */
    void free(Pfn pfn);

    /** True iff @p pfn lies in a ZONE_PTP sub-zone. */
    bool contains(Pfn pfn) const;

    std::uint64_t freeFrames() const;
    std::uint64_t totalFrames() const;
    /** @} */

    /** Counters: allocs, frees, failures per level. */
    StatGroup &stats() { return stats_; }

  private:
    /** Partition the collected spans across paging levels. */
    void partitionLevels(const CtaConfig &config);

    /** Drop level>=2 frames with block-bit cells that can flip the
     *  entry into a block leaf (PS 1->0 on x86; the screen direction
     *  is the same on ARM, whose type bit is block-when-clear). */
    void screenPageSizeBits();

    dram::DramModule &module_;
    const paging::Arch *arch_;
    PtpIndicator indicator_;
    Addr lowWaterMark_ = 0;
    std::uint64_t trueBytes_ = 0;
    std::uint64_t skippedAntiBytes_ = 0;
    std::uint64_t screenedFrames_ = 0;
    bool multiLevel_ = false;

    std::vector<mm::FrameSpan> spans_;

    /** Buddy allocators per level partition (index 0 unused). */
    std::array<std::vector<mm::BuddyAllocator>, 5> levelBuddies_;
    /** Which level a frame was allocated from, for free(). */
    std::array<std::vector<mm::FrameSpan>, 5> levelSpans_;

    StatGroup stats_;
    /** Per-partition alloc/failure handles (index 0 unused). */
    std::array<StatId, 5> allocsLIds_;
    std::array<StatId, 5> failuresLIds_;
    StatId freesId_;
};

} // namespace ctamem::cta

#endif // CTAMEM_CTA_PTP_ZONE_HH
