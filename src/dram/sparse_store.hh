/**
 * @file
 * Sparse byte-addressable backing store for simulated physical memory.
 *
 * Only the frames a test or attack actually writes get materialized
 * (4 KiB at a time); untouched memory reads as the frame fill pattern.
 *
 * Hot-path design: frames are found through a pfn-indexed directory,
 * a two-level table of 512-slot leaves that grows on demand, so a
 * lookup is at most two loads whether or not the frame exists — the
 * hammer pass checks mostly never-written rows, and an absent frame
 * costs no more than a present one.  A one-entry last-frame pointer
 * in front of the directory keeps sequential and page-local runs
 * (page walks re-reading table frames, streaming workloads) to one
 * compare.  Frame memory comes from per-store slabs of 64 frames that
 * never move, so directory slots and the cached pointer stay valid
 * until clear(), which frees every slab at once.  The word accessors
 * memcpy within a frame instead of going through the byte-wise span
 * loop.
 */

#ifndef CTAMEM_DRAM_SPARSE_STORE_HH
#define CTAMEM_DRAM_SPARSE_STORE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace ctamem::dram {

/** Sparse, page-granular storage of simulated memory contents. */
class SparseStore
{
  public:
    /** @param fill byte value newly materialized frames start with */
    explicit SparseStore(std::uint8_t fill = 0) : fill_(fill) {}

    /** Read @p len bytes at @p addr into @p out. */
    void read(Addr addr, void *out, std::size_t len) const;

    /**
     * Write @p len bytes from @p in at @p addr.  Whole frames covered
     * by the span are materialized without the fill pattern they would
     * immediately overwrite.
     */
    void write(Addr addr, const void *in, std::size_t len);

    /** Read one byte. */
    std::uint8_t
    readByte(Addr addr) const
    {
        if (const std::uint8_t *frame = peek(addrToPfn(addr)))
            return frame[addr & pageMask];
        return fill_;
    }

    /** Write one byte. */
    void
    writeByte(Addr addr, std::uint8_t value)
    {
        touch(addrToPfn(addr))[addr & pageMask] = value;
    }

    /** Read a little-endian 64-bit word. */
    std::uint64_t
    readU64(Addr addr) const
    {
        const std::size_t offset = addr & pageMask;
        std::uint64_t value;
        if (offset + sizeof(value) <= pageSize) {
            if (const std::uint8_t *frame = peek(addrToPfn(addr)))
                std::memcpy(&value, frame + offset, sizeof(value));
            else
                std::memset(&value, fill_, sizeof(value));
            return value;
        }
        // Straddles a frame boundary: take the span-wise slow path.
        value = 0;
        read(addr, &value, sizeof(value));
        return value;
    }

    /** Write a little-endian 64-bit word. */
    void
    writeU64(Addr addr, std::uint64_t value)
    {
        const std::size_t offset = addr & pageMask;
        if (offset + sizeof(value) <= pageSize) {
            std::memcpy(touch(addrToPfn(addr)) + offset, &value,
                        sizeof(value));
            return;
        }
        write(addr, &value, sizeof(value));
    }

    /** Read one bit (bit @p bit of the byte at @p addr). */
    bool readBit(Addr addr, unsigned bit) const;

    /** Write one bit. */
    void writeBit(Addr addr, unsigned bit, bool value);

    /** True iff the frame containing @p addr has been materialized. */
    bool
    touched(Addr addr) const
    {
        return lookup(addrToPfn(addr)) != nullptr;
    }

    /** Number of materialized frames. */
    std::size_t frameCount() const { return frameCount_; }

    /** Frame numbers of all materialized frames, ascending. */
    std::vector<Pfn> touchedFrames() const;

    /** Drop every materialized frame (memory returns to fill value). */
    void clear();

  private:
    static constexpr unsigned kLeafBits = 9;
    static constexpr Pfn kLeafSlots = Pfn{1} << kLeafBits;
    static constexpr std::size_t kSlabFrames = 64;

    /** Frame pointers of 512 consecutive pfns; null = never written. */
    using Leaf = std::array<std::uint8_t *, kLeafSlots>;

    /** Directory lookup of @p pfn's frame; nullptr when never written. */
    std::uint8_t *
    lookup(Pfn pfn) const
    {
        const Pfn top = pfn >> kLeafBits;
        if (top >= dir_.size() || !dir_[top])
            return nullptr;
        return (*dir_[top])[pfn & (kLeafSlots - 1)];
    }

    /** Frame for @p pfn, or nullptr when never written. */
    const std::uint8_t *
    peek(Pfn pfn) const
    {
        if (pfn == cachedPfn_) [[likely]]
            return cachedFrame_;
        std::uint8_t *frame = lookup(pfn);
        if (frame) {
            cachedPfn_ = pfn;
            cachedFrame_ = frame;
        }
        return frame;
    }

    /** Frame for @p pfn, materializing it (fill pattern) on first use. */
    std::uint8_t *
    touch(Pfn pfn)
    {
        if (pfn == cachedPfn_) [[likely]]
            return cachedFrame_;
        return touchSlow(pfn, true);
    }

    /**
     * Cache-miss path of touch(): materialize @p pfn's frame if
     * needed, pre-filled only when @p fill_new is set (a caller about
     * to overwrite the whole frame passes false).
     */
    std::uint8_t *touchSlow(Pfn pfn, bool fill_new);

    std::uint8_t fill_;
    std::vector<std::unique_ptr<Leaf>> dir_;
    /** Frame memory; a frame's address never changes until clear(). */
    std::vector<std::unique_ptr<std::uint8_t[]>> slabs_;
    /** Frames handed out from slabs_.back(). */
    std::size_t slabUsed_ = kSlabFrames;
    std::size_t frameCount_ = 0;

    /** Last materialized frame hit (never caches absent frames). */
    mutable Pfn cachedPfn_ = invalidPfn;
    mutable std::uint8_t *cachedFrame_ = nullptr;
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_SPARSE_STORE_HH
