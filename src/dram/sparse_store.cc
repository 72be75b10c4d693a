#include "dram/sparse_store.hh"

#include <algorithm>

namespace ctamem::dram {

std::uint8_t *
SparseStore::touchSlow(Pfn pfn, bool fill_new)
{
    const Pfn top = pfn >> kLeafBits;
    if (top >= dir_.size())
        dir_.resize(top + 1);
    if (!dir_[top])
        dir_[top] = std::make_unique<Leaf>(); // value-init: all null
    std::uint8_t *&slot = (*dir_[top])[pfn & (kLeafSlots - 1)];
    if (!slot) {
        if (slabUsed_ == kSlabFrames) {
            slabs_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(
                kSlabFrames * pageSize));
            slabUsed_ = 0;
        }
        slot = slabs_.back().get() + slabUsed_++ * pageSize;
        ++frameCount_;
        if (fill_new)
            std::memset(slot, fill_, pageSize);
    }
    cachedPfn_ = pfn;
    cachedFrame_ = slot;
    return slot;
}

void
SparseStore::clear()
{
    dir_.clear();
    slabs_.clear();
    slabUsed_ = kSlabFrames;
    frameCount_ = 0;
    cachedPfn_ = invalidPfn;
    cachedFrame_ = nullptr;
}

void
SparseStore::read(Addr addr, void *out, std::size_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Pfn pfn = addrToPfn(addr);
        const std::size_t offset = addr & pageMask;
        const std::size_t chunk = std::min<std::size_t>(
            len, pageSize - offset);
        if (const std::uint8_t *frame = peek(pfn))
            std::memcpy(dst, frame + offset, chunk);
        else
            std::memset(dst, fill_, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
SparseStore::write(Addr addr, const void *in, std::size_t len)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        const Pfn pfn = addrToPfn(addr);
        const std::size_t offset = addr & pageMask;
        const std::size_t chunk = std::min<std::size_t>(
            len, pageSize - offset);
        std::uint8_t *frame = chunk == pageSize
            ? touchSlow(pfn, false)
            : touch(pfn);
        std::memcpy(frame + offset, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

bool
SparseStore::readBit(Addr addr, unsigned bit) const
{
    return (readByte(addr) >> bit) & 1;
}

void
SparseStore::writeBit(Addr addr, unsigned bit, bool value)
{
    std::uint8_t byte = readByte(addr);
    if (value)
        byte |= static_cast<std::uint8_t>(1u << bit);
    else
        byte &= static_cast<std::uint8_t>(~(1u << bit));
    writeByte(addr, byte);
}

std::vector<Pfn>
SparseStore::touchedFrames() const
{
    std::vector<Pfn> pfns;
    pfns.reserve(frameCount_);
    for (Pfn top = 0; top < dir_.size(); ++top) {
        if (!dir_[top])
            continue;
        for (Pfn low = 0; low < kLeafSlots; ++low) {
            if ((*dir_[top])[low])
                pfns.push_back((top << kLeafBits) | low);
        }
    }
    return pfns;
}

} // namespace ctamem::dram
