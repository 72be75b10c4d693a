#include "kernel/kernel.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "mm/buddy.hh"

namespace ctamem::kernel {

using mm::FrameSpan;
using mm::GfpFlags;
using mm::PageKind;
using mm::ZoneId;
using mm::ZoneSpec;
using paging::PageFlags;

namespace {

/**
 * CATT-style kernel/user physical partition with one guard row.
 * As in the CATT design, the kernel partition occupies the low half
 * (where the kernel lives anyway) and user memory the high half.
 */
std::vector<ZoneSpec>
cattZoneSpecs(const dram::Geometry &geom)
{
    const std::uint64_t capacity = geom.capacity();
    const std::uint64_t dma_end = 16 * MiB;
    const std::uint64_t split = capacity / 2;
    const std::uint64_t user_base = split + geom.rowBytes();

    std::vector<ZoneSpec> specs;
    specs.push_back(ZoneSpec{
        ZoneId::Dma, {FrameSpan{0, dma_end / pageSize}}});
    specs.push_back(ZoneSpec{
        ZoneId::KernelRsv,
        {FrameSpan{dma_end / pageSize, (split - dma_end) / pageSize}}});
    // One guard row between the halves is left unowned.
    specs.push_back(ZoneSpec{
        ZoneId::Normal,
        {FrameSpan{user_base / pageSize,
                   (capacity - user_base) / pageSize}}});
    return specs;
}

/** ZebRAM-lite: only even rows hold data; odd rows are guards. */
std::vector<ZoneSpec>
zebramZoneSpecs(const dram::Geometry &geom)
{
    const std::uint64_t capacity = geom.capacity();
    const std::uint64_t dma_end = 16 * MiB;
    const std::uint64_t row_bytes = geom.rowBytes();
    const std::uint64_t frames_per_row = row_bytes / pageSize;

    std::vector<ZoneSpec> specs;
    specs.push_back(ZoneSpec{
        ZoneId::Dma, {FrameSpan{0, dma_end / pageSize}}});

    ZoneSpec normal{ZoneId::Normal, {}};
    for (Addr base = dma_end; base + row_bytes <= capacity;
         base += row_bytes) {
        const std::uint64_t global_row = base / row_bytes;
        if (global_row % 2 == 0) {
            normal.spans.push_back(
                FrameSpan{addrToPfn(base), frames_per_row});
        }
    }
    specs.push_back(std::move(normal));
    return specs;
}

} // namespace

Kernel::Kernel(const KernelConfig &config) : config_(config)
{
    // ZONE_PTP sizes table granules and screens block bits per the
    // kernel's architecture; keep the nested config in lockstep.
    config_.cta.arch = config_.arch;
    dram_ = std::make_unique<dram::DramModule>(config.dram);

    std::vector<ZoneSpec> specs;
    switch (config.policy) {
      case AllocPolicy::Standard:
        specs = mm::standardZoneSpecs(dram_->geometry().capacity(),
                                      dram_->geometry().capacity());
        pteFlags_ = GfpFlags{ZoneId::Normal, false,
                             PageKind::PageTable};
        break;
      case AllocPolicy::Cta: {
        cta::CtaPlan plan = cta::buildCtaPlan(*dram_, config_.cta);
        ptp_ = std::move(plan.ptp);
        specs = std::move(plan.physSpecs);
        pteFlags_ = mm::GFP_PTP; // unused: ptp_ serves requests
        break;
      }
      case AllocPolicy::Catt:
        specs = cattZoneSpecs(dram_->geometry());
        pteFlags_ = GfpFlags{ZoneId::KernelRsv, true,
                             PageKind::PageTable};
        break;
      case AllocPolicy::Zebram:
        specs = zebramZoneSpecs(dram_->geometry());
        pteFlags_ = GfpFlags{ZoneId::Normal, false,
                             PageKind::PageTable};
        break;
    }

    processesCreatedId_ = stats_.registerCounter("processesCreated");
    deviceBuffersId_ = stats_.registerCounter("deviceBuffers");
    mmapsId_ = stats_.registerCounter("mmaps");
    largeMmapsId_ = stats_.registerCounter("largeMmaps");
    munmapsId_ = stats_.registerCounter("munmaps");
    pageFaultsId_ = stats_.registerCounter("pageFaults");
    segfaultsId_ = stats_.registerCounter("segfaults");
    oomFaultsId_ = stats_.registerCounter("oomFaults");
    pteAllocFaultsId_ = stats_.registerCounter("pteAllocFaults");
    pteAllocsId_ = stats_.registerCounter("pteAllocs");
    pteAllocFailuresId_ = stats_.registerCounter("pteAllocFailures");
    ptReclaimsId_ = stats_.registerCounter("ptReclaims");

    phys_ = std::make_unique<mm::PhysicalMemory>(*dram_,
                                                 std::move(specs));
    mmu_ = std::make_unique<paging::Mmu>(*dram_, config_.tlbEntries,
                                         *config_.arch);

    // Plant the kernel secret the attacks try to reach.
    auto secret = phys_->allocate(
        dataFlags(Process{.trusted = true}, PageKind::KernelData));
    if (!secret)
        fatal("boot: cannot allocate the kernel secret page");
    secretAddr_ = pfnToAddr(*secret) + 0x40;
    dram_->writeU64(secretAddr_, kernelSecret);
}

Kernel::~Kernel() = default;

GfpFlags
Kernel::dataFlags(const Process &proc, PageKind kind) const
{
    // Kernel data and trusted-process data prefer the reserved
    // low-zero-indicator regions when the CTA restriction carved
    // them out; everyone else gets ZONE_NORMAL.
    const bool privileged =
        kind == PageKind::KernelData || proc.trusted;
    if (privileged && phys_ && phys_->zone(ZoneId::KernelRsv))
        return GfpFlags{ZoneId::KernelRsv, false, kind};
    if (config_.policy == AllocPolicy::Catt && privileged)
        return GfpFlags{ZoneId::KernelRsv, true, kind};
    return GfpFlags{ZoneId::Normal, false, kind};
}

int
Kernel::createProcess(const std::string &name, bool trusted)
{
    const int pid = nextPid_++;
    Process proc;
    proc.pid = pid;
    proc.name = name;
    proc.trusted = trusted;

    auto root = pteAllocOne(arch().levels, pid);
    if (!root)
        fatal("createProcess: cannot allocate a root table frame");
    proc.rootPfn = *root;
    proc.space = std::make_unique<paging::AddressSpace>(
        *dram_,
        [this, pid](unsigned level) { return pteAllocOne(level, pid); },
        [this](Pfn pfn) { pteFree(pfn); }, *root, arch());

    processes_.emplace(pid, std::move(proc));
    stats_.at(processesCreatedId_).increment();
    return pid;
}

void
Kernel::exitProcess(int pid)
{
    Process &proc = process(pid);
    for (const auto &[vaddr, pfn] : proc.anonFrames)
        phys_->free(pfn);
    proc.space->releaseTables();
    pteFree(proc.rootPfn);
    processes_.erase(pid);
    mmu_->tlb().flushAll();
}

Process &
Kernel::process(int pid)
{
    auto it = processes_.find(pid);
    if (it == processes_.end())
        fatal("no such process: ", pid);
    return it->second;
}

const Process &
Kernel::process(int pid) const
{
    auto it = processes_.find(pid);
    if (it == processes_.end())
        fatal("no such process: ", pid);
    return it->second;
}

int
Kernel::createFile(std::uint64_t length)
{
    const int fd = nextFd_++;
    const std::uint64_t mask = pageBytes() - 1;
    files_[fd] = SimFile{fd, (length + mask) & ~mask, {}};
    return fd;
}

int
Kernel::createDeviceBuffer(std::uint64_t length)
{
    const int fd = nextFd_++;
    const std::uint64_t mask = pageBytes() - 1;
    SimFile buffer{fd, (length + mask) & ~mask, {}};
    // Device buffers live in kernel memory: allocate every page-sized
    // frame run now from the kernel's preferred zone.
    const GfpFlags flags =
        dataFlags(Process{.trusted = true}, PageKind::KernelData);
    for (std::uint64_t idx = 0; idx * pageBytes() < buffer.length;
         ++idx) {
        auto pfn = phys_->allocate(flags, arch().tableOrder());
        if (!pfn)
            fatal("createDeviceBuffer: out of kernel memory");
        dram_->writeU64(pfnToAddr(*pfn),
                        stableHash(0xdeb0f, fd, idx));
        buffer.frames.emplace(idx, *pfn);
    }
    files_[fd] = std::move(buffer);
    stats_.at(deviceBuffersId_).increment();
    return fd;
}

VAddr
Kernel::placeVma(Process &proc, std::uint64_t length, VAddr fixed)
{
    if (fixed != 0) {
        if (fixed & (pageBytes() - 1))
            fatal("mmap: fixed address not page aligned");
        if (proc.overlapsVma(fixed, length))
            return 0;
        return fixed;
    }
    // Bump allocation at level-2 coverage alignment (2 MiB on
    // x86-64): every mapping starts in its own level-2 slot, so each
    // gets its own leaf page table — the layout the PTE-spray attack
    // wants and the one that keeps table accounting predictable.
    const VAddr align = arch().levelCoverage(2);
    VAddr base = (proc.mmapCursor + align - 1) & ~(align - 1);
    proc.mmapCursor = base + std::max<std::uint64_t>(length, align);
    return base;
}

VAddr
Kernel::mmapFile(int pid, int fd, std::uint64_t length,
                 const PageFlags &prot, VAddr fixed,
                 std::uint64_t file_offset)
{
    if (!files_.contains(fd))
        fatal("mmapFile: no such file ", fd);
    if (length == 0)
        fatal("mmapFile: zero length");
    Process &proc = process(pid);
    const std::uint64_t mask = pageBytes() - 1;
    length = (length + mask) & ~mask;
    const VAddr base = placeVma(proc, length, fixed);
    if (base == 0)
        return 0;
    proc.addVma(Vma{base, length, prot, fd, file_offset});
    stats_.at(mmapsId_).increment();
    return base;
}

VAddr
Kernel::mmapAnonLarge(int pid, const PageFlags &prot, unsigned level,
                      VAddr fixed)
{
    if (level != 2)
        fatal("mmapAnonLarge: only level-2 block pages supported");
    if (fixed % arch().levelCoverage(level) != 0)
        fatal("mmapAnonLarge: fixed address must be large-page "
              "aligned");
    Process &proc = process(pid);
    const std::uint64_t length = arch().levelCoverage(level);
    const unsigned order = log2Floor(length / pageSize);
    // Blocks bigger than the buddy allocator's largest order (16 KiB
    // and 64 KiB AArch64 granules put level-2 blocks at 32/512 MiB)
    // are simply not available — same graceful no-large-pages answer
    // an out-of-memory system gives.
    if (order > mm::BuddyAllocator::maxOrder)
        return 0;
    const VAddr base = placeVma(proc, length, fixed);
    if (base == 0)
        return 0;
    auto frame = phys_->allocate(dataFlags(proc, PageKind::UserData),
                                 order, pid);
    if (!frame)
        return 0;
    PageFlags flags = prot;
    flags.user = true;
    if (!proc.space->mapLarge(base, *frame, flags, level)) {
        phys_->free(*frame);
        return 0;
    }
    proc.addVma(Vma{base, length, prot, -1, 0, level});
    proc.anonFrames[base] = *frame;
    stats_.at(mmapsId_).increment();
    stats_.at(largeMmapsId_).increment();
    return base;
}

VAddr
Kernel::mmapAnon(int pid, std::uint64_t length, const PageFlags &prot,
                 VAddr fixed)
{
    if (length == 0)
        fatal("mmapAnon: zero length");
    Process &proc = process(pid);
    const std::uint64_t mask = pageBytes() - 1;
    length = (length + mask) & ~mask;
    const VAddr base = placeVma(proc, length, fixed);
    if (base == 0)
        return 0;
    proc.addVma(Vma{base, length, prot, -1, 0});
    stats_.at(mmapsId_).increment();
    return base;
}

bool
Kernel::munmap(int pid, VAddr start)
{
    Process &proc = process(pid);
    auto it = std::find_if(proc.vmas.begin(), proc.vmas.end(),
                           [start](const Vma &vma) {
                               return vma.start == start;
                           });
    if (it == proc.vmas.end())
        return false;

    for (VAddr vaddr = it->start; vaddr < it->end();
         vaddr += pageBytes()) {
        proc.space->unmap(vaddr);
        mmu_->tlb().flushPage(vaddr);
        auto frame = proc.anonFrames.find(vaddr);
        if (frame != proc.anonFrames.end()) {
            phys_->free(frame->second);
            proc.anonFrames.erase(frame);
        }
    }
    proc.vmaIntervals.erase(it->start);
    proc.vmas.erase(it);
    stats_.at(munmapsId_).increment();
    return true;
}

PageFlags
Kernel::vmaLeafFlags(const Vma &vma) const
{
    PageFlags flags = vma.prot;
    flags.user = true;
    return flags;
}

bool
Kernel::handlePageFault(Process &proc, VAddr vaddr)
{
    stats_.at(pageFaultsId_).increment();
    proc.pageFaults.increment();

    Vma *vma = proc.findVma(vaddr);
    if (!vma) {
        stats_.at(segfaultsId_).increment();
        return false;
    }

    const VAddr page = vaddr & ~(pageBytes() - 1);
    Pfn pfn = invalidPfn;
    if (vma->largeLevel != 0) {
        // A severed large-page walk path: re-map the resident block
        // with its PS entry (the block itself never went away).
        auto resident = proc.anonFrames.find(vma->start);
        if (resident == proc.anonFrames.end()) {
            stats_.at(segfaultsId_).increment();
            return false;
        }
        PageFlags flags = vma->prot;
        flags.user = true;
        if (!proc.space->mapLarge(vma->start, resident->second,
                                  flags, vma->largeLevel)) {
            stats_.at(pteAllocFaultsId_).increment();
            return false;
        }
        return true;
    }
    if (vma->isAnon()) {
        // Re-faults after page-table reclaim must find the resident
        // frame again, not leak a fresh one.
        auto resident = proc.anonFrames.find(page);
        if (resident != proc.anonFrames.end()) {
            pfn = resident->second;
        } else {
            auto frame = phys_->allocate(
                dataFlags(proc, PageKind::UserData),
                arch().tableOrder(), proc.pid);
            if (!frame) {
                stats_.at(oomFaultsId_).increment();
                return false;
            }
            pfn = *frame;
            proc.anonFrames[page] = pfn;
        }
    } else {
        SimFile &file = files_.at(vma->fd);
        const std::uint64_t page_idx =
            (page - vma->start + vma->fileOffset) / pageBytes();
        if (page_idx * pageBytes() >= file.length) {
            stats_.at(segfaultsId_).increment();
            return false;
        }
        auto cached = file.frames.find(page_idx);
        if (cached == file.frames.end()) {
            auto frame =
                phys_->allocate(mm::GFP_FILE, arch().tableOrder());
            if (!frame) {
                stats_.at(oomFaultsId_).increment();
                return false;
            }
            // Deterministic, recognizable file contents.
            dram_->writeU64(pfnToAddr(*frame),
                            stableHash(0xf11e, vma->fd, page_idx));
            cached = file.frames.emplace(page_idx, *frame).first;
        }
        pfn = cached->second;
    }

    if (!proc.space->map(page, pfn, vmaLeafFlags(*vma))) {
        // pte_alloc_one failed even after reclaim — the PTP zone is
        // exhausted beyond relief.
        stats_.at(pteAllocFaultsId_).increment();
        return false;
    }
    return true;
}

UserAccess
Kernel::readUser(int pid, VAddr vaddr)
{
    Process &proc = process(pid);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const paging::WalkResult walk = mmu_->translate(
            proc.rootPfn, vaddr, paging::AccessType::Read,
            paging::Privilege::User);
        if (walk.ok()) {
            return UserAccess{true, paging::Fault::None,
                              dram_->readU64(walk.phys), walk.phys};
        }
        if (walk.fault != paging::Fault::NotPresent ||
            !handlePageFault(proc, vaddr)) {
            return UserAccess{false, walk.fault, 0, 0};
        }
    }
    return UserAccess{false, paging::Fault::NotPresent, 0, 0};
}

UserAccess
Kernel::writeUser(int pid, VAddr vaddr, std::uint64_t value)
{
    Process &proc = process(pid);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const paging::WalkResult walk = mmu_->translate(
            proc.rootPfn, vaddr, paging::AccessType::Write,
            paging::Privilege::User);
        if (walk.ok()) {
            dram_->writeU64(walk.phys, value);
            return UserAccess{true, paging::Fault::None, value,
                              walk.phys};
        }
        if (walk.fault != paging::Fault::NotPresent ||
            !handlePageFault(proc, vaddr)) {
            return UserAccess{false, walk.fault, 0, 0};
        }
    }
    return UserAccess{false, paging::Fault::NotPresent, 0, 0};
}

bool
Kernel::touchUser(int pid, VAddr vaddr)
{
    return static_cast<bool>(readUser(pid, vaddr));
}

void
Kernel::flushTlb()
{
    mmu_->tlb().flushAll();
}

std::optional<Pfn>
Kernel::pteAllocOne(unsigned level, int pid)
{
    stats_.at(pteAllocsId_).increment();
    std::optional<Pfn> pfn;
    if (ptp_) {
        pfn = ptp_->allocate(level);
        if (!pfn && reclaimLeafTable())
            pfn = ptp_->allocate(level);
    } else {
        pfn = phys_->allocate(pteFlags_, arch().tableOrder(), pid);
    }
    if (!pfn) {
        stats_.at(pteAllocFailuresId_).increment();
        return std::nullopt;
    }
    ptFrameLevels_[*pfn] = level;
    return pfn;
}

bool
Kernel::reclaimLeafTable()
{
    for (auto &[pid, proc] : processes_) {
        if (!proc.space)
            continue;
        if (auto victim = proc.space->evictLeafTable()) {
            pteFree(victim->pfn);
            // Cached translations through the evicted table stay
            // functional on real hardware too, but the freed frame
            // is about to be re-used: flush, as an IPI shootdown
            // would.
            mmu_->tlb().flushAll();
            stats_.at(ptReclaimsId_).increment();
            return true;
        }
    }
    return false;
}

void
Kernel::pteFree(Pfn pfn)
{
    auto it = ptFrameLevels_.find(pfn);
    if (it == ptFrameLevels_.end())
        ctamem_panic("pteFree: pfn ", pfn, " is not a table page");
    ptFrameLevels_.erase(it);
    if (ptp_ && ptp_->contains(pfn))
        ptp_->free(pfn);
    else
        phys_->free(pfn);
}

unsigned
Kernel::tableLevel(Pfn pfn) const
{
    auto it = ptFrameLevels_.find(pfn);
    return it == ptFrameLevels_.end() ? 0 : it->second;
}

cta::TheoremAudit
Kernel::auditTheorem() const
{
    cta::TheoremAudit audit;
    if (!ptp_) {
        audit.tablesAboveLwm = false;
        audit.tablesInTrueCells = false;
        audit.violations.push_back(
            "no ZONE_PTP: kernel booted without the CTA policy");
        return audit;
    }
    const Addr lwm = ptp_->lowWaterMark();
    for (const auto &[pfn, level] : ptFrameLevels_) {
        const Addr base = pfnToAddr(pfn);
        if (base < lwm) {
            audit.tablesAboveLwm = false;
            audit.violations.push_back(
                "table frame below the low water mark");
        }
        if (dram_->cellTypeAt(base) != dram::CellType::True) {
            audit.tablesInTrueCells = false;
            audit.violations.push_back(
                "table frame resides in anti-cells");
        }
        for (std::uint64_t slot = 0; slot < arch().entriesPerTable();
             ++slot) {
            const std::uint64_t raw =
                dram_->readU64(base + slot * 8);
            if (!arch().present(raw))
                continue;
            const bool leaf = level == 1 || arch().blockMarked(raw);
            if (leaf) {
                if (pfnToAddr(arch().pfn(raw)) >= lwm) {
                    audit.pointersBelowLwm = false;
                    audit.violations.push_back(
                        "leaf PTE points at or above the low water "
                        "mark");
                }
            } else if (!isPageTableFrame(arch().pfn(raw))) {
                audit.violations.push_back(
                    "intermediate entry points at a non-table frame");
            }
        }
    }
    return audit;
}

} // namespace ctamem::kernel
