/**
 * @file
 * The simulated OS kernel: boots the zone layout, owns processes,
 * serves page faults, and — crucially — implements `pte_alloc_one`,
 * the single function the paper's 18-line patch redirects to
 * ZONE_PTP (Section 6.1, Rules 1 and 2).
 */

#ifndef CTAMEM_KERNEL_KERNEL_HH
#define CTAMEM_KERNEL_KERNEL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hh"
#include "common/types.hh"
#include "cta/config.hh"
#include "cta/plan.hh"
#include "cta/theorem.hh"
#include "dram/module.hh"
#include "kernel/process.hh"
#include "mm/phys_mem.hh"
#include "paging/mmu.hh"

namespace ctamem::kernel {

/** Allocation-policy families the kernel can boot with. */
enum class AllocPolicy : std::uint8_t
{
    Standard, //!< vanilla zoned buddy allocator (the vulnerable base)
    Cta,      //!< the paper's defense: true-cell ZONE_PTP + LWM
    Catt,     //!< CATT baseline: physical kernel/user partition
    Zebram,   //!< ZebRAM-lite baseline: zebra-striped data rows
};

/** Kernel boot configuration. */
struct KernelConfig
{
    dram::DramConfig dram;
    AllocPolicy policy = AllocPolicy::Standard;
    cta::CtaConfig cta;      //!< used when policy == Cta
    std::size_t tlbEntries = 64;

    /**
     * Paging architecture the kernel boots with.  Points at one of
     * the static `paging` descriptors (never owned); the kernel
     * propagates it into the CTA config, the MMU and every address
     * space it creates.
     */
    const paging::Arch *arch = &paging::kX86_64;
};

/** Outcome of a user-mode memory access. */
struct UserAccess
{
    bool ok = false;
    paging::Fault fault = paging::Fault::None;
    std::uint64_t value = 0; //!< loaded value (reads)
    Addr phys = 0;           //!< translated physical address

    explicit operator bool() const { return ok; }
};

/** The simulated kernel. */
class Kernel
{
  public:
    /** Magic value planted in kernel memory at boot; reading it from
     *  user mode is the attack-success proof. */
    static constexpr std::uint64_t kernelSecret = 0xdeadbeeffeedfaceULL;

    explicit Kernel(const KernelConfig &config);

    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** @name Subsystem access */
    /** @{ */
    dram::DramModule &dram() { return *dram_; }
    mm::PhysicalMemory &phys() { return *phys_; }
    paging::Mmu &mmu() { return *mmu_; }

    /** The paging architecture this kernel booted with. */
    const paging::Arch &arch() const { return *config_.arch; }

    /**
     * Bytes of one translation granule — the OS page size (4 KiB on
     * x86-64; the configured granule on AArch64).  Data frames and
     * table pages are runs of granuleFrames() 4 KiB frames.
     */
    std::uint64_t pageBytes() const { return arch().granuleBytes(); }
    cta::PtpZone *ptpZone() { return ptp_.get(); }
    const cta::PtpZone *ptpZone() const { return ptp_.get(); }
    const KernelConfig &config() const { return config_; }
    AllocPolicy policy() const { return config_.policy; }
    /** @} */

    /** @name Processes */
    /** @{ */
    int createProcess(const std::string &name, bool trusted = false);
    void exitProcess(int pid);
    Process &process(int pid);
    const Process &process(int pid) const;
    std::size_t processCount() const { return processes_.size(); }
    /** @} */

    /** @name Files and mappings */
    /** @{ */
    int createFile(std::uint64_t length);

    /**
     * Create a kernel-owned device buffer (e.g. a video buffer):
     * frames are allocated eagerly from the kernel's own zone yet the
     * buffer may be mapped user-RW.  These are the "double-owned"
     * pages that let an attacker hammer inside the kernel's physical
     * partition and defeat CATT (Section 2.5).
     */
    int createDeviceBuffer(std::uint64_t length);

    /**
     * Map @p length bytes of file @p fd at @p fixed (or at a bump-
     * allocated address when @p fixed == 0).  Lazy: frames appear on
     * first touch.  Returns the chosen base address.
     */
    VAddr mmapFile(int pid, int fd, std::uint64_t length,
                   const paging::PageFlags &prot, VAddr fixed = 0,
                   std::uint64_t file_offset = 0);

    /** Anonymous mapping. */
    VAddr mmapAnon(int pid, std::uint64_t length,
                   const paging::PageFlags &prot, VAddr fixed = 0);

    /**
     * Eagerly map one naturally aligned anonymous *large page*
     * (level 2 = 2 MiB): the PD entry carries the PS bit — the
     * Section 7 multi-page-size surface.  Returns the base address.
     */
    VAddr mmapAnonLarge(int pid, const paging::PageFlags &prot,
                        unsigned level = 2, VAddr fixed = 0);

    /** Unmap a whole previously created VMA starting at @p start. */
    bool munmap(int pid, VAddr start);
    /** @} */

    /** @name User-mode access (through the MMU) */
    /** @{ */
    UserAccess readUser(int pid, VAddr vaddr);
    UserAccess writeUser(int pid, VAddr vaddr, std::uint64_t value);

    /** Fault in the page at @p vaddr without a data access. */
    bool touchUser(int pid, VAddr vaddr);

    /** Flush the simulated TLB (the attacker's reload step). */
    void flushTlb();
    /** @} */

    /** @name Page-table page management (the 18-line site) */
    /** @{ */
    /**
     * Allocate one zeroed page-table page for a level-@p level table
     * of process @p pid.
     *
     * This is the simulated pte_alloc_one: under the CTA policy the
     * request goes to ZONE_PTP with __GFP_PTP semantics (no
     * fallback); under every other policy it goes to the policy's
     * kernel zone.
     */
    std::optional<Pfn> pteAllocOne(unsigned level, int pid);

    /** Release a page-table page. */
    void pteFree(Pfn pfn);

    /** True iff @p pfn lies inside a live page-table granule. */
    bool isPageTableFrame(Pfn pfn) const
    {
        return ptFrameLevels_.contains(tableBase(pfn));
    }

    /** Level of the table in @p pfn (0 when not a table). */
    unsigned tableLevel(Pfn pfn) const;

    /** All live page-table frames with their levels. */
    const std::unordered_map<Pfn, unsigned> &pageTableFrames() const
    {
        return ptFrameLevels_;
    }

    /** Bytes currently consumed by page tables, machine-wide. */
    std::uint64_t pageTableBytes() const
    {
        return ptFrameLevels_.size() * pageBytes();
    }
    /** @} */

    /** @name Security auditing */
    /** @{ */
    /**
     * Audit the running system against the premises of the
     * No Self-Reference Theorem.  Only meaningful when booted with
     * the CTA policy, but callable anywhere (it reports which
     * premises the current layout violates).
     */
    cta::TheoremAudit auditTheorem() const;

    /** Physical address of the planted kernel secret. */
    Addr kernelSecretAddr() const { return secretAddr_; }
    /** @} */

    /** @name Simulated time */
    /** @{ */
    SimTime now() const { return now_; }
    void advance(SimTime dt) { now_ += dt; }
    /** @} */

    /** Counters: pageFaults, pteAllocs, pteAllocFailures, ... */
    StatGroup &stats() { return stats_; }

  private:
    /** Base frame of the table granule containing @p pfn (identity
     *  on x86-64, whose granule is one frame). */
    Pfn tableBase(Pfn pfn) const
    {
        return pfn & ~(config_.arch->granuleFrames() - 1);
    }

    paging::PageFlags vmaLeafFlags(const Vma &vma) const;
    bool handlePageFault(Process &proc, VAddr vaddr);

    /**
     * ZONE_PTP pressure relief (Section 6.3): evict the oldest leaf
     * page table of some process; its region demand-faults back.
     * @return true when a frame was released.
     */
    bool reclaimLeafTable();
    VAddr placeVma(Process &proc, std::uint64_t length, VAddr fixed);
    mm::GfpFlags dataFlags(const Process &proc,
                           mm::PageKind kind) const;

    KernelConfig config_;
    std::unique_ptr<dram::DramModule> dram_;
    std::unique_ptr<cta::PtpZone> ptp_; //!< null unless policy == Cta
    std::unique_ptr<mm::PhysicalMemory> phys_;
    std::unique_ptr<paging::Mmu> mmu_;

    std::map<int, Process> processes_;
    std::map<int, SimFile> files_;
    int nextPid_ = 1;
    int nextFd_ = 3;

    /** Live page-table frames -> paging level they serve. */
    std::unordered_map<Pfn, unsigned> ptFrameLevels_;

    /** GFP flags for non-CTA page-table allocation. */
    mm::GfpFlags pteFlags_;

    Addr secretAddr_ = 0;

    SimTime now_ = 0;
    StatGroup stats_;

    /** Interned handles for the per-fault / per-syscall counters. */
    StatId processesCreatedId_;
    StatId deviceBuffersId_;
    StatId mmapsId_;
    StatId largeMmapsId_;
    StatId munmapsId_;
    StatId pageFaultsId_;
    StatId segfaultsId_;
    StatId oomFaultsId_;
    StatId pteAllocFaultsId_;
    StatId pteAllocsId_;
    StatId pteAllocFailuresId_;
    StatId ptReclaimsId_;
};

} // namespace ctamem::kernel

#endif // CTAMEM_KERNEL_KERNEL_HH
