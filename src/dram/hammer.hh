/**
 * @file
 * The RowHammer disturbance engine.
 *
 * Repeated activation of an aggressor row accelerates charge leakage
 * in its device-adjacent victim rows.  The engine applies the module's
 * stable per-cell fault model: a vulnerable cell flips when (a) the
 * hammer intensity reaches the cell's trip threshold, (b) the cell
 * currently stores the value its flip direction consumes, and (c) no
 * mitigation suppressed the disturbance.
 *
 * The data path is row-granular and bit-parallel: each disturbed row
 * is described by a RowVulnProfile — per-64-cell-word masks of
 * vulnerability, flip direction and single-sided trip — and a hammer
 * pass is AND/XOR/popcount over those masks against the store's
 * readU64()/writeU64() fast path.  Profiles are pure functions of the
 * module seed, so they are cached per (bank, device row) and shared
 * process-wide between engines that simulate identical modules.
 *
 * Mitigations (PARA, ANVIL, refresh boosting, SoftTRR...) observe
 * activations through the DisturbanceObserver interface, implemented
 * in src/defense/ — the DRAM layer stays independent of defense
 * policy.  One pass is announced as one DisturbanceEvent per
 * aggressor row.
 *
 * Two hammer paths share the disturbance math:
 *
 *  - the *untimed* path (hammerRow/hammerDoubleSided): one call is a
 *    whole refresh window of tight activations, applied instantly —
 *    the right granularity for uniform attacks, where only counts
 *    matter;
 *  - the *timed* path (activate/refTick): the caller schedules bursts
 *    against a simulated refresh clock (RefTiming: tREFI intervals,
 *    REF commands).  Disturbance accumulates per victim row as
 *    activation pressure and is only converted into flips when the
 *    row's own refresh slot comes around; a REF also gives TRR-style
 *    mitigations their sampling opportunity (DisturbanceObserver::
 *    onRef), whose targeted refreshes clear pressure early.  This is
 *    what makes activation *timing and ordering* matter — the
 *    substrate the Blacksmith-style pattern fuzzer (src/fuzz/)
 *    searches over.  With a PressureSink installed, evaluated
 *    pressure is reported as an intensity instead of applied as
 *    flips: the fuzzer scores candidates that way on the same REF
 *    clock attack replay uses.
 */

#ifndef CTAMEM_DRAM_HAMMER_HH
#define CTAMEM_DRAM_HAMMER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/module.hh"

namespace ctamem::dram {

class RowHammerEngine;

/**
 * Geometry of the simulated refresh clock driving the timed hammer
 * path.  Defaults follow JEDEC shape: a 64 ms retention window split
 * into 8192 tREFI intervals (~7.8 us each), with room for ~160
 * activations per interval — so a pattern saturating every interval
 * issues ~1.3M activations per window, the untimed path's
 * activationsPerPass.
 */
struct RefTiming
{
    /** REF commands per retention window (64 ms / tREFI). */
    std::uint64_t refsPerWindow = 8192;
    /** Activation budget of one tREFI interval. */
    std::uint64_t actsPerInterval = 160;

    bool operator==(const RefTiming &) const = default;
};

/** One bit flip produced by a hammer pass. */
struct FlipEvent
{
    Addr addr;          //!< logical physical address of the byte
    unsigned bit;       //!< bit index within the byte
    FlipDirection dir;  //!< direction the value moved
};

/** Outcome of one hammer pass. */
struct HammerResult
{
    std::uint64_t flips10 = 0; //!< '1'->'0' flips applied
    std::uint64_t flips01 = 0; //!< '0'->'1' flips applied
    /**
     * Individual flips, populated only when the engine's event
     * recording is on (RowHammerEngine::setRecordEvents) — campaign
     * hot loops skip the per-pass vector entirely.
     */
    std::vector<FlipEvent> events;
    bool suppressed = false;   //!< a mitigation refreshed the victims

    std::uint64_t total() const { return flips10 + flips01; }
};

/**
 * One burst of activations on an aggressor row, as seen by a
 * mitigation.  Replaces the old positional (bank, row, activations,
 * victims-vector) callback with one extensible struct: defenses that
 * only count activations read three fields, row-aware defenses get
 * the disturbed device-row span, and per-row vulnerability summaries
 * are available lazily through the engine back-pointer without the
 * hot path paying for them.
 */
struct DisturbanceEvent
{
    std::uint64_t bank = 0;
    std::uint64_t aggressorRow = 0; //!< device row being activated
    std::uint64_t activations = 0;
    /**
     * Device rows that may be disturbed by this pass, inclusive and
     * clamped to the bank.  The span contains the aggressor row
     * itself (which is refreshed by its own activations, not
     * disturbed); a double-sided pass reports the full
     * [victim-2, victim+2] reach of its aggressor pair.
     */
    std::uint64_t victimFirst = 0;
    std::uint64_t victimLast = 0;
    /** Issuing engine, or null for synthetic events in tests. */
    RowHammerEngine *engine = nullptr;

    /** @name Timed-path fields (RowHammerEngine::activate)
     *
     * Bursts issued against the refresh clock report which tREFI
     * interval they landed in and their issue order within it — the
     * coordinates in-DRAM TRR samplers key their sampling window on.
     * Untimed whole-window passes leave them zero with timed false.
     */
    /** @{ */
    std::uint64_t refInterval = 0; //!< tREFI index of the burst
    std::uint64_t phase = 0;       //!< burst position in the interval
    bool timed = false;            //!< true for REF-clocked bursts
    /** @} */

    /**
     * Vulnerable-cell count of @p device_row (0 without an engine) —
     * the per-row summary row-aware defenses rank victims by.
     */
    std::uint64_t vulnerableCellsIn(std::uint64_t device_row) const;
};

/** One REF command being retired on the timed hammer path. */
struct RefEvent
{
    std::uint64_t bank = 0;
    std::uint64_t interval = 0; //!< tREFI index being retired
    /** Issuing engine, or null for synthetic events in tests. */
    RowHammerEngine *engine = nullptr;
};

/** Hook for RowHammer mitigations; one call per aggressor burst. */
class DisturbanceObserver
{
  public:
    virtual ~DisturbanceObserver() = default;

    /**
     * Observe one aggressor burst.
     * @return true when the mitigation neutralized the disturbance
     *         (e.g. refreshed the victims) for this pass.
     */
    virtual bool onHammer(const DisturbanceEvent &event) = 0;

    /**
     * One REF command retired (timed path only).  TRR-capable
     * mitigations append the device rows they target-refresh with
     * this REF to @p refresh_rows; the engine clears those rows'
     * accumulated disturbance pressure.  Default: no targeted
     * refreshes.
     */
    virtual void
    onRef(const RefEvent &event, std::vector<std::uint64_t> &refresh_rows)
    {
        (void)event;
        (void)refresh_rows;
    }
};

/**
 * Receiver of evaluated timed-path pressure.  While a sink is
 * installed (RowHammerEngine::setPressureSink), each victim row whose
 * refresh slot arrives, or that drainPressure() reaches, is reported
 * here with the intensity its pressure amounted to, and no flips are
 * applied.  The REF clock, TRR clearing and pressure accounting are
 * the ones attack replay runs; only the final conversion differs.
 */
class PressureSink
{
  public:
    virtual ~PressureSink() = default;

    /** Victim @p device_row of @p bank reached @p intensity (> 0). */
    virtual void onPressure(std::uint64_t bank, std::uint64_t device_row,
                            double intensity) = 0;
};

/** A cached vulnerable cell within one device row. */
struct VulnerableBit
{
    std::uint64_t column; //!< byte offset within the row
    unsigned bit;
    double threshold;     //!< minimum intensity that trips it
};

/**
 * Fault masks of one 64-cell word (8 bytes) of a row.  Bit k of each
 * mask describes the cell backing bit k of a little-endian u64 load
 * at (row base + word * 8) — i.e. cell (base + word*8 + k/8, k%8).
 */
struct MaskWord
{
    std::uint32_t word;  //!< 8-byte word index within the row
    std::uint64_t vuln;  //!< vulnerable cells
    std::uint64_t dir10; //!< subset of vuln flipping '1'->'0'
    std::uint64_t trip;  //!< subset of vuln tripping single-sided
};

/**
 * Bit-parallel fault profile of one device row: only words containing
 * at least one vulnerable cell appear, in ascending order.  A pure
 * function of (module seed, error stats, row base address, cell
 * type), which is what makes process-wide sharing sound.
 *
 * The profile also carries the row's sorted trip thresholds, derived
 * on first request only: the pattern fuzzer scores candidates against
 * them, and rows nobody asks about never pay for the table.  Because
 * the table lives in the cached profile, its lifetime and bound are
 * the profile cache's.
 */
struct RowVulnProfile
{
    Addr base = 0;       //!< logical address of the row's first byte
    CellType type = CellType::True;
    bool mapped = false; //!< false: device row vacated by re-mapping
    std::vector<MaskWord> words;
    std::uint64_t vulnerableCells = 0;
    std::uint64_t tripSingleCells = 0;

    /**
     * Trip thresholds of the row's vulnerable cells in ascending
     * order; empty for a vacated row.  Built once, on the first call,
     * from @p faults — which must be the fault model the profile was
     * built from.  Thread-safe: racing first calls all return the one
     * finished table.
     */
    const std::vector<double> &
    sortedThresholds(const FaultModel &faults) const;

  private:
    mutable std::once_flag thresholdsOnce_;
    mutable std::vector<double> thresholds_;
};

/** Applies RowHammer disturbance to a DramModule. */
class RowHammerEngine
{
  public:
    /** Effective intensity of a single-sided hammer pass. */
    static constexpr double singleSidedIntensity = 0.2;
    /** Effective intensity of a double-sided hammer pass. */
    static constexpr double doubleSidedIntensity = 1.0;
    /** Activations per pass (one refresh window of tight reads). */
    static constexpr std::uint64_t activationsPerPass = 1'300'000;

    explicit RowHammerEngine(DramModule &module,
                             DisturbanceObserver *observer = nullptr)
        : module_(module), observer_(observer),
          pressure_(module.geometry().banks())
    {
        // Sized for a templating sweep over a few hundred rows; the
        // map only rehashes on campaigns far beyond that.
        profiles_.reserve(256);
        passesId_ = stats_.registerCounter("passes");
        suppressedPassesId_ = stats_.registerCounter("suppressedPasses");
        flips10Id_ = stats_.registerCounter("flips10");
        flips01Id_ = stats_.registerCounter("flips01");
        timedActivationsId_ =
            stats_.registerCounter("timedActivations");
        refTicksId_ = stats_.registerCounter("refTicks");
        trrRefreshesId_ = stats_.registerCounter("trrRefreshes");
    }

    void setObserver(DisturbanceObserver *observer)
    {
        observer_ = observer;
    }

    /** The module this engine disturbs. */
    DramModule &module() { return module_; }
    const DramModule &module() const { return module_; }

    /** @name Flip-event recording (opt-in)
     *
     * Recording is off by default: campaign loops only consume flip
     * *counts*, so the per-pass event vector would be pure overhead.
     * Tests and tools that inspect individual flips turn it on; an
     * event sink additionally accumulates every flip across passes
     * (the Drammer templating scan and attack_lab use it).
     */
    /** @{ */
    void setRecordEvents(bool record) { recordEvents_ = record; }
    bool recordEvents() const { return recordEvents_; }
    void setEventSink(std::vector<FlipEvent> *sink) { sink_ = sink; }
    std::vector<FlipEvent> *eventSink() const { return sink_; }
    /** @} */

    /**
     * Hammer logical row @p row of @p bank for one refresh window.
     * Disturbs the device-adjacent rows at single-sided intensity.
     */
    HammerResult hammerRow(std::uint64_t bank, std::uint64_t row);

    /**
     * Double-sided hammer: activate the logical rows directly above
     * and below @p victim_row alternately; the sandwiched victim sees
     * full intensity, the outer neighbours single-sided intensity.
     */
    HammerResult hammerDoubleSided(std::uint64_t bank,
                                   std::uint64_t victim_row);

    /** @name REF-interval timed hammering
     *
     * The timed path: activate() issues one aggressor burst inside
     * the current tREFI interval, refTick() retires one REF command.
     * Disturbance accumulates per victim row as (below, above)
     * neighbour-activation pressure; a row converts its pressure into
     * flips when its own refresh slot arrives (device row r is
     * refreshed by the REF whose interval index matches
     * r % refsPerWindow), then starts from full charge again.  A
     * mitigation's onRef() targeted refreshes clear pressure early;
     * targets outside the bank are counted and otherwise ignored.
     *
     * Pressure lives in one dense array per bank, indexed by device
     * row and allocated on the bank's first timed activation, so a
     * REF visits exactly its slot's rows (slot, slot + refsPerWindow,
     * ...) and every walk runs in ascending device-row order — the
     * order flips reach the event sink.
     *
     * Pressure maps onto the untimed intensities: a window of paired
     * (double-sided) activations reaches doubleSidedIntensity, a
     * window of one-sided activations reaches singleSidedIntensity —
     * so a pattern saturating the clock reproduces the untimed
     * hammer, and anything sparser or interrupted by TRR lands
     * proportionally lower.
     */
    /** @{ */
    void setRefTiming(const RefTiming &timing) { refTiming_ = timing; }
    const RefTiming &refTiming() const { return refTiming_; }

    /** tREFI intervals retired so far (the current interval index). */
    std::uint64_t refInterval() const { return refInterval_; }

    /**
     * Issue @p activations activations of logical row @p row within
     * the current tREFI interval, as burst number @p phase of that
     * interval.  Announces one timed DisturbanceEvent; a suppressing
     * observer voids the burst's pressure.
     */
    void activate(std::uint64_t bank, std::uint64_t row,
                  std::uint64_t activations, std::uint64_t phase,
                  HammerResult &result);

    /**
     * Retire one REF command: give the observer its sampling
     * opportunity (onRef), clear the pressure of its target-refreshed
     * rows, then refresh the rows whose slot this interval is —
     * evaluating their accumulated pressure into flips first.
     */
    void refTick(std::uint64_t bank, HammerResult &result);

    /**
     * Evaluate all outstanding pressure in @p bank as if each row's
     * refresh slot arrived now (end of a timed run), in ascending
     * device-row order.
     */
    void drainPressure(std::uint64_t bank, HammerResult &result);

    /** Victim rows currently carrying unevaluated pressure. */
    std::size_t pendingPressureRows() const;

    /**
     * Report evaluated pressure to @p sink instead of applying flips
     * (null restores flip application).  See PressureSink.
     */
    void setPressureSink(PressureSink *sink) { pressureSink_ = sink; }
    /** @} */

    /**
     * Mask profile of a device row (lazily built, cached, shared
     * between engines over identical modules).  Stable against row
     * re-mapping: the cached entry revalidates against the current
     * logical base.
     */
    const RowVulnProfile &rowProfile(std::uint64_t bank,
                                     std::uint64_t device_row);

    /**
     * rowProfile() as a shared reference, for callers that keep a
     * profile beyond this engine's lifetime; null for a device row
     * vacated by re-mapping.
     */
    std::shared_ptr<const RowVulnProfile>
    sharedRowProfile(std::uint64_t bank, std::uint64_t device_row);

    /**
     * Compatibility view of a row's vulnerable cells, materialized
     * from the mask profile and sorted by ascending trip threshold
     * with a (column, bit) tie-break — the order the scalar engine
     * used.  Cold path only: it re-derives per-cell thresholds, so
     * callers on hot loops should consume rowProfile() masks instead.
     */
    std::vector<VulnerableBit> vulnerableBits(std::uint64_t bank,
                                              std::uint64_t device_row);

    /** Counters: passes, flips10, flips01, suppressedPasses. */
    StatGroup &stats() { return stats_; }

  private:
    /**
     * This engine's cache slot holding the current profile of a
     * device row (fetched on a miss), or null for a vacated row.
     */
    const std::shared_ptr<const RowVulnProfile> *
    profileSlot(std::uint64_t bank, std::uint64_t device_row);

    /** Apply disturbance of @p intensity to one device row. */
    void disturbDeviceRow(std::uint64_t bank, std::uint64_t device_row,
                          double intensity, HammerResult &result);

    /**
     * Neighbour-activation pressure accumulated on one victim row
     * since its last refresh: activations of the device row below it
     * and of the device row above it, tracked separately so paired
     * (double-sided) pressure can be told from one-sided.
     */
    struct RowPressure
    {
        std::uint64_t below = 0; //!< activations of the row beneath
        std::uint64_t above = 0; //!< activations of the row on top

        bool pending() const { return (below | above) != 0; }
    };

    /** Effective disturbance intensity of accumulated pressure. */
    double pressureIntensity(const RowPressure &pressure) const;

    /**
     * Convert one victim row's pressure into flips (or report it to
     * the pressure sink) and clear it; no-op without pressure.
     */
    void evaluatePressure(std::uint64_t bank, std::uint64_t device_row,
                          HammerResult &result);

    /** Drop one row's pressure unevaluated (a targeted refresh). */
    void clearPressure(std::uint64_t bank, std::uint64_t device_row);

    DramModule &module_;
    DisturbanceObserver *observer_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const RowVulnProfile>>
        profiles_;
    std::vector<std::uint64_t> scanBuffer_; //!< bulk-scan scratch
    bool recordEvents_ = false;
    std::vector<FlipEvent> *sink_ = nullptr;

    // Timed-path state.
    RefTiming refTiming_;
    std::uint64_t refInterval_ = 0;
    /**
     * Outstanding pressure, pressure_[bank][device row]; a bank's
     * array stays empty until its first timed activation.
     */
    std::vector<std::vector<RowPressure>> pressure_;
    PressureSink *pressureSink_ = nullptr;
    std::vector<std::uint64_t> trrScratch_; //!< onRef refresh targets

    StatGroup stats_;
    StatId passesId_;
    StatId suppressedPassesId_;
    StatId flips10Id_;
    StatId flips01Id_;
    StatId timedActivationsId_;
    StatId refTicksId_;
    StatId trrRefreshesId_;
};

/** @name Process-wide row-profile cache controls
 *
 * Row profiles are shared between engines through one process-wide
 * cache (see hammer.cc).  Long-running multi-config services sweep
 * arbitrarily many distinct modules through one process, so the cache
 * is LRU-bounded: these hooks set the bound and read the counters the
 * service exports.
 */
/** @{ */

/** Counters and occupancy of the shared row-profile cache. */
struct ProfileCacheStats
{
    std::uint64_t hits = 0;      //!< profile served from the cache
    std::uint64_t misses = 0;    //!< profile had to be (re)built
    std::uint64_t evictions = 0; //!< LRU entries dropped at capacity
    /** Misses whose build lost the first-insert race to a concurrent
     *  build of the same row and was discarded (duplicate work). */
    std::uint64_t raceLosses = 0;
    std::size_t entries = 0;     //!< profiles currently cached
    std::size_t capacity = 0;    //!< current entry cap
};

ProfileCacheStats profileCacheStats();

/**
 * Cap the shared profile cache at @p max_entries (spread across its
 * shards, at least one per shard).  Shrinking evicts LRU entries
 * immediately.  Engines keep shared_ptr references to profiles they
 * hold, so eviction never invalidates a live profile.
 */
void profileCacheSetCapacity(std::size_t max_entries);

/** @} */

namespace reference {

/**
 * Retained scalar reference implementation of the disturbance pass —
 * the pre-mask cell-at-a-time algorithm, kept verbatim so the
 * equivalence property tests can check the bit-parallel engine
 * cell-for-cell against it.  Not used on any hot path.
 */
HammerResult hammerRowScalar(DramModule &module, std::uint64_t bank,
                             std::uint64_t row);
HammerResult hammerDoubleSidedScalar(DramModule &module,
                                     std::uint64_t bank,
                                     std::uint64_t victim_row);

} // namespace reference

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_HAMMER_HH
