/**
 * @file
 * The simulated DRAM module: data storage, cell-type map, fault
 * model, refresh/decay behaviour, and row re-mapping.
 *
 * Data is addressed by *logical* physical address (what the memory
 * controller sees).  Row re-mapping (manufacturers replacing a faulty
 * row with a spare, Section 7 of the paper) changes which *device* row
 * a logical row's cells occupy; adjacency and cell type follow the
 * device row, data addressing does not change.
 */

#ifndef CTAMEM_DRAM_MODULE_HH
#define CTAMEM_DRAM_MODULE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/cell_types.hh"
#include "dram/fault_model.hh"
#include "dram/geometry.hh"
#include "dram/sparse_store.hh"

namespace ctamem::dram {

/** Construction parameters for a simulated module. */
struct DramConfig
{
    std::uint64_t capacity = 8 * GiB;
    std::uint64_t rowBytes = 128 * KiB; //!< paper's typical row size
    std::uint64_t banks = 8;
    AddressScheme scheme = AddressScheme::BankBlocked;
    CellTypeMap cellMap = CellTypeMap::alternating(512);
    ErrorStats errors;
    std::uint64_t seed = 1;
    SimTime refreshInterval = 64 * milliseconds; //!< JEDEC default
};

/** One simulated DRAM module. */
class DramModule
{
  public:
    explicit DramModule(const DramConfig &config);

    const DramConfig &config() const { return config_; }
    const Geometry &geometry() const { return geometry_; }
    const FaultModel &faults() const { return faults_; }
    const CellTypeMap &cellMap() const { return config_.cellMap; }
    SparseStore &store() { return store_; }

    /** @name Data access (logical physical addresses)
     *
     * Inline pass-throughs to the store so the walker's per-level
     * entry reads compile down to the store's last-frame fast path.
     */
    /** @{ */
    void
    read(Addr addr, void *out, std::size_t len) const
    {
        store_.read(addr, out, len);
    }

    void
    write(Addr addr, const void *in, std::size_t len)
    {
        store_.write(addr, in, len);
    }

    std::uint8_t readByte(Addr addr) const
    {
        return store_.readByte(addr);
    }

    void writeByte(Addr addr, std::uint8_t value)
    {
        store_.writeByte(addr, value);
    }

    std::uint64_t readU64(Addr addr) const
    {
        return store_.readU64(addr);
    }

    void writeU64(Addr addr, std::uint64_t value)
    {
        store_.writeU64(addr, value);
    }
    /** @} */

    /** @name Cell-type and row queries */
    /** @{ */
    /** Device coordinates of a logical address (before re-mapping). */
    Location locate(Addr addr) const { return geometry_.locate(addr); }

    /** Device row a logical (bank, row) actually occupies. */
    std::uint64_t deviceRow(std::uint64_t bank, std::uint64_t row) const;

    /** Logical row currently occupying device (bank, row). */
    std::uint64_t logicalRow(std::uint64_t bank,
                             std::uint64_t device_row) const;

    /**
     * Logical address of the first byte whose data device row
     * (@p bank, @p device_row) holds, or ~0 when the device row was
     * vacated by re-mapping.  The hammer engine keys fault masks on
     * this base: the fault model speaks logical addresses, adjacency
     * speaks device rows.
     */
    Addr rowBase(std::uint64_t bank, std::uint64_t device_row) const;

    /** Cell type of the device row backing logical (bank, row). */
    CellType rowCellType(std::uint64_t bank, std::uint64_t row) const;

    /** Cell type of the cells backing logical address @p addr. */
    CellType cellTypeAt(Addr addr) const;
    /** @} */

    /** @name Row re-mapping */
    /** @{ */
    /**
     * Re-map logical row @p row of @p bank to device row
     * @p spare_row (the two device rows swap logical identities, so
     * the mapping stays bijective).  Fatal if the spare's cell type
     * differs from the original's: sense amplifiers require
     * like-for-like replacement (Section 7), which is why re-mapping
     * cannot break CTA — but it silently breaks defenses built on
     * *address-space* adjacency, such as CATT.
     */
    void remapRow(std::uint64_t bank, std::uint64_t row,
                  std::uint64_t spare_row);

    /** Number of re-map swaps applied. */
    std::size_t remapCount() const { return remapByLogical_.size() / 2; }
    /** @} */

    /** @name Refresh and decay */
    /** @{ */
    bool refreshEnabled() const { return refreshEnabled_; }

    /**
     * Enable/disable refresh.  Re-enabling restores charge in every
     * cell that has not yet decayed, so the unrefreshed-time clock
     * resets; already-decayed cells keep their corrupted value until
     * rewritten.
     */
    void
    setRefreshEnabled(bool enabled)
    {
        refreshEnabled_ = enabled;
        if (enabled)
            unrefreshedTime_ = 0;
    }

    /**
     * Advance simulated time.  If refresh is disabled (or the module
     * is powered off), cells whose retention time at @p celsius is
     * shorter than the accumulated unrefreshed interval decay to
     * their discharged value.
     */
    void advance(SimTime dt, double celsius = 20.0);

    /**
     * Model a power-off of @p duration at @p celsius: equivalent to
     * advancing that long with refresh disabled, then restoring the
     * previous refresh setting.
     */
    void powerOff(SimTime duration, double celsius = 20.0);
    /** @} */

    /** Event counters: decayedBits, remaps, reads, writes. */
    StatGroup &stats() { return stats_; }

  private:
    void decayTouchedFrames(SimTime unrefreshed, double celsius);

    DramConfig config_;
    Geometry geometry_;
    FaultModel faults_;
    SparseStore store_;
    bool refreshEnabled_ = true;
    SimTime unrefreshedTime_ = 0;

    /**
     * (bank, logical row) -> device row for re-mapped rows.  Swaps
     * keep the relation symmetric, so this single map also answers
     * the device-to-logical question.
     */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        remapByLogical_;

    StatGroup stats_;
    StatId remapsId_;
    StatId decayedBitsId_;
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_MODULE_HH
