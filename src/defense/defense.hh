/**
 * @file
 * Memory-controller / software RowHammer mitigations the paper
 * compares against (Section 2.5), expressed as DisturbanceObserver
 * implementations plugged into the hammer engine.
 *
 * Allocation-policy defenses (CTA itself, CATT, ZebRAM) live in the
 * kernel's AllocPolicy; the observers here model the
 * hardware/firmware side: PARA, refresh-rate boosting, and
 * ANVIL-style detection.
 */

#ifndef CTAMEM_DEFENSE_DEFENSE_HH
#define CTAMEM_DEFENSE_DEFENSE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "dram/hammer.hh"

namespace ctamem::defense {

/** The defense families the benches compare. */
enum class DefenseKind : std::uint8_t
{
    None,
    Cta,          //!< the paper's defense (allocation policy)
    CtaRestricted,//!< CTA + >=2-zeros indicator restriction
    Catt,         //!< kernel/user physical partition (policy)
    Zebram,       //!< zebra-striped data rows (policy)
    RefreshBoost, //!< higher DRAM refresh rate (observer)
    Para,         //!< probabilistic adjacent-row activation (observer)
    Anvil,        //!< performance-counter detection (observer)
    SoftTrr,      //!< software target-row refresh (observer)
    TrrSampler,   //!< in-DRAM TRR activation sampler (observer)
};

/** Human-readable defense name (the Table-1 column heading). */
const char *defenseName(DefenseKind kind);

/**
 * Inverse of defenseName: accepts the canonical manifest token
 * ("cta-restricted") or the display name ("CTA+restriction").
 * Returns nullopt for unknown names.
 */
std::optional<DefenseKind> parseDefenseKind(std::string_view name);

/** Base class adding bookkeeping to observers. */
class ObserverDefense : public dram::DisturbanceObserver
{
  public:
    ~ObserverDefense() override = default;

    virtual const char *name() const = 0;

    /** Mitigation events (victim refreshes) performed. */
    std::uint64_t mitigations() const { return mitigations_; }

    /**
     * Energy/overhead proxy: extra row refreshes issued relative to
     * the baseline refresh schedule.
     */
    virtual double overheadFactor() const = 0;

  protected:
    std::uint64_t mitigations_ = 0;
};

} // namespace ctamem::defense

#endif // CTAMEM_DEFENSE_DEFENSE_HH
