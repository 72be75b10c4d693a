#include "defense/observers.hh"

#include "common/combinatorics.hh"

namespace ctamem::defense {

bool
ParaObserver::onHammer(const dram::DisturbanceEvent &event)
{
    // Victims survive one pass only if no activation triggered the
    // probabilistic neighbour refresh.
    const double p_refreshed = atLeastOne(
        probability_, static_cast<double>(event.activations));
    if (rng_.chance(p_refreshed)) {
        ++mitigations_;
        return true;
    }
    return false;
}

bool
RefreshBoostObserver::onHammer(const dram::DisturbanceEvent &)
{
    // One pass in `factor_` still accumulates enough disturbance
    // within the shortened refresh window.
    if (rng_.below(factor_) != 0) {
        ++mitigations_;
        return true;
    }
    return false;
}

bool
AnvilObserver::observe(std::uint64_t bank, std::uint64_t row,
                       std::uint64_t activations)
{
    ++passCount_;
    if (passCount_ % windowPasses_ == 0)
        decayWindow();
    std::uint64_t &count = counts_[{bank, row}];
    count += activations;
    return count >= threshold_;
}

void
AnvilObserver::decayWindow()
{
    counts_.clear();
}

bool
AnvilObserver::onHammer(const dram::DisturbanceEvent &event)
{
    if (observe(event.bank, event.aggressorRow, event.activations)) {
        ++detections_;
        ++mitigations_; // targeted neighbour refresh
        return true;
    }
    return false;
}

bool
AnvilObserver::noteBenignActivity(std::uint64_t bank,
                                  std::uint64_t row,
                                  std::uint64_t activations)
{
    if (observe(bank, row, activations)) {
        ++falsePositives_;
        return true;
    }
    return false;
}

} // namespace ctamem::defense
