#include "dram/hammer.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <list>
#include <mutex>

#include "common/log.hh"
#include "common/rng.hh"

namespace ctamem::dram {

namespace {

/** Flat cache key for (bank, device row). */
std::uint64_t
rowKey(std::uint64_t bank, std::uint64_t device_row)
{
    return (bank << 40) | device_row;
}

/**
 * Sort trip thresholds in expected linear time.  They are uniform on
 * [0, 1), so a counting pass into as many buckets as values leaves
 * about one value per bucket, and an insertion sort only has to order
 * within buckets — several times cheaper than a comparison sort.
 */
void
sortThresholds(std::vector<double> &values)
{
    const std::size_t n = values.size();
    const auto bucket = [n](double value) {
        return std::min(n - 1, static_cast<std::size_t>(value * n));
    };
    std::vector<std::size_t> next(n + 1, 0);
    for (const double value : values)
        ++next[bucket(value) + 1];
    for (std::size_t b = 1; b <= n; ++b)
        next[b] += next[b - 1];
    std::vector<double> sorted(n);
    for (const double value : values)
        sorted[next[bucket(value)]++] = value;
    for (std::size_t i = 1; i < n; ++i) {
        const double value = sorted[i];
        std::size_t j = i;
        for (; j > 0 && sorted[j - 1] > value; --j)
            sorted[j] = sorted[j - 1];
        sorted[j] = value;
    }
    values = std::move(sorted);
}

/** Build the mask profile of one row from the fault model. */
std::shared_ptr<const RowVulnProfile>
buildProfile(const FaultModel &faults, Addr base, CellType type,
             std::uint64_t row_bytes, std::vector<std::uint64_t> &scratch)
{
    auto profile = std::make_shared<RowVulnProfile>();
    profile->base = base;
    profile->type = type;
    profile->mapped = true;

    const std::size_t row_words = row_bytes / 8;
    scratch.resize(row_words);
    faults.vulnMaskRow(base, row_words, scratch.data());

    for (std::size_t w = 0; w < row_words; ++w) {
        const std::uint64_t vuln = scratch[w];
        if (!vuln)
            continue;
        const Addr waddr = base + w * 8;
        // Direction and trip masks only need the vulnerable lanes:
        // the apply step never consults them outside `vuln`.
        const std::uint64_t dir10 =
            faults.flipDirMaskWord(waddr, type, vuln);
        const std::uint64_t trip = faults.tripMaskWord(
            waddr, RowHammerEngine::singleSidedIntensity, vuln);
        profile->words.push_back(
            MaskWord{static_cast<std::uint32_t>(w), vuln, dir10, trip});
        profile->vulnerableCells += std::popcount(vuln);
        profile->tripSingleCells += std::popcount(trip);
    }
    return profile;
}

/**
 * Process-wide row-profile cache.  Profiles are pure functions of
 * (seed, error stats, row base, cell type, row size), so engines over
 * identical modules — e.g. the per-defense machines of one campaign
 * sweep, which all boot the same seed — share one scan per row.
 * Sharded mutexes keep campaign worker threads out of each other's
 * way; a racing double-build is harmless (both results are identical)
 * and first-insert-wins.  The losing builds are counted
 * (`raceLosses`) rather than prevented: single-flight builds measured
 * no end-to-end gain (DESIGN.md §6d).
 *
 * Each shard is LRU-bounded: service workloads stream arbitrarily
 * many distinct module configs through one process, and an unbounded
 * map would grow with every one of them.  Eviction only drops the
 * cache's own reference — engines hold shared_ptrs to the profiles
 * they are using.
 */
class ProfileCache
{
  public:
    static ProfileCache &
    instance()
    {
        static ProfileCache cache;
        return cache;
    }

    std::shared_ptr<const RowVulnProfile>
    fetch(const FaultModel &faults, Addr base, CellType type,
          std::uint64_t row_bytes, std::vector<std::uint64_t> &scratch)
    {
        const Key key{faults.seed(),
                      std::bit_cast<std::uint64_t>(faults.stats().pf),
                      std::bit_cast<std::uint64_t>(
                          faults.stats().p10True),
                      row_bytes, base, type};
        Shard &shard = shards_[KeyHash{}(key) % kShards];
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.map.find(key);
            if (it != shard.map.end()) {
                ++shard.hits;
                // Move to the front of the recency list.
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 it->second.lruIt);
                return it->second.profile;
            }
            ++shard.misses;
        }
        auto built = buildProfile(faults, base, type, row_bytes,
                                  scratch);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            ++shard.raceLosses;
            return it->second.profile; // lost the race: share winner
        }
        shard.lru.push_front(key);
        shard.map.emplace(key, Entry{built, shard.lru.begin()});
        shard.evictToCapacity(perShardCapacity_);
        return built;
    }

    ProfileCacheStats
    stats()
    {
        ProfileCacheStats total;
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total.hits += shard.hits;
            total.misses += shard.misses;
            total.evictions += shard.evictions;
            total.raceLosses += shard.raceLosses;
            total.entries += shard.map.size();
        }
        total.capacity = perShardCapacity_ * kShards;
        return total;
    }

    void
    setCapacity(std::size_t max_entries)
    {
        const std::size_t per_shard =
            std::max<std::size_t>(1, max_entries / kShards);
        perShardCapacity_ = per_shard;
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.evictToCapacity(per_shard);
        }
    }

  private:
    struct Key
    {
        std::uint64_t seed;
        std::uint64_t pfBits;
        std::uint64_t p10Bits;
        std::uint64_t rowBytes;
        Addr base;
        CellType type;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &key) const
        {
            return stableHash(key.seed, key.pfBits, key.p10Bits,
                              key.rowBytes, key.base,
                              static_cast<std::uint64_t>(key.type));
        }
    };

    struct Entry
    {
        std::shared_ptr<const RowVulnProfile> profile;
        std::list<Key>::iterator lruIt;
    };

    static constexpr unsigned kShards = 8;
    static constexpr std::size_t kDefaultPerShard = 128;

    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<Key, Entry, KeyHash> map;
        /** Front = most recently used. */
        std::list<Key> lru;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t raceLosses = 0;

        /** Drop LRU entries until at most @p capacity remain.
         *  Caller holds the shard mutex. */
        void
        evictToCapacity(std::size_t capacity)
        {
            while (map.size() > capacity) {
                map.erase(lru.back());
                lru.pop_back();
                ++evictions;
            }
        }
    };

    Shard shards_[kShards];
    std::atomic<std::size_t> perShardCapacity_{kDefaultPerShard};
};

} // namespace

ProfileCacheStats
profileCacheStats()
{
    return ProfileCache::instance().stats();
}

void
profileCacheSetCapacity(std::size_t max_entries)
{
    ProfileCache::instance().setCapacity(max_entries);
}

std::uint64_t
DisturbanceEvent::vulnerableCellsIn(std::uint64_t device_row) const
{
    if (!engine)
        return 0;
    return engine->rowProfile(bank, device_row).vulnerableCells;
}

const std::vector<double> &
RowVulnProfile::sortedThresholds(const FaultModel &faults) const
{
    std::call_once(thresholdsOnce_, [&] {
        thresholds_.reserve(vulnerableCells);
        for (const MaskWord &mw : words) {
            for (std::uint64_t rest = mw.vuln; rest; rest &= rest - 1) {
                const unsigned k = std::countr_zero(rest);
                thresholds_.push_back(
                    faults.tripThreshold(base + mw.word * 8ULL + k / 8,
                                         k % 8));
            }
        }
        sortThresholds(thresholds_);
    });
    return thresholds_;
}

const std::shared_ptr<const RowVulnProfile> *
RowHammerEngine::profileSlot(std::uint64_t bank,
                             std::uint64_t device_row)
{
    // The fault model keys on the *logical* address whose data the
    // device row holds; follow the remap table back.
    const Addr base = module_.rowBase(bank, device_row);
    if (base == ~0ULL)
        return nullptr; // vacated by re-mapping: no logical data
    const CellType type = module_.cellMap().rowType(device_row);

    const std::uint64_t key = rowKey(bank, device_row);
    auto it = profiles_.find(key);
    if (it != profiles_.end() && it->second->base == base &&
        it->second->type == type) {
        return &it->second; // still describes this device row
    }
    auto shared = ProfileCache::instance().fetch(
        module_.faults(), base, type, module_.geometry().rowBytes(),
        scanBuffer_);
    auto &slot = profiles_[key];
    slot = std::move(shared);
    return &slot;
}

const RowVulnProfile &
RowHammerEngine::rowProfile(std::uint64_t bank,
                            std::uint64_t device_row)
{
    static const RowVulnProfile vacant{};
    const auto *slot = profileSlot(bank, device_row);
    return slot ? **slot : vacant;
}

std::shared_ptr<const RowVulnProfile>
RowHammerEngine::sharedRowProfile(std::uint64_t bank,
                                  std::uint64_t device_row)
{
    const auto *slot = profileSlot(bank, device_row);
    return slot ? *slot : nullptr;
}

std::vector<VulnerableBit>
RowHammerEngine::vulnerableBits(std::uint64_t bank,
                                std::uint64_t device_row)
{
    const RowVulnProfile &profile = rowProfile(bank, device_row);
    const FaultModel &faults = module_.faults();
    std::vector<VulnerableBit> found;
    found.reserve(profile.vulnerableCells);
    for (const MaskWord &mw : profile.words) {
        for (std::uint64_t rest = mw.vuln; rest; rest &= rest - 1) {
            const unsigned k = std::countr_zero(rest);
            const std::uint64_t column = mw.word * 8ULL + k / 8;
            const unsigned bit = k % 8;
            found.push_back(VulnerableBit{
                column, bit,
                faults.tripThreshold(profile.base + column, bit)});
        }
    }
    // Ascending trip threshold with a (column, bit) tie-break — the
    // order the scalar disturbance loop consumed.
    std::sort(found.begin(), found.end(),
              [](const VulnerableBit &a, const VulnerableBit &b) {
                  if (a.threshold != b.threshold)
                      return a.threshold < b.threshold;
                  return a.column != b.column ? a.column < b.column
                                              : a.bit < b.bit;
              });
    return found;
}

void
RowHammerEngine::disturbDeviceRow(std::uint64_t bank,
                                  std::uint64_t device_row,
                                  double intensity,
                                  HammerResult &result)
{
    const RowVulnProfile &profile = rowProfile(bank, device_row);
    if (!profile.mapped || profile.words.empty())
        return;

    SparseStore &store = module_.store();
    const FaultModel &faults = module_.faults();
    const bool full = intensity >= doubleSidedIntensity;
    const bool single = intensity == singleSidedIntensity;
    const bool emit = recordEvents_ || sink_ != nullptr;

    for (const MaskWord &mw : profile.words) {
        const Addr waddr = profile.base + mw.word * 8ULL;
        // Candidate cells: intensity at or above the trip threshold.
        // Full intensity trips every vulnerable cell (thresholds live
        // in [0,1)); the single-sided mask is precomputed; any other
        // intensity asks the fault model directly.
        const std::uint64_t candidates =
            full ? mw.vuln :
            single ? mw.trip :
                     faults.tripMaskWord(waddr, intensity, mw.vuln);
        if (!candidates)
            continue;
        const std::uint64_t stored = store.readU64(waddr);
        // A flip consumes the stored value its direction leaks from.
        const std::uint64_t f10 = candidates & mw.dir10 & stored;
        const std::uint64_t f01 = candidates & ~mw.dir10 & ~stored;
        const std::uint64_t flips = f10 | f01;
        if (!flips)
            continue;
        store.writeU64(waddr, (stored & ~f10) | f01);
        result.flips10 += std::popcount(f10);
        result.flips01 += std::popcount(f01);
        if (emit) {
            for (std::uint64_t rest = flips; rest; rest &= rest - 1) {
                const unsigned k = std::countr_zero(rest);
                const FlipEvent event{
                    waddr + (k >> 3), k & 7u,
                    (f10 >> k) & 1 ? FlipDirection::OneToZero :
                                     FlipDirection::ZeroToOne};
                if (recordEvents_)
                    result.events.push_back(event);
                if (sink_)
                    sink_->push_back(event);
            }
        }
    }
}

HammerResult
RowHammerEngine::hammerRow(std::uint64_t bank, std::uint64_t row)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("hammerRow: row out of range");

    HammerResult result;
    stats_.at(passesId_).increment();

    const std::uint64_t aggressor = module_.deviceRow(bank, row);
    const std::uint64_t rows = geom.rowsPerBank();
    const bool below = aggressor > 0;
    const bool above = aggressor + 1 < rows;

    if (observer_) {
        const DisturbanceEvent event{
            bank, aggressor, activationsPerPass,
            below ? aggressor - 1 : aggressor,
            above ? aggressor + 1 : aggressor, this};
        if (observer_->onHammer(event)) {
            result.suppressed = true;
            stats_.at(suppressedPassesId_).increment();
            return result;
        }
    }

    if (below)
        disturbDeviceRow(bank, aggressor - 1, singleSidedIntensity,
                         result);
    if (above)
        disturbDeviceRow(bank, aggressor + 1, singleSidedIntensity,
                         result);

    stats_.at(flips10Id_).increment(result.flips10);
    stats_.at(flips01Id_).increment(result.flips01);
    return result;
}

HammerResult
RowHammerEngine::hammerDoubleSided(std::uint64_t bank,
                                   std::uint64_t victim_row)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || victim_row >= geom.rowsPerBank())
        fatal("hammerDoubleSided: row out of range");

    HammerResult result;
    stats_.at(passesId_).increment();

    const std::uint64_t victim = module_.deviceRow(bank, victim_row);
    const std::uint64_t rows = geom.rowsPerBank();
    if (victim == 0 || victim + 1 >= rows) {
        // No sandwich possible at the bank edge; fall back to
        // single-sided behaviour on the one existing neighbour.
        return hammerRow(bank, victim_row);
    }

    bool suppressed = false;
    if (observer_) {
        // One event per aggressor; the span covers every row the
        // pair can disturb (the outer neighbours see single-sided
        // intensity).
        const std::uint64_t first = victim >= 2 ? victim - 2 :
                                                  victim - 1;
        const std::uint64_t last = victim + 2 < rows ? victim + 2 :
                                                       victim + 1;
        const DisturbanceEvent lower{bank, victim - 1,
                                     activationsPerPass, first, last,
                                     this};
        const DisturbanceEvent upper{bank, victim + 1,
                                     activationsPerPass, first, last,
                                     this};
        suppressed |= observer_->onHammer(lower);
        suppressed |= observer_->onHammer(upper);
    }
    if (suppressed) {
        result.suppressed = true;
        stats_.at(suppressedPassesId_).increment();
        return result;
    }

    disturbDeviceRow(bank, victim, doubleSidedIntensity, result);
    // The aggressors' outer neighbours see single-sided disturbance.
    if (victim >= 2)
        disturbDeviceRow(bank, victim - 2, singleSidedIntensity,
                         result);
    if (victim + 2 < rows)
        disturbDeviceRow(bank, victim + 2, singleSidedIntensity,
                         result);

    stats_.at(flips10Id_).increment(result.flips10);
    stats_.at(flips01Id_).increment(result.flips01);
    return result;
}

void
RowHammerEngine::activate(std::uint64_t bank, std::uint64_t row,
                          std::uint64_t activations,
                          std::uint64_t phase, HammerResult &result)
{
    const Geometry &geom = module_.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("activate: row out of range");
    if (activations == 0)
        return;

    stats_.at(timedActivationsId_).increment(activations);

    const std::uint64_t aggressor = module_.deviceRow(bank, row);
    const std::uint64_t rows = geom.rowsPerBank();
    const bool below = aggressor > 0;
    const bool above = aggressor + 1 < rows;

    if (observer_) {
        DisturbanceEvent event;
        event.bank = bank;
        event.aggressorRow = aggressor;
        event.activations = activations;
        event.victimFirst = below ? aggressor - 1 : aggressor;
        event.victimLast = above ? aggressor + 1 : aggressor;
        event.engine = this;
        event.refInterval = refInterval_;
        event.phase = phase;
        event.timed = true;
        if (observer_->onHammer(event)) {
            result.suppressed = true;
            stats_.at(suppressedPassesId_).increment();
            return;
        }
    }

    std::vector<RowPressure> &victims = pressure_[bank];
    if (victims.empty())
        victims.resize(rows);
    // A victim's `below` pressure counts activations of the device
    // row beneath it (i.e. this aggressor when the victim sits above).
    if (below)
        victims[aggressor - 1].above += activations;
    if (above)
        victims[aggressor + 1].below += activations;
}

double
RowHammerEngine::pressureIntensity(const RowPressure &pressure) const
{
    // Paired (double-sided) activations disturb at full intensity,
    // the one-sided remainder at single-sided intensity; a whole
    // window of activations reproduces the untimed pass exactly.
    const std::uint64_t paired =
        2 * std::min(pressure.below, pressure.above);
    const std::uint64_t unpaired =
        pressure.below + pressure.above - paired;
    const double dose =
        (doubleSidedIntensity * static_cast<double>(paired) +
         singleSidedIntensity * static_cast<double>(unpaired)) /
        static_cast<double>(activationsPerPass);
    return std::min(doubleSidedIntensity, dose);
}

void
RowHammerEngine::evaluatePressure(std::uint64_t bank,
                                  std::uint64_t device_row,
                                  HammerResult &result)
{
    RowPressure &pressure = pressure_[bank][device_row];
    if (!pressure.pending())
        return;
    const double intensity = pressureIntensity(pressure);
    pressure = RowPressure{};
    if (intensity <= 0.0)
        return;
    if (pressureSink_)
        pressureSink_->onPressure(bank, device_row, intensity);
    else
        disturbDeviceRow(bank, device_row, intensity, result);
}

void
RowHammerEngine::clearPressure(std::uint64_t bank,
                               std::uint64_t device_row)
{
    // TRR targets come from the mitigation: a sampler may name the
    // row past either edge of the bank, which holds no pressure.
    if (bank < pressure_.size() && device_row < pressure_[bank].size())
        pressure_[bank][device_row] = RowPressure{};
}

std::size_t
RowHammerEngine::pendingPressureRows() const
{
    std::size_t pending = 0;
    for (const std::vector<RowPressure> &bank : pressure_) {
        pending += std::count_if(
            bank.begin(), bank.end(),
            [](const RowPressure &row) { return row.pending(); });
    }
    return pending;
}

void
RowHammerEngine::refTick(std::uint64_t bank, HammerResult &result)
{
    stats_.at(refTicksId_).increment();

    if (observer_) {
        const RefEvent event{bank, refInterval_, this};
        trrScratch_.clear();
        observer_->onRef(event, trrScratch_);
        for (const std::uint64_t device_row : trrScratch_) {
            stats_.at(trrRefreshesId_).increment();
            clearPressure(bank, device_row);
        }
    }

    // This REF refreshes the rows whose slot this interval is; their
    // accumulated pressure is what charge they lost since their last
    // refresh.  Striding the bank's dense array from the slot visits
    // exactly those rows, in ascending device-row order (the
    // event-sink determinism contract).
    const std::uint64_t before10 = result.flips10;
    const std::uint64_t before01 = result.flips01;
    if (bank < pressure_.size()) {
        const std::uint64_t rows = pressure_[bank].size();
        const std::uint64_t stride = refTiming_.refsPerWindow;
        for (std::uint64_t row = refInterval_ % stride; row < rows;
             row += stride) {
            evaluatePressure(bank, row, result);
        }
    }
    stats_.at(flips10Id_).increment(result.flips10 - before10);
    stats_.at(flips01Id_).increment(result.flips01 - before01);

    ++refInterval_;
}

void
RowHammerEngine::drainPressure(std::uint64_t bank,
                               HammerResult &result)
{
    const std::uint64_t before10 = result.flips10;
    const std::uint64_t before01 = result.flips01;
    if (bank < pressure_.size()) {
        const std::uint64_t rows = pressure_[bank].size();
        for (std::uint64_t row = 0; row < rows; ++row)
            evaluatePressure(bank, row, result);
    }
    stats_.at(flips10Id_).increment(result.flips10 - before10);
    stats_.at(flips01Id_).increment(result.flips01 - before01);
}

namespace reference {

namespace {

/** The scalar engine's row scan: every cell, one hash at a time. */
std::vector<VulnerableBit>
scanRowScalar(DramModule &module, std::uint64_t bank,
              std::uint64_t device_row)
{
    const Geometry &geom = module.geometry();
    const std::uint64_t logical = module.logicalRow(bank, device_row);
    std::vector<VulnerableBit> found;
    if (logical != ~0ULL) {
        const Addr base = geom.address(Location{bank, logical, 0});
        const FaultModel &faults = module.faults();
        for (std::uint64_t col = 0; col < geom.rowBytes(); ++col) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (faults.vulnerable(base + col, bit)) {
                    found.push_back(VulnerableBit{
                        col, bit,
                        faults.tripThreshold(base + col, bit)});
                }
            }
        }
    }
    std::sort(found.begin(), found.end(),
              [](const VulnerableBit &a, const VulnerableBit &b) {
                  if (a.threshold != b.threshold)
                      return a.threshold < b.threshold;
                  return a.column != b.column ? a.column < b.column
                                              : a.bit < b.bit;
              });
    return found;
}

/** The scalar engine's disturbance pass: readBit/writeBit per cell. */
void
disturbScalar(DramModule &module, std::uint64_t bank,
              std::uint64_t device_row, double intensity,
              HammerResult &result)
{
    const std::uint64_t logical = module.logicalRow(bank, device_row);
    if (logical == ~0ULL)
        return;
    const Geometry &geom = module.geometry();
    const Addr base = geom.address(Location{bank, logical, 0});
    const CellType type = module.cellMap().rowType(device_row);
    const FaultModel &faults = module.faults();

    const std::vector<VulnerableBit> cells =
        scanRowScalar(module, bank, device_row);
    for (const VulnerableBit &cell : cells) {
        if (cell.threshold > intensity)
            break; // sorted ascending: nothing further can trip
        const Addr addr = base + cell.column;
        const FlipDirection dir =
            faults.flipDirection(addr, cell.bit, type);
        const bool stored = module.store().readBit(addr, cell.bit);
        if (dir == FlipDirection::OneToZero && stored) {
            module.store().writeBit(addr, cell.bit, false);
            ++result.flips10;
            result.events.push_back(FlipEvent{addr, cell.bit, dir});
        } else if (dir == FlipDirection::ZeroToOne && !stored) {
            module.store().writeBit(addr, cell.bit, true);
            ++result.flips01;
            result.events.push_back(FlipEvent{addr, cell.bit, dir});
        }
    }
}

} // namespace

HammerResult
hammerRowScalar(DramModule &module, std::uint64_t bank,
                std::uint64_t row)
{
    const Geometry &geom = module.geometry();
    if (bank >= geom.banks() || row >= geom.rowsPerBank())
        fatal("hammerRowScalar: row out of range");

    HammerResult result;
    const std::uint64_t aggressor = module.deviceRow(bank, row);
    if (aggressor > 0)
        disturbScalar(module, bank, aggressor - 1,
                      RowHammerEngine::singleSidedIntensity, result);
    if (aggressor + 1 < geom.rowsPerBank())
        disturbScalar(module, bank, aggressor + 1,
                      RowHammerEngine::singleSidedIntensity, result);
    return result;
}

HammerResult
hammerDoubleSidedScalar(DramModule &module, std::uint64_t bank,
                        std::uint64_t victim_row)
{
    const Geometry &geom = module.geometry();
    if (bank >= geom.banks() || victim_row >= geom.rowsPerBank())
        fatal("hammerDoubleSidedScalar: row out of range");

    const std::uint64_t victim = module.deviceRow(bank, victim_row);
    if (victim == 0 || victim + 1 >= geom.rowsPerBank())
        return hammerRowScalar(module, bank, victim_row);

    HammerResult result;
    disturbScalar(module, bank, victim,
                  RowHammerEngine::doubleSidedIntensity, result);
    if (victim >= 2)
        disturbScalar(module, bank, victim - 2,
                      RowHammerEngine::singleSidedIntensity, result);
    if (victim + 2 < geom.rowsPerBank())
        disturbScalar(module, bank, victim + 2,
                      RowHammerEngine::singleSidedIntensity, result);
    return result;
}

} // namespace reference

} // namespace ctamem::dram
