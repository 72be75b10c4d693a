/**
 * @file
 * Content-addressed result cache: the memoization layer of the
 * campaign service.
 *
 * Keys are derived from the canonical JSON dump of a CampaignCell
 * (config + attack + label — the seed rides in the config) chained
 * with kResultCacheEpoch, so a key names exactly one deterministic
 * simulation outcome and cached rows cannot outlive an epoch bump.
 * Values are stored as canonical JSON dumps of the CellResult,
 * returned verbatim on hits — including the original
 * wallSeconds — which is what makes a fully cached resubmission's
 * CampaignReport bit-identical to the cold run's.
 *
 * Two tiers: a mutex-protected in-memory LRU in front of an optional
 * on-disk store (one file per key under the cache directory, written
 * via rename for atomicity).  Disk hits are promoted into memory.
 */

#ifndef CTAMEM_SVC_CACHE_HH
#define CTAMEM_SVC_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/json.hh"
#include "sim/campaign.hh"

namespace ctamem::svc {

/** Counters and occupancy of a ResultCache. */
struct CacheStats
{
    std::uint64_t hits = 0;     //!< lookups served (either tier)
    std::uint64_t misses = 0;   //!< lookups that found nothing
    std::uint64_t memHits = 0;  //!< subset of hits from the LRU
    std::uint64_t diskHits = 0; //!< subset of hits from disk
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0; //!< LRU entries dropped at capacity
    std::size_t memEntries = 0;
    std::size_t memCapacity = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

/** Two-tier (memory LRU + optional disk) string-keyed JSON cache. */
class ResultCache
{
  public:
    /**
     * @param mem_entries LRU capacity (>= 1)
     * @param disk_dir    on-disk store directory, created on first
     *                    insert; empty disables the disk tier
     */
    explicit ResultCache(std::size_t mem_entries,
                         std::string disk_dir = {});

    /** Cached value for @p key, from memory or disk. */
    std::optional<json::Json> lookup(const std::string &key);

    /** Store @p value under @p key in both tiers. */
    void insert(const std::string &key, const json::Json &value);

    CacheStats stats() const;

    const std::string &diskDir() const { return diskDir_; }

  private:
    /** Front-insert into the LRU, evicting at capacity.  Caller
     *  holds the mutex. */
    void remember(const std::string &key, std::string dump);

    std::string diskPath(const std::string &key) const;

    struct Entry
    {
        std::string dump; //!< canonical JSON text
        std::list<std::string>::iterator lruIt;
    };

    const std::size_t capacity_;
    const std::string diskDir_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> map_;
    std::list<std::string> lru_; //!< front = most recently used
    CacheStats stats_;
};

/**
 * Content-address of one campaign cell: a hex digest of the cell's
 * canonical JSON chained with kResultCacheEpoch.
 */
std::string cellCacheKey(const sim::CampaignCell &cell);

} // namespace ctamem::svc

#endif // CTAMEM_SVC_CACHE_HH
