/**
 * @file
 * Process-wide spine of the cross-request analysis cache.
 *
 * The analysis daemon (service/analysis_service.h) serves many
 * requests from one process, so the memoized static artifacts —
 * Andersen results, whole static-race results, slice sets
 * (analysis/andersen_cache.h) and recorded traces
 * (exec/trace_cache.h) — live in one shared cache: each subsystem
 * keeps its own typed key->entry map (a "section"), while this spine
 * owns everything the sections share:
 *
 *  - the mutex serializing every section's probes and inserts;
 *  - the LRU recency list and the configurable byte budget evictions
 *    are charged against (entries held whole modules alive forever
 *    before this existed — unbounded growth in a daemon);
 *  - the generation stamp that invalidates in-flight computations
 *    across reset() (a solve started before a reset must not insert
 *    its pre-reset result afterwards);
 *  - hit/miss/eviction accounting.
 *
 * Fingerprints are value identity: two independent 64-bit hashes of
 * the canonical text.  The primary hash is the map key; the secondary
 * is stored per entry and verified on every hit, so a primary-hash
 * collision degrades to a verified miss + fresh solve instead of
 * silently returning another module's result.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/lru.h"

namespace oha::ir {
class Module;
}

namespace oha::service {

/** Two independent 64-bit hashes of one canonical text. */
struct Fingerprint
{
    std::uint64_t primary = 0;
    std::uint64_t secondary = 0;

    bool
    operator==(const Fingerprint &other) const
    {
        return primary == other.primary && secondary == other.secondary;
    }
    bool operator!=(const Fingerprint &other) const
    {
        return !(*this == other);
    }
};

/** Hash @p text with both fingerprint functions in one pass. */
Fingerprint fingerprintText(const std::string &text);

/**
 * Fingerprint of a module's printed form.  Printing is expensive, so
 * results are memoized by object identity in a bounded side map; the
 * memo holds only weak references — it never keeps a module alive
 * (cache *entries* pin the modules their results reference, and
 * release them on eviction).
 */
Fingerprint
fingerprintModule(const std::shared_ptr<const ir::Module> &module);

/** Counters since process start / last reset(). */
struct SharedCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Primary-fingerprint hits whose stored secondary fingerprint
     *  did not match: a real collision, served as a fresh solve. */
    std::uint64_t verifiedMisses = 0;
    std::uint64_t evictions = 0;
    /** Computations discarded because a reset() intervened between
     *  their cache probe and their insert. */
    std::uint64_t staleDrops = 0;
    std::size_t entries = 0;
    std::size_t bytesCached = 0;
    std::size_t byteBudget = 0;
    std::uint64_t generation = 0;
};

/** The process-wide cache spine.  All methods are thread-safe unless
 *  documented as requiring the spine mutex. */
class SharedCache
{
  public:
    static SharedCache &instance();

    /** The single lock serializing section probes/inserts and every
     *  method below documented as "mutex held". */
    std::mutex &mutex() { return mutex_; }

    /** Recency list + byte accounting.  Mutex held. */
    LruList &lru() { return lru_; }

    // Stat bumps.  Mutex held.
    void noteHit() { ++stats_.hits; }
    void noteMiss() { ++stats_.misses; }
    void
    noteVerifiedMiss()
    {
        ++stats_.verifiedMisses;
        ++stats_.misses;
    }
    void noteStaleDrop() { ++stats_.staleDrops; }

    /** Evict cold entries until the byte budget fits.  Mutex held. */
    void
    enforceBudget()
    {
        stats_.evictions += lru_.evictToFit(byteBudget_);
    }

    /** Generation stamp; lock-free read for in-flight solvers. */
    std::uint64_t
    generation() const
    {
        return generation_.load(std::memory_order_acquire);
    }

    /**
     * Register a section's wholesale-clear callback, run under the
     * mutex by reset().  Callbacks must clear the section's maps
     * WITHOUT touching the LRU list (reset clears it directly).
     * Called once per section, on first use.
     */
    void registerSection(std::function<void()> clear);

    /** Bump the generation, clear every section and the recency list,
     *  zero the counters. */
    void reset();

    /** Change the byte budget and evict down to it immediately. */
    void setByteBudget(std::size_t bytes);

    std::size_t byteBudget() const;

    /** Consistent snapshot of the counters. */
    SharedCacheStats stats() const;

  private:
    SharedCache();

    mutable std::mutex mutex_;
    LruList lru_;
    std::atomic<std::uint64_t> generation_{0};
    std::size_t byteBudget_ = 0;
    SharedCacheStats stats_;
    std::vector<std::function<void()>> sections_;
};

namespace testing {

/**
 * Test seam for the collision-verification path: while enabled, every
 * text fingerprint gets the SAME primary hash (the secondary stays
 * real), so any two distinct modules/invariant sets collide on the
 * cache key.  Callers should reset the cache around toggling.
 */
void forcePrimaryFingerprintCollisions(bool enabled);

} // namespace testing

} // namespace oha::service
