#include "analysis/andersen_cache.h"

#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "invariants/invariant_set.h"
#include "service/shared_cache.h"

namespace oha::analysis {

namespace {

using service::Fingerprint;
using service::LruList;
using service::SharedCache;

/** Solver options packed into a comparable key. */
std::uint64_t
optionsKey(const AndersenOptions &options)
{
    std::uint64_t key = 0;
    key |= options.contextSensitive ? 1u : 0u;
    key |= options.useHvn ? 2u : 0u;
    key |= options.cycleCollapse ? 4u : 0u;
    key |= options.referenceSolver ? 8u : 0u;
    key |= static_cast<std::uint64_t>(options.maxContexts) << 4;
    key ^= static_cast<std::uint64_t>(options.maxContextDepth) << 40;
    return key;
}

Fingerprint
invariantFingerprint(const inv::InvariantSet *invariants)
{
    return invariants ? service::fingerprintText(invariants->saveText())
                      : Fingerprint{};
}

Fingerprint
endpointsFingerprint(const std::vector<InstrId> &endpoints)
{
    std::string packed;
    packed.reserve(endpoints.size() * sizeof(InstrId));
    for (InstrId endpoint : endpoints) {
        for (unsigned shift = 0; shift < 32; shift += 8)
            packed.push_back(
                static_cast<char>((endpoint >> shift) & 0xff));
    }
    return service::fingerprintText(packed);
}

struct CacheKey
{
    std::uint64_t moduleFp;
    std::uint64_t invariantFp;
    std::uint64_t options;

    bool
    operator<(const CacheKey &other) const
    {
        return std::tie(moduleFp, invariantFp, options) <
               std::tie(other.moduleFp, other.invariantFp, other.options);
    }
};

/** Key for the higher-level (detector / slice-set) memo layers. */
struct StaticKey
{
    std::uint64_t moduleFp;
    std::uint64_t invariantFp;
    std::uint64_t configKey;
    std::uint64_t auxFp;

    bool
    operator<(const StaticKey &other) const
    {
        return std::tie(moduleFp, invariantFp, configKey, auxFp) <
               std::tie(other.moduleFp, other.invariantFp,
                        other.configKey, other.auxFp);
    }
};

/** The independent second fingerprints verified on every hit.  The
 *  primary fingerprints form the map key; a key match with a
 *  verification mismatch is a real 64-bit collision and is served as
 *  a fresh solve (the colliding entry is evicted). */
struct VerifyFps
{
    std::uint64_t module = 0;
    std::uint64_t invariant = 0;
    std::uint64_t aux = 0;

    bool
    operator==(const VerifyFps &other) const
    {
        return module == other.module && invariant == other.invariant &&
               aux == other.aux;
    }
};

template <typename Result>
struct Entry
{
    VerifyFps verify;
    /** Results reference the module internally; the entry keeps it
     *  alive until evicted. */
    std::shared_ptr<const ir::Module> module;
    std::shared_ptr<const Result> result;
    LruList::Handle handle;
};

/** The andersen_cache section of the shared cache: typed maps whose
 *  entries are linked into the shared LRU/byte-budget spine. */
struct Section
{
    std::map<CacheKey, Entry<AndersenResult>> andersen;
    std::map<StaticKey, Entry<StaticRaceResult>> race;
    std::map<StaticKey, Entry<SliceSetResult>> slice;
};

/**
 * The section singleton, registered with the shared cache on first
 * use.  Callers MUST materialize this before taking the spine mutex
 * (registration itself takes that mutex).
 */
Section &
section()
{
    static Section *instance = [] {
        auto *s = new Section;
        SharedCache::instance().registerSection([s] {
            s->andersen.clear();
            s->race.clear();
            s->slice.clear();
        });
        return s;
    }();
    return *instance;
}

/**
 * Probe @p map for @p key under the (held) spine lock.  A hit is
 * verified against @p verify; a verification mismatch evicts the
 * colliding entry and reports a miss.  Returns null on miss.
 */
template <typename Map>
auto
probeLocked(SharedCache &sc, Map &map,
            const typename Map::key_type &key, const VerifyFps &verify)
    -> decltype(map.begin()->second.result)
{
    auto it = map.find(key);
    if (it == map.end()) {
        sc.noteMiss();
        return nullptr;
    }
    if (!(it->second.verify == verify)) {
        sc.noteVerifiedMiss();
        sc.lru().remove(it->second.handle);
        map.erase(it);
        return nullptr;
    }
    sc.noteHit();
    sc.lru().touch(it->second.handle);
    return it->second.result;
}

/**
 * Insert a freshly-computed entry under the (held) spine lock.
 *
 *  - If @p gen no longer matches the cache generation, a reset
 *    happened while the solve ran: the result is returned to the
 *    caller but NOT cached (a stale insert would pin a pre-reset
 *    result under first-insert-wins).
 *  - If a concurrent solver won the race to this key, its (verified)
 *    result is shared and ours discarded — one object per key.
 *  - Otherwise the entry joins the LRU spine with @p bytes charged
 *    against the shared budget, evicting cold entries as needed.
 */
template <typename Map, typename Result>
std::shared_ptr<const Result>
insertLocked(SharedCache &sc, Map &map,
             const typename Map::key_type &key, VerifyFps verify,
             std::shared_ptr<const ir::Module> module,
             std::shared_ptr<const Result> result, std::size_t bytes, std::uint64_t gen)
{
    if (gen != sc.generation()) {
        sc.noteStaleDrop();
        return result;
    }
    auto it = map.find(key);
    if (it != map.end()) {
        if (it->second.verify == verify)
            return it->second.result; // first insert wins
        // The concurrent winner is a colliding entry (different
        // verification fingerprints): replace it with ours.
        sc.lru().remove(it->second.handle);
        map.erase(it);
    }
    Entry<Result> entry;
    entry.verify = verify;
    entry.module = std::move(module);
    entry.result = std::move(result);
    auto [pos, inserted] = map.emplace(key, std::move(entry));
    OHA_ASSERT(inserted);
    pos->second.handle =
        sc.lru().insert(bytes, [&map, key] { map.erase(key); });
    std::shared_ptr<const Result> shared = pos->second.result;
    // May evict anything cold — including, for an oversized result,
    // the entry just inserted; `shared` keeps the result valid.
    sc.enforceBudget();
    return shared;
}

} // namespace

std::shared_ptr<const AndersenResult>
runAndersenMemo(const std::shared_ptr<const ir::Module> &module,
                const AndersenOptions &options)
{
    OHA_ASSERT(module && module->finalized());

    Section &sec = section();
    SharedCache &sc = SharedCache::instance();

    const Fingerprint moduleFp = service::fingerprintModule(module);
    const Fingerprint invariantFp = invariantFingerprint(options.invariants);

    CacheKey key;
    key.moduleFp = moduleFp.primary;
    key.invariantFp = invariantFp.primary;
    key.options = optionsKey(options);
    VerifyFps verify;
    verify.module = moduleFp.secondary;
    verify.invariant = invariantFp.secondary;

    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(sc.mutex());
        gen = sc.generation();
        if (auto hit = probeLocked(sc, sec.andersen, key, verify))
            return hit;
    }

    // Solve outside the lock.  Sound CS runs reuse the memoized CI
    // pre-pass instead of recomputing it (runAndersen folds the
    // pre-pass's workUnits into its result; mirror that here so the
    // reported cost model output is identical with or without hits).
    AndersenResult computed;
    if (options.contextSensitive && !options.invariants) {
        AndersenOptions ciOptions = options;
        ciOptions.contextSensitive = false;
        const std::shared_ptr<const AndersenResult> ci =
            runAndersenMemo(module, ciOptions);
        computed = runAndersenPrepassed(*module, options, ci.get());
        computed.workUnits += ci->workUnits;
    } else {
        computed = runAndersen(*module, options);
    }

    auto result =
        std::make_shared<const AndersenResult>(std::move(computed));
    const std::size_t bytes = result->byteSizeEstimate();
    std::lock_guard<std::mutex> lock(sc.mutex());
    return insertLocked(sc, sec.andersen, key, verify, module,
                        std::move(result), bytes, gen);
}

std::shared_ptr<const StaticRaceResult>
runStaticRaceDetectorMemo(const std::shared_ptr<const ir::Module> &module,
                          const inv::InvariantSet *invariants)
{
    OHA_ASSERT(module && module->finalized());

    Section &sec = section();
    SharedCache &sc = SharedCache::instance();

    const Fingerprint moduleFp = service::fingerprintModule(module);
    const Fingerprint invariantFp = invariantFingerprint(invariants);

    StaticKey key;
    key.moduleFp = moduleFp.primary;
    key.invariantFp = invariantFp.primary;
    key.configKey = 0;
    key.auxFp = 0;
    VerifyFps verify;
    verify.module = moduleFp.secondary;
    verify.invariant = invariantFp.secondary;

    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(sc.mutex());
        gen = sc.generation();
        if (auto hit = probeLocked(sc, sec.race, key, verify))
            return hit;
    }

    // The detector's own points-to solve still goes through the
    // Andersen memo (shared with calibration and the slicer picks).
    auto result = std::make_shared<const StaticRaceResult>(
        runStaticRaceDetector(*module, invariants, module));
    const std::size_t bytes = byteSizeEstimate(*result);
    std::lock_guard<std::mutex> lock(sc.mutex());
    return insertLocked(sc, sec.race, key, verify, module,
                        std::move(result), bytes, gen);
}

std::shared_ptr<const SliceSetResult>
sliceSetMemo(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants, std::uint64_t configKey,
             const std::vector<InstrId> &endpoints,
             const std::function<SliceSetResult()> &compute)
{
    OHA_ASSERT(module && module->finalized());

    Section &sec = section();
    SharedCache &sc = SharedCache::instance();

    const Fingerprint moduleFp = service::fingerprintModule(module);
    const Fingerprint invariantFp = invariantFingerprint(invariants);
    const Fingerprint auxFp = endpointsFingerprint(endpoints);

    StaticKey key;
    key.moduleFp = moduleFp.primary;
    key.invariantFp = invariantFp.primary;
    key.configKey = configKey;
    key.auxFp = auxFp.primary;
    VerifyFps verify;
    verify.module = moduleFp.secondary;
    verify.invariant = invariantFp.secondary;
    verify.aux = auxFp.secondary;

    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(sc.mutex());
        gen = sc.generation();
        if (auto hit = probeLocked(sc, sec.slice, key, verify))
            return hit;
    }

    auto result = std::make_shared<const SliceSetResult>(compute());
    const std::size_t bytes = byteSizeEstimate(*result);
    std::lock_guard<std::mutex> lock(sc.mutex());
    return insertLocked(sc, sec.slice, key, verify, module,
                        std::move(result), bytes, gen);
}

std::vector<RaceSectionEntry>
exportRaceSection()
{
    Section &sec = section();
    SharedCache &sc = SharedCache::instance();
    std::vector<RaceSectionEntry> out;
    std::lock_guard<std::mutex> lock(sc.mutex());
    out.reserve(sec.race.size());
    for (const auto &[key, entry] : sec.race) {
        if (key.configKey != 0 || key.auxFp != 0)
            continue; // detector entries only (defensive)
        out.push_back({{key.moduleFp, entry.verify.module},
                       {key.invariantFp, entry.verify.invariant},
                       entry.result});
    }
    return out;
}

std::vector<SliceSectionEntry>
exportSliceSection()
{
    Section &sec = section();
    SharedCache &sc = SharedCache::instance();
    std::vector<SliceSectionEntry> out;
    std::lock_guard<std::mutex> lock(sc.mutex());
    out.reserve(sec.slice.size());
    for (const auto &[key, entry] : sec.slice) {
        out.push_back({{key.moduleFp, entry.verify.module},
                       {key.invariantFp, entry.verify.invariant},
                       key.configKey,
                       {key.auxFp, entry.verify.aux},
                       entry.result});
    }
    return out;
}

void
admitRaceSectionEntry(const RaceSectionEntry &entry)
{
    if (!entry.result)
        return;
    Section &sec = section();
    SharedCache &sc = SharedCache::instance();
    StaticKey key;
    key.moduleFp = entry.moduleFp.primary;
    key.invariantFp = entry.invariantFp.primary;
    key.configKey = 0;
    key.auxFp = 0;
    VerifyFps verify;
    verify.module = entry.moduleFp.secondary;
    verify.invariant = entry.invariantFp.secondary;
    const std::size_t bytes = byteSizeEstimate(*entry.result);
    std::lock_guard<std::mutex> lock(sc.mutex());
    // Restored entries carry a null module pointer: they serve
    // verified hits only.
    insertLocked(sc, sec.race, key, verify, nullptr, entry.result, bytes,
                 sc.generation());
}

void
admitSliceSectionEntry(const SliceSectionEntry &entry)
{
    if (!entry.result)
        return;
    Section &sec = section();
    SharedCache &sc = SharedCache::instance();
    StaticKey key;
    key.moduleFp = entry.moduleFp.primary;
    key.invariantFp = entry.invariantFp.primary;
    key.configKey = entry.configKey;
    key.auxFp = entry.auxFp.primary;
    VerifyFps verify;
    verify.module = entry.moduleFp.secondary;
    verify.invariant = entry.invariantFp.secondary;
    verify.aux = entry.auxFp.secondary;
    const std::size_t bytes = byteSizeEstimate(*entry.result);
    std::lock_guard<std::mutex> lock(sc.mutex());
    insertLocked(sc, sec.slice, key, verify, nullptr, entry.result, bytes,
                 sc.generation());
}

AndersenCacheStats
andersenCacheStats()
{
    const service::SharedCacheStats stats =
        SharedCache::instance().stats();
    AndersenCacheStats out;
    out.hits = stats.hits;
    out.misses = stats.misses;
    out.verifiedMisses = stats.verifiedMisses;
    out.evictions = stats.evictions;
    out.staleDrops = stats.staleDrops;
    out.entries = stats.entries;
    out.bytesCached = stats.bytesCached;
    out.byteBudget = stats.byteBudget;
    return out;
}

void
setStaticCacheByteBudget(std::size_t bytes)
{
    SharedCache::instance().setByteBudget(bytes);
}

std::size_t
staticCacheByteBudget()
{
    return SharedCache::instance().byteBudget();
}

void
resetAndersenCache()
{
    // Materialize the section first: reset() runs registered clears,
    // and registration takes the spine mutex.
    section();
    SharedCache::instance().reset();
}

} // namespace oha::analysis
