#include "profile/observation_cache.h"

#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "service/shared_cache.h"

namespace oha::prof {

namespace {

using service::Fingerprint;
using service::LruList;
using service::SharedCache;

void
appendU64(std::string &out, std::uint64_t value)
{
    for (unsigned shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xff));
}

/** Every ExecConfig field plus the observation-relevant profile
 *  option, packed for fingerprinting. */
Fingerprint
observationFingerprint(const ProfileOptions &options,
                       const exec::ExecConfig &config)
{
    std::string packed;
    packed.reserve((config.input.size() + config.replaySchedule.size() +
                    9) *
                   sizeof(std::uint64_t));
    appendU64(packed, options.callContexts ? 1 : 0);
    appendU64(packed, config.input.size());
    for (std::int64_t word : config.input)
        appendU64(packed, static_cast<std::uint64_t>(word));
    appendU64(packed, config.scheduleSeed);
    appendU64(packed, config.maxSteps);
    appendU64(packed, config.minQuantum);
    appendU64(packed, config.maxQuantum);
    appendU64(packed, config.recordSchedule ? 1 : 0);
    appendU64(packed, config.replaySchedule.size());
    for (const exec::ScheduleStep &step : config.replaySchedule) {
        appendU64(packed, step.thread);
        appendU64(packed, step.quantum);
    }
    return service::fingerprintText(packed);
}

struct ObservationKey
{
    std::uint64_t moduleFp;
    std::uint64_t observationFp;

    bool
    operator<(const ObservationKey &other) const
    {
        return std::tie(moduleFp, observationFp) <
               std::tie(other.moduleFp, other.observationFp);
    }
};

struct Entry
{
    std::uint64_t moduleSecondary = 0;
    std::uint64_t observationSecondary = 0;
    std::shared_ptr<const ir::Module> module;
    std::shared_ptr<const RunObservations> observations;
    LruList::Handle handle;
};

using ObservationMap = std::map<ObservationKey, Entry>;

/** The profiling section of the shared cache, registered on first
 *  use.  Callers MUST materialize this before taking the spine
 *  mutex. */
ObservationMap &
section()
{
    static ObservationMap *instance = [] {
        auto *map = new ObservationMap;
        SharedCache::instance().registerSection([map] { map->clear(); });
        return map;
    }();
    return *instance;
}

} // namespace

std::size_t
byteSizeEstimate(const RunObservations &observations)
{
    std::size_t bytes = sizeof(observations);
    bytes += observations.blockCounts.capacity() *
             sizeof(std::pair<BlockId, std::uint64_t>);
    bytes += observations.calleeSets.capacity() *
             sizeof(std::pair<InstrId, std::vector<FuncId>>);
    for (const auto &[instr, callees] : observations.calleeSets)
        bytes += callees.capacity() * sizeof(FuncId);
    // std::set node overhead plus the context vector payload.
    for (const inv::CallContext &context : observations.callContexts)
        bytes += 64 + context.capacity() * sizeof(InstrId);
    bytes += observations.lockObjects.capacity() *
             sizeof(std::pair<InstrId, std::vector<exec::ObjectId>>);
    for (const auto &[instr, objects] : observations.lockObjects)
        bytes += objects.capacity() * sizeof(exec::ObjectId);
    bytes += observations.spawnCounts.capacity() *
             sizeof(std::pair<InstrId, std::uint64_t>);
    return bytes;
}

std::shared_ptr<const RunObservations>
observeRunMemo(const std::shared_ptr<const ir::Module> &module,
               const ProfileOptions &options,
               const exec::ExecConfig &config)
{
    OHA_ASSERT(module && module->finalized());

    ObservationMap &map = section();
    SharedCache &sc = SharedCache::instance();

    const Fingerprint moduleFp = service::fingerprintModule(module);
    const Fingerprint observationFp =
        observationFingerprint(options, config);
    const ObservationKey key{moduleFp.primary, observationFp.primary};

    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(sc.mutex());
        gen = sc.generation();
        auto it = map.find(key);
        if (it != map.end()) {
            if (it->second.moduleSecondary == moduleFp.secondary &&
                it->second.observationSecondary ==
                    observationFp.secondary) {
                sc.noteHit(service::CacheSection::Observation);
                sc.lru().touch(it->second.handle);
                return it->second.observations;
            }
            // 64-bit collision: evict the wrong-keyed entry, observe
            // fresh (counted, never silently served).
            sc.noteVerifiedMiss(service::CacheSection::Observation);
            sc.lru().remove(it->second.handle);
            map.erase(it);
        } else {
            sc.noteMiss(service::CacheSection::Observation);
        }
    }

    // The profiled run happens outside the lock.
    ProfilingCampaign scratch(*module, options);
    auto observations = std::make_shared<const RunObservations>(
        scratch.observeRun(config));
    const std::size_t bytes = byteSizeEstimate(*observations);

    std::lock_guard<std::mutex> lock(sc.mutex());
    if (gen != sc.generation()) {
        sc.noteStaleDrop();
        return observations;
    }
    auto it = map.find(key);
    if (it != map.end()) {
        if (it->second.moduleSecondary == moduleFp.secondary &&
            it->second.observationSecondary == observationFp.secondary)
            return it->second.observations; // first insert wins
        sc.lru().remove(it->second.handle);
        map.erase(it);
    }
    Entry entry;
    entry.moduleSecondary = moduleFp.secondary;
    entry.observationSecondary = observationFp.secondary;
    entry.module = module;
    entry.observations = std::move(observations);
    auto [pos, inserted] = map.emplace(key, std::move(entry));
    OHA_ASSERT(inserted);
    pos->second.handle =
        sc.lru().insert(bytes, [&map, key] { map.erase(key); });
    std::shared_ptr<const RunObservations> shared =
        pos->second.observations;
    sc.enforceBudget();
    return shared;
}

std::vector<ObservationSectionEntry>
exportObservationSection()
{
    ObservationMap &map = section();
    SharedCache &sc = SharedCache::instance();
    std::vector<ObservationSectionEntry> out;
    std::lock_guard<std::mutex> lock(sc.mutex());
    out.reserve(map.size());
    for (const auto &[key, entry] : map) {
        out.push_back({{key.moduleFp, entry.moduleSecondary},
                       {key.observationFp, entry.observationSecondary},
                       entry.observations});
    }
    return out;
}

void
admitObservationSectionEntry(const ObservationSectionEntry &entry)
{
    if (!entry.observations)
        return;
    ObservationMap &map = section();
    SharedCache &sc = SharedCache::instance();
    const ObservationKey key{entry.moduleFp.primary,
                             entry.observationFp.primary};
    const std::size_t bytes = byteSizeEstimate(*entry.observations);
    std::lock_guard<std::mutex> lock(sc.mutex());
    if (map.find(key) != map.end())
        return; // first insert wins: never displace a live entry
    Entry stored;
    stored.moduleSecondary = entry.moduleFp.secondary;
    stored.observationSecondary = entry.observationFp.secondary;
    // No module object: restored entries verify fingerprints only.
    stored.observations = entry.observations;
    auto [pos, inserted] = map.emplace(key, std::move(stored));
    OHA_ASSERT(inserted);
    pos->second.handle =
        sc.lru().insert(bytes, [&map, key] { map.erase(key); });
    sc.enforceBudget();
}

} // namespace oha::prof
