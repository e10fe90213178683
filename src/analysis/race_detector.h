/**
 * @file
 * Chord-style static data-race detector (Section 4.1).
 *
 * Pipeline: points-to (Andersen, CI) → thread-escape filtering →
 * may-happen-in-parallel pairing → lockset pruning.  The lockset
 * phase needs must-alias lock information, which a sound may-alias
 * analysis cannot provide — so, exactly as in the paper, the *sound*
 * detector skips lockset pruning (prior hybrid analyses removed it
 * for soundness [47]) and the *predicated* detector re-enables it
 * using the likely-guarding-locks invariant.
 *
 * The output is the set of accesses that may race; a hybrid FastTrack
 * elides read/write instrumentation everywhere else.
 */

#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/andersen.h"

namespace oha::analysis {

/** Result of static race analysis. */
struct StaticRaceResult
{
    /** Load/Store instructions that may participate in a race. */
    std::set<InstrId> racyAccesses;
    /** The may-race pairs themselves (a <= b). */
    std::set<std::pair<InstrId, InstrId>> racyPairs;
    /** Must-alias lock pairs the pruning actually relied on; the
     *  runtime must verify exactly these (Section 4.2.2). */
    std::set<std::pair<InstrId, InstrId>> usedLockAliases;
    /** Singleton-spawn sites the MHP pruning relied on. */
    std::set<InstrId> usedSingletonSites;
    /** Total analysis effort (points-to + detector), abstract units. */
    std::uint64_t workUnits = 0;
    /** Number of memory accesses considered. */
    std::size_t accessesConsidered = 0;
};

/** Approximate heap footprint, for cache byte budgeting.  std::set
 *  nodes cost roughly payload + two pointers + color + allocator
 *  overhead; 48 bytes is a sane per-node charge. */
inline std::size_t
byteSizeEstimate(const StaticRaceResult &result)
{
    return sizeof(result) +
           result.racyAccesses.size() * (sizeof(InstrId) + 48) +
           (result.racyPairs.size() + result.usedLockAliases.size()) *
               (sizeof(std::pair<InstrId, InstrId>) + 48) +
           result.usedSingletonSites.size() * (sizeof(InstrId) + 48);
}

/**
 * Run the static race detector.
 * @param invariants null => sound analysis (no lockset pruning, no
 *        invariant-based MHP refinement); non-null => predicated.
 * @param shared when non-null (and pointing at @p module), the
 *        points-to phase goes through the process-wide memo cache
 *        (andersen_cache.h) so repeated configurations — calibration
 *        sweeps, the lock-elision pass — reuse one solve.
 * @param referenceSolver run the points-to phase on the pre-overhaul
 *        solver (AndersenOptions::referenceSolver); exists for the
 *        delta-solver parity test.
 */
StaticRaceResult
runStaticRaceDetector(const ir::Module &module,
                      const inv::InvariantSet *invariants,
                      const std::shared_ptr<const ir::Module> &shared =
                          nullptr,
                      bool referenceSolver = false);

} // namespace oha::analysis
