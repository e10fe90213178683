/**
 * @file
 * Traced mirror of the two pipelines.
 *
 * mirrorOptFt/mirrorOptSlice repeat core::runOptFt/runOptSlice step
 * for step, serially, from the layers' public functions, and time
 * every call into a layer from here.  Spans live only in this
 * benchmark: the program under test is not instrumented.  Replay time
 * is split into decode and tool time by one extra tool-less replay
 * per capture, and checker time by one extra checker-less replay per
 * optimistic evaluation; those measurement-only replays are kept out
 * of the mirror's end-to-end time.
 *
 * What the mirror cannot reach is timed with the mirror's own
 * end-to-end time but charged to no layer (traced.unattributed_frac):
 * the lock-elision calibration and the post-repair lock refilter
 * (file-local in core/optft.cc, re-implemented here from the
 * analysis/dyn public functions), building instrumentation plans and
 * copying invariant sets.  Lineage patching of slice sets (a warm
 * service path) is not mirrored: the mirror recomputes those slices.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"

namespace ohabench {

/** Per-layer time (ms) and counts, summed over mirrored requests. */
struct LayerTotals
{
    std::uint64_t requests = 0;

    double profileMs = 0;
    std::uint64_t profileRuns = 0;

    double andersenMs = 0;
    std::uint64_t andersenWorkUnits = 0;

    double detectorMs = 0;
    std::uint64_t soundRacy = 0;
    std::uint64_t predRacy = 0;

    double slicerMs = 0;
    std::uint64_t slicerWorkUnits = 0;
    double optSliceSize = 0;
    std::uint64_t sliceRequests = 0;

    double recordMs = 0;
    std::uint64_t recordedEvents = 0;
    std::uint64_t recordedBytes = 0;
    /** Segments of the largest capture recorded. */
    std::uint64_t maxSegments = 0;

    double decodeMs = 0;
    std::uint64_t decodedEvents = 0;
    double ftFullMs = 0;
    double ftHybridMs = 0;
    double ftOptMs = 0;
    double giriMs = 0;
    double checkerMs = 0;
    std::uint64_t violations = 0;

    std::uint64_t rollbacks = 0;
    std::uint64_t repredications = 0;

    /** Mirror wall time minus its measurement-only replays. */
    double tracedMs = 0;
    /** The pipeline's own wall time for the same requests. */
    double untracedMs = 0;

    /** Sum of every layer's time. */
    double
    attributedMs() const
    {
        return profileMs + andersenMs + detectorMs + slicerMs +
               recordMs + decodeMs + ftFullMs + ftHybridMs + ftOptMs +
               giriMs + checkerMs;
    }
};

/** The mirror's view of one OptFT request, for the parity check. */
struct MirrorFtCounts
{
    std::size_t soundRacy = 0;
    std::size_t predRacy = 0;
    std::size_t races = 0;
    std::uint64_t rollbacks = 0;
    std::size_t repredications = 0;
    bool reportsMatch = true;
};

/** The mirror's view of one OptSlice request. */
struct MirrorSliceCounts
{
    double optSliceSize = 0;
    /** Static opt slice size per chosen endpoint. */
    std::vector<std::size_t> endpointSliceSizes;
    std::uint64_t rollbacks = 0;
    std::size_t repredications = 0;
    bool slicesMatch = true;
};

/** Mirror runOptFt(workload, config), adding spans into @p totals.
 *  Supports the configurations the benchmark uses: trace replay with
 *  cached captures and observations, no fault injection, no
 *  aggressive LUC, serial replay. */
MirrorFtCounts mirrorOptFt(const oha::workloads::Workload &workload,
                           const oha::core::OptFtConfig &config,
                           LayerTotals &totals);

/** Mirror runOptSlice(workload, config); same support limits. */
MirrorSliceCounts mirrorOptSlice(const oha::workloads::Workload &workload,
                                 const oha::core::OptSliceConfig &config,
                                 LayerTotals &totals);

} // namespace ohabench
