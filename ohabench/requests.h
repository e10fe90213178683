/**
 * @file
 * The benchmark's requests: seeded corpora for each workload, the
 * live race oracle computed at set-up, and result digests for the
 * service-versus-batch comparison.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"
#include "workloads/workloads.h"

namespace ohabench {

/** One analysis request: a program with its corpora. */
struct Request
{
    /** Program name plus corpus tag, e.g. "pmd/c2" or "pmd/c2+edit". */
    std::string key;
    oha::workloads::Workload workload;
    /** Race requests: races a live, untraced, fully instrumented
     *  FastTrack run reports over the testing corpus (set-up oracle). */
    std::size_t liveRaces = 0;
};

/** Edited hot-module keys at the end of the service universe. */
constexpr std::size_t kServiceHotEdits = 4;

/** batch-dynamic: every race program with 2 corpora of 32 testing
 *  inputs and every slice program with 8 corpora of 64, drawn by
 *  @p seed.  Keys are "<program>/c<corpus>". */
std::vector<Request> buildBatchDynamic(std::uint64_t seed);

/** batch-coldcode: every race program scaled to 64 copies of its
 *  function set, with 8 testing inputs. */
std::vector<Request> buildBatchColdcode(std::uint64_t seed);

/** long-trace: 16 requests over the generated key-value store, one
 *  long testing input each. */
std::vector<Request> buildLongTrace(std::uint64_t seed);

/** service-zipf key universe: every suite program x 4 corpora, then
 *  one edited-module version of each of the 4 hottest keys.  Element
 *  order is the Zipf rank order (index 0 is the hottest key). */
std::vector<Request> buildServiceUniverse(std::uint64_t seed);

/** Fill Request::liveRaces for the race requests of @p requests. */
void computeLiveRaces(std::vector<Request> &requests, std::size_t threads);

/** Field-by-field image of a pipeline result. */
using Digest = std::vector<std::pair<std::string, std::string>>;

Digest digestOf(const oha::core::OptFtResult &result);
Digest digestOf(const oha::core::OptSliceResult &result);

/** Outcome of comparing two digests field by field. */
struct DigestComparison
{
    /** First differing result field with both values; "" if none. */
    std::string resultDifference;
    /** Differing modeled static-cost fields (the seconds priced from
     *  static workUnits, and the break-evens derived from them).  A
     *  lineage-patched cache entry stores its incremental workUnits
     *  (docs/SERVICE.md), so these depend on cache history. */
    std::size_t modeledStaticDifferences = 0;
};

DigestComparison compareDigests(const Digest &expected, const Digest &actual);

} // namespace ohabench
