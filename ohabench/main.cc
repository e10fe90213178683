/**
 * @file
 * End-to-end wall-clock benchmark of the OHA pipelines and service.
 *
 *   oha_e2e_bench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--revision <id>]
 *
 * Workloads: batch-dynamic, batch-coldcode, service-zipf, long-trace
 * (see BENCHMARK.json for why each exists).  With --trace 0 the last
 * stdout line reports the end-to-end metrics, measured untraced; with
 * --trace 1 it reports the per-layer metrics of a separate traced run
 * (mirror.h).  Every request's outputs are checked; any failed check
 * makes the run report correct=false and exit 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/andersen_cache.h"
#include "mirror.h"
#include "requests.h"
#include "service/analysis_service.h"
#include "stats.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "zipf.h"

#ifndef OHABENCH_BUILD_TYPE
#define OHABENCH_BUILD_TYPE "unknown"
#endif

namespace ohabench {
namespace {

using namespace oha;

/** Pipeline width (OptFtConfig/OptSliceConfig::threads) everywhere,
 *  set explicitly.  On a shared 4-vCPU virtual host, interleaved runs
 *  of batch-dynamic varied 7% in throughput at width 1 but 70% at
 *  width 4, so every pipeline, the oracle and each service shard run
 *  serially. */
constexpr std::size_t kPipelineThreads = 1;
/** Request building is repeated this many times per run; setup_s is
 *  the median build time plus the oracle and warm-up times. */
constexpr int kSetupReps = 3;
/** long-trace's trace segment size: a 1.6M-event capture spans ~8. */
constexpr const char *kLongTraceSegmentBytes = "524288";
/** service-zipf shape: 4 waiting clients on 2 serial shards. */
constexpr std::size_t kServiceClients = 4;
constexpr std::size_t kServiceShards = 2;
constexpr double kServiceZipfSkew = 0.99;
/** Every kServiceEditEvery-th request of a client carries an edit. */
constexpr std::size_t kServiceEditEvery = 10;
/** Warm-up: the hottest keys, one request each (corpus 0 of every
 *  suite program, by the universe's rank order). */
constexpr std::size_t kServiceWarmupKeys = 21;
/** Shared-cache budget, below the universe's working set. */
constexpr std::size_t kServiceCacheBudget = std::size_t{192} << 20;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string revision = "unknown";
};

/** Metrics as (name, value, unit), printed in insertion order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                          i ? ", " : "", entries_[i].name.c_str(),
                          entries_[i].value, entries_[i].unit.c_str());
            out += buf;
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Attempted/failed requests plus the first few failure reasons. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> reasons;

    /** Count one request; @p problems empty means it passed. */
    void
    record(const std::string &key, const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        for (const std::string &p : problems)
            if (reasons.size() < 20)
                reasons.push_back(key + ": " + p);
    }

    double
    successFrac() const
    {
        return attempted ? double(attempted - failed) / double(attempted)
                         : 0.0;
    }
};

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

unsigned
hostThreads()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? unsigned(n) : 1;
}

core::OptFtConfig
ftConfig(bool longTrace, std::size_t threads = kPipelineThreads)
{
    core::OptFtConfig config;
    config.threads = threads;
    if (longTrace) {
        // Profiling inputs are short; converge on few of them.
        config.maxProfileRuns = 8;
        config.convergenceWindow = 2;
    }
    return config;
}

core::OptSliceConfig
sliceConfig(std::size_t threads = kPipelineThreads)
{
    core::OptSliceConfig config;
    config.threads = threads;
    return config;
}

/** Output checks every batch result must pass. */
std::vector<std::string>
checkResult(const Request &request, const core::OptFtResult &r)
{
    std::vector<std::string> problems;
    if (!r.raceReportsMatch)
        problems.push_back("raceReportsMatch is false");
    if (r.racesObserved != request.liveRaces) {
        problems.push_back("racesObserved " + std::to_string(r.racesObserved) +
                           " != live FastTrack " +
                           std::to_string(request.liveRaces));
    }
    if (r.testRuns != request.workload.testingSet.size())
        problems.push_back("testRuns differs from the corpus size");
    return problems;
}

std::vector<std::string>
checkResult(const Request &, const core::OptSliceResult &r)
{
    std::vector<std::string> problems;
    if (!r.sliceResultsMatch)
        problems.push_back("sliceResultsMatch is false");
    if (!(r.optSliceSize > 0))
        problems.push_back("optSliceSize is 0");
    return problems;
}

/** Set-up: build the requests kSetupReps times (the set-up samples,
 *  in seconds), then run the live race oracle once; its time is
 *  returned through @p oracleSeconds. */
std::vector<Request>
setUp(const std::function<std::vector<Request>()> &build,
      std::size_t oracleThreads, Samples &setupSeconds,
      double &oracleSeconds)
{
    std::vector<Request> requests;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowMs();
        requests = build();
        setupSeconds.add((nowMs() - t0) / 1000.0);
    }
    const double t0 = nowMs();
    computeLiveRaces(requests, oracleThreads);
    oracleSeconds = (nowMs() - t0) / 1000.0;
    return requests;
}

/** The requests of pass @p pass, in a seeded order that spreads the
 *  slice requests among the race requests.  A program with several
 *  corpora (keys "<program>/<corpus>") contributes its corpus
 *  pass mod count, so consecutive passes draw different corpora. */
std::vector<std::size_t>
passOrder(const std::vector<Request> &requests, std::uint64_t seed,
          std::size_t pass)
{
    std::map<std::string, std::vector<std::size_t>> byProgram;
    std::vector<std::string> programs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::string program =
            requests[i].key.substr(0, requests[i].key.find('/'));
        if (!byProgram.count(program))
            programs.push_back(program);
        byProgram[program].push_back(i);
    }
    Rng rng(seed ^ (0x5eedf00dULL + pass));
    std::vector<std::size_t> race, slice;
    for (const std::string &program : programs) {
        const std::vector<std::size_t> &corpora = byProgram[program];
        const std::size_t i = corpora[pass % corpora.size()];
        (requests[i].workload.race ? race : slice).push_back(i);
    }
    auto shuffle = [&](std::vector<std::size_t> &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.below(i)]);
    };
    shuffle(race);
    shuffle(slice);
    std::vector<std::size_t> order;
    std::size_t r = 0, s = 0;
    while (r < race.size() || s < slice.size()) {
        // Take from whichever list is further behind its share.
        if (s < slice.size() &&
            (r == race.size() || s * race.size() < r * slice.size()))
            order.push_back(slice[s++]);
        else
            order.push_back(race[r++]);
    }
    return order;
}

/** Cold-cache guard: the request must start from an empty spine. */
std::vector<std::string>
resetCacheCold()
{
    analysis::resetAndersenCache();
    const analysis::AndersenCacheStats stats = analysis::andersenCacheStats();
    if (stats.hits != 0 || stats.entries != 0)
        return {"shared cache not cold after reset"};
    return {};
}

void
append(std::vector<std::string> &to, const std::vector<std::string> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

// ---- batch workloads, untraced --------------------------------------------

void
runBatchUntraced(const std::vector<Request> &requests, std::uint64_t seed,
                 double seconds, bool longTrace, Metrics &metrics,
                 Tally &tally, std::string &detail)
{
    const core::OptFtConfig ft = ftConfig(longTrace);
    const core::OptSliceConfig slice = sliceConfig();

    Samples latency;
    std::map<std::string, Samples> perKey;
    std::uint64_t inputs = 0;
    std::size_t passes = 0;
    const double t0 = nowMs();
    // Whole passes only, so every run weighs each program equally;
    // stop before a pass that would overrun the window.
    while (true) {
        const double passStart = nowMs();
        for (std::size_t index : passOrder(requests, seed, passes)) {
            const Request &request = requests[index];
            std::vector<std::string> problems = resetCacheCold();
            const double r0 = nowMs();
            try {
                double ms = 0;
                if (request.workload.race) {
                    const core::OptFtResult r =
                        core::runOptFt(request.workload, ft);
                    ms = nowMs() - r0;
                    append(problems, checkResult(request, r));
                } else {
                    const core::OptSliceResult r =
                        core::runOptSlice(request.workload, slice);
                    ms = nowMs() - r0;
                    append(problems, checkResult(request, r));
                }
                latency.add(ms);
                perKey[request.key].add(ms);
                inputs += request.workload.testingSet.size();
            } catch (const std::exception &e) {
                problems.push_back(std::string("threw: ") + e.what());
            }
            tally.record(request.key, problems);
        }
        ++passes;
        const double elapsed = nowMs() - t0;
        const double passMs = nowMs() - passStart;
        if (elapsed + passMs > seconds * 1000.0)
            break;
    }
    const double windowS = (nowMs() - t0) / 1000.0;

    metrics.set("latency_ms.p50", latency.median(), "ms");
    metrics.set("latency_ms.p90", latency.tail(), "ms");
    metrics.set("inputs_per_s", double(inputs) / windowS, "1/s");
    metrics.set("requests_per_s", double(latency.count()) / windowS, "1/s");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"latency_samples\": %zu, \"latency_tail_quantile\": %.4f, "
                  "\"latency_q1_ms\": %.3f, \"latency_q3_ms\": %.3f, "
                  "\"passes\": %zu, \"window_s\": %.3f",
                  latency.count(), latency.tailQuantile(),
                  latency.quantile(0.25), latency.quantile(0.75), passes,
                  windowS);
    detail = buf;
    detail += ", \"request_p50_ms\": {";
    for (const auto &[key, samples] : perKey) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f",
                      key == perKey.begin()->first ? "" : ", ", key.c_str(),
                      samples.median());
        detail += buf;
    }
    detail += "}";
}

// ---- per-layer metrics ------------------------------------------------------

struct CacheTotals
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lineageHits = 0;
    Samples bytes;

    void
    addDelta(const analysis::AndersenCacheStats &before,
             const analysis::AndersenCacheStats &after)
    {
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
        lineageHits += after.lineageHits - before.lineageHits;
        bytes.add(double(after.bytesCached));
    }
};

void
layerMetrics(const LayerTotals &t, const CacheTotals &cache,
             const Samples &queueMs, const Samples &runMs, Metrics &m)
{
    const double n = t.requests ? double(t.requests) : 1.0;
    auto perRequest = [&](double v) { return v / n; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    m.set("profile.ms", perRequest(t.profileMs), "ms");
    m.set("profile.runs", perRequest(double(t.profileRuns)), "count");
    m.set("analysis.andersen.ms", perRequest(t.andersenMs), "ms");
    m.set("analysis.andersen.work_units",
          perRequest(double(t.andersenWorkUnits)), "count");
    m.set("analysis.race_detector.ms", perRequest(t.detectorMs), "ms");
    m.set("analysis.race_detector.sound_racy",
          perRequest(double(t.soundRacy)), "count");
    m.set("analysis.race_detector.pred_racy",
          perRequest(double(t.predRacy)), "count");
    m.set("analysis.slicer.ms", perRequest(t.slicerMs), "ms");
    m.set("analysis.slicer.work_units",
          perRequest(double(t.slicerWorkUnits)), "count");
    m.set("analysis.slicer.opt_slice_size",
          ratio(t.optSliceSize, double(t.sliceRequests)), "count");
    m.set("exec.record.ms", perRequest(t.recordMs), "ms");
    m.set("exec.record.events_per_s",
          ratio(double(t.recordedEvents), t.recordMs / 1000.0), "1/s");
    m.set("exec.record.bytes_per_event",
          ratio(double(t.recordedBytes), double(t.recordedEvents)),
          "B/event");
    m.set("exec.record.segments", double(t.maxSegments), "count");
    m.set("exec.replay.decode_ms", perRequest(t.decodeMs), "ms");
    m.set("exec.replay.events_per_s",
          ratio(double(t.decodedEvents), t.decodeMs / 1000.0), "1/s");
    m.set("dyn.fasttrack.full_ms", perRequest(t.ftFullMs), "ms");
    m.set("dyn.fasttrack.hybrid_ms", perRequest(t.ftHybridMs), "ms");
    m.set("dyn.fasttrack.opt_ms", perRequest(t.ftOptMs), "ms");
    m.set("dyn.giri.ms", perRequest(t.giriMs), "ms");
    m.set("dyn.invariant_checker.ms", perRequest(t.checkerMs), "ms");
    m.set("dyn.invariant_checker.violations",
          perRequest(double(t.violations)), "count");
    m.set("core.recovery.rollbacks", perRequest(double(t.rollbacks)),
          "count");
    m.set("core.recovery.repredications",
          perRequest(double(t.repredications)), "count");
    m.set("service.shared_cache.hit_rate",
          ratio(double(cache.hits), double(cache.hits + cache.misses)),
          "fraction");
    m.set("service.shared_cache.evictions", double(cache.evictions),
          "count");
    m.set("service.shared_cache.lineage_hits", double(cache.lineageHits),
          "count");
    m.set("service.shared_cache.bytes", cache.bytes.median(), "B");
    m.set("service.queue_ms.p50", queueMs.median(), "ms");
    m.set("service.queue_ms.p90", queueMs.tail(), "ms");
    m.set("service.run_ms.p50", runMs.median(), "ms");
    m.set("service.run_ms.p90", runMs.tail(), "ms");
    m.set("traced.unattributed_frac",
          t.tracedMs > 0 ? 1.0 - t.attributedMs() / t.tracedMs : 0.0,
          "fraction");
    m.set("traced.overhead_frac",
          t.untracedMs > 0 ? t.tracedMs / t.untracedMs - 1.0 : 0.0,
          "fraction");
}

/** Mirror @p request after timing the pipeline on it, and check that
 *  the mirror's counts equal the pipeline's result fields.  @p cold
 *  resets the shared cache before each of the two runs. */
std::vector<std::string>
traceOne(const Request &request, const core::OptFtConfig &ft,
         const core::OptSliceConfig &slice, bool cold, LayerTotals &t,
         CacheTotals &cache)
{
    std::vector<std::string> problems;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok)
            problems.push_back("mirror differs: " + what);
    };
    if (cold)
        append(problems, resetCacheCold());
    const double t0 = nowMs();
    if (request.workload.race) {
        const core::OptFtResult r = core::runOptFt(request.workload, ft);
        t.untracedMs += nowMs() - t0;
        append(problems, checkResult(request, r));
        if (cold)
            append(problems, resetCacheCold());
        const analysis::AndersenCacheStats before =
            analysis::andersenCacheStats();
        const MirrorFtCounts m = mirrorOptFt(request.workload, ft, t);
        cache.addDelta(before, analysis::andersenCacheStats());
        expect(m.soundRacy == r.soundRacyAccesses, "sound_racy");
        expect(m.predRacy == r.predRacyAccesses, "pred_racy");
        expect(m.races == r.racesObserved, "races");
        expect(m.rollbacks == r.misSpeculations, "rollbacks");
        expect(m.repredications == r.repredications, "repredications");
        expect(m.reportsMatch == r.raceReportsMatch, "raceReportsMatch");
    } else {
        const core::OptSliceResult r =
            core::runOptSlice(request.workload, slice);
        t.untracedMs += nowMs() - t0;
        append(problems, checkResult(request, r));
        if (cold)
            append(problems, resetCacheCold());
        const analysis::AndersenCacheStats before =
            analysis::andersenCacheStats();
        const MirrorSliceCounts m = mirrorOptSlice(request.workload, slice, t);
        cache.addDelta(before, analysis::andersenCacheStats());
        expect(m.optSliceSize == r.optSliceSize, "opt_slice_size");
        expect(m.rollbacks == r.misSpeculations, "rollbacks");
        expect(m.repredications == r.repredications, "repredications");
        expect(m.slicesMatch == r.sliceResultsMatch, "sliceResultsMatch");
        for (std::size_t size : m.endpointSliceSizes)
            if (size == 0)
                problems.push_back("a chosen endpoint has optSliceSize 0");
    }
    return problems;
}

void
runBatchTraced(const std::vector<Request> &requests, std::uint64_t seed,
               double seconds, bool longTrace, Metrics &metrics,
               Tally &tally, std::string &detail)
{
    // Serial, like the untraced run, so layer self times add up.
    const core::OptFtConfig ft = ftConfig(longTrace);
    const core::OptSliceConfig slice = sliceConfig();
    std::vector<std::size_t> order;
    LayerTotals totals;
    CacheTotals cache;
    const double t0 = nowMs();
    for (std::size_t k = 0, pass = 0;
         k == 0 || nowMs() - t0 < seconds * 1000.0; ++k) {
        if (k == order.size()) {
            const std::vector<std::size_t> more =
                passOrder(requests, seed, pass++);
            order.insert(order.end(), more.begin(), more.end());
        }
        const Request &request = requests[order[k]];
        std::vector<std::string> problems;
        try {
            problems = traceOne(request, ft, slice, true, totals, cache);
        } catch (const std::exception &e) {
            problems.push_back(std::string("threw: ") + e.what());
        }
        tally.record(request.key, problems);
    }
    layerMetrics(totals, cache, Samples(), Samples(), metrics);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"traced_requests\": %llu, \"traced_ms\": %.3f, "
                  "\"untraced_ms\": %.3f",
                  (unsigned long long)totals.requests, totals.tracedMs,
                  totals.untracedMs);
    detail = buf;
}

// ---- service-zipf -----------------------------------------------------------

struct ServiceSample
{
    std::size_t key = 0;
    double latencyMs = 0;
    service::ServiceRunResult result;
    std::string error;
};

/** The request stream of one client: Zipf over base keys, every
 *  kServiceEditEvery-th request an edited hot module. */
class KeyStream
{
  public:
    KeyStream(std::size_t baseKeys, std::size_t editKeys, std::uint64_t seed)
        : zipf_(int(baseKeys), kServiceZipfSkew), rng_(seed),
          baseKeys_(baseKeys), editKeys_(editKeys)
    {
    }

    std::size_t
    next()
    {
        if (++count_ % kServiceEditEvery == 0 && editKeys_ > 0)
            return baseKeys_ + rng_.below(editKeys_);
        return std::size_t(zipf_.draw(rng_));
    }

  private:
    Zipf zipf_;
    Rng rng_;
    std::size_t baseKeys_;
    std::size_t editKeys_;
    std::size_t count_ = 0;
};

/** Closed loop: one thread per stream, each submitting its next
 *  request when the previous reply arrives, until @p deadlineMs. */
std::vector<ServiceSample>
closedLoop(service::AnalysisService &svc,
           const std::vector<Request> &universe, std::vector<KeyStream> &streams,
           double deadlineMs)
{
    std::mutex mutex;
    std::vector<ServiceSample> samples;
    auto client = [&](std::size_t c) {
        while (nowMs() < deadlineMs) {
            ServiceSample sample;
            sample.key = streams[c].next();
            const Request &request = universe[sample.key];
            service::AnalysisRequest req;
            req.workload = request.workload;
            req.ftConfig = ftConfig(false);
            req.sliceConfig = sliceConfig();
            const double t0 = nowMs();
            try {
                sample.result = svc.submit(std::move(req)).get();
            } catch (const std::exception &e) {
                sample.error = e.what();
            }
            sample.latencyMs = nowMs() - t0;
            std::lock_guard<std::mutex> lock(mutex);
            samples.push_back(std::move(sample));
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < streams.size(); ++c)
        threads.emplace_back(client, c);
    for (std::thread &thread : threads)
        thread.join();
    return samples;
}

/** Checks on the service's answers: outcome, the pipeline's own
 *  soundness flag, and equality with a cold batch run of the same key
 *  whose race count also matches the live oracle. */
std::size_t
checkServiceSamples(const std::vector<ServiceSample> &samples,
                    const std::vector<Request> &universe,
                    std::size_t batchThreads,
                    Tally &tally)
{
    std::size_t modeledStaticMismatches = 0;
    std::map<std::size_t, Digest> reference;
    std::map<std::size_t, std::vector<std::string>> referenceProblems;
    for (const ServiceSample &s : samples)
        reference.emplace(s.key, Digest());
    for (auto &[key, digest] : reference) {
        const Request &request = universe[key];
        std::vector<std::string> problems = resetCacheCold();
        if (request.workload.race) {
            const core::OptFtResult r = core::runOptFt(
                request.workload, ftConfig(false, batchThreads));
            append(problems, checkResult(request, r));
            digest = digestOf(r);
        } else {
            const core::OptSliceResult r = core::runOptSlice(
                request.workload, sliceConfig(batchThreads));
            append(problems, checkResult(request, r));
            digest = digestOf(r);
        }
        referenceProblems[key] = problems;
    }

    for (const ServiceSample &s : samples) {
        const std::string &key = universe[s.key].key;
        std::vector<std::string> problems = referenceProblems[s.key];
        if (!s.error.empty()) {
            problems.push_back("threw: " + s.error);
        } else if (s.result.outcome != service::RequestOutcome::Done) {
            problems.push_back("outcome " +
                               std::to_string(int(s.result.outcome)) + " " +
                               s.result.error);
        } else {
            Digest digest;
            if (s.result.ft) {
                digest = digestOf(*s.result.ft);
                if (!s.result.ft->raceReportsMatch)
                    problems.push_back("raceReportsMatch is false");
            } else if (s.result.slice) {
                digest = digestOf(*s.result.slice);
                if (!s.result.slice->sliceResultsMatch)
                    problems.push_back("sliceResultsMatch is false");
            }
            const DigestComparison diff =
                compareDigests(reference[s.key], digest);
            if (!diff.resultDifference.empty())
                problems.push_back("service != batch at " +
                                   diff.resultDifference);
            modeledStaticMismatches += diff.modeledStaticDifferences > 0;
        }
        tally.record(key, problems);
    }
    return modeledStaticMismatches;
}

std::vector<KeyStream>
keyStreams(const std::vector<Request> &universe, std::uint64_t seed,
           std::uint64_t phase)
{
    std::vector<KeyStream> streams;
    for (std::size_t c = 0; c < kServiceClients; ++c) {
        streams.emplace_back(universe.size() - kServiceHotEdits,
                             kServiceHotEdits,
                             seed * 1000003 + phase * 101 + c);
    }
    return streams;
}

void
runService(const Options &opt, unsigned nproc, Samples &setupSeconds,
           double &extraSetupS, Metrics &metrics, Tally &tally,
           std::string &detail)
{
    const std::vector<Request> universe =
        setUp([&] { return buildServiceUniverse(opt.seed); }, kPipelineThreads,
              setupSeconds, extraSetupS);

    analysis::resetAndersenCache();
    analysis::setStaticCacheByteBudget(kServiceCacheBudget);
    std::vector<ServiceSample> samples;
    Samples queueMs, runMs;
    CacheTotals cache;
    LayerTotals totals;
    double windowS = 0;
    {
        service::ServiceConfig config;
        config.shards = kServiceShards;
        config.maxQueueDepth = 64;
        config.admission = service::AdmissionPolicy::Block;
        service::AnalysisService svc(config);

        // Warm-up, outside the window and part of set-up: the
        // hottest keys once each, all queued at once.
        const double w0 = nowMs();
        std::vector<std::future<service::ServiceRunResult>> warm;
        for (std::size_t k = 0; k < kServiceWarmupKeys; ++k) {
            service::AnalysisRequest req;
            req.workload = universe[k].workload;
            req.ftConfig = ftConfig(false);
            req.sliceConfig = sliceConfig();
            warm.push_back(svc.submit(std::move(req)));
        }
        for (std::size_t k = 0; k < warm.size(); ++k) {
            const service::ServiceRunResult r = warm[k].get();
            std::vector<std::string> problems;
            if (r.outcome != service::RequestOutcome::Done)
                problems.push_back("outcome " + std::to_string(int(r.outcome)));
            tally.record(universe[k].key + " (warm-up)", problems);
        }
        extraSetupS += (nowMs() - w0) / 1000.0;

        // Traced runs split the window: service phase, then mirror.
        const double windowMs =
            opt.trace ? opt.seconds * 500.0 : opt.seconds * 1000.0;
        std::vector<KeyStream> streams = keyStreams(universe, opt.seed, 1);
        const analysis::AndersenCacheStats before =
            analysis::andersenCacheStats();
        const double t0 = nowMs();
        samples = closedLoop(svc, universe, streams, t0 + windowMs);
        windowS = (nowMs() - t0) / 1000.0;
        cache.addDelta(before, analysis::andersenCacheStats());
        svc.drain();
    }

    Samples latency;
    std::uint64_t inputs = 0, completed = 0;
    for (const ServiceSample &s : samples) {
        latency.add(s.latencyMs);
        if (s.error.empty() &&
            s.result.outcome == service::RequestOutcome::Done) {
            ++completed;
            inputs += universe[s.key].workload.testingSet.size();
            queueMs.add(s.result.queueMs);
            runMs.add(s.result.runMs);
        }
    }

    if (opt.trace) {
        // Mirror phase on the warm cache: each key of the stream runs
        // once to settle its entries, then untraced and mirrored.
        KeyStream stream = keyStreams(universe, opt.seed, 2)[0];
        const core::OptFtConfig ft = ftConfig(false);
        const core::OptSliceConfig slice = sliceConfig();
        CacheTotals mirrorCache;
        const double t0 = nowMs();
        while (totals.requests == 0 || nowMs() - t0 < opt.seconds * 500.0) {
            const Request &request = universe[stream.next()];
            std::vector<std::string> problems;
            try {
                if (request.workload.race)
                    core::runOptFt(request.workload, ft);
                else
                    core::runOptSlice(request.workload, slice);
                problems = traceOne(request, ft, slice, false, totals,
                                    mirrorCache);
            } catch (const std::exception &e) {
                problems.push_back(std::string("threw: ") + e.what());
            }
            tally.record(request.key + " (mirror)", problems);
        }
        layerMetrics(totals, cache, queueMs, runMs, metrics);
    }

    // The cold batch references are checking work, outside every
    // measurement, so they may use the whole host.
    const std::size_t modeledMismatches =
        checkServiceSamples(samples, universe, nproc, tally);

    if (!opt.trace) {
        metrics.set("latency_ms.p50", latency.median(), "ms");
        metrics.set("latency_ms.p90", latency.tail(), "ms");
        metrics.set("inputs_per_s", double(inputs) / windowS, "1/s");
        metrics.set("requests_per_s", double(completed) / windowS, "1/s");
    }
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "\"latency_samples\": %zu, \"latency_tail_quantile\": %.4f, "
        "\"latency_q1_ms\": %.3f, \"latency_q3_ms\": %.3f, "
        "\"window_s\": %.3f, \"shards\": %zu, \"clients\": %zu, "
        "\"cache_budget_bytes\": %zu, \"hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"lineage_hits\": %llu, "
        "\"cache_bytes\": %.0f, \"modeled_static_cost_mismatches\": %zu",
        latency.count(), latency.tailQuantile(), latency.quantile(0.25),
        latency.quantile(0.75), windowS, kServiceShards,
        kServiceClients, kServiceCacheBudget,
        (unsigned long long)cache.hits, (unsigned long long)cache.misses,
        (unsigned long long)cache.evictions,
        (unsigned long long)cache.lineageHits, cache.bytes.median(),
        modeledMismatches);
    detail = buf;
}

// ---- command line ----------------------------------------------------------

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = end && *end == '\0' && opt.seconds > 0;
        } else if (flag == "--trace") {
            haveTrace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (flag == "--revision") {
            opt.revision = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveSeed && haveSeconds && haveTrace &&
           !opt.workload.empty();
}

int
run(const Options &opt)
{
    static const std::set<std::string> known = {
        "batch-dynamic", "batch-coldcode", "service-zipf", "long-trace"};
    if (!known.count(opt.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    const unsigned nproc = hostThreads();
    const bool service = opt.workload == "service-zipf";
    const bool longTrace = opt.workload == "long-trace";
    // The solver pool follows OHA_THREADS: pin it to the pipelines'
    // width.
    setenv("OHA_THREADS", std::to_string(kPipelineThreads).c_str(), 1);
    setenv("OHA_REPLAY_SHARDS", "1", 1);
    unsetenv("OHA_STATE_DIR");
    unsetenv("OHA_CACHE_BUDGET_MB");
    if (longTrace)
        setenv("OHA_TRACE_SEGMENT_BYTES", kLongTraceSegmentBytes, 1);
    else
        unsetenv("OHA_TRACE_SEGMENT_BYTES");
    support::refreshConfiguredThreads();

    Metrics metrics;
    Tally tally;
    Samples setupSeconds;
    double extraSetupS = 0;
    std::string detail;
    if (service) {
        runService(opt, nproc, setupSeconds, extraSetupS, metrics, tally,
                   detail);
    } else {
        auto build = [&]() {
            if (opt.workload == "batch-dynamic")
                return buildBatchDynamic(opt.seed);
            if (opt.workload == "batch-coldcode")
                return buildBatchColdcode(opt.seed);
            return buildLongTrace(opt.seed);
        };
        const std::vector<Request> requests =
            setUp(build, kPipelineThreads, setupSeconds, extraSetupS);
        if (opt.trace) {
            runBatchTraced(requests, opt.seed, opt.seconds, longTrace,
                           metrics, tally, detail);
        } else {
            runBatchUntraced(requests, opt.seed, opt.seconds, longTrace,
                             metrics, tally, detail);
        }
    }
    if (!opt.trace) {
        metrics.set("success_frac", tally.successFrac(), "fraction");
        metrics.set("peak_rss_mb", peakRssMb(), "MB");
        metrics.set("setup_s", setupSeconds.median() + extraSetupS, "s");
    }

    for (const std::string &reason : tally.reasons)
        std::printf("FAILED %s\n", reason.c_str());
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %u, \"build_type\": \"%s\", \"revision\": "
                "\"%s\", \"pipeline_threads\": %zu, \"oha_threads\": %zu, "
                "\"setup_build_samples\": %zu, \"setup_build_s\": %.4f, "
                "\"setup_oracle_warmup_s\": %.4f, %s}}\n",
                opt.workload.c_str(), (unsigned long long)opt.seed, nproc,
                OHABENCH_BUILD_TYPE, opt.revision.c_str(), kPipelineThreads,
                support::configuredThreads(), setupSeconds.count(),
                setupSeconds.median(), extraSetupS, detail.c_str());
    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", tally.attempted, tally.failed,
                metrics.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace ohabench

int
main(int argc, char **argv)
{
    ohabench::Options opt;
    if (!ohabench::parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--revision <id>]\n",
                     argv[0]);
        return 2;
    }
    try {
        return ohabench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "benchmark failed: %s\n", e.what());
        return 1;
    }
}
