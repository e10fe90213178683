#include "mirror.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "analysis/andersen_cache.h"
#include "analysis/callgraph.h"
#include "analysis/lockset.h"
#include "analysis/slicer.h"
#include "core/recovery.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "exec/trace_cache.h"
#include "profile/observation_cache.h"
#include "profile/profiler.h"
#include "stats.h"

namespace ohabench {

using namespace oha;

namespace {

using RacePairs = std::set<std::pair<InstrId, InstrId>>;
using TracePtr = std::shared_ptr<const exec::RecordedTrace>;

std::uint64_t
cacheHits()
{
    return analysis::andersenCacheStats().hits;
}

/** Andersen through the memo, timed as the Andersen layer; work is
 *  counted only when the memo missed and the solver ran. */
std::shared_ptr<const analysis::AndersenResult>
solveAndersen(const std::shared_ptr<const ir::Module> &module,
              const analysis::AndersenOptions &options, LayerTotals &t)
{
    const std::uint64_t hits = cacheHits();
    const double t0 = nowMs();
    auto result = analysis::runAndersenMemo(module, options);
    t.andersenMs += nowMs() - t0;
    if (cacheHits() == hits)
        t.andersenWorkUnits += result->workUnits;
    return result;
}

/** One capture through the shared cache, timed as the record layer. */
TracePtr
capture(const std::shared_ptr<const ir::Module> &module,
        const exec::ExecConfig &input, LayerTotals &t)
{
    const std::uint64_t hits = cacheHits();
    const double t0 = nowMs();
    TracePtr trace = exec::recordRunMemo(module, input);
    t.recordMs += nowMs() - t0;
    if (cacheHits() == hits) {
        t.recordedEvents += trace->result.totalEvents.total();
        t.recordedBytes += trace->events.sizeBytes();
        t.maxSegments = std::max<std::uint64_t>(
            t.maxSegments, trace->events.numSegments());
    }
    return trace;
}

/** Measurement-only: replay @p trace with no tool attached. */
double
decodeOnlyMs(const ir::Module &module, const exec::RecordedTrace &trace)
{
    exec::TraceReplayer replayer(module, trace);
    const double t0 = nowMs();
    replayer.run();
    return nowMs() - t0;
}

struct FtReplay
{
    exec::RunResult result;
    RacePairs races;
    bool violated = false;
    dyn::Violation violation;
    double ms = 0;
};

FtReplay
replayFastTrack(const ir::Module &module, const exec::RecordedTrace &trace,
                const exec::InstrumentationPlan &plan,
                dyn::InvariantChecker *checker = nullptr)
{
    FtReplay out;
    dyn::FastTrack tool;
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    if (checker) {
        checker->setControl(&replayer);
        replayer.attach(checker, &checker->plan());
    }
    const double t0 = nowMs();
    out.result = replayer.run();
    out.ms = nowMs() - t0;
    out.races = tool.racePairs();
    if (checker && checker->violated()) {
        out.violated = true;
        out.violation = checker->violation();
    }
    return out;
}

struct GiriReplay
{
    exec::RunResult result;
    std::map<InstrId, std::set<InstrId>> slices;
    bool violated = false;
    dyn::Violation violation;
    double ms = 0;
};

GiriReplay
replayGiri(const ir::Module &module, const exec::RecordedTrace &trace,
           const exec::InstrumentationPlan &plan, InstrId endpoint,
           dyn::InvariantChecker *checker = nullptr)
{
    GiriReplay out;
    dyn::GiriSlicer tool(module);
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    if (checker) {
        checker->setControl(&replayer);
        replayer.attach(checker, &checker->plan());
    }
    const double t0 = nowMs();
    out.result = replayer.run();
    out.ms = nowMs() - t0;
    out.slices[endpoint] = tool.slice(endpoint);
    if (checker && checker->violated()) {
        out.violated = true;
        out.violation = checker->violation();
    }
    return out;
}

/** Charge one reference replay of a capture with decode time
 *  @p decodeMs: decode to the replay layer, the rest to @p toolMs. */
void
chargeReplay(const exec::RunResult &result, double ms, double decodeMs,
             double &toolMs, LayerTotals &t)
{
    t.decodeMs += decodeMs;
    t.decodedEvents += result.totalEvents.total();
    toolMs += ms - decodeMs;
}

/** Charge one optimistic replay that ran with the checker (@p
 *  checkedMs) against its checker-less twin (@p plainMs).  A checker
 *  abort stops the replay early, so the decode and tool shares scale
 *  with the fraction of the capture's events it reached. */
void
chargeCheckedReplay(const exec::RunResult &checked, double checkedMs,
                    double plainMs, const exec::RecordedTrace &trace,
                    double decodeMs, double &toolMs, LayerTotals &t)
{
    const double all = double(trace.result.totalEvents.total());
    const double reached = double(checked.totalEvents.total());
    const double frac = all > 0 ? std::min(1.0, reached / all) : 1.0;
    t.decodeMs += decodeMs * frac;
    t.decodedEvents += checked.totalEvents.total();
    toolMs += (plainMs - decodeMs) * frac;
    t.checkerMs += checkedMs - plainMs * frac;
}

// ---- lock-elision calibration (mirrors core/optft.cc, trace mode) --------

struct LockSiteSets
{
    std::set<InstrId> locks;
    std::set<InstrId> unlocks;
};

LockSiteSets
collectLockSites(const ir::Module &module,
                 const inv::InvariantSet &invariants)
{
    LockSiteSets sites;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (!invariants.blockVisited(ins.block))
            continue;
        if (ins.op == ir::Opcode::Lock)
            sites.locks.insert(id);
        else if (ins.op == ir::Opcode::Unlock)
            sites.unlocks.insert(id);
    }
    return sites;
}

std::set<InstrId>
guardingLockSites(const ir::Module &module,
                  const analysis::AndersenResult &andersen,
                  const inv::InvariantSet &invariants,
                  const std::set<InstrId> &racyAccesses)
{
    const analysis::LocksetAnalysis locksets(module, andersen, &invariants);
    std::set<InstrId> guarding;
    for (InstrId access : racyAccesses) {
        const auto &held = locksets.locksHeldAt(access);
        guarding.insert(held.begin(), held.end());
    }
    return guarding;
}

std::set<InstrId>
elidableWithUnlocks(const analysis::AndersenResult &andersen,
                    const LockSiteSets &sites,
                    const std::set<InstrId> &locks)
{
    std::set<InstrId> all = locks;
    for (InstrId unlock : sites.unlocks) {
        const SparseBitSet targets = andersen.pointerTargets(unlock);
        bool allElided = true;
        for (InstrId lock : sites.locks) {
            if (andersen.pointerTargets(lock).intersects(targets) &&
                !locks.count(lock)) {
                allElided = false;
                break;
            }
        }
        if (allElided)
            all.insert(unlock);
    }
    return all;
}

std::set<InstrId>
calibrateLockElision(const workloads::Workload &workload,
                     const inv::InvariantSet &invariants,
                     const analysis::StaticRaceResult &predicated,
                     const std::vector<TracePtr> &traces)
{
    const ir::Module &module = *workload.module;
    analysis::AndersenOptions aopts;
    aopts.invariants = &invariants;
    const auto andersenSp = analysis::runAndersenMemo(workload.module, aopts);
    const analysis::AndersenResult &andersen = *andersenSp;

    const std::set<InstrId> guardingSites = guardingLockSites(
        module, andersen, invariants, predicated.racyAccesses);
    const LockSiteSets sites = collectLockSites(module, invariants);
    std::set<InstrId> candidates;
    for (InstrId lock : sites.locks)
        if (!guardingSites.count(lock))
            candidates.insert(lock);

    const analysis::CallGraph callgraph(module, andersen, &invariants);
    const exec::InstrumentationPlan soundPlan =
        dyn::fullFastTrackPlan(module);
    std::vector<RacePairs> soundRaces;
    for (const TracePtr &trace : traces)
        soundRaces.push_back(replayFastTrack(module, *trace, soundPlan).races);

    while (!candidates.empty()) {
        inv::InvariantSet trial = invariants;
        trial.elidableLockSites =
            elidableWithUnlocks(andersen, sites, candidates);
        const exec::InstrumentationPlan optPlan =
            dyn::optimisticFastTrackPlan(module, predicated.racyAccesses,
                                         trial);
        std::set<FuncId> falseRaceFuncs;
        bool mismatch = false;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const RacePairs races =
                replayFastTrack(module, *traces[i], optPlan).races;
            for (const auto &race : races) {
                if (!soundRaces[i].count(race)) {
                    mismatch = true;
                    falseRaceFuncs.insert(module.instr(race.first).func);
                    falseRaceFuncs.insert(module.instr(race.second).func);
                }
            }
        }
        if (!mismatch)
            break;
        std::set<FuncId> offendingFuncs = falseRaceFuncs;
        for (FuncId func : falseRaceFuncs) {
            const std::set<FuncId> &callees = callgraph.callees(func);
            offendingFuncs.insert(callees.begin(), callees.end());
        }
        bool removed = false;
        for (auto it = candidates.begin(); it != candidates.end();) {
            if (offendingFuncs.count(module.instr(*it).func) > 0) {
                it = candidates.erase(it);
                removed = true;
            } else {
                ++it;
            }
        }
        if (!removed)
            candidates.erase(std::prev(candidates.end()));
    }
    return candidates.empty()
               ? std::set<InstrId>{}
               : elidableWithUnlocks(andersen, sites, candidates);
}

std::set<InstrId>
refilterElidableLocks(const workloads::Workload &workload,
                      const inv::InvariantSet &invariants,
                      const analysis::StaticRaceResult &predicated)
{
    if (invariants.elidableLockSites.empty())
        return {};
    const ir::Module &module = *workload.module;
    analysis::AndersenOptions aopts;
    aopts.invariants = &invariants;
    const auto andersenSp = analysis::runAndersenMemo(workload.module, aopts);
    const std::set<InstrId> guarding = guardingLockSites(
        module, *andersenSp, invariants, predicated.racyAccesses);
    const LockSiteSets sites = collectLockSites(module, invariants);
    std::set<InstrId> kept;
    for (InstrId lock : sites.locks)
        if (invariants.elidableLockSites.count(lock) && !guarding.count(lock))
            kept.insert(lock);
    if (kept.empty())
        return {};
    return elidableWithUnlocks(*andersenSp, sites, kept);
}

/** Profile to convergence through the observation memo. */
inv::InvariantSet
profile(const workloads::Workload &workload,
        const prof::ProfileOptions &options, std::size_t maxRuns,
        std::size_t window, LayerTotals &t)
{
    const double t0 = nowMs();
    prof::ProfilingCampaign campaign(*workload.module, options);
    const prof::Observer observer = [&](const exec::ExecConfig &input) {
        return prof::observeRunMemo(workload.module, options, input);
    };
    campaign.addRunsUntilConverged(workload.profilingSet, maxRuns, window,
                                   observer);
    inv::InvariantSet invariants = campaign.invariants();
    t.profileMs += nowMs() - t0;
    t.profileRuns += campaign.numRuns();
    return invariants;
}

/** Captures every input of @p inputs through the shared cache. */
std::vector<TracePtr>
captureAll(const workloads::Workload &workload,
           const std::vector<exec::ExecConfig> &inputs, LayerTotals &t)
{
    std::vector<TracePtr> traces;
    for (const exec::ExecConfig &input : inputs)
        traces.push_back(capture(workload.module, input, t));
    return traces;
}

/** Measurement-only: each capture's tool-less decode time, also
 *  added to @p measureMs. */
std::vector<double>
measureDecode(const ir::Module &module, const std::vector<TracePtr> &traces,
              double &measureMs)
{
    std::vector<double> decode;
    for (const TracePtr &trace : traces) {
        decode.push_back(decodeOnlyMs(module, *trace));
        measureMs += decode.back();
    }
    return decode;
}

} // namespace

MirrorFtCounts
mirrorOptFt(const workloads::Workload &workload,
            const core::OptFtConfig &config, LayerTotals &t)
{
    const double wall0 = nowMs();
    double measureMs = 0;
    const ir::Module &module = *workload.module;
    MirrorFtCounts out;
    ++t.requests;

    prof::ProfileOptions profOptions;
    profOptions.threads = config.threads;
    inv::InvariantSet invariants =
        profile(workload, profOptions, config.maxProfileRuns,
                config.convergenceWindow, t);

    // Sound and predicated detectors, each after its Andersen solve so
    // the detector span sees a memo hit for the points-to result.
    auto detect = [&](const inv::InvariantSet *inv) {
        analysis::AndersenOptions aopts;
        aopts.invariants = inv;
        solveAndersen(workload.module, aopts, t);
        const double t0 = nowMs();
        auto result = analysis::runStaticRaceDetectorMemo(workload.module, inv);
        t.detectorMs += nowMs() - t0;
        return result;
    };
    const auto soundSp = detect(nullptr);
    std::shared_ptr<const analysis::StaticRaceResult> predicatedSp =
        detect(&invariants);
    out.soundRacy = soundSp->racyAccesses.size();
    out.predRacy = predicatedSp->racyAccesses.size();
    t.soundRacy += out.soundRacy;
    t.predRacy += out.predRacy;

    const std::size_t calibRuns = std::min(config.customSyncCalibrationRuns,
                                           workload.profilingSet.size());
    const std::vector<TracePtr> calibTraces = captureAll(
        workload,
        std::vector<exec::ExecConfig>(workload.profilingSet.begin(),
                                      workload.profilingSet.begin() +
                                          std::ptrdiff_t(calibRuns)),
        t);
    invariants.elidableLockSites = calibrateLockElision(
        workload, invariants, *predicatedSp, calibTraces);

    const auto fullPlan = dyn::fullFastTrackPlan(module);
    const auto hybridPlan =
        dyn::hybridFastTrackPlan(module, soundSp->racyAccesses);
    exec::InstrumentationPlan optPlan = dyn::optimisticFastTrackPlan(
        module, predicatedSp->racyAccesses, invariants);
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = false;

    const std::size_t numTests = workload.testingSet.size();
    const std::vector<TracePtr> traces =
        captureAll(workload, workload.testingSet, t);
    const std::vector<double> decode = measureDecode(module, traces, measureMs);

    struct RefEval
    {
        FtReplay full;
        FtReplay hybrid;
    };
    std::vector<RefEval> refs(numTests);
    for (std::size_t i = 0; i < numTests; ++i) {
        refs[i].full = replayFastTrack(module, *traces[i], fullPlan);
        chargeReplay(refs[i].full.result, refs[i].full.ms, decode[i],
                     t.ftFullMs, t);
        refs[i].hybrid = replayFastTrack(module, *traces[i], hybridPlan);
        chargeReplay(refs[i].hybrid.result, refs[i].hybrid.ms, decode[i],
                     t.ftHybridMs, t);
    }

    // Adaptive rounds, evaluated as runBatch does at any width: the
    // whole remaining corpus per round, then a serial scan.
    struct OptEval
    {
        FtReplay optimistic;
        bool rolledBack = false;
    };
    std::vector<OptEval> opts(numTests);
    const core::RecoveryBreaker breaker{config.maxRepredications,
                                        config.misspecRateThreshold,
                                        config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < numTests) {
        if (degraded) {
            for (std::size_t i = next; i < numTests; ++i)
                opts[i].optimistic = refs[i].hybrid;
            break;
        }
        const std::size_t start = next;
        std::vector<OptEval> round;
        for (std::size_t i = start; i < numTests; ++i) {
            OptEval eval;
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            eval.optimistic =
                replayFastTrack(module, *traces[i], optPlan, &checker);
            const FtReplay plain = replayFastTrack(module, *traces[i], optPlan);
            measureMs += plain.ms;
            chargeCheckedReplay(eval.optimistic.result, eval.optimistic.ms,
                                plain.ms, *traces[i], decode[i], t.ftOptMs,
                                t);
            t.violations += eval.optimistic.violated;
            if (core::optFtShouldRollBack(
                    eval.optimistic.violated, !eval.optimistic.races.empty(),
                    !invariants.elidableLockSites.empty())) {
                eval.rolledBack = true;
                if (!eval.optimistic.violated) {
                    eval.optimistic.violation.family =
                        dyn::ViolationFamily::ElidedLockRace;
                }
            }
            round.push_back(std::move(eval));
        }

        next = numTests;
        for (std::size_t k = 0; k < round.size(); ++k) {
            const std::size_t i = start + k;
            opts[i] = round[k];
            if (!opts[i].rolledBack)
                continue;
            ++rollbacksSeen;
            if (!config.adaptiveRecovery)
                continue;
            const dyn::Violation &violation = opts[i].optimistic.violation;
            if (breaker.tripped(out.repredications, rollbacksSeen, i + 1) ||
                !invariants.demote(violation)) {
                degraded = true;
            } else {
                ++out.repredications;
                if (violation.family != dyn::ViolationFamily::ElidedLockRace) {
                    predicatedSp = detect(&invariants);
                    invariants.elidableLockSites = refilterElidableLocks(
                        workload, invariants, *predicatedSp);
                }
                optPlan = dyn::optimisticFastTrackPlan(
                    module, predicatedSp->racyAccesses, invariants);
            }
            next = i + 1;
            break;
        }
    }

    RacePairs allRaces;
    for (std::size_t i = 0; i < numTests; ++i) {
        const RacePairs &full = refs[i].full.races;
        allRaces.insert(full.begin(), full.end());
        if (refs[i].hybrid.races != full)
            out.reportsMatch = false;
        const RacePairs &final = opts[i].rolledBack
                                     ? refs[i].hybrid.races
                                     : opts[i].optimistic.races;
        if (final != full)
            out.reportsMatch = false;
        out.rollbacks += opts[i].rolledBack;
    }
    out.races = allRaces.size();
    t.rollbacks += out.rollbacks;
    t.repredications += out.repredications;
    t.tracedMs += nowMs() - wall0 - measureMs;
    return out;
}

namespace {

struct PickedAndersen
{
    std::shared_ptr<const analysis::AndersenResult> result;
    bool contextSensitive = false;
};

PickedAndersen
pickAndersen(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants,
             const core::OptSliceConfig &config, LayerTotals &t)
{
    analysis::AndersenOptions options;
    options.contextSensitive = true;
    options.invariants = invariants;
    options.maxContexts = config.csContextBudget;
    PickedAndersen picked;
    picked.result = solveAndersen(module, options, t);
    picked.contextSensitive = picked.result->completed;
    if (!picked.contextSensitive) {
        options.contextSensitive = false;
        picked.result = solveAndersen(module, options, t);
    }
    return picked;
}

/** The pipeline's memoized per-endpoint slicing, timed as the slicer
 *  layer (a CI fallback solve inside it is charged there too). */
std::shared_ptr<const analysis::SliceSetResult>
computeAllSlices(const std::shared_ptr<const ir::Module> &module,
                 const std::vector<InstrId> &endpoints,
                 const inv::InvariantSet *invariants,
                 const core::OptSliceConfig &config,
                 const analysis::AndersenResult &picked, bool pickedCs,
                 LayerTotals &t)
{
    const std::uint64_t configKey =
        config.sliceWorkBudget ^ (pickedCs ? 1ull << 63 : 0);
    auto compute = [&]() {
        analysis::SliceSetResult out;
        analysis::SlicerOptions options;
        options.invariants = invariants;
        options.maxWork = config.sliceWorkBudget;
        auto attempt = [&](const analysis::AndersenResult &pts) {
            const analysis::StaticSlicer slicer(*module, pts, options);
            std::vector<std::set<InstrId>> slices;
            for (InstrId endpoint : endpoints) {
                analysis::StaticSliceResult slice = slicer.slice(endpoint);
                out.workUnits += slice.workUnits;
                if (!slice.completed)
                    return false;
                slices.push_back(std::move(slice.instructions));
            }
            out.slices = std::move(slices);
            return true;
        };
        if (attempt(picked)) {
            out.contextSensitive = pickedCs;
            out.complete = true;
            return out;
        }
        if (pickedCs) {
            analysis::AndersenOptions ciOptions;
            ciOptions.invariants = invariants;
            const auto ciPts = analysis::runAndersenMemo(module, ciOptions);
            out.workUnits += ciPts->workUnits;
            if (attempt(*ciPts)) {
                out.contextSensitive = false;
                out.complete = true;
                return out;
            }
        }
        out.slices.assign(endpoints.size(), {});
        return out;
    };
    const std::uint64_t hits = cacheHits();
    const double t0 = nowMs();
    auto result = analysis::sliceSetMemo(module, invariants, configKey,
                                         endpoints, compute);
    t.slicerMs += nowMs() - t0;
    if (cacheHits() == hits)
        t.slicerWorkUnits += result->workUnits;
    return result;
}

std::vector<exec::InstrumentationPlan>
giriPlans(const ir::Module &module, const analysis::SliceSetResult &slices,
          std::size_t endpoints)
{
    std::vector<exec::InstrumentationPlan> plans;
    for (std::size_t e = 0; e < endpoints; ++e) {
        plans.push_back(slices.complete
                            ? dyn::sliceGiriPlan(module, slices.slices[e])
                            : dyn::fullGiriPlan(module));
    }
    return plans;
}

} // namespace

MirrorSliceCounts
mirrorOptSlice(const workloads::Workload &workload,
               const core::OptSliceConfig &config, LayerTotals &t)
{
    const double wall0 = nowMs();
    double measureMs = 0;
    const ir::Module &module = *workload.module;
    const std::shared_ptr<const ir::Module> moduleSp = workload.module;
    MirrorSliceCounts out;
    ++t.requests;
    ++t.sliceRequests;

    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    profOptions.threads = config.threads;
    inv::InvariantSet invariants =
        profile(workload, profOptions, config.maxProfileRuns,
                config.convergenceWindow, t);

    const PickedAndersen soundPts =
        pickAndersen(moduleSp, nullptr, config, t);
    const PickedAndersen optPts =
        pickAndersen(moduleSp, &invariants, config, t);

    // Endpoint selection: rank Output instructions by CI sound slice.
    std::vector<InstrId> endpoints;
    {
        std::shared_ptr<const analysis::AndersenResult> rankPts =
            soundPts.result;
        if (soundPts.contextSensitive)
            rankPts = solveAndersen(moduleSp, {}, t);
        const double t0 = nowMs();
        analysis::SlicerOptions rankOptions;
        rankOptions.maxWork = config.sliceWorkBudget;
        const analysis::StaticSlicer ranker(module, *rankPts, rankOptions);
        std::vector<std::pair<std::size_t, InstrId>> candidates;
        for (InstrId id = 0; id < module.numInstrs(); ++id) {
            if (module.instr(id).op != ir::Opcode::Output)
                continue;
            const analysis::StaticSliceResult slice = ranker.slice(id);
            t.slicerWorkUnits += slice.workUnits;
            candidates.push_back({slice.instructions.size(), id});
        }
        std::sort(candidates.rbegin(), candidates.rend());
        for (const auto &[size, endpoint] : candidates) {
            if (endpoints.size() >= config.maxEndpoints)
                break;
            if (size >= config.minSliceSize || endpoints.empty())
                endpoints.push_back(endpoint);
        }
        t.slicerMs += nowMs() - t0;
    }

    const auto soundSlices =
        computeAllSlices(moduleSp, endpoints, nullptr, config,
                         *soundPts.result, soundPts.contextSensitive, t);
    const auto optSlices =
        computeAllSlices(moduleSp, endpoints, &invariants, config,
                         *optPts.result, optPts.contextSensitive, t);
    const std::vector<exec::InstrumentationPlan> hybridPlans =
        giriPlans(module, *soundSlices, endpoints.size());
    std::vector<exec::InstrumentationPlan> optPlans =
        giriPlans(module, *optSlices, endpoints.size());
    double optSizeSum = 0;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
        out.endpointSliceSizes.push_back(optSlices->slices[e].size());
        optSizeSum += double(optSlices->slices[e].size());
    }
    out.optSliceSize = optSizeSum / double(endpoints.size());
    t.optSliceSize += out.optSliceSize;

    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = invariants.hasCallContexts;
    checkerConfig.guardingLocks = false;
    checkerConfig.singletonThreads = false;

    const std::vector<TracePtr> traces =
        captureAll(workload, workload.testingSet, t);
    const std::vector<double> decode = measureDecode(module, traces, measureMs);

    const std::size_t numEndpoints = endpoints.size();
    const std::size_t tasks = workload.testingSet.size() * numEndpoints;
    std::vector<GiriReplay> refs(tasks);
    for (std::size_t task = 0; task < tasks; ++task) {
        const std::size_t input = task / numEndpoints;
        const std::size_t e = task % numEndpoints;
        refs[task] = replayGiri(module, *traces[input], hybridPlans[e],
                                endpoints[e]);
        chargeReplay(refs[task].result, refs[task].ms, decode[input],
                     t.giriMs, t);
    }

    struct OptEval
    {
        GiriReplay optimistic;
        bool rolledBack = false;
    };
    std::vector<OptEval> opts(tasks);
    const core::RecoveryBreaker breaker{config.maxRepredications,
                                        config.misspecRateThreshold,
                                        config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < tasks) {
        if (degraded) {
            for (std::size_t task = next; task < tasks; ++task)
                opts[task].optimistic = refs[task];
            break;
        }
        const std::size_t start = next;
        std::vector<OptEval> round;
        for (std::size_t task = start; task < tasks; ++task) {
            const std::size_t input = task / numEndpoints;
            const std::size_t e = task % numEndpoints;
            OptEval eval;
            dyn::InvariantChecker checker(module, invariants, checkerConfig);
            eval.optimistic = replayGiri(module, *traces[input], optPlans[e],
                                         endpoints[e], &checker);
            const GiriReplay plain = replayGiri(module, *traces[input],
                                                optPlans[e], endpoints[e]);
            measureMs += plain.ms;
            chargeCheckedReplay(eval.optimistic.result, eval.optimistic.ms,
                                plain.ms, *traces[input], decode[input],
                                t.giriMs, t);
            t.violations += eval.optimistic.violated;
            eval.rolledBack = eval.optimistic.violated;
            round.push_back(std::move(eval));
        }

        next = tasks;
        for (std::size_t k = 0; k < round.size(); ++k) {
            const std::size_t task = start + k;
            opts[task] = round[k];
            if (!opts[task].rolledBack)
                continue;
            ++rollbacksSeen;
            if (!config.adaptiveRecovery)
                continue;
            if (breaker.tripped(out.repredications, rollbacksSeen,
                                task + 1) ||
                !invariants.demote(opts[task].optimistic.violation)) {
                degraded = true;
            } else {
                ++out.repredications;
                const PickedAndersen repredPts =
                    pickAndersen(moduleSp, &invariants, config, t);
                const auto repredSlices = computeAllSlices(
                    moduleSp, endpoints, &invariants, config,
                    *repredPts.result, repredPts.contextSensitive, t);
                optPlans = giriPlans(module, *repredSlices, numEndpoints);
            }
            next = task + 1;
            break;
        }
    }

    for (std::size_t task = 0; task < tasks; ++task) {
        const OptEval &opt = opts[task];
        const auto &final =
            opt.rolledBack ? refs[task].slices : opt.optimistic.slices;
        if (final != refs[task].slices)
            out.slicesMatch = false;
        out.rollbacks += opt.rolledBack;
    }
    t.rollbacks += out.rollbacks;
    t.repredications += out.repredications;
    t.tracedMs += nowMs() - wall0 - measureMs;
    return out;
}

} // namespace ohabench
