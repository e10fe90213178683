#include "core/optslice.h"

#include <algorithm>

#include "analysis/andersen_cache.h"
#include "core/recovery.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "exec/trace_cache.h"
#include "profile/observation_cache.h"
#include "profile/profiler.h"
#include "support/thread_pool.h"

namespace oha::core {

namespace {

/** Points-to analysis picked CS-first within budget (a Table 2 AT). */
struct PickedAndersen
{
    /** Memoized (possibly shared) result; never mutated. */
    std::shared_ptr<const analysis::AndersenResult> result;
    AnalysisPick pick;
    /** Work burnt on a CS attempt that blew the context budget,
     *  charged to this pick's cost on top of the fallback's units. */
    std::uint64_t wastedUnits = 0;
};

PickedAndersen
pickAndersen(const std::shared_ptr<const ir::Module> &module,
             const inv::InvariantSet *invariants,
             const OptSliceConfig &config)
{
    analysis::AndersenOptions options;
    options.contextSensitive = true;
    options.invariants = invariants;
    options.maxContexts = config.csContextBudget;

    PickedAndersen picked;
    picked.result = analysis::runAndersenMemo(module, options);
    if (picked.result->completed) {
        picked.pick.contextSensitive = true;
    } else {
        // CS exhausted the budget: fall back to CI (Table 2's "most
        // accurate analysis that will run").
        picked.wastedUnits = picked.result->workUnits;
        options.contextSensitive = false;
        picked.result = analysis::runAndersenMemo(module, options);
        picked.pick.contextSensitive = false;
    }
    picked.pick.seconds =
        double(picked.result->workUnits + picked.wastedUnits) /
        config.cost.staticUnitsPerSecond;
    return picked;
}

/** All Output instructions of the module. */
std::vector<InstrId>
outputInstrs(const ir::Module &module)
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.push_back(id);
    return out;
}

/**
 * Compute static slices for @p endpoints with fallback: try the
 * picked (possibly CS) points-to result; if any slice blows the work
 * budget, retry context-insensitively.  An incomplete static slice
 * must never become an instrumentation plan — it is not closed, so
 * the dynamic slicer would silently lose dependencies.
 *
 * Memoized through the static-result cache: sweep points that rebuild
 * the same (module, invariants, endpoints) slicing task — Figure 8
 * re-runs the whole static phase per profiling-run count — reuse the
 * stored slice sets.  The stored workUnits are the deterministic cost
 * of the one real computation.
 */
std::shared_ptr<const analysis::SliceSetResult>
computeAllSlices(const std::shared_ptr<const ir::Module> &module,
                 const std::vector<InstrId> &endpoints,
                 const inv::InvariantSet *invariants,
                 const OptSliceConfig &config,
                 const analysis::AndersenResult &picked, bool pickedCs)
{
    // Everything that can change the output beyond (module,
    // invariants, endpoints): the per-slice work budget and the
    // analysis level of the picked points-to result.
    const std::uint64_t configKey =
        config.sliceWorkBudget ^ (pickedCs ? 1ull << 63 : 0);

    auto compute = [&]() {
        analysis::SliceSetResult out;

        analysis::SlicerOptions options;
        options.invariants = invariants;
        options.maxWork = config.sliceWorkBudget;

        // Endpoints slice independently; compute them batched, then
        // fold work accounting in endpoint order, stopping at the
        // first incomplete slice — exactly the serial early-exit
        // accounting, so reported static-phase costs are thread-count
        // invariant.
        auto attempt = [&](const analysis::AndersenResult &pts) {
            const analysis::StaticSlicer slicer(*module, pts, options);
            auto sliceResults = support::runBatch(
                endpoints.size(),
                [&](std::size_t e) { return slicer.slice(endpoints[e]); },
                config.threads);
            std::vector<std::set<InstrId>> slices;
            for (auto &slice : sliceResults) {
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
            const std::shared_ptr<const analysis::AndersenResult> ciPts =
                analysis::runAndersenMemo(module, ciOptions);
            out.workUnits += ciPts->workUnits;
            if (attempt(*ciPts)) {
                out.contextSensitive = false;
                out.complete = true;
                return out;
            }
        }
        // Static slicing failed entirely: the caller must fall back
        // to full instrumentation (pure Giri).
        out.slices.assign(endpoints.size(), {});
        return out;
    };

    return analysis::sliceSetMemo(module, invariants, configKey,
                                  endpoints, compute);
}

struct GiriRun
{
    exec::RunResult result;
    std::map<InstrId, std::set<InstrId>> slices;
    exec::EventCounts delivered;
    exec::EventCounts checkerDelivered;
    std::uint64_t slowChecks = 0;
    bool violated = false;
    std::uint64_t missingDeps = 0;
};

/** One Giri slicer of a group: its plan and endpoint. */
struct SliceTarget
{
    const exec::InstrumentationPlan *plan;
    InstrId endpoint;
};

/**
 * Slicing runs in one pass over an execution: each entry of
 * @p groups is one group of Giri slicers, and @p checker (when given)
 * joins the last group, shared by its slicers.  @p pass attaches the
 * groups to an event source and runs it: a live interpreter, the
 * recording pass of a cold input, or a replay of its capture.
 * Returns one GiriRun per slicer, byte-identical to a live run of that
 * slicer alone (with its own checker, for the last group).
 */
std::vector<std::vector<GiriRun>>
giriGroups(const ir::Module &module,
           const std::vector<std::vector<SliceTarget>> &groups,
           dyn::InvariantChecker *checker,
           const std::function<std::vector<exec::RunResult>(
               const exec::GroupSetup &)> &pass)
{
    std::vector<std::vector<std::unique_ptr<dyn::GiriSlicer>>> tools(
        groups.size());
    const std::vector<exec::RunResult> results =
        pass([&](exec::DispatchCore &source) {
            for (std::size_t g = 0; g < groups.size(); ++g) {
                if (g > 0)
                    source.addGroup();
                for (const SliceTarget &target : groups[g]) {
                    tools[g].push_back(
                        std::make_unique<dyn::GiriSlicer>(module));
                    source.attach(tools[g].back().get(), target.plan);
                }
            }
            if (checker) {
                checker->setControl(&source.control(groups.size() - 1));
                source.attach(checker, &checker->plan());
            }
        });

    std::vector<std::vector<GiriRun>> out(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const bool checked = checker && g + 1 == groups.size();
        for (std::size_t k = 0; k < groups[g].size(); ++k) {
            const dyn::GiriSlicer &tool = *tools[g][k];
            GiriRun run;
            run.result = results[g];
            run.result.delivered = {results[g].delivered[k]};
            run.delivered = results[g].delivered[k];
            if (checked) {
                run.checkerDelivered = results[g].delivered.back();
                run.result.delivered.push_back(run.checkerDelivered);
                run.slowChecks = checker->slowContextChecks();
                run.violated = checker->violated();
            }
            const InstrId endpoint = groups[g][k].endpoint;
            run.slices[endpoint] = tool.slice(endpoint);
            run.missingDeps = tool.missingDependencies();
            out[g].push_back(std::move(run));
        }
    }
    return out;
}

/** One live run of a Giri slicer under @p plan (with @p checker). */
GiriRun
runGiri(const ir::Module &module, const exec::ExecConfig &config,
        const exec::InstrumentationPlan &plan, InstrId endpoint,
        dyn::InvariantChecker *checker = nullptr)
{
    return std::move(
        giriGroups(module, {{{&plan, endpoint}}}, checker,
                   [&](const exec::GroupSetup &setup) {
                       exec::Interpreter interp(module, config);
                       setup(interp);
                       return interp.runGroups();
                   })
            .front()
            .front());
}

} // namespace

OptSliceResult
runOptSlice(const workloads::Workload &workload,
            const OptSliceConfig &config)
{
    OHA_ASSERT(!workload.race, "runOptSlice needs a slicing workload");
    const ir::Module &module = *workload.module;
    const CostModel &cost = config.cost;

    OptSliceResult result;
    result.name = workload.name;

    // ---- Phase 1: profiling -------------------------------------------
    prof::ProfileOptions profOptions;
    profOptions.callContexts = true;
    profOptions.threads = config.threads;
    prof::ProfilingCampaign campaign(module, profOptions);
    prof::Observer observer;
    if (config.cacheProfileObservations)
        observer = [&](const exec::ExecConfig &input) {
            return prof::observeRunMemo(workload.module, profOptions,
                                        input);
        };
    campaign.addRunsUntilConverged(workload.profilingSet,
                                   config.maxProfileRuns,
                                   config.convergenceWindow, observer);
    inv::InvariantSet invariants =
        config.aggressiveLucMinVisits > 1
            ? campaign.invariantsWithAggressiveLuc(
                  config.aggressiveLucMinVisits)
            : campaign.invariants();
    result.profileRunsUsed = campaign.numRuns();
    result.profileSeconds = double(campaign.profiledSteps()) *
                            cost.profilingOverhead / cost.unitsPerSecond * cost.offlineScale;

    // ---- Phase 1b: optional fault injection ---------------------------
    // Perturb the profiled invariants so the testing corpus provably
    // mis-speculates (tests, CI seed sweeps).  Only the families the
    // OptSlice checker configuration watches are injectable here: lock
    // and spawn invariants are race-detection machinery the slicing
    // checker never arms (guardingLocks/singletonThreads below).
    if (config.faultSeed != 0) {
        dyn::FaultInjectorOptions injectOptions;
        injectOptions.seed = config.faultSeed;
        injectOptions.families = {dyn::ViolationFamily::UnreachableBlock,
                                  dyn::ViolationFamily::CalleeSet,
                                  dyn::ViolationFamily::CallContext};
        const dyn::FaultInjector injector(module, injectOptions);
        result.injectedFaults =
            injector.inject(invariants, workload.testingSet);
    }

    // ---- Phase 2: static analyses --------------------------------------
    // The sound and predicated configurations are independent solves;
    // run them concurrently (results are collected in index order, so
    // the reported picks are thread-count invariant).
    const std::shared_ptr<const ir::Module> moduleSp = workload.module;
    std::vector<PickedAndersen> picks = support::runBatch(
        2,
        [&](std::size_t i) {
            return pickAndersen(moduleSp, i == 0 ? nullptr : &invariants,
                                config);
        },
        config.threads);
    PickedAndersen &soundPts = picks[0];
    PickedAndersen &optPts = picks[1];
    result.soundPts = soundPts.pick;
    result.optPts = optPts.pick;

    // ---- Phase 3: endpoint selection ------------------------------------
    // Rank candidate endpoints by (cheap) CI sound slice size and keep
    // the non-trivial ones (Section 6.1.2).
    std::vector<InstrId> endpoints;
    {
        std::shared_ptr<const analysis::AndersenResult> ciPts;
        const analysis::AndersenResult *rankPts = soundPts.result.get();
        if (soundPts.pick.contextSensitive) {
            // The memo serves the CI pre-pass of the sound CS solve
            // back instead of solving again.
            ciPts = analysis::runAndersenMemo(moduleSp, {});
            rankPts = ciPts.get();
        }
        analysis::SlicerOptions rankOptions;
        rankOptions.maxWork = config.sliceWorkBudget;
        const analysis::StaticSlicer ranker(module, *rankPts,
                                            rankOptions);
        const std::vector<InstrId> outputs = outputInstrs(module);
        const std::vector<std::size_t> sizes = support::runBatch(
            outputs.size(),
            [&](std::size_t i) {
                return ranker.slice(outputs[i]).instructions.size();
            },
            config.threads);
        std::vector<std::pair<std::size_t, InstrId>> candidates;
        for (std::size_t i = 0; i < outputs.size(); ++i)
            candidates.push_back({sizes[i], outputs[i]});
        std::sort(candidates.rbegin(), candidates.rend());
        for (const auto &[size, endpoint] : candidates) {
            if (endpoints.size() >= config.maxEndpoints)
                break;
            if (size >= config.minSliceSize || endpoints.empty())
                endpoints.push_back(endpoint);
        }
    }

    // Per-endpoint static slices with CS -> CI fallback; incomplete
    // slices must never be used as instrumentation plans.
    const std::shared_ptr<const analysis::SliceSetResult> soundSlicesSp =
        computeAllSlices(moduleSp, endpoints, nullptr, config,
                         *soundPts.result,
                         soundPts.pick.contextSensitive);
    const std::shared_ptr<const analysis::SliceSetResult> optSlicesSp =
        computeAllSlices(moduleSp, endpoints, &invariants, config,
                         *optPts.result, optPts.pick.contextSensitive);
    const analysis::SliceSetResult &soundSlices = *soundSlicesSp;
    const analysis::SliceSetResult &optSlices = *optSlicesSp;
    result.soundSlice.contextSensitive = soundSlices.contextSensitive;
    result.optSlice.contextSensitive = optSlices.contextSensitive;
    result.soundSlice.seconds =
        double(soundSlices.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;
    result.optSlice.seconds =
        double(optSlices.workUnits) / cost.staticUnitsPerSecond * cost.offlineScale;

    std::vector<exec::InstrumentationPlan> hybridPlans, optPlans;
    double soundSizeSum = 0, optSizeSum = 0;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
        hybridPlans.push_back(
            soundSlices.complete
                ? dyn::sliceGiriPlan(module, soundSlices.slices[e])
                : dyn::fullGiriPlan(module));
        optPlans.push_back(
            optSlices.complete
                ? dyn::sliceGiriPlan(module, optSlices.slices[e])
                : dyn::fullGiriPlan(module));
        soundSizeSum += double(soundSlices.slices[e].size());
        optSizeSum += double(optSlices.slices[e].size());
    }
    result.endpoints = endpoints.size();
    result.soundSliceSize = soundSizeSum / double(endpoints.size());
    result.optSliceSize = optSizeSum / double(endpoints.size());

    result.soundAliasRate =
        soundPts.result->aliasRate(module, &invariants);
    result.optAliasRate = optPts.result->aliasRate(module, &invariants);

    // ---- Phase 4: dynamic slicing over the testing corpus ---------------
    dyn::CheckerConfig checkerConfig;
    checkerConfig.callContexts = invariants.hasCallContexts;
    checkerConfig.guardingLocks = false;
    checkerConfig.singletonThreads = false;

    // Record-once mode: every testing input executes exactly once.  A
    // cold input runs its first pass live, with the recorder attached;
    // its other passes (further endpoint ranges, later rounds) replay
    // the capture.  The captures are immutable, so those replays run
    // concurrently without synchronization.  With cacheTraceCaptures
    // the captures come from (and feed) the shared cross-request
    // cache, so a warm service request skips even the one execution.
    std::vector<std::shared_ptr<const exec::RecordedTrace>> traces(
        workload.testingSet.size());

    // Every (testing input, endpoint) pair is an independent slicing
    // task, ordered input-major.  The hybrid references do not depend
    // on the speculative plans, so they are evaluated once per task;
    // each reference doubles as the deterministic rollback
    // re-analysis and as the degraded configuration once the circuit
    // breaker trips.
    const std::size_t numEndpoints = endpoints.size();
    const std::size_t tasks = workload.testingSet.size() * numEndpoints;

    // Speculative runs, in adaptive rounds (same repair loop as
    // runOptFt): batch the remaining tasks under the current
    // optimistic plans, scan serially in task order, and at the first
    // rollback demote the lying invariant, re-run the predicated
    // points-to + slicing phase through the memo caches, rebuild the
    // per-endpoint plans, and restart at the following task.  Later
    // same-round evaluations are discarded, so results equal the
    // serial repair loop at any thread count.
    struct OptEval
    {
        GiriRun optimistic;
        bool rolledBack = false;
        bool degraded = false;
        dyn::Violation violation;
    };
    auto judge = [](GiriRun optimistic,
                    const dyn::InvariantChecker &checker) {
        OptEval eval;
        eval.optimistic = std::move(optimistic);
        if (eval.optimistic.violated) {
            eval.rolledBack = true;
            eval.violation = checker.violation();
        }
        return eval;
    };

    // Record-once rounds: one pass per (input, endpoint range) covers
    // the round's tasks [start, tasks).  The range's optimistic
    // slicers form one group sharing one checker — its plan and state
    // depend only on (invariants, checkerConfig), so per-slicer
    // checkers would see identical events and produce identical
    // counts.  With `refsOut` the pass also evaluates the hybrid
    // references of the range as a second group.  Ranges are sized so
    // a pass fits the attachment limit (E = 3 endpoints: 3 hybrid + 3
    // optimistic + 1 checker).  An input's first pass records its
    // capture when it has none yet (analysis on the recording pass);
    // every other pass replays the capture, so it runs after that one.
    auto runRound = [&](std::size_t start, std::vector<GiriRun> *refsOut) {
        const std::size_t perPass =
            refsOut ? (exec::DispatchCore::kMaxAttachments - 1) / 2
                    : exec::DispatchCore::kMaxAttachments - 1;
        struct Pass
        {
            std::size_t input, firstEndpoint, endEndpoint;
        };
        std::vector<Pass> passes;
        for (std::size_t task = start; task < tasks;) {
            const std::size_t input = task / numEndpoints;
            const std::size_t first = task % numEndpoints;
            const std::size_t end =
                std::min(numEndpoints, first + perPass);
            passes.push_back({input, first, end});
            task = input * numEndpoints + end;
        }
        struct PassEval
        {
            std::vector<GiriRun> refs;
            std::vector<OptEval> opts;
        };
        auto evalPass = [&](const Pass &pass, bool record) {
            std::vector<std::vector<SliceTarget>> groups(refsOut ? 2 : 1);
            for (std::size_t e = pass.firstEndpoint; e < pass.endEndpoint;
                 ++e) {
                if (refsOut)
                    groups.front().push_back(
                        {&hybridPlans[e], endpoints[e]});
                groups.back().push_back({&optPlans[e], endpoints[e]});
            }
            dyn::InvariantChecker checker(module, invariants,
                                          checkerConfig);
            std::vector<std::vector<GiriRun>> runs = giriGroups(
                module, groups, &checker,
                [&](const exec::GroupSetup &setup) {
                    if (!record)
                        return exec::replayRun(module, *traces[pass.input],
                                               setup);
                    exec::AnalyzedCapture run = exec::captureAndAnalyze(
                        moduleSp, workload.testingSet[pass.input], setup,
                        config.cacheTraceCaptures);
                    traces[pass.input] = std::move(run.trace);
                    return std::move(run.groups);
                });
            PassEval eval;
            if (refsOut)
                eval.refs = std::move(runs.front());
            for (GiriRun &run : runs.back())
                eval.opts.push_back(judge(std::move(run), checker));
            return eval;
        };
        // Recording passes first, then the replays that read their
        // captures.
        std::vector<std::size_t> recording, replaying;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            const bool firstOfInput =
                p == 0 || passes[p - 1].input != passes[p].input;
            (firstOfInput && !traces[passes[p].input] ? recording
                                                      : replaying)
                .push_back(p);
        }
        std::vector<PassEval> evals(passes.size());
        for (const std::vector<std::size_t> *wave : {&recording, &replaying}) {
            const bool record = wave == &recording;
            std::vector<PassEval> done = support::runBatch(
                wave->size(),
                [&](std::size_t k) {
                    return evalPass(passes[(*wave)[k]], record);
                },
                config.threads);
            for (std::size_t k = 0; k < wave->size(); ++k)
                evals[(*wave)[k]] = std::move(done[k]);
        }
        std::vector<OptEval> round;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            const std::size_t firstTask =
                passes[p].input * numEndpoints + passes[p].firstEndpoint;
            for (std::size_t k = 0; k < evals[p].opts.size(); ++k) {
                if (refsOut)
                    (*refsOut)[firstTask + k] = std::move(evals[p].refs[k]);
                round.push_back(std::move(evals[p].opts[k]));
            }
        }
        return round;
    };

    // In record-once mode the first round's passes evaluate the hybrid
    // references too.
    std::vector<GiriRun> refs(tasks);
    std::vector<OptEval> fusedRound;
    if (config.useTraceReplay) {
        fusedRound = runRound(0, &refs);
    } else {
        refs = support::runBatch(
            tasks,
            [&](std::size_t task) {
                const std::size_t e = task % numEndpoints;
                return runGiri(module,
                               workload.testingSet[task / numEndpoints],
                               hybridPlans[e], endpoints[e]);
            },
            config.threads);
    }

    std::vector<OptEval> opts(tasks);
    const RecoveryBreaker breaker{config.maxRepredications,
                                  config.misspecRateThreshold,
                                  config.minRunsForMisspecRate};
    std::uint64_t rollbacksSeen = 0;
    bool degraded = false;
    std::size_t next = 0;
    while (next < tasks) {
        if (degraded) {
            // Sound fallback: the rest of the corpus runs the hybrid
            // plans (no speculation, no checker).  By determinism that
            // evaluation is identical to the hybrid reference.
            for (std::size_t task = next; task < tasks; ++task) {
                opts[task].optimistic = refs[task];
                opts[task].degraded = true;
            }
            break;
        }
        const std::size_t start = next;
        std::vector<OptEval> round;
        if (!fusedRound.empty()) {
            round.swap(fusedRound); // evaluated with the references
        } else if (config.useTraceReplay) {
            round = runRound(start, nullptr);
        } else {
            round = support::runBatch(
                tasks - start,
                [&](std::size_t k) {
                    const std::size_t task = start + k;
                    const std::size_t e = task % numEndpoints;
                    dyn::InvariantChecker checker(module, invariants,
                                                  checkerConfig);
                    return judge(
                        runGiri(module,
                                workload.testingSet[task / numEndpoints],
                                optPlans[e], endpoints[e], &checker),
                        checker);
                },
                config.threads);
        }

        next = tasks;
        for (std::size_t k = 0; k < round.size(); ++k) {
            const std::size_t task = start + k;
            opts[task] = round[k];
            if (!opts[task].rolledBack)
                continue;
            ++rollbacksSeen;
            if (!config.adaptiveRecovery)
                continue; // historical behavior: plans never change
            const dyn::Violation &violation = opts[task].violation;
            if (breaker.tripped(result.repredications, rollbacksSeen,
                                task + 1)) {
                degraded = true;
                result.circuitBroken = true;
            } else if (!invariants.demote(violation)) {
                // Defensive: an unrepairable violation must degrade
                // rather than spin.
                degraded = true;
                result.circuitBroken = true;
            } else {
                result.demotions.push_back(violation);
                ++result.repredications;
                // Re-predicate points-to and slicing on the repaired
                // invariants; both routes are memoized, so repeated
                // repairs of converging sets are incremental.
                const PickedAndersen repredPts =
                    pickAndersen(moduleSp, &invariants, config);
                const std::shared_ptr<const analysis::SliceSetResult>
                    repredSlices = computeAllSlices(
                        moduleSp, endpoints, &invariants, config,
                        *repredPts.result,
                        repredPts.pick.contextSensitive);
                result.repredStaticSeconds +=
                    repredPts.pick.seconds +
                    double(repredSlices->workUnits) /
                        cost.staticUnitsPerSecond * cost.offlineScale;
                for (std::size_t e = 0; e < endpoints.size(); ++e) {
                    optPlans[e] =
                        repredSlices->complete
                            ? dyn::sliceGiriPlan(module,
                                                 repredSlices->slices[e])
                            : dyn::fullGiriPlan(module);
                }
            }
            next = task + 1; // discard this round's later evaluations
            break;
        }
    }

    // In record-once mode each input's interpreter work happened once,
    // at capture time, regardless of how many endpoint tasks share it.
    if (config.useTraceReplay) {
        for (const auto &trace : traces)
            if (trace) // none when there is no endpoint to slice
                result.interpretedSteps += trace->result.steps;
    }

    // Fold serially in task order, so cost accumulation — including
    // floating-point sums — is identical for any thread count.
    for (std::size_t task = 0; task < tasks; ++task) {
        const GiriRun &hybrid = refs[task];
        const OptEval &opt = opts[task];
        result.hybrid.add(
            priceGiriRun(cost, hybrid.result, hybrid.delivered));

        RunCost optCost = priceGiriRun(cost, opt.optimistic.result,
                                       opt.optimistic.delivered,
                                       &opt.optimistic.checkerDelivered,
                                       opt.optimistic.slowChecks);
        const std::map<InstrId, std::set<InstrId>> &finalSlices =
            opt.rolledBack ? hybrid.slices : opt.optimistic.slices;
        if (opt.rolledBack) {
            ++result.misSpeculations;
            // Roll back: deterministic re-analysis under the sound
            // hybrid plan — identical to the hybrid reference by
            // determinism, so reuse it.
            optCost.rollback =
                priceGiriRun(cost, hybrid.result, hybrid.delivered)
                    .total();
            // Additive metric; hybrid.result is identical in both
            // modes, so it stays parity-comparable.
            result.replayRollbackSeconds +=
                priceTraceReplaySeconds(cost, hybrid.result);
        }
        result.optimistic.add(optCost);

        if (config.useTraceReplay) {
            result.replayedEvents +=
                hybrid.result.totalEvents.total() +
                opt.optimistic.result.totalEvents.total();
        } else {
            result.interpretedSteps += hybrid.result.steps +
                                       opt.optimistic.result.steps;
            if (opt.rolledBack)
                result.interpretedSteps += hybrid.result.steps;
        }

        // Soundness: the recovered optimistic slice must equal the
        // traditional hybrid slice.
        if (finalSlices != hybrid.slices)
            result.sliceResultsMatch = false;
    }

    // One modeled capture per testing input.  The hybrid run's steps
    // and event totals are plan-independent, so this prices the same
    // in either mode (the first endpoint task of each input stands in
    // for the input's execution).
    if (!endpoints.empty()) {
        for (std::size_t i = 0; i < workload.testingSet.size(); ++i) {
            result.recordSeconds += priceTraceRecordSeconds(
                cost, refs[i * endpoints.size()].result);
        }
    }

    result.testRuns = workload.testingSet.size();
    result.baselineSeconds = result.hybrid.base / cost.unitsPerSecond;

    const double normHybrid = result.hybrid.normalized();
    const double normOpt = result.optimistic.normalized();
    if (normOpt > 0)
        result.dynSpeedup = normHybrid / normOpt;

    const double upfrontOpt = result.profileSeconds +
                              result.optPts.seconds +
                              result.optSlice.seconds;
    const double upfrontHybrid =
        result.soundPts.seconds + result.soundSlice.seconds;
    if (normHybrid > normOpt) {
        result.breakEven = std::max(
            0.0, (upfrontOpt - upfrontHybrid) / (normHybrid - normOpt));
    } else {
        result.breakEven = -1.0;
    }

    return result;
}

} // namespace oha::core
