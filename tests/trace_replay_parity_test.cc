/**
 * @file
 * Record-once/analyze-many parity: driving FastTrack, Giri and the
 * invariant checker from a TraceReplayer must be byte-identical to
 * running the same tools on a live Interpreter — race reports, slice
 * sets, delivered-event accounting, step counts, outputs, thread
 * counts and abort semantics — on every workload, including runs the
 * checker aborts mid-execution.  The end-to-end pipelines are then
 * compared field by field between useTraceReplay modes (at 1 and 4
 * worker threads), excluding only the interpretedSteps/replayedEvents
 * counters whose divergence is the optimization itself.
 *
 * Also covers the capture/replay edge cases: recordings truncated by
 * an abort or a step limit, and empty testing sets; plus the OptFT
 * rollback-trigger contract (optFtShouldRollBack).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

std::vector<std::uint64_t>
eventVec(const exec::EventCounts &counts)
{
    return std::vector<std::uint64_t>(std::begin(counts.counts),
                                      std::end(counts.counts));
}

/** Everything observable from one analysis run that must match
 *  between a live interpreter run and a trace replay. */
struct RunSnapshot
{
    int status = 0;
    std::string abortReason;
    std::vector<std::pair<InstrId, std::int64_t>> outputs;
    std::uint64_t steps = 0;
    std::uint32_t numThreads = 0;
    std::vector<std::uint64_t> totalEvents;
    std::vector<std::vector<std::uint64_t>> delivered;
    std::set<std::pair<InstrId, InstrId>> races;
    std::vector<std::pair<InstrId, std::set<InstrId>>> slices;
    bool violated = false;
    std::uint64_t slowChecks = 0;
};

void
fillCommon(RunSnapshot &snap, const exec::RunResult &result)
{
    snap.status = static_cast<int>(result.status);
    snap.abortReason = result.abortReason;
    snap.outputs = result.outputs;
    snap.steps = result.steps;
    snap.numThreads = result.numThreads;
    snap.totalEvents = eventVec(result.totalEvents);
    for (const exec::EventCounts &counts : result.delivered)
        snap.delivered.push_back(eventVec(counts));
}

void
expectEqual(const RunSnapshot &live, const RunSnapshot &replayed,
            const std::string &label)
{
    EXPECT_EQ(live.status, replayed.status) << label;
    EXPECT_EQ(live.abortReason, replayed.abortReason) << label;
    EXPECT_EQ(live.outputs, replayed.outputs) << label;
    EXPECT_EQ(live.steps, replayed.steps) << label;
    EXPECT_EQ(live.numThreads, replayed.numThreads) << label;
    EXPECT_EQ(live.totalEvents, replayed.totalEvents) << label;
    EXPECT_EQ(live.delivered, replayed.delivered) << label;
    EXPECT_EQ(live.races, replayed.races) << label;
    EXPECT_EQ(live.slices, replayed.slices) << label;
    EXPECT_EQ(live.violated, replayed.violated) << label;
    EXPECT_EQ(live.slowChecks, replayed.slowChecks) << label;
}

/** Profile @p inputs and return the merged invariants. */
inv::InvariantSet
profiled(const ir::Module &module,
         const std::vector<exec::ExecConfig> &inputs)
{
    prof::ProfilingCampaign campaign(module, {});
    for (const auto &config : inputs)
        campaign.addRun(config);
    return campaign.invariants();
}

std::vector<InstrId>
outputInstrs(const ir::Module &module)
{
    std::vector<InstrId> out;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Output)
            out.push_back(id);
    return out;
}

/** FastTrack + invariant checker, live or replayed. */
RunSnapshot
ftSnapshot(const ir::Module &module, const inv::InvariantSet &invariants,
           const exec::InstrumentationPlan &plan,
           const exec::ExecConfig *config,
           const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::FastTrack tool;
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    snap.races = tool.racePairs();
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

/** Giri + invariant checker, live or replayed. */
RunSnapshot
giriSnapshot(const ir::Module &module,
             const inv::InvariantSet &invariants,
             const exec::InstrumentationPlan &plan,
             const std::vector<InstrId> &endpoints,
             const exec::ExecConfig *config,
             const exec::RecordedTrace *trace)
{
    RunSnapshot snap;
    dyn::GiriSlicer tool(module);
    dyn::InvariantChecker checker(module, invariants, {});
    exec::RunResult result;
    if (trace) {
        exec::TraceReplayer replayer(module, *trace);
        replayer.attach(&tool, &plan);
        checker.setControl(&replayer);
        replayer.attach(&checker, &checker.plan());
        result = replayer.run();
    } else {
        exec::Interpreter interp(module, *config);
        interp.attach(&tool, &plan);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        result = interp.run();
    }
    fillCommon(snap, result);
    for (InstrId endpoint : endpoints)
        snap.slices.push_back({endpoint, tool.slice(endpoint)});
    snap.violated = checker.violated();
    snap.slowChecks = checker.slowContextChecks();
    return snap;
}

TEST(TraceReplayParity, FastTrackIdenticalOnAllRaceWorkloads)
{
    std::size_t totalRaces = 0;
    std::size_t aborted = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        // Deliberately under-profiled so some testing inputs violate
        // invariants and exercise the abort path of the replayer.
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullFastTrackPlan(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live =
                ftSnapshot(module, invariants, plan, &config, nullptr);
            const RunSnapshot replayed =
                ftSnapshot(module, invariants, plan, nullptr, &trace);
            expectEqual(live, replayed, name);
            totalRaces += live.races.size();
            if (live.violated)
                ++aborted;
        }
    }
    // The comparisons must not be vacuous.
    EXPECT_GT(totalRaces, 0u);
    EXPECT_GT(aborted, 0u)
        << "no under-profiled run aborted; the abort path is untested";
}

TEST(TraceReplayParity, GiriIdenticalOnAllSliceWorkloads)
{
    std::size_t totalSliceInstrs = 0;
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants =
            profiled(module, workload.profilingSet);
        const auto plan = dyn::fullGiriPlan(module);
        const auto endpoints = outputInstrs(module);
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const RunSnapshot live = giriSnapshot(
                module, invariants, plan, endpoints, &config, nullptr);
            const RunSnapshot replayed = giriSnapshot(
                module, invariants, plan, endpoints, nullptr, &trace);
            expectEqual(live, replayed, name);
            for (const auto &[endpoint, slice] : live.slices)
                totalSliceInstrs += slice.size();
        }
    }
    EXPECT_GT(totalSliceInstrs, 0u);
}

TEST(TraceReplayParity, AbortedReplayStopsAtTheLiveBoundary)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});
    const auto plan = dyn::fullFastTrackPlan(module);

    const exec::RecordedTrace trace = exec::recordRun(module, violating);
    // The uninstrumented recording runs to completion...
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Finished);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &violating, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    // ...but the checked replay aborts exactly where the live checked
    // run does: before the cold block's Output executes.
    ASSERT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.status,
              static_cast<int>(exec::RunResult::Status::Aborted));
    EXPECT_TRUE(replayed.outputs.empty());
    EXPECT_LT(replayed.steps, trace.result.steps);
    expectEqual(live, replayed, "aborted LUC run");
}

TEST(TraceReplayEdge, TruncatedRecordingReplaysTheRecordedOutcome)
{
    using namespace ir;
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *done = b.createBlock(main, "done");
    b.condBr(b.input(0), cold, done);
    b.setInsertPoint(cold);
    b.output(b.constInt(13));
    b.br(done);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    exec::ExecConfig trained;
    trained.input = {0};
    exec::ExecConfig violating;
    violating.input = {1};
    const auto invariants = profiled(module, {trained});

    // Record *with* a checker attached, so the recording itself is
    // aborted mid-trace (an invariant violation during capture).
    exec::RecordedTrace trace;
    {
        dyn::InvariantChecker checker(module, invariants, {});
        exec::TraceRecorder recorder;
        exec::Interpreter interp(module, violating);
        interp.setRecorder(&recorder);
        checker.setControl(&interp);
        interp.attach(&checker, &checker.plan());
        trace.result = interp.run();
        trace.events = recorder.take();
        ASSERT_TRUE(checker.violated());
    }
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::Aborted);

    // A full replay of the truncated trace reports the recorded
    // outcome — status, reason, step count — and delivers exactly the
    // events that happened before the abort.
    const auto plan = dyn::fullFastTrackPlan(module);
    dyn::FastTrack tool;
    exec::TraceReplayer replayer(module, trace);
    replayer.attach(&tool, &plan);
    const exec::RunResult result = replayer.run();
    EXPECT_EQ(result.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason, trace.result.abortReason);
    EXPECT_EQ(result.steps, trace.result.steps);
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_EQ(eventVec(result.totalEvents),
              eventVec(trace.result.totalEvents));
}

TEST(TraceReplayEdge, StepLimitTruncationReplaysIdentically)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const auto invariants = profiled(module, workload.profilingSet);
    const auto plan = dyn::fullFastTrackPlan(module);

    exec::ExecConfig limited = workload.testingSet.front();
    limited.maxSteps = 200;

    const exec::RecordedTrace trace = exec::recordRun(module, limited);
    ASSERT_EQ(trace.result.status, exec::RunResult::Status::StepLimit);
    ASSERT_EQ(trace.result.steps, 200u);

    const RunSnapshot live =
        ftSnapshot(module, invariants, plan, &limited, nullptr);
    const RunSnapshot replayed =
        ftSnapshot(module, invariants, plan, nullptr, &trace);
    expectEqual(live, replayed, "step-limited run");
}

TEST(TraceReplayEdge, EmptyTestingSetsAreHandled)
{
    auto race = workloads::makeRaceWorkload("raytracer", 2, 2);
    race.testingSet.clear();
    for (const bool replay : {false, true}) {
        core::OptFtConfig config;
        config.useTraceReplay = replay;
        const auto result = core::runOptFt(race, config);
        EXPECT_EQ(result.testRuns, 0u);
        EXPECT_EQ(result.misSpeculations, 0u);
        EXPECT_EQ(result.interpretedSteps, 0u);
        EXPECT_EQ(result.replayedEvents, 0u);
        EXPECT_EQ(result.recordSeconds, 0.0);
        EXPECT_TRUE(result.raceReportsMatch);
    }

    auto slice = workloads::makeSliceWorkload("zlib", 2, 2);
    slice.testingSet.clear();
    for (const bool replay : {false, true}) {
        core::OptSliceConfig config;
        config.useTraceReplay = replay;
        const auto result = core::runOptSlice(slice, config);
        EXPECT_EQ(result.testRuns, 0u);
        EXPECT_EQ(result.misSpeculations, 0u);
        EXPECT_EQ(result.interpretedSteps, 0u);
        EXPECT_EQ(result.recordSeconds, 0.0);
        EXPECT_TRUE(result.sliceResultsMatch);
    }
}

TEST(OptFtRollback, TriggerTruthTable)
{
    // An invariant violation always rolls back.
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, false));
    EXPECT_TRUE(core::optFtShouldRollBack(true, false, true));
    EXPECT_TRUE(core::optFtShouldRollBack(true, true, true));
    // A race report forces rollback only under active lock elision —
    // and then globally, regardless of which pair raced (Figure 4:
    // the lost happens-before edge can order unrelated accesses).
    EXPECT_TRUE(core::optFtShouldRollBack(false, true, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, true, false));
    // No violation and no race: speculation succeeded.
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, true));
    EXPECT_FALSE(core::optFtShouldRollBack(false, false, false));
}

void
expectEqual(const core::RunCost &a, const core::RunCost &b,
            const std::string &label)
{
    EXPECT_EQ(a.base, b.base) << label;
    EXPECT_EQ(a.framework, b.framework) << label;
    EXPECT_EQ(a.analysis, b.analysis) << label;
    EXPECT_EQ(a.invariants, b.invariants) << label;
    EXPECT_EQ(a.rollback, b.rollback) << label;
}

/** Field-by-field OptFtResult equality, excluding interpretedSteps /
 *  replayedEvents (their divergence is the optimization). */
void
expectEqual(const core::OptFtResult &a, const core::OptFtResult &b,
            const std::string &label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.staticallyRaceFree, b.staticallyRaceFree) << label;
    EXPECT_EQ(a.soundStaticSeconds, b.soundStaticSeconds) << label;
    EXPECT_EQ(a.predStaticSeconds, b.predStaticSeconds) << label;
    EXPECT_EQ(a.profileSeconds, b.profileSeconds) << label;
    EXPECT_EQ(a.profileRunsUsed, b.profileRunsUsed) << label;
    EXPECT_EQ(a.testRuns, b.testRuns) << label;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << label;
    expectEqual(a.fastTrack, b.fastTrack, label + " fastTrack");
    expectEqual(a.hybridFt, b.hybridFt, label + " hybridFt");
    expectEqual(a.optFt, b.optFt, label + " optFt");
    EXPECT_EQ(a.misSpeculations, b.misSpeculations) << label;
    EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch) << label;
    EXPECT_EQ(a.racesObserved, b.racesObserved) << label;
    EXPECT_EQ(a.soundRacyAccesses, b.soundRacyAccesses) << label;
    EXPECT_EQ(a.predRacyAccesses, b.predRacyAccesses) << label;
    EXPECT_EQ(a.elidedLockSites, b.elidedLockSites) << label;
    EXPECT_EQ(a.speedupVsFastTrack, b.speedupVsFastTrack) << label;
    EXPECT_EQ(a.speedupVsHybrid, b.speedupVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsHybrid, b.breakEvenVsHybrid) << label;
    EXPECT_EQ(a.breakEvenVsFastTrack, b.breakEvenVsFastTrack) << label;
    EXPECT_EQ(a.recordSeconds, b.recordSeconds) << label;
    EXPECT_EQ(a.replayRollbackSeconds, b.replayRollbackSeconds) << label;
}

/** Same for OptSliceResult. */
void
expectEqual(const core::OptSliceResult &a, const core::OptSliceResult &b,
            const std::string &label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.profileSeconds, b.profileSeconds) << label;
    EXPECT_EQ(a.profileRunsUsed, b.profileRunsUsed) << label;
    EXPECT_EQ(a.endpoints, b.endpoints) << label;
    EXPECT_EQ(a.testRuns, b.testRuns) << label;
    EXPECT_EQ(a.baselineSeconds, b.baselineSeconds) << label;
    expectEqual(a.hybrid, b.hybrid, label + " hybrid");
    expectEqual(a.optimistic, b.optimistic, label + " optimistic");
    EXPECT_EQ(a.misSpeculations, b.misSpeculations) << label;
    EXPECT_EQ(a.sliceResultsMatch, b.sliceResultsMatch) << label;
    EXPECT_EQ(a.soundSliceSize, b.soundSliceSize) << label;
    EXPECT_EQ(a.optSliceSize, b.optSliceSize) << label;
    EXPECT_EQ(a.dynSpeedup, b.dynSpeedup) << label;
    EXPECT_EQ(a.breakEven, b.breakEven) << label;
    EXPECT_EQ(a.recordSeconds, b.recordSeconds) << label;
    EXPECT_EQ(a.replayRollbackSeconds, b.replayRollbackSeconds) << label;
}

TEST(PipelineParity, OptFtReplayMatchesDirectAt1And4Threads)
{
    for (const char *name : {"raytracer", "pmd"}) {
        const auto workload = workloads::makeRaceWorkload(name, 8, 4);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            core::OptFtConfig direct;
            direct.useTraceReplay = false;
            direct.threads = threads;
            core::OptFtConfig replay;
            replay.useTraceReplay = true;
            replay.threads = threads;

            const auto a = core::runOptFt(workload, direct);
            const auto b = core::runOptFt(workload, replay);
            const std::string label = std::string(name) + " @" +
                                      std::to_string(threads) + "t";
            expectEqual(a, b, label);
            // The whole point: the direct path interprets every input
            // at least three times (full/hybrid/optimistic), replay
            // interprets it once.
            EXPECT_GE(a.interpretedSteps, 2 * b.interpretedSteps)
                << label;
            EXPECT_EQ(b.replayedEvents > 0, b.testRuns > 0) << label;
            EXPECT_EQ(a.replayedEvents, 0u) << label;
        }
    }
}

TEST(PipelineParity, OptSliceReplayMatchesDirectAt1And4Threads)
{
    // zlib: the clean fast path.  go: under-profiled, so replayed
    // runs abort and roll back (the replay-based rollback path).
    for (const char *name : {"zlib", "go"}) {
        const auto workload = workloads::makeSliceWorkload(name, 4, 6);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            core::OptSliceConfig direct;
            direct.useTraceReplay = false;
            direct.threads = threads;
            core::OptSliceConfig replay;
            replay.useTraceReplay = true;
            replay.threads = threads;

            const auto a = core::runOptSlice(workload, direct);
            const auto b = core::runOptSlice(workload, replay);
            const std::string label = std::string(name) + " @" +
                                      std::to_string(threads) + "t";
            expectEqual(a, b, label);
            EXPECT_GE(a.interpretedSteps, 2 * b.interpretedSteps)
                << label;
        }
    }
}

} // namespace
} // namespace oha
