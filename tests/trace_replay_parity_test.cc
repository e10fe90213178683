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
 *
 * ReplayGroups: one decode pass driving several configuration groups
 * must equal solo replays of each group, field by field — including
 * groups that abort mid-stream, during the final instruction, or all
 * at once — and the pipelines must decode each capture once per
 * round.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race_detector.h"
#include "core/optft.h"
#include "core/optslice.h"
#include "dyn/fasttrack.h"
#include "dyn/fault_injector.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "program_gen.h"
#include "service/shared_cache.h"
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

TEST(TraceReplayEdge, AbortDuringRecordingKeepsTheCaptureComplete)
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

    // Record *with* a checker attached, on the recording pass: the
    // violation stops the checker's group only, and the recording runs
    // to the end, so the capture stays complete for every later
    // consumer.
    dyn::InvariantChecker checker(module, invariants, {});
    std::vector<exec::RunResult> groups;
    const exec::RecordedTrace trace = exec::recordRun(
        module, violating, {},
        [&](exec::DispatchCore &source) {
            checker.setControl(&source.control(0));
            source.attach(&checker, &checker.plan());
        },
        groups);
    ASSERT_TRUE(checker.violated());
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].status, exec::RunResult::Status::Aborted);
    EXPECT_TRUE(groups[0].outputs.empty());

    // The capture is the uninstrumented run's, byte for byte.
    const exec::RecordedTrace plain = exec::recordRun(module, violating);
    EXPECT_EQ(trace.result.status, exec::RunResult::Status::Finished);
    EXPECT_EQ(trace.result.steps, plain.result.steps);
    EXPECT_EQ(trace.result.outputs, plain.result.outputs);
    EXPECT_EQ(trace.result.outputs.size(), 2u);
    EXPECT_EQ(eventVec(trace.result.totalEvents),
              eventVec(plain.result.totalEvents));
    EXPECT_EQ(trace.events.sizeBytes(), plain.events.sizeBytes());

    // A replay of the complete capture under the same checker stops
    // exactly where the live group did.
    dyn::InvariantChecker again(module, invariants, {});
    exec::TraceReplayer replayer(module, trace);
    again.setControl(&replayer);
    replayer.attach(&again, &again.plan());
    const exec::RunResult replayed = replayer.run();
    EXPECT_EQ(replayed.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(replayed.abortReason, groups[0].abortReason);
    EXPECT_EQ(replayed.abortMeta, groups[0].abortMeta);
    EXPECT_EQ(replayed.steps, groups[0].steps);
    EXPECT_LT(replayed.steps, trace.result.steps);
    EXPECT_TRUE(replayed.outputs.empty());
    EXPECT_EQ(eventVec(replayed.totalEvents),
              eventVec(groups[0].totalEvents));
    ASSERT_EQ(replayed.delivered.size(), 1u);
    EXPECT_EQ(eventVec(replayed.delivered[0]),
              eventVec(groups[0].delivered[0]));
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

// ------------------------------------------------------------ groups

/** Aborts its group at the k-th delivered event (events and block
 *  entries, 1-based; 0 = never) and logs the thread callbacks it
 *  receives. */
class AbortAtTool : public exec::Tool
{
  public:
    explicit AbortAtTool(std::uint64_t k) : k_(k) {}

    void setControl(exec::ExecutionControl *control) { control_ = control; }

    void onEvent(const exec::EventCtx &) override { tick(); }
    void onBlockEnter(ThreadId, BlockId) override { tick(); }

    void
    onThreadStart(ThreadId tid, ThreadId, InstrId) override
    {
        threadLog.push_back({tid, true});
    }

    void
    onThreadFinish(ThreadId tid) override
    {
        threadLog.push_back({tid, false});
    }

    /** (tid, started?) per thread callback, in delivery order. */
    std::vector<std::pair<ThreadId, bool>> threadLog;

  private:
    void
    tick()
    {
        if (++seen_ == k_) {
            exec::AbortMetadata meta;
            meta.kind = 7;
            meta.site = k_;
            control_->requestAbort("abort at " + std::to_string(k_), meta);
        }
    }

    std::uint64_t k_;
    std::uint64_t seen_ = 0;
    exec::ExecutionControl *control_ = nullptr;
};

/** One replay group: FastTrack or Giri tools (one per plan), plus an
 *  optional shared invariant checker and an optional AbortAtTool. */
struct GroupSpec
{
    bool giri = false;
    std::vector<const exec::InstrumentationPlan *> plans = {};
    std::vector<InstrId> endpoints = {}; ///< sliced by every Giri tool
    const inv::InvariantSet *checkerInvariants = nullptr;
    std::uint64_t abortAt = 0; ///< 0 = no AbortAtTool
};

/** Everything observable from one group of a replay pass. */
struct GroupSnapshot
{
    RunSnapshot run; ///< RunResult fields + checker outcome
    exec::AbortMetadata abortMeta;
    std::vector<std::set<std::pair<InstrId, InstrId>>> races;
    std::vector<std::vector<std::set<InstrId>>> slices;
    std::vector<std::pair<ThreadId, bool>> threadLog;
};

void
expectEqual(const GroupSnapshot &solo, const GroupSnapshot &grouped,
            const std::string &label)
{
    expectEqual(solo.run, grouped.run, label);
    EXPECT_EQ(solo.abortMeta, grouped.abortMeta) << label;
    EXPECT_EQ(solo.races, grouped.races) << label;
    EXPECT_EQ(solo.slices, grouped.slices) << label;
    EXPECT_EQ(solo.threadLog, grouped.threadLog) << label;
}

/** Run one pass with every spec of @p specs as one group; @p pass
 *  attaches the groups to an event source and runs it. */
std::vector<GroupSnapshot>
specGroups(const ir::Module &module, const std::vector<GroupSpec> &specs,
           const std::function<std::vector<exec::RunResult>(
               const exec::GroupSetup &)> &pass)
{
    const auto allPlan = exec::InstrumentationPlan::all(module);
    std::vector<std::vector<std::unique_ptr<dyn::FastTrack>>> fts(
        specs.size());
    std::vector<std::vector<std::unique_ptr<dyn::GiriSlicer>>> giris(
        specs.size());
    std::vector<std::unique_ptr<dyn::InvariantChecker>> checkers(
        specs.size());
    std::vector<std::unique_ptr<AbortAtTool>> aborters(specs.size());

    auto setup = [&](exec::DispatchCore &source) {
        for (std::size_t g = 0; g < specs.size(); ++g) {
            const GroupSpec &spec = specs[g];
            if (g > 0) {
                EXPECT_EQ(source.addGroup(), g);
            }
            for (const exec::InstrumentationPlan *plan : spec.plans) {
                if (spec.giri) {
                    giris[g].push_back(
                        std::make_unique<dyn::GiriSlicer>(module));
                    source.attach(giris[g].back().get(), plan);
                } else {
                    fts[g].push_back(std::make_unique<dyn::FastTrack>());
                    source.attach(fts[g].back().get(), plan);
                }
            }
            if (spec.checkerInvariants) {
                checkers[g] = std::make_unique<dyn::InvariantChecker>(
                    module, *spec.checkerInvariants, dyn::CheckerConfig{});
                checkers[g]->setControl(&source.control(g));
                source.attach(checkers[g].get(), &checkers[g]->plan());
            }
            if (spec.abortAt) {
                aborters[g] = std::make_unique<AbortAtTool>(spec.abortAt);
                aborters[g]->setControl(&source.control(g));
                source.attach(aborters[g].get(), &allPlan);
            }
        }
    };
    const std::vector<exec::RunResult> results = pass(setup);
    EXPECT_EQ(results.size(), specs.size());

    std::vector<GroupSnapshot> out(specs.size());
    for (std::size_t g = 0; g < specs.size(); ++g) {
        GroupSnapshot &snap = out[g];
        fillCommon(snap.run, results[g]);
        snap.abortMeta = results[g].abortMeta;
        for (const auto &ft : fts[g])
            snap.races.push_back(ft->racePairs());
        for (const auto &giri : giris[g]) {
            snap.slices.emplace_back();
            for (InstrId endpoint : specs[g].endpoints)
                snap.slices.back().push_back(giri->slice(endpoint));
        }
        if (checkers[g]) {
            snap.run.violated = checkers[g]->violated();
            snap.run.slowChecks = checkers[g]->slowContextChecks();
        }
        if (aborters[g])
            snap.threadLog = aborters[g]->threadLog;
    }
    return out;
}

/** Replay @p trace once with every spec of @p specs as one group. */
std::vector<GroupSnapshot>
replayGroups(const ir::Module &module, const exec::RecordedTrace &trace,
             const std::vector<GroupSpec> &specs)
{
    return specGroups(module, specs, [&](const exec::GroupSetup &setup) {
        return exec::replayRun(module, trace, setup);
    });
}

/** Record @p config into @p trace with every spec of @p specs as one
 *  group on the recording pass. */
std::vector<GroupSnapshot>
recordGroups(const ir::Module &module, const exec::ExecConfig &config,
             const exec::TraceStoreOptions &options,
             const std::vector<GroupSpec> &specs,
             exec::RecordedTrace &trace)
{
    return specGroups(module, specs, [&](const exec::GroupSetup &setup) {
        std::vector<exec::RunResult> groups;
        trace = exec::recordRun(module, config, options, setup, groups);
        return groups;
    });
}

/** Analyse @p config on its recording pass under @p specs, and expect
 *  (a) the capture to equal a plain recording's, (b) no replay pass,
 *  and (c) every group to equal a replay of the capture under the same
 *  specs.  Returns the recording pass's snapshots. */
std::vector<GroupSnapshot>
expectRecordingPassMatchesReplay(const ir::Module &module,
                                 const exec::ExecConfig &config,
                                 const exec::TraceStoreOptions &options,
                                 const std::vector<GroupSpec> &specs,
                                 const std::string &label)
{
    exec::RecordedTrace trace;
    const std::uint64_t passesBefore = exec::testing::replayPassesNow();
    const std::vector<GroupSnapshot> live =
        recordGroups(module, config, options, specs, trace);
    EXPECT_EQ(exec::testing::replayPassesNow(), passesBefore) << label;

    const exec::RecordedTrace plain =
        exec::recordRun(module, config, options);
    RunSnapshot a, b;
    fillCommon(a, trace.result);
    fillCommon(b, plain.result);
    expectEqual(b, a, label + " capture");
    EXPECT_EQ(trace.events.sizeBytes(), plain.events.sizeBytes()) << label;
    EXPECT_EQ(trace.events.numSegments(), plain.events.numSegments())
        << label;

    const std::vector<GroupSnapshot> replayed =
        replayGroups(module, trace, specs);
    EXPECT_EQ(live.size(), replayed.size()) << label;
    for (std::size_t g = 0; g < std::min(live.size(), replayed.size()); ++g)
        expectEqual(replayed[g], live[g],
                    label + " group " + std::to_string(g));
    return live;
}

/** Replay @p specs grouped and each spec solo; expect every group to
 *  equal its solo replay.  Returns the grouped snapshots. */
std::vector<GroupSnapshot>
expectGroupsMatchSolo(const ir::Module &module,
                      const exec::RecordedTrace &trace,
                      const std::vector<GroupSpec> &specs,
                      const std::string &label)
{
    const std::uint64_t passesBefore = exec::testing::replayPassesNow();
    std::vector<GroupSnapshot> grouped =
        replayGroups(module, trace, specs);
    EXPECT_EQ(exec::testing::replayPassesNow(), passesBefore + 1) << label;
    for (std::size_t g = 0; g < specs.size(); ++g) {
        const GroupSnapshot solo =
            replayGroups(module, trace, {specs[g]}).front();
        expectEqual(solo, grouped[g],
                    label + " group " + std::to_string(g));
    }
    return grouped;
}

/** Events an AbortAtTool under the all-plan would see in a full
 *  replay of @p trace. */
std::uint64_t
allPlanEvents(const ir::Module &module, const exec::RecordedTrace &trace)
{
    const GroupSnapshot full =
        replayGroups(module, trace, {GroupSpec{}})
            .front();
    std::uint64_t events = 0;
    for (std::uint64_t count : full.run.totalEvents)
        events += count;
    return events;
}

TEST(ReplayGroups, RaceWorkloadsMatchSoloReplays)
{
    std::size_t aborted = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants = profiled(module, workload.profilingSet);
        const auto sound = analysis::runStaticRaceDetector(module, nullptr);
        const auto predicated =
            analysis::runStaticRaceDetector(module, &invariants);
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto hybridPlan =
            dyn::hybridFastTrackPlan(module, sound.racyAccesses);
        const auto optPlan = dyn::optimisticFastTrackPlan(
            module, predicated.racyAccesses, invariants);
        // The OptFT pass shape: full, hybrid, optimistic + checker.
        const std::vector<GroupSpec> specs = {
            {.plans = {&fullPlan}},
            {.plans = {&hybridPlan}},
            {.plans = {&optPlan}, .checkerInvariants = &invariants},
        };
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const auto grouped =
                expectGroupsMatchSolo(module, trace, specs, name);
            aborted += grouped[2].run.violated;
        }
    }
    EXPECT_GT(aborted, 0u) << "no checker aborted; grouped aborts untested";
}

TEST(ReplayGroups, SliceWorkloadsMatchSoloReplays)
{
    std::size_t aborted = 0;
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants = profiled(module, workload.profilingSet);
        const auto plan = dyn::fullGiriPlan(module);
        std::vector<InstrId> endpoints = outputInstrs(module);
        endpoints.resize(std::min<std::size_t>(endpoints.size(), 3));
        // The OptSlice pass shape: a group of hybrid slicers, then a
        // group of optimistic slicers sharing one checker.
        const std::vector<GroupSpec> specs = {
            {.giri = true,
             .plans = {&plan, &plan, &plan},
             .endpoints = endpoints},
            {.giri = true,
             .plans = {&plan, &plan, &plan},
             .endpoints = endpoints,
             .checkerInvariants = &invariants},
        };
        for (const exec::ExecConfig &config : workload.testingSet) {
            const exec::RecordedTrace trace =
                exec::recordRun(module, config);
            const auto grouped =
                expectGroupsMatchSolo(module, trace, specs, name);
            aborted += grouped[1].run.violated;
        }
    }
    EXPECT_GT(aborted, 0u) << "no checker aborted; grouped aborts untested";
}

TEST(ReplayGroups, RandomProgramsMatchSoloReplays)
{
    std::size_t midStreamAborts = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        testing_support::ProgramGen gen(seed * 104729 + 11);
        const auto module = gen.generate(/*multithreaded=*/seed % 2 == 0);
        exec::ExecConfig config;
        config.input = {3, 1, 4, 1, 5, 9, 2, 6};
        config.scheduleSeed = seed;
        exec::ExecConfig training;
        training.input = {0, 0, 0, 0, 0, 0, 0, 0};
        training.scheduleSeed = seed;
        const auto invariants = profiled(*module, {training});
        const auto ftPlan = dyn::fullFastTrackPlan(*module);
        const auto giriPlan = dyn::fullGiriPlan(*module);
        const std::vector<InstrId> endpoints = outputInstrs(*module);

        const exec::RecordedTrace trace = exec::recordRun(*module, config);
        const std::uint64_t events = allPlanEvents(*module, trace);
        const std::string label = "seed " + std::to_string(seed);
        const std::vector<GroupSpec> specs = {
            {.plans = {&ftPlan}},
            {.giri = true, .plans = {&giriPlan}, .endpoints = endpoints},
            {.plans = {&ftPlan}, .checkerInvariants = &invariants},
            {.giri = true,
             .plans = {&giriPlan},
             .endpoints = endpoints,
             .abortAt = 1 + seed % events},
        };
        const auto grouped =
            expectGroupsMatchSolo(*module, trace, specs, label);
        EXPECT_EQ(grouped[0].run.status,
                  static_cast<int>(exec::RunResult::Status::Finished))
            << label;
        midStreamAborts += grouped[3].run.steps < trace.result.steps;
    }
    EXPECT_GT(midStreamAborts, 0u);
}

TEST(ReplayGroups, RecordingPassMatchesReplay)
{
    // Analysis on the recording pass: the pipelines' pass shapes on
    // every race and slice workload (checker aborts included), spilled
    // into several segments, and random programs with a group aborting
    // mid-stream.
    exec::TraceStoreOptions spill;
    spill.segmentBytes = 4096;
    std::size_t aborted = 0;
    for (const auto &name : workloads::raceWorkloadNames()) {
        const auto workload = workloads::makeRaceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants = profiled(module, workload.profilingSet);
        const auto sound = analysis::runStaticRaceDetector(module, nullptr);
        const auto predicated =
            analysis::runStaticRaceDetector(module, &invariants);
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto hybridPlan =
            dyn::hybridFastTrackPlan(module, sound.racyAccesses);
        const auto optPlan = dyn::optimisticFastTrackPlan(
            module, predicated.racyAccesses, invariants);
        const std::vector<GroupSpec> specs = {
            {.plans = {&fullPlan}},
            {.plans = {&hybridPlan}},
            {.plans = {&optPlan}, .checkerInvariants = &invariants},
        };
        for (const exec::ExecConfig &config : workload.testingSet) {
            aborted += expectRecordingPassMatchesReplay(module, config,
                                                        spill, specs, name)
                           .back()
                           .run.violated;
        }
    }
    for (const auto &name : workloads::sliceWorkloadNames()) {
        const auto workload = workloads::makeSliceWorkload(name, 2, 3);
        const ir::Module &module = *workload.module;
        const auto invariants = profiled(module, workload.profilingSet);
        const auto plan = dyn::fullGiriPlan(module);
        std::vector<InstrId> endpoints = outputInstrs(module);
        endpoints.resize(std::min<std::size_t>(endpoints.size(), 3));
        const std::vector<GroupSpec> specs = {
            {.giri = true, .plans = {&plan, &plan}, .endpoints = endpoints},
            {.giri = true,
             .plans = {&plan, &plan},
             .endpoints = endpoints,
             .checkerInvariants = &invariants},
        };
        for (const exec::ExecConfig &config : workload.testingSet) {
            aborted += expectRecordingPassMatchesReplay(module, config, {},
                                                        specs, name)
                           .back()
                           .run.violated;
        }
    }
    EXPECT_GT(aborted, 0u) << "no checker aborted on a recording pass";

    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        testing_support::ProgramGen gen(seed * 7919 + 3);
        const auto module = gen.generate(/*multithreaded=*/seed % 2 == 1);
        exec::ExecConfig config;
        config.input = {2, 7, 1, 8, 2, 8, 1, 8};
        config.scheduleSeed = seed;
        const exec::RecordedTrace plain = exec::recordRun(*module, config);
        const std::uint64_t events = allPlanEvents(*module, plain);
        const auto ftPlan = dyn::fullFastTrackPlan(*module);
        const auto giriPlan = dyn::fullGiriPlan(*module);
        const std::vector<GroupSpec> specs = {
            {.plans = {&ftPlan}, .abortAt = 1 + seed % events},
            {.giri = true,
             .plans = {&giriPlan},
             .endpoints = outputInstrs(*module)},
            {.plans = {&ftPlan}, .abortAt = events},
        };
        expectRecordingPassMatchesReplay(*module, config, {}, specs,
                                         "seed " + std::to_string(seed));
    }
}

TEST(ReplayGroups, OneGroupAbortsMidStreamOthersRunToTheEnd)
{
    const auto workload = workloads::makeRaceWorkload("sunflow", 1, 1);
    const ir::Module &module = *workload.module;
    const auto plan = dyn::fullFastTrackPlan(module);
    const exec::RecordedTrace trace =
        exec::recordRun(module, workload.testingSet.front());
    const std::uint64_t events = allPlanEvents(module, trace);

    const auto grouped = expectGroupsMatchSolo(
        module, trace,
        {{.plans = {&plan}},
         {.plans = {&plan}, .abortAt = events / 2},
         {.plans = {&plan}}},
        "mid-stream abort");
    EXPECT_EQ(grouped[1].run.status,
              static_cast<int>(exec::RunResult::Status::Aborted));
    EXPECT_EQ(grouped[1].abortMeta.site, events / 2);
    EXPECT_LT(grouped[1].run.steps, trace.result.steps);
    for (const std::size_t g : {0u, 2u}) {
        EXPECT_EQ(grouped[g].run.status,
                  static_cast<int>(trace.result.status));
        EXPECT_EQ(grouped[g].run.steps, trace.result.steps);
        EXPECT_EQ(grouped[g].races, grouped[0].races);
    }
}

TEST(ReplayGroups, AbortDuringTheFinalInstruction)
{
    const auto workload = workloads::makeRaceWorkload("raytracer", 1, 1);
    const ir::Module &module = *workload.module;
    const exec::ExecConfig &input = workload.testingSet.front();
    const auto plan = dyn::fullFastTrackPlan(module);
    const exec::RecordedTrace trace = exec::recordRun(module, input);
    const std::uint64_t events = allPlanEvents(module, trace);

    // The last delivered event belongs to the final instruction: the
    // abort takes effect after the last step flag.
    const auto grouped = expectGroupsMatchSolo(
        module, trace,
        {{.plans = {&plan}}, {.plans = {&plan}, .abortAt = events}},
        "final-instruction abort");
    EXPECT_EQ(grouped[1].run.status,
              static_cast<int>(exec::RunResult::Status::Aborted));
    EXPECT_EQ(grouped[1].run.steps, trace.result.steps);
    EXPECT_EQ(grouped[0].run.status,
              static_cast<int>(exec::RunResult::Status::Finished));

    // And it is the live run's outcome.
    const auto allPlan = exec::InstrumentationPlan::all(module);
    dyn::FastTrack tool;
    AbortAtTool aborter(events);
    exec::Interpreter interp(module, input);
    interp.attach(&tool, &plan);
    aborter.setControl(&interp);
    interp.attach(&aborter, &allPlan);
    const exec::RunResult live = interp.run();
    EXPECT_EQ(live.status, exec::RunResult::Status::Aborted);
    EXPECT_EQ(live.steps, grouped[1].run.steps);
    EXPECT_EQ(live.outputs, grouped[1].run.outputs);
    EXPECT_EQ(eventVec(live.totalEvents), grouped[1].run.totalEvents);
    EXPECT_EQ(tool.racePairs(), grouped[1].races.front());
}

TEST(ReplayGroups, EveryGroupAbortsAndThePassEndsEarly)
{
    const auto workload = workloads::makeSliceWorkload("zlib", 1, 1);
    const ir::Module &module = *workload.module;
    const auto plan = dyn::fullGiriPlan(module);
    const std::vector<InstrId> endpoints = outputInstrs(module);
    // Spill into several segments so ending early skips whole ones.
    exec::TraceStoreOptions options;
    options.segmentBytes = 4096;
    const exec::RecordedTrace trace =
        exec::recordRun(module, workload.testingSet.front(), options);
    ASSERT_GT(trace.events.numSegments(), 2u);
    const std::uint64_t events = allPlanEvents(module, trace);

    const auto grouped = expectGroupsMatchSolo(
        module, trace,
        {{.giri = true,
          .plans = {&plan},
          .endpoints = endpoints,
          .abortAt = events / 8},
         {.giri = true,
          .plans = {&plan},
          .endpoints = endpoints,
          .abortAt = events / 4},
         {.giri = true,
          .plans = {&plan},
          .endpoints = endpoints,
          .abortAt = events / 3}},
        "all groups abort");
    std::uint64_t lastSteps = 0;
    for (const GroupSnapshot &snap : grouped) {
        EXPECT_EQ(snap.run.status,
                  static_cast<int>(exec::RunResult::Status::Aborted));
        EXPECT_GT(snap.run.steps, lastSteps);
        lastSteps = snap.run.steps;
    }
    EXPECT_LT(lastSteps, trace.result.steps);
}

TEST(ReplayGroups, StoppedGroupGetsNoThreadCallbacks)
{
    // Abort one group at its first event: every thread of this
    // multithreaded workload starts later, so the stopped group must
    // see main's start only, while a running group sees them all.
    const auto workload = workloads::makeRaceWorkload("moldyn", 1, 1);
    const ir::Module &module = *workload.module;
    const exec::RecordedTrace trace =
        exec::recordRun(module, workload.testingSet.front());
    ASSERT_GT(trace.result.numThreads, 1u);
    const std::uint64_t events = allPlanEvents(module, trace);

    const auto grouped = expectGroupsMatchSolo(
        module, trace,
        {{.abortAt = 1}, {.abortAt = events + 1}},
        "thread callbacks");
    EXPECT_EQ(grouped[0].threadLog,
              (std::vector<std::pair<ThreadId, bool>>{{0, true}}));
    EXPECT_EQ(grouped[1].run.status,
              static_cast<int>(exec::RunResult::Status::Finished));
    EXPECT_EQ(grouped[1].threadLog.size(),
              2 * std::size_t{trace.result.numThreads});
}

TEST(ReplayGroups, PipelinesDecodeEachCaptureOncePerRound)
{
    // Rollback-free runs.  Cold, every input is analysed on its
    // recording pass: OptFT runs full, hybrid and optimistic FastTrack
    // live next to the recorder, OptSlice the hybrid references with
    // the first (only) optimistic round, so no capture is decoded at
    // all.  Warm, the captures come from the shared cache and each is
    // decoded exactly once.  Calibration is off so its replays of
    // profiling captures do not count.
    service::SharedCache::instance().reset();
    const auto race = workloads::makeRaceWorkload("raytracer", 16, 4);
    core::OptFtConfig ftConfig;
    ftConfig.customSyncCalibrationRuns = 0;
    std::uint64_t before = exec::testing::replayPassesNow();
    const auto ft = core::runOptFt(race, ftConfig);
    ASSERT_EQ(ft.misSpeculations, 0u);
    EXPECT_EQ(exec::testing::replayPassesNow() - before, 0u);
    before = exec::testing::replayPassesNow();
    const auto ftWarm = core::runOptFt(race, ftConfig);
    EXPECT_EQ(exec::testing::replayPassesNow() - before, ft.testRuns);
    expectEqual(ft, ftWarm, "raytracer cold vs warm");

    const auto slice = workloads::makeSliceWorkload("zlib", 16, 4);
    before = exec::testing::replayPassesNow();
    const auto sliced = core::runOptSlice(slice, core::OptSliceConfig{});
    ASSERT_EQ(sliced.misSpeculations, 0u);
    ASSERT_LE(sliced.endpoints, 3u);
    EXPECT_EQ(exec::testing::replayPassesNow() - before, 0u);
    before = exec::testing::replayPassesNow();
    const auto slicedWarm =
        core::runOptSlice(slice, core::OptSliceConfig{});
    EXPECT_EQ(exec::testing::replayPassesNow() - before, sliced.testRuns);
    expectEqual(sliced, slicedWarm, "zlib cold vs warm");
}

TEST(ReplayGroups, ManyEndpointsSpanSeveralPassesPerInput)
{
    // With maxEndpoints = 5, nginx gets all four of its endpoints:
    // 4 hybrid + 4 optimistic slicers + a checker exceed one pass's
    // attachments, so each input takes two passes in the first round:
    // the recording pass, and one replay of the capture.  redis
    // mis-speculates, so later rounds restart mid-input.  Both must
    // equal the live pipeline.
    for (const char *name : {"nginx", "redis"}) {
        const auto workload = workloads::makeSliceWorkload(name, 4, 6);
        core::OptSliceConfig live;
        live.useTraceReplay = false;
        live.maxEndpoints = 5;
        live.minSliceSize = 0;
        core::OptSliceConfig replay = live;
        replay.useTraceReplay = true;

        const auto a = core::runOptSlice(workload, live);
        const std::uint64_t before = exec::testing::replayPassesNow();
        const auto b = core::runOptSlice(workload, replay);
        const std::uint64_t passes =
            exec::testing::replayPassesNow() - before;
        expectEqual(a, b, name);
        EXPECT_TRUE(b.sliceResultsMatch) << name;
        if (std::string(name) == "nginx") {
            ASSERT_EQ(b.endpoints, 4u);
            EXPECT_GE(passes, b.testRuns);
        } else {
            ASSERT_GT(b.misSpeculations, 0u);
            EXPECT_GT(passes, b.testRuns);
        }
    }
}

/** The CI fault sweep (ci/run.sh faults) varies OHA_FAULT_SEED; seed
 *  1 keeps plain runs deterministic. */
std::uint64_t
sweepSeed()
{
    const std::uint64_t env = dyn::faultSeedFromEnv();
    return env ? env : 1;
}

TEST(ReplayGroups, InjectedFaultsAbortGroupsLikeLiveRuns)
{
    // Seeded faults make the optimistic group's checker abort
    // mid-stream inside the fused passes, while the reference groups
    // run on; the replayed pipelines must still equal the live ones.
    const auto race = workloads::makeRaceWorkload("raytracer", 10, 6);
    core::OptFtConfig liveFt;
    liveFt.useTraceReplay = false;
    liveFt.faultSeed = sweepSeed();
    core::OptFtConfig replayFt = liveFt;
    replayFt.useTraceReplay = true;
    const auto a = core::runOptFt(race, liveFt);
    const auto b = core::runOptFt(race, replayFt);
    ASSERT_GT(b.misSpeculations, 0u);
    expectEqual(a, b, "optft");
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_TRUE(b.raceReportsMatch);

    const auto slice = workloads::makeSliceWorkload("perl", 10, 5);
    core::OptSliceConfig liveSlice;
    liveSlice.useTraceReplay = false;
    liveSlice.faultSeed = sweepSeed();
    core::OptSliceConfig replaySlice = liveSlice;
    replaySlice.useTraceReplay = true;
    const auto c = core::runOptSlice(slice, liveSlice);
    const auto d = core::runOptSlice(slice, replaySlice);
    ASSERT_GT(d.misSpeculations, 0u);
    expectEqual(c, d, "optslice");
    EXPECT_EQ(c.demotions, d.demotions);
    EXPECT_TRUE(d.sliceResultsMatch);
}

} // namespace
} // namespace oha
