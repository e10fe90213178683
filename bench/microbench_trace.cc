/**
 * @file
 * Record-once/analyze-many microbenchmark: real wall time for the
 * trace capture/replay subsystem, per workload and per path.
 *
 * Two layers of measurement:
 *
 *  1. Event level (median of N): for each workload's first testing
 *     input, the cost of (a) recording the trace once, (b) running a
 *     full-plan analysis on a live interpreter, and (c) replaying the
 *     recorded trace through the same analysis.  Replay skips guest
 *     fetch/decode/eval entirely, so (c) should beat (b) on delivered
 *     events/sec; the `replay_speedup` metric is (b)/(c) wall time.
 *
 *     A 33-thread striped-lock store (the long-trace shape) adds the
 *     scheduler floor — interpreter ns/step and steps per quantum —
 *     and prices a cold OptFT input both ways: record plus one grouped
 *     replay, against one recording pass with the groups attached.
 *
 *  2. Grouped replay: the pipelines decode each capture once for all
 *     the configurations they evaluate together (TraceReplayer
 *     groups).  `grouped-replay` times that one pass on the largest
 *     race capture (full, hybrid, optimistic+checker FastTrack) and
 *     one slice capture (hybrid and optimistic slicers for up to three
 *     endpoints, one shared checker); `solo-replays` times one replay
 *     per configuration; the `speedup` metric is their ratio.
 *
 *  3. Pipeline level: end-to-end runOptFt (Figure 5 workloads) and
 *     runOptSlice (Figure 6 workloads) with useTraceReplay off vs on.
 *     Results are byte-identical by construction (pinned by
 *     trace_replay_parity_test); what changes is interpreter work.
 *     The `interp_step_ratio` metric — direct interpretedSteps over
 *     replay interpretedSteps — is the headline: the direct path
 *     interprets every testing input 3+ times (full, hybrid,
 *     optimistic, plus rollbacks), the replay path exactly once, so
 *     the ratio must be >= 2 (the PR's acceptance bar) and is
 *     architecturally >= 3 on the FastTrack side.  `e2e_speedup` is
 *     the matching wall-clock ratio.
 *
 * OHA_BENCH_SMOKE=1 shrinks corpora and repetitions for CI smoke
 * runs.  JSON: BENCH_microbench_trace.json.
 */

#include "bench_common.h"

#include <cstdlib>
#include <functional>
#include <memory>

#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/invariant_checker.h"
#include "dyn/plans.h"
#include "exec/trace.h"
#include "profile/profiler.h"
#include "workloads/workloads.h"

using namespace oha;

namespace {

bool
smokeMode()
{
    const char *env = std::getenv("OHA_BENCH_SMOKE");
    return env && *env && *env != '0';
}

/** Attaches one analysis configuration's tools to a replayer (into
 *  its newest group, aborting through @p control), keeping them alive
 *  in @p tools. */
using AttachConfig = std::function<void(
    exec::TraceReplayer &replayer, exec::ExecutionControl &control,
    std::vector<std::unique_ptr<exec::Tool>> &tools)>;

/** Replay @p trace through @p configs: one pass with one group per
 *  configuration when @p grouped, else one pass per configuration. */
void
replayConfigs(const ir::Module &module, const exec::RecordedTrace &trace,
              const std::vector<AttachConfig> &configs, bool grouped)
{
    auto pass = [&](std::size_t first, std::size_t last) {
        std::vector<std::unique_ptr<exec::Tool>> tools;
        exec::TraceReplayer replayer(module, trace);
        for (std::size_t c = first; c < last; ++c) {
            const std::size_t group = c == first ? 0 : replayer.addGroup();
            configs[c](replayer, replayer.control(group), tools);
        }
        replayer.runGroups();
    };
    if (grouped) {
        pass(0, configs.size());
    } else {
        for (std::size_t c = 0; c < configs.size(); ++c)
            pass(c, c + 1);
    }
}

/** Attach an invariant checker that aborts through @p control. */
void
attachChecker(exec::TraceReplayer &replayer, exec::ExecutionControl &control,
              std::vector<std::unique_ptr<exec::Tool>> &tools,
              const ir::Module &module, const inv::InvariantSet &invariants,
              const dyn::CheckerConfig &config)
{
    auto checker =
        std::make_unique<dyn::InvariantChecker>(module, invariants, config);
    checker->setControl(&control);
    replayer.attach(checker.get(), &checker->plan());
    tools.push_back(std::move(checker));
}

/** FastTrack under @p plan, plus a checker when @p invariants. */
AttachConfig
fastTrackConfig(const ir::Module &module,
                const exec::InstrumentationPlan &plan,
                const inv::InvariantSet *invariants = nullptr)
{
    return [&module, &plan, invariants](
               exec::TraceReplayer &replayer,
               exec::ExecutionControl &control,
               std::vector<std::unique_ptr<exec::Tool>> &tools) {
        tools.push_back(std::make_unique<dyn::FastTrack>());
        replayer.attach(tools.back().get(), &plan);
        if (invariants) {
            dyn::CheckerConfig checkerConfig;
            checkerConfig.callContexts = false;
            attachChecker(replayer, control, tools, module, *invariants,
                          checkerConfig);
        }
    };
}

/** One Giri slicer per plan, plus one shared checker when
 *  @p invariants. */
AttachConfig
giriConfig(const ir::Module &module,
           std::vector<const exec::InstrumentationPlan *> plans,
           const inv::InvariantSet *invariants = nullptr)
{
    return [&module, plans, invariants](
               exec::TraceReplayer &replayer,
               exec::ExecutionControl &control,
               std::vector<std::unique_ptr<exec::Tool>> &tools) {
        for (const exec::InstrumentationPlan *plan : plans) {
            tools.push_back(std::make_unique<dyn::GiriSlicer>(module));
            replayer.attach(tools.back().get(), plan);
        }
        if (invariants) {
            dyn::CheckerConfig checkerConfig;
            checkerConfig.callContexts = invariants->hasCallContexts;
            checkerConfig.guardingLocks = false;
            checkerConfig.singletonThreads = false;
            attachChecker(replayer, control, tools, module, *invariants,
                          checkerConfig);
        }
    };
}

/** Invariants profiled on @p workload's profiling set. */
inv::InvariantSet
profiledInvariants(const workloads::Workload &workload, bool callContexts)
{
    prof::ProfileOptions options;
    options.callContexts = callContexts;
    prof::ProfilingCampaign campaign(*workload.module, options);
    for (const exec::ExecConfig &input : workload.profilingSet)
        campaign.addRun(input);
    return campaign.invariants();
}

} // namespace

int
main()
{
    bench::banner("Microbench: record-once / analyze-many trace replay",
                  "rollback is deterministic re-execution (Section 2.3); "
                  "capture the event stream once and replay it per "
                  "analysis instead");

    const bool smoke = smokeMode();
    const int kReps = smoke ? 2 : 5;
    const int kPipeReps = smoke ? 1 : 3;
    const std::size_t profileRuns = smoke ? 4 : bench::kRaceProfileRuns;
    const std::size_t testRuns = smoke ? 2 : bench::kRaceTestRuns;
    const std::size_t sliceTestRuns = smoke ? 2 : bench::kSliceTestRuns;

    bench::JsonReport json("microbench_trace");
    TextTable table({"workload", "variant", "wall ms", "events",
                     "events/sec"});
    auto row = [&](const std::string &name, const char *variant,
                   const bench::Sample &sample) {
        table.addRow({name, variant, fmtDouble(sample.medianMs, 2),
                      std::to_string(sample.events),
                      fmtDouble(sample.eventsPerSec() / 1e6, 2) + "M"});
        json.add(name, variant, sample);
    };

    // ---- Event level: live FastTrack vs replayed FastTrack ----------
    std::vector<std::string> raceNames = workloads::raceWorkloadNames();
    std::vector<std::string> sliceNames = workloads::sliceWorkloadNames();
    if (smoke) {
        raceNames.resize(std::min<std::size_t>(raceNames.size(), 2));
        sliceNames.resize(std::min<std::size_t>(sliceNames.size(), 1));
    }

    std::vector<double> replaySpeedups;
    std::string largestName;
    std::uint64_t largestEvents = 0;
    for (const std::string &name : raceNames) {
        const auto workload = workloads::makeRaceWorkload(name, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullFastTrackPlan(module);

        const bench::Sample record = bench::measure(kReps, [&] {
            const auto trace = exec::recordRun(module, input);
            return trace.result.totalEvents.total();
        });
        row(name, "record", record);
        if (record.events > largestEvents) {
            largestEvents = record.events;
            largestName = name;
        }

        const bench::Sample direct = bench::measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::Interpreter interp(module, input);
            interp.attach(&tool, &plan);
            const auto result = interp.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "fasttrack-direct", direct);

        const exec::RecordedTrace trace = exec::recordRun(module, input);
        const bench::Sample replay = bench::measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::TraceReplayer replayer(module, trace);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "fasttrack-replay", replay);

        const double speedup =
            replay.medianMs > 0 ? direct.medianMs / replay.medianMs : 0;
        json.metric(name, "fasttrack", "replay_speedup", speedup);
        replaySpeedups.push_back(speedup);
    }

    for (const std::string &name : sliceNames) {
        const auto workload = workloads::makeSliceWorkload(name, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullGiriPlan(module);

        const bench::Sample direct = bench::measure(kReps, [&] {
            dyn::GiriSlicer tool(module);
            exec::Interpreter interp(module, input);
            interp.attach(&tool, &plan);
            const auto result = interp.run();
            if (tool.traceLength() > 1ull << 40)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "giri-direct", direct);

        const exec::RecordedTrace trace = exec::recordRun(module, input);
        const bench::Sample replay = bench::measure(kReps, [&] {
            dyn::GiriSlicer tool(module);
            exec::TraceReplayer replayer(module, trace);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.traceLength() > 1ull << 40)
                std::abort();
            return result.delivered[0].total();
        });
        row(name, "giri-replay", replay);

        const double speedup =
            replay.medianMs > 0 ? direct.medianMs / replay.medianMs : 0;
        json.metric(name, "giri", "replay_speedup", speedup);
        replaySpeedups.push_back(speedup);
    }

    std::printf("%s\n", table.str().c_str());

    // ---- Scheduler floor and the recording pass, 33 threads ---------
    // A striped-lock key-value store shaped like the long-trace
    // end-to-end workload: lock blocking ends most quanta early, so
    // the scheduler's per-quantum cost shows in ns/step.  The OptFT
    // first-round groups (full, hybrid, optimistic + checker) are
    // priced both ways a pipeline can run them: a recording plus one
    // grouped replay of the capture, or one live recording pass with
    // the groups attached (what a cold input costs).
    {
        const std::string name = "striped-store";
        const auto module = workloads::makeStripedStoreModule(
            smoke ? 128 : 512);
        std::vector<exec::ExecConfig> profiling;
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            profiling.push_back(workloads::stripedStoreInput(seed));
        exec::ExecConfig input = workloads::stripedStoreInput(99);

        exec::ExecConfig scheduled = input;
        scheduled.recordSchedule = true;
        const exec::RunResult probe =
            exec::Interpreter(*module, scheduled).run();
        const double stepsPerQuantum =
            double(probe.steps) / double(probe.schedule.size());

        const bench::Sample interp = bench::measure(kReps, [&] {
            return exec::Interpreter(*module, input)
                .run()
                .totalEvents.total();
        });
        row(name, "interpret", interp);

        prof::ProfilingCampaign campaign(*module, {});
        for (const exec::ExecConfig &config : profiling)
            campaign.addRun(config);
        const inv::InvariantSet invariants = campaign.invariants();
        const auto sound = analysis::runStaticRaceDetector(*module, nullptr);
        const auto predicated =
            analysis::runStaticRaceDetector(*module, &invariants);
        const auto fullPlan = dyn::fullFastTrackPlan(*module);
        const auto hybridPlan =
            dyn::hybridFastTrackPlan(*module, sound.racyAccesses);
        const auto optPlan = dyn::optimisticFastTrackPlan(
            *module, predicated.racyAccesses, invariants);
        // The OptFT first-round groups, attachable to either source.
        auto optFtGroups = [&](std::vector<std::unique_ptr<dyn::FastTrack>>
                                   &tools,
                               std::unique_ptr<dyn::InvariantChecker>
                                   &checker) {
            return [&](exec::DispatchCore &source) {
                const exec::InstrumentationPlan *plans[] = {
                    &fullPlan, &hybridPlan, &optPlan};
                for (std::size_t g = 0; g < 3; ++g) {
                    if (g > 0)
                        source.addGroup();
                    tools.push_back(std::make_unique<dyn::FastTrack>());
                    source.attach(tools.back().get(), plans[g]);
                }
                dyn::CheckerConfig checkerConfig;
                checkerConfig.callContexts = false;
                checker = std::make_unique<dyn::InvariantChecker>(
                    *module, invariants, checkerConfig);
                checker->setControl(&source.control(2));
                source.attach(checker.get(), &checker->plan());
            };
        };

        const bench::Sample record = bench::measure(kReps, [&] {
            return exec::recordRun(*module, input)
                .result.totalEvents.total();
        });
        row(name, "record", record);

        const exec::RecordedTrace trace = exec::recordRun(*module, input);
        const bench::Sample replay = bench::measure(kReps, [&] {
            std::vector<std::unique_ptr<dyn::FastTrack>> tools;
            std::unique_ptr<dyn::InvariantChecker> checker;
            exec::replayRun(*module, trace, optFtGroups(tools, checker));
            return trace.result.totalEvents.total();
        });
        row(name, "optft-replay", replay);

        const bench::Sample fused = bench::measure(kReps, [&] {
            std::vector<std::unique_ptr<dyn::FastTrack>> tools;
            std::unique_ptr<dyn::InvariantChecker> checker;
            std::vector<exec::RunResult> groups;
            return exec::recordRun(*module, input, {},
                                   optFtGroups(tools, checker), groups)
                .result.totalEvents.total();
        });
        row(name, "optft-recording-pass", fused);

        const double nsPerStep =
            interp.medianMs * 1e6 / double(probe.steps);
        json.metric(name, "interpret", "ns_per_step", nsPerStep);
        json.metric(name, "interpret", "steps_per_quantum",
                    stepsPerQuantum);
        const double coldSpeedup =
            fused.medianMs > 0
                ? (record.medianMs + replay.medianMs) / fused.medianMs
                : 0;
        json.metric(name, "optft-recording-pass", "cold_input_speedup",
                    coldSpeedup);
        TextTable storeTable({"variant", "median ms", "p90 ms"});
        for (const auto &[variant, sample] :
             {std::pair<const char *, const bench::Sample *>{"interpret",
                                                             &interp},
              {"record", &record},
              {"optft-replay", &replay},
              {"optft-recording-pass", &fused}}) {
            storeTable.addRow({variant, fmtDouble(sample->medianMs, 2),
                               fmtDouble(sample->p90Ms, 2)});
        }
        std::printf("%s (33 threads, %llu steps): %.1f ns/step, %.2f "
                    "steps/quantum; cold OptFT input: record + replay "
                    "= %.2f ms, recording pass = %.2f ms (%.2fx)\n%s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(probe.steps),
                    nsPerStep, stepsPerQuantum,
                    record.medianMs + replay.medianMs, fused.medianMs,
                    coldSpeedup, storeTable.str().c_str());
    }

    // ---- Segmented spill capture + mmap-backed replay ---------------
    // Force the largest capture through the spill path (~8 segments)
    // and price both sides: capture with pwrite spill, replay with
    // per-segment mmap windows.  The resident fraction is what
    // record-once/analyze-many actually holds in RAM.
    if (!largestName.empty()) {
        const auto workload = workloads::makeRaceWorkload(largestName, 1, 1);
        const ir::Module &module = *workload.module;
        const auto &input = workload.testingSet.front();
        const auto plan = dyn::fullFastTrackPlan(module);
        const exec::RecordedTrace trace = exec::recordRun(module, input);

        exec::TraceStoreOptions spillOptions;
        spillOptions.segmentBytes = std::max<std::size_t>(
            4096, static_cast<std::size_t>(trace.events.sizeBytes() / 8));
        const bench::Sample spillRecord = bench::measure(kReps, [&] {
            const auto spilled =
                exec::recordRun(module, input, spillOptions);
            if (!spilled.events.spilled())
                std::abort(); // the spill path must actually engage
            return spilled.result.totalEvents.total();
        });
        row(largestName, "record-spilled", spillRecord);

        const exec::RecordedTrace spilled =
            exec::recordRun(module, input, spillOptions);
        const bench::Sample spillReplay = bench::measure(kReps, [&] {
            dyn::FastTrack tool;
            exec::TraceReplayer replayer(module, spilled);
            replayer.attach(&tool, &plan);
            const auto result = replayer.run();
            if (tool.races().size() > 1u << 20)
                std::abort();
            return result.delivered[0].total();
        });
        row(largestName, "fasttrack-replay-spilled", spillReplay);

        const double residentFrac =
            spilled.events.sizeBytes() > 0
                ? double(spilled.events.residentBytes()) /
                      double(spilled.events.sizeBytes())
                : 0;
        json.metric(largestName, "trace", "spill_segments",
                    double(spilled.events.numSegments()));
        json.metric(largestName, "trace", "spill_resident_fraction",
                    residentFrac);
        std::printf("spill: %zu segments, %.1f%% of %llu trace bytes "
                    "resident after capture\n\n",
                    spilled.events.numSegments(), 100.0 * residentFrac,
                    static_cast<unsigned long long>(
                        spilled.events.sizeBytes()));
    }

    // ---- One decode pass vs one replay per configuration -----------
    // The pipelines' pass shapes on one capture each.  OptFT: full,
    // hybrid and optimistic FastTrack (+ checker) on the largest race
    // capture.  OptSlice: hybrid and optimistic slicers for up to three
    // endpoints of one slice capture — solo-replays decodes once per
    // (endpoint, plan) with a checker per optimistic slicer, the
    // grouped pass once in total with one shared checker.
    TextTable groupTable({"workload", "solo-replays ms", "grouped ms",
                          "p90 solo / grouped", "speedup"});
    auto groupedRow = [&](const std::string &name,
                          const ir::Module &module,
                          const exec::RecordedTrace &trace,
                          const std::vector<AttachConfig> &soloConfigs,
                          const std::vector<AttachConfig> &groupConfigs) {
        const std::uint64_t events = trace.result.totalEvents.total();
        const bench::Sample solo = bench::measure(kReps, [&] {
            replayConfigs(module, trace, soloConfigs, false);
            return events;
        });
        const bench::Sample grouped = bench::measure(kReps, [&] {
            replayConfigs(module, trace, groupConfigs, true);
            return events;
        });
        const double speedup =
            grouped.medianMs > 0 ? solo.medianMs / grouped.medianMs : 0;
        groupTable.addRow({name, fmtDouble(solo.medianMs, 2),
                           fmtDouble(grouped.medianMs, 2),
                           fmtDouble(solo.p90Ms, 2) + " / " +
                               fmtDouble(grouped.p90Ms, 2),
                           fmtDouble(speedup, 2) + "x"});
        json.add(name, "solo-replays", solo);
        json.add(name, "grouped-replay", grouped);
        json.metric(name, "grouped-replay", "speedup", speedup);
    };
    if (!largestName.empty()) {
        const auto workload =
            workloads::makeRaceWorkload(largestName, profileRuns, 1);
        const ir::Module &module = *workload.module;
        const inv::InvariantSet invariants =
            profiledInvariants(workload, false);
        const auto sound = analysis::runStaticRaceDetector(module, nullptr);
        const auto predicated =
            analysis::runStaticRaceDetector(module, &invariants);
        const auto fullPlan = dyn::fullFastTrackPlan(module);
        const auto hybridPlan =
            dyn::hybridFastTrackPlan(module, sound.racyAccesses);
        const auto optPlan = dyn::optimisticFastTrackPlan(
            module, predicated.racyAccesses, invariants);
        const exec::RecordedTrace trace =
            exec::recordRun(module, workload.testingSet.front());
        const std::vector<AttachConfig> configs = {
            fastTrackConfig(module, fullPlan),
            fastTrackConfig(module, hybridPlan),
            fastTrackConfig(module, optPlan, &invariants),
        };
        groupedRow(largestName, module, trace, configs, configs);
    }
    {
        const std::string &name = sliceNames.front();
        const auto workload =
            workloads::makeSliceWorkload(name, profileRuns, 1);
        const ir::Module &module = *workload.module;
        const inv::InvariantSet invariants =
            profiledInvariants(workload, true);
        const auto soundPts = analysis::runAndersen(module, {});
        analysis::AndersenOptions optOptions;
        optOptions.invariants = &invariants;
        const auto optPts = analysis::runAndersen(module, optOptions);
        analysis::SlicerOptions optSlicerOptions;
        optSlicerOptions.invariants = &invariants;
        const analysis::StaticSlicer soundSlicer(module, soundPts, {});
        const analysis::StaticSlicer optSlicer(module, optPts,
                                               optSlicerOptions);
        std::vector<exec::InstrumentationPlan> hybridPlans, optPlans;
        for (InstrId id = 0;
             id < module.numInstrs() && hybridPlans.size() < 3; ++id) {
            if (module.instr(id).op != ir::Opcode::Output)
                continue;
            hybridPlans.push_back(dyn::sliceGiriPlan(
                module, soundSlicer.slice(id).instructions));
            optPlans.push_back(dyn::sliceGiriPlan(
                module, optSlicer.slice(id).instructions));
        }
        std::vector<const exec::InstrumentationPlan *> hybrid, opt;
        std::vector<AttachConfig> solo;
        for (const auto &plan : hybridPlans) {
            hybrid.push_back(&plan);
            solo.push_back(giriConfig(module, {&plan}));
        }
        for (const auto &plan : optPlans) {
            opt.push_back(&plan);
            solo.push_back(giriConfig(module, {&plan}, &invariants));
        }
        const exec::RecordedTrace trace =
            exec::recordRun(module, workload.testingSet.front());
        groupedRow(name, module, trace, solo,
                   {giriConfig(module, hybrid),
                    giriConfig(module, opt, &invariants)});
    }
    std::printf("%s\n", groupTable.str().c_str());

    // ---- Pipeline level: execute-once vs execute-per-configuration --
    TextTable pipeTable({"workload", "pipeline", "direct ms", "replay ms",
                         "interp-step ratio", "e2e speedup"});
    std::vector<double> stepRatios;

    for (const std::string &name : raceNames) {
        const auto workload =
            workloads::makeRaceWorkload(name, profileRuns, testRuns);
        core::OptFtConfig direct = bench::standardOptFtConfig();
        direct.useTraceReplay = false;
        core::OptFtConfig replay = bench::standardOptFtConfig();
        replay.useTraceReplay = true;

        core::OptFtResult directResult, replayResult;
        const bench::Sample directMs = bench::measure(kPipeReps, [&] {
            directResult = core::runOptFt(workload, direct);
            return directResult.interpretedSteps;
        });
        const bench::Sample replayMs = bench::measure(kPipeReps, [&] {
            replayResult = core::runOptFt(workload, replay);
            return replayResult.interpretedSteps;
        });

        const double ratio =
            replayResult.interpretedSteps > 0
                ? double(directResult.interpretedSteps) /
                      double(replayResult.interpretedSteps)
                : 0;
        const double e2e = replayMs.medianMs > 0
                               ? directMs.medianMs / replayMs.medianMs
                               : 0;
        stepRatios.push_back(ratio);
        pipeTable.addRow({name, "optft", fmtDouble(directMs.medianMs, 1),
                          fmtDouble(replayMs.medianMs, 1),
                          fmtDouble(ratio, 2), fmtDouble(e2e, 2)});
        json.add(name, "optft-direct", directMs.medianMs,
                 directResult.interpretedSteps);
        json.add(name, "optft-replay", replayMs.medianMs,
                 replayResult.interpretedSteps);
        json.metric(name, "optft", "interp_step_ratio", ratio);
        json.metric(name, "optft", "e2e_speedup", e2e);
    }

    for (const std::string &name : sliceNames) {
        const auto workload =
            workloads::makeSliceWorkload(name, profileRuns, sliceTestRuns);
        core::OptSliceConfig direct = bench::standardOptSliceConfig();
        direct.useTraceReplay = false;
        core::OptSliceConfig replay = bench::standardOptSliceConfig();
        replay.useTraceReplay = true;

        core::OptSliceResult directResult, replayResult;
        const bench::Sample directMs = bench::measure(kPipeReps, [&] {
            directResult = core::runOptSlice(workload, direct);
            return directResult.interpretedSteps;
        });
        const bench::Sample replayMs = bench::measure(kPipeReps, [&] {
            replayResult = core::runOptSlice(workload, replay);
            return replayResult.interpretedSteps;
        });

        const double ratio =
            replayResult.interpretedSteps > 0
                ? double(directResult.interpretedSteps) /
                      double(replayResult.interpretedSteps)
                : 0;
        const double e2e = replayMs.medianMs > 0
                               ? directMs.medianMs / replayMs.medianMs
                               : 0;
        stepRatios.push_back(ratio);
        pipeTable.addRow({name, "optslice", fmtDouble(directMs.medianMs, 1),
                          fmtDouble(replayMs.medianMs, 1),
                          fmtDouble(ratio, 2), fmtDouble(e2e, 2)});
        json.add(name, "optslice-direct", directMs.medianMs,
                 directResult.interpretedSteps);
        json.add(name, "optslice-replay", replayMs.medianMs,
                 replayResult.interpretedSteps);
        json.metric(name, "optslice", "interp_step_ratio", ratio);
        json.metric(name, "optslice", "e2e_speedup", e2e);
    }

    std::printf("%s\n", pipeTable.str().c_str());

    const double meanRatio = bench::mean(stepRatios);
    std::printf("mean replay speedup (single analysis): %.2fx\n",
                bench::mean(replaySpeedups));
    std::printf("mean interpreter-work reduction (pipeline): %.2fx\n",
                meanRatio);
    json.metric("aggregate", "all", "mean_interp_step_ratio", meanRatio);
    if (meanRatio < 2.0) {
        std::printf("WARNING: interpreter-work reduction below the 2x "
                    "acceptance bar\n");
    }

    json.write();
    return 0;
}
