/**
 * @file
 * Pre/post-overhaul parity for the Andersen constraint solver.
 *
 * The solver overhaul (difference propagation, offline constraint
 * reduction, wave-ordered firing, hash-consed result sets)
 * must be a pure throughput change: both solvers compute the same
 * inclusion fixpoint, so on every workload the points-to sets,
 * indirect-call targets, static slice sets and static race reports
 * must be identical.  The original FIFO full-propagation solver is
 * kept behind AndersenOptions::referenceSolver and compared here
 * against the production delta solver, in CI and CS modes, sound and
 * predicated.  Batches run at 1 and 4 worker threads and their
 * results are compared, pinning thread-count invariance of the
 * parallelized static phase.  The delta solver's workUnits are
 * pinned to recorded counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/constraint_diff.h"
#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "ir/module_diff.h"
#include "ir/parser.h"
#include "profile/profiler.h"
#include "support/thread_pool.h"
#include "workloads/edits.h"
#include "workloads/workloads.h"

namespace oha {
namespace {

using analysis::AndersenOptions;
using analysis::AndersenResult;
using analysis::CellId;

std::vector<CellId>
toVector(const SparseBitSet &set)
{
    std::vector<CellId> cells;
    set.forEach([&](CellId cell) { cells.push_back(cell); });
    return cells;
}

/** Everything observable about one points-to run, in comparable form.
 *  workUnits is deliberately absent: the two solvers count different
 *  events, only the fixpoint must agree. */
struct PtsView
{
    bool completed = false;
    std::size_t numContexts = 0;
    /** pts of every (context instance, register) pair. */
    std::vector<std::vector<CellId>> regPts;
    /** Flattened pts of every (function, register) pair. */
    std::vector<std::vector<CellId>> flatPts;
    /** cellPts of every abstract cell. */
    std::vector<std::vector<CellId>> cellPts;
    /** Sorted targets of every ICall instruction. */
    std::vector<std::vector<FuncId>> icalls;
    /** Static slices (instruction sets) from every Output. */
    std::vector<std::pair<bool, std::set<InstrId>>> slices;

    bool
    operator==(const PtsView &other) const
    {
        return completed == other.completed &&
               numContexts == other.numContexts &&
               regPts == other.regPts && flatPts == other.flatPts &&
               cellPts == other.cellPts && icalls == other.icalls &&
               slices == other.slices;
    }
};

PtsView
viewOf(const ir::Module &module, const AndersenResult &result,
       const inv::InvariantSet *invariants)
{
    PtsView view;
    view.completed = result.completed;
    view.numContexts = result.contexts.size();
    // An incomplete result (CS context-budget overflow) carries no
    // queryable points-to structure; the flag itself is the parity.
    if (!result.completed)
        return view;
    for (const analysis::ContextInstance &inst : result.contexts) {
        const unsigned numRegs = module.function(inst.func)->numRegs();
        for (ir::Reg reg = 0; reg < numRegs; ++reg)
            view.regPts.push_back(toVector(result.pts(inst.id, reg)));
    }
    for (const auto &func : module.functions())
        for (ir::Reg reg = 0; reg < func->numRegs(); ++reg)
            view.flatPts.push_back(
                toVector(result.ptsAllContexts(func->id(), reg)));
    for (CellId cell = 0; cell < result.memory.numCells(); ++cell)
        view.cellPts.push_back(toVector(result.cellPts(cell)));
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::ICall)
            view.icalls.push_back(result.icallTargets(id));

    if (result.completed) {
        analysis::SlicerOptions sliceOptions;
        sliceOptions.invariants = invariants;
        const analysis::StaticSlicer slicer(module, result, sliceOptions);
        for (InstrId id = 0; id < module.numInstrs(); ++id) {
            if (module.instr(id).op != ir::Opcode::Output)
                continue;
            const analysis::StaticSliceResult slice = slicer.slice(id);
            view.slices.push_back({slice.completed, slice.instructions});
        }
    }
    return view;
}

std::vector<std::tuple<InstrId, InstrId>>
pairList(const std::set<std::pair<InstrId, InstrId>> &pairs)
{
    std::vector<std::tuple<InstrId, InstrId>> out;
    for (const auto &[a, b] : pairs)
        out.push_back({a, b});
    return out;
}

/** Race-detector output in comparable form (workUnits excluded). */
struct RaceView
{
    std::vector<std::tuple<InstrId, InstrId>> racyPairs;
    std::vector<InstrId> racyAccesses;
    std::vector<std::tuple<InstrId, InstrId>> usedLockAliases;
    std::vector<InstrId> usedSingletonSites;
    std::size_t accessesConsidered = 0;

    bool
    operator==(const RaceView &other) const
    {
        return racyPairs == other.racyPairs &&
               racyAccesses == other.racyAccesses &&
               usedLockAliases == other.usedLockAliases &&
               usedSingletonSites == other.usedSingletonSites &&
               accessesConsidered == other.accessesConsidered;
    }
};

RaceView
raceViewOf(const analysis::StaticRaceResult &result)
{
    RaceView view;
    view.racyPairs = pairList(result.racyPairs);
    view.racyAccesses.assign(result.racyAccesses.begin(),
                             result.racyAccesses.end());
    view.usedLockAliases = pairList(result.usedLockAliases);
    view.usedSingletonSites.assign(result.usedSingletonSites.begin(),
                                   result.usedSingletonSites.end());
    view.accessesConsidered = result.accessesConsidered;
    return view;
}

/** Likely invariants for a workload, exactly as the pipelines derive
 *  them (profiling campaign over the profiling corpus). */
inv::InvariantSet
profiledInvariants(const workloads::Workload &workload)
{
    prof::ProfilingCampaign campaign(*workload.module, {});
    campaign.addRunsUntilConverged(workload.profilingSet, 4, 2);
    return campaign.invariants();
}

/** Reference-vs-delta comparison over one workload: CI and CS, sound
 *  and predicated, plus full race-detector parity. */
struct WorkloadParity
{
    std::string name;
    std::vector<PtsView> reference, delta;
    std::vector<RaceView> referenceRaces, deltaRaces;

    bool
    operator==(const WorkloadParity &other) const
    {
        return name == other.name && reference == other.reference &&
               delta == other.delta &&
               referenceRaces == other.referenceRaces &&
               deltaRaces == other.deltaRaces;
    }
};

WorkloadParity
runParity(const workloads::Workload &workload)
{
    WorkloadParity out;
    out.name = workload.name;
    const ir::Module &module = *workload.module;
    const inv::InvariantSet invariants = profiledInvariants(workload);

    for (const bool contextSensitive : {false, true}) {
        for (const inv::InvariantSet *inv :
             {static_cast<const inv::InvariantSet *>(nullptr),
              &invariants}) {
            AndersenOptions options;
            options.contextSensitive = contextSensitive;
            options.invariants = inv;

            AndersenOptions refOptions = options;
            refOptions.referenceSolver = true;
            const AndersenResult ref =
                analysis::runAndersen(module, refOptions);
            const AndersenResult now =
                analysis::runAndersen(module, options);
            out.reference.push_back(viewOf(module, ref, inv));
            out.delta.push_back(viewOf(module, now, inv));
        }
    }

    for (const inv::InvariantSet *inv :
         {static_cast<const inv::InvariantSet *>(nullptr), &invariants}) {
        out.referenceRaces.push_back(
            raceViewOf(analysis::runStaticRaceDetector(
                module, inv, nullptr, /*referenceSolver=*/true)));
        out.deltaRaces.push_back(raceViewOf(
            analysis::runStaticRaceDetector(module, inv, nullptr)));
    }
    return out;
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names = workloads::raceWorkloadNames();
    const auto &slice = workloads::sliceWorkloadNames();
    names.insert(names.end(), slice.begin(), slice.end());
    return names;
}

WorkloadParity
runParityByName(const std::string &name, bool race)
{
    return runParity(race ? workloads::makeRaceWorkload(name, 1, 3)
                          : workloads::makeSliceWorkload(name, 1, 3));
}

TEST(AndersenParity, DeltaSolverMatchesReferenceOnAllWorkloads)
{
    const std::vector<std::string> names = allWorkloadNames();
    const std::size_t numRace = workloads::raceWorkloadNames().size();

    const auto serial = support::runBatch(
        names.size(),
        [&](std::size_t i) {
            return runParityByName(names[i], i < numRace);
        },
        1);

    std::size_t nonEmptySets = 0, icalls = 0, slices = 0, races = 0;
    for (const WorkloadParity &parity : serial) {
        ASSERT_EQ(parity.reference.size(), parity.delta.size());
        for (std::size_t m = 0; m < parity.reference.size(); ++m) {
            EXPECT_EQ(parity.reference[m], parity.delta[m])
                << "points-to / slice parity broke on " << parity.name
                << " (mode " << m << ")";
        }
        EXPECT_EQ(parity.referenceRaces, parity.deltaRaces)
            << "race reports diverged on " << parity.name;
        for (const PtsView &view : parity.reference) {
            for (const auto &pts : view.flatPts)
                nonEmptySets += !pts.empty();
            icalls += view.icalls.size();
            slices += view.slices.size();
        }
        for (const RaceView &view : parity.referenceRaces)
            races += view.racyPairs.size();
    }
    // Sanity: the comparisons above must not be vacuous.
    EXPECT_GT(nonEmptySets, 0u);
    EXPECT_GT(icalls, 0u);
    EXPECT_GT(slices, 0u);
    EXPECT_GT(races, 0u);

    // The same batch at 4 workers must produce the same results in
    // the same index order.
    const auto parallel = support::runBatch(
        names.size(),
        [&](std::size_t i) {
            return runParityByName(names[i], i < numRace);
        },
        4);
    EXPECT_TRUE(serial == parallel)
        << "Andersen parity batch differs between 1 and 4 threads";
}

TEST(AndersenParity, RaceReportsByteIdenticalAtAnyThreadCount)
{
    // The detector's pair matrix runs row-parallel on the OHA_THREADS
    // pool; the thread count must not leak into the reports.
    const workloads::Workload workload = workloads::makeRaceWorkload(
        workloads::raceWorkloadNames().front(), 1, 3);
    const inv::InvariantSet invariants = profiledInvariants(workload);

    const char *saved = std::getenv("OHA_THREADS");
    const std::string savedValue = saved ? saved : "";
    std::vector<RaceView> perEnv;
    for (const char *env : {"1", "2", "4"}) {
        ASSERT_EQ(setenv("OHA_THREADS", env, 1), 0);
        support::refreshConfiguredThreads();
        perEnv.push_back(raceViewOf(analysis::runStaticRaceDetector(
            *workload.module, &invariants, nullptr)));
    }
    if (saved)
        setenv("OHA_THREADS", savedValue.c_str(), 1);
    else
        unsetenv("OHA_THREADS");
    support::refreshConfiguredThreads();
    EXPECT_EQ(perEnv[0], perEnv[1]) << "OHA_THREADS 1 vs 2";
    EXPECT_EQ(perEnv[0], perEnv[2]) << "OHA_THREADS 1 vs 4";
}

// ---------------------------------------------------------------------
// Wave schedule: workUnits feeds the modeled static-phase cost of every
// paper figure, so the delta solver's counts are pinned to values
// recorded from the wave-ordered solver.
// ---------------------------------------------------------------------

/** Non-entry, spawn/join-free function names: edits there keep the
 *  constraint diff usable, so resolveIncremental actually engages. */
std::vector<std::string>
incrementalEditNames(const ir::Module &module, std::size_t count)
{
    std::vector<char> hasThreadOp(module.numFunctions(), 0);
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        const ir::Instruction &ins = module.instr(id);
        if (ins.op == ir::Opcode::Spawn || ins.op == ir::Opcode::Join)
            hasThreadOp[ins.func] = 1;
    }
    std::vector<std::string> names;
    for (const auto &func : module.functions()) {
        if (func->name() == "main" || hasThreadOp[func->id()])
            continue;
        names.push_back(func->name());
        if (names.size() == count)
            break;
    }
    return names;
}

/** workUnits of a patched solve after editing two functions. */
std::uint64_t
incrementalWorkUnits(const workloads::Workload &workload)
{
    const std::shared_ptr<const ir::Module> base = workload.module;
    const std::shared_ptr<const ir::Module> next =
        workloads::editFunctions(*base, incrementalEditNames(*base, 2));
    const ir::ModuleDiff structural = ir::computeModuleDiff(*base, *next);
    const analysis::ConstraintDiff diff = analysis::lowerToConstraints(
        *base, *next, structural, nullptr, nullptr);
    EXPECT_TRUE(diff.usable) << workload.name;
    const AndersenResult baseResult =
        analysis::runAndersen(*base, AndersenOptions{});
    analysis::IncrementalInput input;
    input.baseModule = base.get();
    input.base = &baseResult;
    input.diff = &diff;
    bool usedIncremental = false;
    const AndersenResult patched = analysis::runAndersenIncremental(
        *next, AndersenOptions{}, input, nullptr, &usedIncremental);
    EXPECT_TRUE(usedIncremental) << workload.name;
    return patched.workUnits;
}

TEST(AndersenWorkUnits, MatchRecordedSchedule)
{
    // Per workload: CI sound, CI predicated, CS sound, CS predicated.
    const std::map<std::string, std::array<std::uint64_t, 4>> recorded = {
        {"lusearch", {764u, 762u, 1528u, 762u}},
        {"pmd", {542u, 542u, 1084u, 542u}},
        {"raytracer", {578u, 576u, 1156u, 576u}},
        {"moldyn", {449u, 447u, 898u, 447u}},
        {"sunflow", {696u, 694u, 1392u, 694u}},
        {"montecarlo", {586u, 584u, 1172u, 584u}},
        {"batik", {619u, 619u, 1238u, 619u}},
        {"xalan", {923u, 921u, 1846u, 921u}},
        {"luindex", {434u, 432u, 868u, 432u}},
        {"sor", {133u, 133u, 266u, 133u}},
        {"sparse", {152u, 152u, 304u, 152u}},
        {"series", {92u, 92u, 184u, 92u}},
        {"crypt", {118u, 118u, 236u, 118u}},
        {"lufact", {135u, 135u, 270u, 135u}},
        {"nginx", {1039u, 912u, 28447u, 606u}},
        {"redis", {2235u, 2034u, 221383u, 1748u}},
        {"perl", {2670u, 2402u, 22671u, 1792u}},
        {"vim", {4031u, 3562u, 24034u, 3977u}},
        {"sphinx", {381u, 371u, 843u, 452u}},
        {"go", {1706u, 1567u, 12371u, 1469u}},
        {"zlib", {616u, 608u, 1289u, 665u}},
    };
    for (const bool race : {true, false}) {
        const std::vector<std::string> &names =
            race ? workloads::raceWorkloadNames()
                 : workloads::sliceWorkloadNames();
        for (const std::string &name : names) {
            const workloads::Workload workload =
                race ? workloads::makeRaceWorkload(name, 1, 3)
                     : workloads::makeSliceWorkload(name, 1, 3);
            const inv::InvariantSet invariants =
                profiledInvariants(workload);
            ASSERT_TRUE(recorded.count(name)) << name;
            std::size_t mode = 0;
            for (const bool contextSensitive : {false, true}) {
                for (const inv::InvariantSet *inv :
                     {static_cast<const inv::InvariantSet *>(nullptr),
                      &invariants}) {
                    AndersenOptions options;
                    options.contextSensitive = contextSensitive;
                    options.invariants = inv;
                    EXPECT_EQ(
                        analysis::runAndersen(*workload.module, options)
                            .workUnits,
                        recorded.at(name)[mode])
                        << name << " cs=" << contextSensitive
                        << " pred=" << (inv != nullptr);
                    ++mode;
                }
            }
        }
    }

    // Wide waves (the propagation-dominated module) and patched
    // solves, whose initial wave is the diff's taint closure.
    EXPECT_EQ(analysis::runAndersen(
                  *workloads::makeDispatchSurfaceModule(120, 32, 64), {})
                  .workUnits,
              142419u);
    EXPECT_EQ(incrementalWorkUnits(workloads::makeRaceWorkload(
                  workloads::raceWorkloadNames().front(), 1, 3)),
              615u);
    EXPECT_EQ(incrementalWorkUnits(
                  workloads::makeSliceWorkload("vim", 1, 3)),
              1046u);

    // The suite's reduced copy graphs fire in only 2-4 waves, where the
    // phase order rarely moves the count.  In these modules a gep
    // writes into a node that fires in the same wave, so consuming
    // deltas per firer instead of all at once, or firing every ready
    // level together, changes workUnits.  Entries: HVN on, HVN off.
    const std::pair<const char *, std::array<std::uint64_t, 2>>
        scheduleProbes[] = {
            {R"(
func main() {
  entry:
    r0 = alloc 2
    r1 = alloc 1
    r1 = &r0[1]
    r2 = r1
    r3 = *r2
    output r3
    ret
}
)",
             {11u, 10u}},
            {R"(
func main() {
  entry:
    r0 = alloc 4
    r1 = alloc 1
    r2 = alloc 1
    r1 = &r0[1]
    r2 = &r1[1]
    r3 = r1
    r3 = r2
    r4 = r3
    *r4 = r0
    r5 = *r3
    output r5
    ret
}
)",
             {36u, 35u}},
        };
    for (const auto &[text, expected] : scheduleProbes) {
        const std::unique_ptr<ir::Module> module = ir::parseModule(text);
        for (const bool hvn : {true, false}) {
            AndersenOptions options;
            options.useHvn = hvn;
            EXPECT_EQ(analysis::runAndersen(*module, options).workUnits,
                      expected[hvn ? 0 : 1])
                << "hvn=" << hvn << " in" << text;
        }
    }
}

} // namespace
} // namespace oha
