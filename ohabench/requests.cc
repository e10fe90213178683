#include "requests.h"

#include <cstdio>
#include <set>

#include "dyn/fasttrack.h"
#include "dyn/plans.h"
#include "long_trace.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/edits.h"

namespace ohabench {

using namespace oha;

namespace {

/** Corpus sizes and shapes, fixed per workload. */
constexpr std::size_t kDynamicRaceInputs = 32;
constexpr std::size_t kDynamicSliceInputs = 64;
/** Independent corpora per program; pass p of a run uses corpus
 *  p mod count, so a run averages over several draws. */
constexpr std::size_t kDynamicRaceCorpora = 2;
constexpr std::size_t kDynamicSliceCorpora = 8;
constexpr std::size_t kColdcodeCopies = 64;
constexpr std::size_t kColdcodeInputs = 8;
constexpr std::size_t kLongTraceRequests = 16;
constexpr std::size_t kLongTraceProfileRuns = 8;
constexpr std::size_t kServiceCorpora = 4;
constexpr std::size_t kServiceInputs = 16;

/** Pool size a corpus is drawn from, per input kept. */
constexpr std::size_t kPoolFactor = 4;
/** Profiling corpus size (the suite default). */
constexpr std::size_t kProfileRuns = 48;

/** Draw @p n inputs from @p pool without replacement and give each a
 *  fresh scheduler seed; both draws come from @p rng. */
std::vector<exec::ExecConfig>
drawCorpus(const std::vector<exec::ExecConfig> &pool, std::size_t n,
           Rng &rng)
{
    std::vector<std::size_t> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::vector<exec::ExecConfig> corpus;
    for (std::size_t i = 0; i < n; ++i) {
        std::swap(order[i], order[i + rng.below(order.size() - i)]);
        corpus.push_back(pool[order[i]]);
        corpus.back().scheduleSeed = rng.next();
    }
    return corpus;
}

workloads::Workload
makeWorkload(const std::string &name, bool race, std::size_t inputs)
{
    return race ? workloads::makeRaceWorkload(name, kProfileRuns,
                                              inputs * kPoolFactor)
                : workloads::makeSliceWorkload(name, kProfileRuns,
                                               inputs * kPoolFactor);
}

Request
drawRequest(const workloads::Workload &base, std::size_t inputs,
            const std::string &tag, Rng &rng)
{
    Request request;
    request.key = base.name + "/" + tag;
    request.workload = base;
    request.workload.testingSet = drawCorpus(base.testingSet, inputs, rng);
    return request;
}

std::string
hexDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

void
addCost(Digest &digest, const std::string &name, const core::RunCost &cost)
{
    digest.emplace_back(name + ".base", hexDouble(cost.base));
    digest.emplace_back(name + ".framework", hexDouble(cost.framework));
    digest.emplace_back(name + ".analysis", hexDouble(cost.analysis));
    digest.emplace_back(name + ".invariants", hexDouble(cost.invariants));
    digest.emplace_back(name + ".rollback", hexDouble(cost.rollback));
}

std::string
describeViolations(const std::vector<dyn::Violation> &violations)
{
    std::string out;
    for (const dyn::Violation &v : violations)
        out += v.describe() + ";";
    return out;
}

} // namespace

std::vector<Request>
buildBatchDynamic(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> requests;
    auto addProgram = [&](const std::string &name, bool race,
                          std::size_t inputs, std::size_t variants) {
        const workloads::Workload base = makeWorkload(name, race, inputs);
        for (std::size_t v = 0; v < variants; ++v) {
            requests.push_back(
                drawRequest(base, inputs, "c" + std::to_string(v), rng));
        }
    };
    for (const std::string &name : workloads::raceWorkloadNames())
        addProgram(name, true, kDynamicRaceInputs, kDynamicRaceCorpora);
    for (const std::string &name : workloads::sliceWorkloadNames())
        addProgram(name, false, kDynamicSliceInputs, kDynamicSliceCorpora);
    return requests;
}

std::vector<Request>
buildBatchColdcode(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> requests;
    for (const std::string &name : workloads::raceWorkloadNames()) {
        workloads::Workload base = makeWorkload(name, true, kColdcodeInputs);
        base.module = workloads::scaleModule(*base.module, kColdcodeCopies);
        requests.push_back(
            drawRequest(base, kColdcodeInputs, "x64", rng));
    }
    return requests;
}

std::vector<Request>
buildLongTrace(std::uint64_t seed)
{
    const workloads::Workload base = makeLongTraceWorkload(
        seed, kLongTraceProfileRuns, kLongTraceRequests);
    std::vector<Request> requests;
    for (std::size_t i = 0; i < kLongTraceRequests; ++i) {
        Request request;
        request.key = base.name + "/t" + std::to_string(i);
        request.workload = base;
        request.workload.testingSet = {base.testingSet[i]};
        requests.push_back(std::move(request));
    }
    return requests;
}

std::vector<Request>
buildServiceUniverse(std::uint64_t seed)
{
    Rng rng(seed);
    // Programs in a fixed order that spreads the slice programs among
    // the race programs, so the hot ranks mix both kinds at any seed.
    std::vector<std::pair<std::string, bool>> programs;
    const auto &race = workloads::raceWorkloadNames();
    const auto &slice = workloads::sliceWorkloadNames();
    for (std::size_t r = 0, s = 0; r < race.size() || s < slice.size();) {
        if (s < slice.size() && s * race.size() <= r * slice.size())
            programs.emplace_back(slice[s++], false);
        else
            programs.emplace_back(race[r++], true);
    }

    // Zipf rank order: corpus 0 of every program, then corpus 1, ...
    std::vector<workloads::Workload> bases;
    for (const auto &[name, isRace] : programs)
        bases.push_back(makeWorkload(name, isRace, kServiceInputs));
    std::vector<Request> keys;
    for (std::size_t c = 0; c < kServiceCorpora; ++c) {
        for (const workloads::Workload &base : bases) {
            keys.push_back(drawRequest(base, kServiceInputs,
                                       "c" + std::to_string(c), rng));
        }
    }

    // Edited versions of the hottest modules: the same corpus over a
    // module whose first function gained a pointer-relevant prologue.
    for (std::size_t h = 0; h < kServiceHotEdits; ++h) {
        Request edit = keys[h];
        edit.key += "+edit";
        const ir::Module &module = *edit.workload.module;
        edit.workload.module = workloads::editFunctions(
            module, workloads::firstFunctionNames(module, 1));
        keys.push_back(std::move(edit));
    }
    return keys;
}

void
computeLiveRaces(std::vector<Request> &requests, std::size_t threads)
{
    for (Request &request : requests) {
        const workloads::Workload &w = request.workload;
        if (!w.race)
            continue;
        const exec::InstrumentationPlan plan =
            dyn::fullFastTrackPlan(*w.module);
        const auto perInput = support::runBatch(
            w.testingSet.size(),
            [&](std::size_t i) {
                dyn::FastTrack tool;
                exec::Interpreter interp(*w.module, w.testingSet[i]);
                interp.attach(&tool, &plan);
                interp.run();
                return tool.racePairs();
            },
            threads);
        std::set<std::pair<InstrId, InstrId>> races;
        for (const auto &pairs : perInput)
            races.insert(pairs.begin(), pairs.end());
        request.liveRaces = races.size();
    }
}

Digest
digestOf(const core::OptFtResult &r)
{
    Digest d;
    d.emplace_back("name", r.name);
    d.emplace_back("staticallyRaceFree", std::to_string(r.staticallyRaceFree));
    d.emplace_back("soundStaticSeconds", hexDouble(r.soundStaticSeconds));
    d.emplace_back("predStaticSeconds", hexDouble(r.predStaticSeconds));
    d.emplace_back("profileSeconds", hexDouble(r.profileSeconds));
    d.emplace_back("profileRunsUsed", std::to_string(r.profileRunsUsed));
    d.emplace_back("testRuns", std::to_string(r.testRuns));
    d.emplace_back("baselineSeconds", hexDouble(r.baselineSeconds));
    addCost(d, "fastTrack", r.fastTrack);
    addCost(d, "hybridFt", r.hybridFt);
    addCost(d, "optFt", r.optFt);
    d.emplace_back("misSpeculations", std::to_string(r.misSpeculations));
    d.emplace_back("raceReportsMatch", std::to_string(r.raceReportsMatch));
    d.emplace_back("racesObserved", std::to_string(r.racesObserved));
    d.emplace_back("soundRacyAccesses", std::to_string(r.soundRacyAccesses));
    d.emplace_back("predRacyAccesses", std::to_string(r.predRacyAccesses));
    d.emplace_back("elidedLockSites", std::to_string(r.elidedLockSites));
    d.emplace_back("speedupVsFastTrack", hexDouble(r.speedupVsFastTrack));
    d.emplace_back("speedupVsHybrid", hexDouble(r.speedupVsHybrid));
    d.emplace_back("breakEvenVsHybrid", hexDouble(r.breakEvenVsHybrid));
    d.emplace_back("breakEvenVsFastTrack", hexDouble(r.breakEvenVsFastTrack));
    d.emplace_back("interpretedSteps", std::to_string(r.interpretedSteps));
    d.emplace_back("replayedEvents", std::to_string(r.replayedEvents));
    d.emplace_back("recordSeconds", hexDouble(r.recordSeconds));
    d.emplace_back("replayRollbackSeconds",
                   hexDouble(r.replayRollbackSeconds));
    d.emplace_back("repredications", std::to_string(r.repredications));
    d.emplace_back("repredStaticSeconds", hexDouble(r.repredStaticSeconds));
    d.emplace_back("circuitBroken", std::to_string(r.circuitBroken));
    d.emplace_back("demotions", describeViolations(r.demotions));
    return d;
}

Digest
digestOf(const core::OptSliceResult &r)
{
    Digest d;
    d.emplace_back("name", r.name);
    d.emplace_back("soundPts.cs", std::to_string(r.soundPts.contextSensitive));
    d.emplace_back("soundPts.seconds", hexDouble(r.soundPts.seconds));
    d.emplace_back("soundSlice.cs",
                   std::to_string(r.soundSlice.contextSensitive));
    d.emplace_back("soundSlice.seconds", hexDouble(r.soundSlice.seconds));
    d.emplace_back("optPts.cs", std::to_string(r.optPts.contextSensitive));
    d.emplace_back("optPts.seconds", hexDouble(r.optPts.seconds));
    d.emplace_back("optSlice.cs", std::to_string(r.optSlice.contextSensitive));
    d.emplace_back("optSlice.seconds", hexDouble(r.optSlice.seconds));
    d.emplace_back("profileSeconds", hexDouble(r.profileSeconds));
    d.emplace_back("profileRunsUsed", std::to_string(r.profileRunsUsed));
    d.emplace_back("endpoints", std::to_string(r.endpoints));
    d.emplace_back("testRuns", std::to_string(r.testRuns));
    d.emplace_back("baselineSeconds", hexDouble(r.baselineSeconds));
    addCost(d, "hybrid", r.hybrid);
    addCost(d, "optimistic", r.optimistic);
    d.emplace_back("misSpeculations", std::to_string(r.misSpeculations));
    d.emplace_back("sliceResultsMatch", std::to_string(r.sliceResultsMatch));
    d.emplace_back("soundSliceSize", hexDouble(r.soundSliceSize));
    d.emplace_back("optSliceSize", hexDouble(r.optSliceSize));
    d.emplace_back("soundAliasRate", hexDouble(r.soundAliasRate));
    d.emplace_back("optAliasRate", hexDouble(r.optAliasRate));
    d.emplace_back("dynSpeedup", hexDouble(r.dynSpeedup));
    d.emplace_back("breakEven", hexDouble(r.breakEven));
    d.emplace_back("interpretedSteps", std::to_string(r.interpretedSteps));
    d.emplace_back("replayedEvents", std::to_string(r.replayedEvents));
    d.emplace_back("recordSeconds", hexDouble(r.recordSeconds));
    d.emplace_back("replayRollbackSeconds",
                   hexDouble(r.replayRollbackSeconds));
    d.emplace_back("repredications", std::to_string(r.repredications));
    d.emplace_back("repredStaticSeconds", hexDouble(r.repredStaticSeconds));
    d.emplace_back("circuitBroken", std::to_string(r.circuitBroken));
    d.emplace_back("demotions", describeViolations(r.demotions));
    return d;
}

DigestComparison
compareDigests(const Digest &expected, const Digest &actual)
{
    // Modeled static costs are priced from the static phase's
    // workUnits, which docs/SERVICE.md documents as the incremental
    // effort when a lineage patch produced the cached result.
    static const std::set<std::string> modeledStatic = {
        "soundStaticSeconds", "predStaticSeconds", "repredStaticSeconds",
        "breakEvenVsHybrid",  "breakEvenVsFastTrack", "soundPts.seconds",
        "soundSlice.seconds", "optPts.seconds",       "optSlice.seconds",
        "breakEven"};
    DigestComparison out;
    if (expected.size() != actual.size()) {
        out.resultDifference = "digest length";
        return out;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (expected[i] == actual[i])
            continue;
        if (modeledStatic.count(expected[i].first)) {
            ++out.modeledStaticDifferences;
        } else if (out.resultDifference.empty()) {
            out.resultDifference = expected[i].first + ": " +
                                   expected[i].second + " vs " +
                                   actual[i].second;
        }
    }
    return out;
}

} // namespace ohabench
