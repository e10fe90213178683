/**
 * @file
 * Tests for adaptive misspeculation recovery: the demote +
 * re-predicate repair loop in the OptFT/OptSlice pipelines, the
 * circuit breaker, and the determinism of the whole machinery across
 * thread counts.
 */

#include <gtest/gtest.h>

#include "core/optft.h"
#include "core/optslice.h"
#include "core/recovery.h"
#include "ir/builder.h"

namespace oha::core {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::IRBuilder;
using ir::Reg;

exec::ExecConfig
oneInput(std::int64_t v)
{
    exec::ExecConfig config;
    config.input = {v};
    return config;
}

/**
 * A race workload with exactly one wrong likely invariant: profiling
 * only ever sees input 0, so the input-1 cold block becomes likely
 * unreachable — and the testing corpus takes it twice.
 */
workloads::Workload
oneBadInvariantWorkload()
{
    workloads::Workload w;
    w.name = "adversarial-luc";
    w.race = true;
    w.module = std::make_shared<ir::Module>();
    IRBuilder b(*w.module);
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
    w.module->finalize();
    for (int i = 0; i < 6; ++i)
        w.profilingSet.push_back(oneInput(0));
    w.testingSet = {oneInput(1), oneInput(0), oneInput(1), oneInput(0),
                    oneInput(0)};
    return w;
}

/**
 * A race workload where one bad input violates several invariant
 * families in sequence: a likely-unreachable block, an unprofiled
 * indirect-call target (whose entry block is also unvisited), and a
 * second spawn from a profiled-singleton spawn site.
 */
workloads::Workload
multiViolationWorkload()
{
    workloads::Workload w;
    w.name = "adversarial-multi";
    w.race = true;
    w.module = std::make_shared<ir::Module>();
    IRBuilder b(*w.module);
    Function *worker = b.createFunction("worker", 0);
    b.ret(b.constInt(0));
    Function *fa = b.createFunction("fa", 0);
    b.ret(b.constInt(1));
    Function *fb = b.createFunction("fb", 0);
    b.ret(b.constInt(2));
    Function *main = b.createFunction("main", 0);
    BasicBlock *cold = b.createBlock(main, "cold");
    BasicBlock *join = b.createBlock(main, "join");
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(fa));
    b.store(b.gep(table, 1), b.funcAddr(fb));
    b.condBr(b.input(0), cold, join);
    b.setInsertPoint(cold);
    b.output(b.constInt(99));
    b.br(join);
    b.setInsertPoint(join);
    const Reg fp = b.load(b.gepDyn(table, b.input(0)));
    b.output(b.icall(fp, {}));
    // Spawn 1 + input threads from one site.
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *done = b.createBlock(main, "done");
    const Reg i = b.constInt(0);
    const Reg n = b.binop(ir::BinOpKind::Add, b.input(0), b.constInt(1));
    const Reg one = b.constInt(1);
    const Reg box = b.alloc(1);
    b.br(loop);
    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, done);
    b.setInsertPoint(body);
    b.store(box, b.spawn(worker, {}));
    b.join(b.load(box));
    b.binopTo(i, ir::BinOpKind::Add, i, one);
    b.br(loop);
    b.setInsertPoint(done);
    b.ret();
    w.module->finalize();
    for (int i = 0; i < 6; ++i)
        w.profilingSet.push_back(oneInput(0));
    w.testingSet = {oneInput(1), oneInput(1), oneInput(1), oneInput(1),
                    oneInput(1), oneInput(0), oneInput(0), oneInput(0)};
    return w;
}

TEST(RecoveryBreaker, RepairBudgetIsCheckedBeforeRepairing)
{
    const RecoveryBreaker breaker{/*maxRepredications=*/2,
                                  /*misspecRateThreshold=*/0.5,
                                  /*minRunsForRate=*/8};
    EXPECT_FALSE(breaker.tripped(0, 1, 1));
    EXPECT_FALSE(breaker.tripped(1, 2, 2));
    EXPECT_TRUE(breaker.tripped(2, 3, 3))
        << "budget exhausted: the third repair must not happen";
    // A zero budget trips on the very first rollback.
    const RecoveryBreaker zero{0, 0.5, 8};
    EXPECT_TRUE(zero.tripped(0, 1, 1));
}

TEST(RecoveryBreaker, RateThresholdArmsAtMinRuns)
{
    const RecoveryBreaker breaker{/*maxRepredications=*/100,
                                  /*misspecRateThreshold=*/0.5,
                                  /*minRunsForRate=*/8};
    // Under the arming threshold the rate never trips, however bad.
    EXPECT_FALSE(breaker.tripped(0, 7, 7));
    // At 8 evaluated: 5/8 > 0.5 trips, 4/8 does not (strict >).
    EXPECT_TRUE(breaker.tripped(0, 5, 8));
    EXPECT_FALSE(breaker.tripped(0, 4, 8));
}

TEST(AdaptiveRecovery, OneBadInvariantMeansOneRollback)
{
    const auto workload = oneBadInvariantWorkload();
    const auto result = runOptFt(workload);
    EXPECT_EQ(result.misSpeculations, 1u)
        << "the repaired plan must survive the second bad input";
    EXPECT_EQ(result.repredications, 1u);
    ASSERT_EQ(result.demotions.size(), 1u);
    EXPECT_EQ(result.demotions[0].family,
              dyn::ViolationFamily::UnreachableBlock);
    EXPECT_FALSE(result.circuitBroken);
    EXPECT_TRUE(result.raceReportsMatch);
    EXPECT_GT(result.repredStaticSeconds, 0.0);
}

TEST(AdaptiveRecovery, NonAdaptiveRollsBackEveryTime)
{
    const auto workload = oneBadInvariantWorkload();
    OptFtConfig config;
    config.adaptiveRecovery = false;
    const auto result = runOptFt(workload, config);
    EXPECT_EQ(result.misSpeculations, 2u)
        << "without repair both bad inputs pay a rollback";
    EXPECT_EQ(result.repredications, 0u);
    EXPECT_TRUE(result.demotions.empty());
    EXPECT_FALSE(result.circuitBroken);
    EXPECT_TRUE(result.raceReportsMatch);
    EXPECT_EQ(result.repredStaticSeconds, 0.0);
}

TEST(AdaptiveRecovery, ZeroRepairBudgetDegradesToHybrid)
{
    const auto workload = oneBadInvariantWorkload();
    OptFtConfig config;
    config.maxRepredications = 0;
    const auto result = runOptFt(workload, config);
    EXPECT_TRUE(result.circuitBroken);
    EXPECT_EQ(result.repredications, 0u);
    EXPECT_TRUE(result.demotions.empty());
    EXPECT_EQ(result.misSpeculations, 1u)
        << "degraded inputs run the sound hybrid plan: no speculation, "
           "no rollback — including the second bad input";
    EXPECT_TRUE(result.raceReportsMatch);
}

TEST(AdaptiveRecovery, MisspecRateThresholdTripsTheBreaker)
{
    const auto workload = oneBadInvariantWorkload();
    OptFtConfig config;
    config.misspecRateThreshold = 0.0;
    config.minRunsForMisspecRate = 1;
    const auto result = runOptFt(workload, config);
    EXPECT_TRUE(result.circuitBroken);
    EXPECT_TRUE(result.demotions.empty())
        << "the rate breaker fires before any repair";
    EXPECT_EQ(result.misSpeculations, 1u);
    EXPECT_TRUE(result.raceReportsMatch);
}

TEST(AdaptiveRecovery, MultiViolationRunDemotesDeterministically)
{
    const auto workload = multiViolationWorkload();
    OptFtConfig config;
    config.maxRepredications = 8;
    const auto first = runOptFt(workload, config);
    EXPECT_TRUE(first.raceReportsMatch);
    EXPECT_FALSE(first.circuitBroken);
    // One family per rollback, repaired in encounter order; the bad
    // input becomes clean once every lying fact is demoted.
    EXPECT_EQ(first.repredications, first.demotions.size());
    EXPECT_GE(first.demotions.size(), 3u);
    EXPECT_LT(first.misSpeculations, 5u)
        << "the fifth bad input must run clean";
    std::size_t luc = 0, callee = 0, spawn = 0;
    for (const dyn::Violation &v : first.demotions) {
        luc += v.family == dyn::ViolationFamily::UnreachableBlock;
        callee += v.family == dyn::ViolationFamily::CalleeSet;
        spawn += v.family == dyn::ViolationFamily::SingletonSpawn;
    }
    EXPECT_GE(luc, 1u);
    EXPECT_EQ(callee, 1u);
    EXPECT_EQ(spawn, 1u);

    // Byte-identical repair sequence on a re-run.
    const auto second = runOptFt(workload, config);
    EXPECT_EQ(first.demotions, second.demotions);
    EXPECT_EQ(first.misSpeculations, second.misSpeculations);
}

TEST(AdaptiveRecovery, RepairSequenceIsThreadCountInvariant)
{
    const auto workload = multiViolationWorkload();
    OptFtConfig serial, parallel;
    serial.maxRepredications = parallel.maxRepredications = 8;
    serial.threads = 1;
    parallel.threads = 4;
    const auto a = runOptFt(workload, serial);
    const auto b = runOptFt(workload, parallel);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.repredications, b.repredications);
    EXPECT_EQ(a.circuitBroken, b.circuitBroken);
    EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch);
    EXPECT_DOUBLE_EQ(a.optFt.normalized(), b.optFt.normalized());
    EXPECT_DOUBLE_EQ(a.repredStaticSeconds, b.repredStaticSeconds);
}

TEST(AdaptiveRecovery, LiveAndReplayModesAgree)
{
    const auto workload = multiViolationWorkload();
    OptFtConfig replay, live;
    replay.maxRepredications = live.maxRepredications = 8;
    replay.useTraceReplay = true;
    live.useTraceReplay = false;
    const auto a = runOptFt(workload, replay);
    const auto b = runOptFt(workload, live);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.repredications, b.repredications);
    EXPECT_EQ(a.raceReportsMatch, b.raceReportsMatch);
    EXPECT_DOUBLE_EQ(a.optFt.normalized(), b.optFt.normalized());
}

TEST(AdaptiveRecovery, OptSliceRepairReducesMisSpeculation)
{
    // go is tuned for unstable behaviour: with a tiny profiling set,
    // test inputs routinely violate invariants.
    const auto workload = workloads::makeSliceWorkload("go", 4, 10);
    OptSliceConfig off;
    off.adaptiveRecovery = false;
    const auto repaired = runOptSlice(workload);
    const auto historical = runOptSlice(workload, off);
    EXPECT_TRUE(repaired.sliceResultsMatch);
    EXPECT_TRUE(historical.sliceResultsMatch);
    EXPECT_GT(historical.misSpeculations, 0u);
    EXPECT_LE(repaired.misSpeculations, historical.misSpeculations);
    if (repaired.misSpeculations < historical.misSpeculations) {
        EXPECT_GE(repaired.repredications, 1u);
    }
    EXPECT_EQ(historical.repredications, 0u);
}

TEST(AdaptiveRecovery, OptSliceRepairIsThreadCountInvariant)
{
    const auto workload = workloads::makeSliceWorkload("go", 4, 8);
    OptSliceConfig serial, parallel;
    serial.threads = 1;
    parallel.threads = 4;
    const auto a = runOptSlice(workload, serial);
    const auto b = runOptSlice(workload, parallel);
    EXPECT_EQ(a.demotions, b.demotions);
    EXPECT_EQ(a.misSpeculations, b.misSpeculations);
    EXPECT_EQ(a.repredications, b.repredications);
    EXPECT_EQ(a.sliceResultsMatch, b.sliceResultsMatch);
    EXPECT_DOUBLE_EQ(a.optimistic.normalized(), b.optimistic.normalized());
}

} // namespace
} // namespace oha::core
