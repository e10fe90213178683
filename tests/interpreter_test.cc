/**
 * @file
 * Tests for the execution engine: semantics of every opcode,
 * multithreading, locking, determinism/replay and instrumentation
 * delivery.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "exec/interpreter.h"
#include "exec/trace.h"
#include "ir/builder.h"
#include "support/rng.h"
#include "workloads/builder_util.h"
#include "workloads/workloads.h"

namespace oha::exec {
namespace {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Reg;

/** Run @p module with no instrumentation and return the result. */
RunResult
runPlain(const Module &module, ExecConfig config = {})
{
    Interpreter interp(module, std::move(config));
    return interp.run();
}

TEST(Interpreter, ArithmeticAndOutput)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg x = b.constInt(6);
    const Reg y = b.constInt(7);
    b.output(b.mul(x, y));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].second, 42);
}

TEST(Interpreter, OverflowingArithmeticWrapsLiveAndOnReplay)
{
    // INT64_MIN / -1 used to trap the host (SIGFPE); overflowing
    // add/sub/mul were undefined.  The guest sees wrapped values, and
    // a replay of the capture reports the same outputs.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg min = b.constInt(kMin);
    const Reg max = b.constInt(kMax);
    const Reg minusOne = b.constInt(-1);
    const Reg two = b.constInt(2);
    b.output(b.binop(BinOpKind::Div, min, minusOne));
    b.output(b.binop(BinOpKind::Mod, min, minusOne));
    b.output(b.add(max, two));
    b.output(b.sub(min, two));
    b.output(b.mul(max, two));
    b.ret();
    module.finalize();

    const std::vector<std::int64_t> expected = {kMin, 0, kMin + 1,
                                                kMax - 1, -2};
    const RunResult live = runPlain(module);
    ASSERT_TRUE(live.finished());
    std::vector<std::int64_t> values;
    for (const auto &[instr, value] : live.outputs)
        values.push_back(value);
    EXPECT_EQ(values, expected);

    const RecordedTrace trace = recordRun(module, {});
    TraceReplayer replayer(module, trace);
    const RunResult replayed = replayer.run();
    ASSERT_TRUE(replayed.finished());
    EXPECT_EQ(replayed.outputs, live.outputs);
}

TEST(Interpreter, MemoryLoadStoreGep)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(4);
    const Reg v = b.constInt(11);
    b.store(b.gep(buf, 2), v);
    b.output(b.load(b.gep(buf, 2)));
    b.output(b.load(b.gep(buf, 0))); // untouched cell reads 0
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 11);
    EXPECT_EQ(result.outputs[1].second, 0);
}

TEST(Interpreter, GlobalsAreSharedAndZeroInitialized)
{
    Module module;
    const auto g = module.addGlobal("g", 2);
    IRBuilder b(module);
    Function *setter = b.createFunction("setter", 0);
    {
        const Reg addr = b.gep(b.globalAddr(g), 1);
        b.store(addr, b.constInt(5));
        b.ret();
    }
    b.createFunction("main", 0);
    b.output(b.load(b.gep(b.globalAddr(g), 1)));
    b.call(setter, {});
    b.output(b.load(b.gep(b.globalAddr(g), 1)));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 0);
    EXPECT_EQ(result.outputs[1].second, 5);
}

TEST(Interpreter, CallPassesArgsAndReturnsValue)
{
    Module module;
    IRBuilder b(module);
    Function *addFn = b.createFunction("add2", 2);
    b.ret(b.add(0, 1));
    b.createFunction("main", 0);
    const Reg r =
        b.call(addFn, {b.constInt(30), b.constInt(12)});
    b.output(r);
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 42);
}

TEST(Interpreter, IndirectCallDispatch)
{
    Module module;
    IRBuilder b(module);
    Function *dbl = b.createFunction("dbl", 1);
    b.ret(b.add(0, 0));
    Function *neg = b.createFunction("neg", 1);
    b.ret(b.sub(b.constInt(0), 0));
    b.createFunction("main", 0);
    const Reg table = b.alloc(2);
    b.store(b.gep(table, 0), b.funcAddr(dbl));
    b.store(b.gep(table, 1), b.funcAddr(neg));
    const Reg which = b.input(0);
    const Reg fp = b.load(b.gepDyn(table, which));
    b.output(b.icall(fp, {b.constInt(21)}));
    b.ret();
    module.finalize();

    ExecConfig cfg;
    cfg.input = {0};
    EXPECT_EQ(runPlain(module, cfg).outputs[0].second, 42);
    cfg.input = {1};
    EXPECT_EQ(runPlain(module, cfg).outputs[0].second, -21);
}

TEST(Interpreter, LoopViaRedefinition)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    BasicBlock *body = b.createBlock(main, "body");
    BasicBlock *exit = b.createBlock(main, "exit");

    const Reg i = b.constInt(0);
    const Reg sum = b.constInt(0);
    const Reg n = b.constInt(10);
    const Reg one = b.constInt(1);
    b.br(loop);

    b.setInsertPoint(loop);
    b.condBr(b.lt(i, n), body, exit);

    b.setInsertPoint(body);
    b.binopTo(sum, BinOpKind::Add, sum, i);
    b.binopTo(i, BinOpKind::Add, i, one);
    b.br(loop);

    b.setInsertPoint(exit);
    b.output(sum);
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 45);
}

TEST(Interpreter, InputIndexingWraps)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    b.output(b.input(0));
    b.output(b.input(1));
    b.output(b.input(5)); // wraps to index 1
    b.ret();
    module.finalize();

    ExecConfig cfg;
    cfg.input = {10, 20, 30, 40};
    const RunResult result = runPlain(module, cfg);
    EXPECT_EQ(result.outputs[0].second, 10);
    EXPECT_EQ(result.outputs[1].second, 20);
    EXPECT_EQ(result.outputs[2].second, 20);
}

/** Build: main spawns `threads` workers incrementing a shared counter
 *  under a lock `iters` times each, joins them, outputs the counter. */
void
buildCounterProgram(Module &module, int threads, int iters)
{
    IRBuilder b(module);
    const auto shared = module.addGlobal("shared", 1);
    const auto mutex = module.addGlobal("mutex", 1);

    Function *worker = b.createFunction("worker", 0);
    {
        BasicBlock *loop = b.createBlock(worker, "loop");
        BasicBlock *body = b.createBlock(worker, "body");
        BasicBlock *done = b.createBlock(worker, "done");
        const Reg i = b.constInt(0);
        const Reg n = b.constInt(iters);
        const Reg one = b.constInt(1);
        b.br(loop);
        b.setInsertPoint(loop);
        b.condBr(b.lt(i, n), body, done);
        b.setInsertPoint(body);
        const Reg m = b.globalAddr(mutex);
        b.lock(m);
        const Reg addr = b.globalAddr(shared);
        b.store(addr, b.add(b.load(addr), one));
        b.unlock(m);
        b.binopTo(i, BinOpKind::Add, i, one);
        b.br(loop);
        b.setInsertPoint(done);
        b.ret();
    }

    Function *main = b.createFunction("main", 0);
    {
        std::vector<Reg> handles;
        for (int t = 0; t < threads; ++t)
            handles.push_back(b.spawn(worker, {}));
        for (const Reg h : handles)
            b.join(h);
        b.output(b.load(b.globalAddr(shared)));
        b.ret();
        (void)main;
    }
}

/** Build: main spawns 8 parents; each parent spawns 9 leaves and
 *  joins them.  Every thread updates a table under one of 4 striped
 *  locks, so 81 threads (ids past 64) block on locks and on joins at
 *  once. */
void
buildJoinTreeProgram(Module &module)
{
    using workloads::emitCountedLoop;
    IRBuilder b(module);
    const auto table = module.addGlobal("table", 64);
    const auto stripes = module.addGlobal("stripes", 4);

    // Locked read-modify-write of table[key] under stripe key & 3.
    auto update = [&](Reg key, Reg delta) {
        const Reg lockPtr = b.gepDyn(b.globalAddr(stripes),
                                     b.band(key, b.constInt(3)));
        b.lock(lockPtr);
        const Reg cell = b.gepDyn(b.globalAddr(table), key);
        b.store(cell, b.add(b.load(cell), delta));
        b.unlock(lockPtr);
    };

    Function *leaf = b.createFunction("leaf", 1);
    {
        const Reg id = 0;
        const Reg acc = b.assign(id);
        emitCountedLoop(b, b.constInt(12), [&](Reg i) {
            const Reg key = b.band(
                b.add(b.mul(id, b.constInt(7)), b.mul(i, b.constInt(13))),
                b.constInt(63));
            update(key, b.add(acc, b.input(0)));
            b.binopTo(acc, BinOpKind::Add, acc, key);
        });
        b.ret(acc);
    }

    Function *parent = b.createFunction("parent", 1);
    {
        const Reg p = 0;
        const Reg sum = b.constInt(0);
        std::vector<Reg> handles;
        for (int c = 0; c < 9; ++c) {
            handles.push_back(b.spawn(
                leaf, {b.add(b.mul(p, b.constInt(9)), b.constInt(c))}));
        }
        update(p, b.constInt(1));
        for (const Reg h : handles)
            b.binopTo(sum, BinOpKind::Add, sum, b.join(h));
        b.ret(sum);
    }

    b.createFunction("main", 0);
    {
        const Reg total = b.constInt(0);
        std::vector<Reg> handles;
        for (int p = 0; p < 8; ++p)
            handles.push_back(b.spawn(parent, {b.constInt(p)}));
        for (const Reg h : handles)
            b.binopTo(total, BinOpKind::Add, total, b.join(h));
        b.output(total);
        for (int k = 0; k < 4; ++k)
            b.output(b.load(b.gep(b.globalAddr(table), k)));
        b.ret();
    }
}

/** FNV-1a digest of everything the scheduler decides or causes. */
std::uint64_t
scheduleDigest(const RunResult &result)
{
    std::uint64_t hash = 1469598103934665603ull;
    auto mix = [&](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    mix(result.schedule.size());
    for (const ScheduleStep &step : result.schedule) {
        mix(step.thread);
        mix(step.quantum);
    }
    mix(result.steps);
    mix(static_cast<std::uint64_t>(result.status));
    mix(result.numThreads);
    for (const auto &[instr, value] : result.outputs) {
        mix(instr);
        mix(static_cast<std::uint64_t>(value));
    }
    return hash;
}

/** The scheduler's picks are pinned: these digests were computed with
 *  the original scan-every-thread scheduler, and an incremental
 *  runnable set must reproduce every decision. */
TEST(Interpreter, GoldenScheduleOfJoinTreeProgram)
{
    Module module;
    buildJoinTreeProgram(module);
    module.finalize();

    const std::pair<std::uint64_t, std::uint64_t> golden[] = {
        {1, 0xa32461f94216b679ull},
        {7, 0x35aa102e7278f070ull},
        {424242, 0x6c9a9ea9ea3c977full}};
    for (const auto &[seed, digest] : golden) {
        ExecConfig cfg;
        cfg.input = {static_cast<std::int64_t>(seed % 5)};
        cfg.scheduleSeed = seed;
        cfg.recordSchedule = true;
        const RunResult result = runPlain(module, cfg);
        ASSERT_TRUE(result.finished());
        EXPECT_EQ(result.numThreads, 81u);
        EXPECT_EQ(scheduleDigest(result), digest)
            << "seed " << seed << " digest 0x" << std::hex
            << scheduleDigest(result) << std::dec << " steps "
            << result.steps << " quanta " << result.schedule.size();
    }
}

TEST(Interpreter, GoldenScheduleOfStripedStoreProgram)
{
    const auto module = workloads::makeStripedStoreModule(48);

    const std::pair<std::uint64_t, std::uint64_t> golden[] = {
        {3, 0x721d0bd70900ab3cull},
        {11, 0x54998ebd0927b8d7ull},
        {98765, 0x55fd093cb9c7c1eeull}};
    for (const auto &[seed, digest] : golden) {
        ExecConfig cfg = workloads::stripedStoreInput(seed);
        cfg.recordSchedule = true;
        const RunResult result = runPlain(*module, cfg);
        ASSERT_TRUE(result.finished());
        EXPECT_EQ(result.numThreads, 33u);
        EXPECT_EQ(scheduleDigest(result), digest)
            << "seed " << seed << " digest 0x" << std::hex
            << scheduleDigest(result) << std::dec << " steps "
            << result.steps << " quanta " << result.schedule.size();
    }
}

TEST(Interpreter, NthRunnableEqualsAscendingScanPick)
{
    // The scheduler picks the k-th set bit of the runnable set; the
    // original scheduler picked runnable[k] of an ascending scan over
    // every thread.  They must agree for any mask, across word
    // boundaries.
    Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto threads = static_cast<ThreadId>(1 + rng.below(200));
        const double density = 0.05 + 0.9 * double(rng.below(100)) / 100;
        ThreadSet set;
        std::vector<ThreadId> scan;
        for (ThreadId tid = 0; tid < threads; ++tid) {
            if (rng.chance(density)) {
                set.insert(tid);
                scan.push_back(tid);
            }
        }
        // Churn: erase and re-insert some members, as blocking and
        // waking do.
        for (const ThreadId tid : scan) {
            if (rng.chance(0.3)) {
                set.erase(tid);
                EXPECT_FALSE(set.contains(tid));
                set.insert(tid);
            }
        }
        ASSERT_EQ(set.size(), scan.size());
        for (std::size_t k = 0; k < scan.size(); ++k)
            ASSERT_EQ(set.nth(k), scan[k]) << "trial " << trial;
        if (!scan.empty()) {
            Rng a(static_cast<std::uint64_t>(trial));
            Rng b(static_cast<std::uint64_t>(trial));
            EXPECT_EQ(set.nth(a.below(set.size())),
                      scan[b.below(scan.size())]);
        }
        std::vector<ThreadId> visited;
        set.forEach([&](ThreadId tid) { visited.push_back(tid); });
        EXPECT_EQ(visited, scan);
    }
}

TEST(Interpreter, LockedCounterIsExact)
{
    Module module;
    buildCounterProgram(module, 4, 50);
    module.finalize();

    for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
        ExecConfig cfg;
        cfg.scheduleSeed = seed;
        const RunResult result = runPlain(module, cfg);
        ASSERT_TRUE(result.finished());
        EXPECT_EQ(result.outputs[0].second, 200);
        EXPECT_EQ(result.numThreads, 5u);
    }
}

TEST(Interpreter, ReplayIsDeterministic)
{
    Module module;
    buildCounterProgram(module, 3, 20);
    module.finalize();

    ExecConfig cfg;
    cfg.scheduleSeed = 1234;

    // Capture a scheduling-sensitive observable: total per-class event
    // counts and step count must match exactly across replays.
    const RunResult first = runPlain(module, cfg);
    const RunResult second = runPlain(module, cfg);
    EXPECT_EQ(first.steps, second.steps);
    for (std::size_t i = 0; i < kNumEventClasses; ++i) {
        EXPECT_EQ(first.totalEvents.counts[i], second.totalEvents.counts[i]);
    }
}

TEST(Interpreter, ScheduleTraceReplaysUnderDifferentSeed)
{
    Module module;
    buildCounterProgram(module, 3, 20);
    module.finalize();

    // Record the schedule of a run under seed A.
    ExecConfig record;
    record.scheduleSeed = 17;
    record.recordSchedule = true;
    Interpreter recorder(module, record);
    const RunResult original = recorder.run();
    ASSERT_TRUE(original.finished());
    ASSERT_FALSE(original.schedule.empty());

    // Replay the trace with a completely different seed: the
    // interleaving (and hence every event count) must be identical.
    ExecConfig replay;
    replay.scheduleSeed = 999999;
    replay.replaySchedule = original.schedule;
    replay.recordSchedule = true;
    Interpreter replayer(module, replay);
    const RunResult replayed = replayer.run();
    ASSERT_TRUE(replayed.finished());
    EXPECT_EQ(replayed.steps, original.steps);
    EXPECT_EQ(replayed.outputs, original.outputs);
    EXPECT_EQ(replayed.schedule, original.schedule);
    for (std::size_t i = 0; i < kNumEventClasses; ++i) {
        EXPECT_EQ(replayed.totalEvents.counts[i],
                  original.totalEvents.counts[i]);
    }
}

TEST(Interpreter, DifferentSeedsInterleaveDifferently)
{
    Module module;
    buildCounterProgram(module, 3, 30);
    module.finalize();

    ExecConfig a;
    a.scheduleSeed = 1;
    ExecConfig b;
    b.scheduleSeed = 2;
    // Steps may coincide; lock contention patterns rarely do.  Use
    // total steps as a weak signal, falling back to success if equal.
    const RunResult ra = runPlain(module, a);
    const RunResult rb = runPlain(module, b);
    EXPECT_TRUE(ra.finished());
    EXPECT_TRUE(rb.finished());
}

TEST(Interpreter, JoinReturnsThreadValue)
{
    Module module;
    IRBuilder b(module);
    Function *worker = b.createFunction("worker", 1);
    b.ret(b.mul(0, 0));
    b.createFunction("main", 0);
    const Reg h = b.spawn(worker, {b.constInt(9)});
    b.output(b.join(h));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 81);
}

TEST(Interpreter, CustomSyncSpinLoopTerminates)
{
    // Thread 2 spins on a flag written by thread 1: the scheduler
    // must preempt the spinner so the writer makes progress.
    Module module;
    IRBuilder b(module);
    const auto flag = module.addGlobal("flag", 1);

    Function *setter = b.createFunction("setter", 0);
    b.store(b.globalAddr(flag), b.constInt(1));
    b.ret();

    Function *main = b.createFunction("main", 0);
    BasicBlock *spin = b.createBlock(main, "spin");
    BasicBlock *done = b.createBlock(main, "done");
    b.spawn(setter, {});
    b.br(spin);
    b.setInsertPoint(spin);
    const Reg v = b.load(b.globalAddr(flag));
    b.condBr(v, done, spin);
    b.setInsertPoint(done);
    b.output(b.constInt(7));
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    ASSERT_TRUE(result.finished());
    EXPECT_EQ(result.outputs[0].second, 7);
}

TEST(Interpreter, GuestFaultOnBadDeref)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg notAPointer = b.constInt(3);
    b.load(notAPointer);
    b.ret();
    module.finalize();

    const RunResult result = runPlain(module);
    EXPECT_EQ(result.status, RunResult::Status::RuntimeError);
}

TEST(Interpreter, GuestFaultOnOutOfBounds)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    b.load(b.gep(buf, 5));
    b.ret();
    module.finalize();

    EXPECT_EQ(runPlain(module).status, RunResult::Status::RuntimeError);
}

TEST(Interpreter, DeadlockDetected)
{
    // main locks m and then joins a thread that also locks m.
    Module module;
    IRBuilder b(module);
    const auto mutex = module.addGlobal("m", 1);
    Function *worker = b.createFunction("worker", 0);
    b.lock(b.globalAddr(mutex));
    b.unlock(b.globalAddr(mutex));
    b.ret();
    b.createFunction("main", 0);
    b.lock(b.globalAddr(mutex));
    const Reg h = b.spawn(worker, {});
    b.join(h); // worker can never acquire the lock -> deadlock
    b.unlock(b.globalAddr(mutex));
    b.ret();
    module.finalize();

    EXPECT_EQ(runPlain(module).status, RunResult::Status::Deadlock);
}

TEST(Interpreter, StepLimitStopsRunawayLoop)
{
    Module module;
    IRBuilder b(module);
    Function *main = b.createFunction("main", 0);
    BasicBlock *loop = b.createBlock(main, "loop");
    b.br(loop);
    b.setInsertPoint(loop);
    b.br(loop);
    module.finalize();

    ExecConfig cfg;
    cfg.maxSteps = 1000;
    EXPECT_EQ(runPlain(module, cfg).status, RunResult::Status::StepLimit);
}

/** Tool that records every event it sees by class. */
class RecordingTool : public Tool
{
  public:
    void
    onEvent(const EventCtx &ctx) override
    {
        ++events[eventClassOf(ctx.instr->op)];
        if (ctx.instr->op == ir::Opcode::Store)
            lastStoreObj = ctx.obj;
    }

    void
    onBlockEnter(ThreadId, BlockId block) override
    {
        blocks.push_back(block);
    }

    void
    onThreadStart(ThreadId tid, ThreadId, InstrId) override
    {
        ++threadStarts;
        lastTid = tid;
    }

    std::map<EventClass, std::uint64_t> events;
    std::vector<BlockId> blocks;
    int threadStarts = 0;
    ThreadId lastTid = 0;
    ObjectId lastStoreObj = 0;
};

TEST(Interpreter, InstrumentationDeliversPlannedEventsOnly)
{
    Module module;
    buildCounterProgram(module, 2, 5);
    module.finalize();

    // Full plan sees loads and stores; empty plan sees nothing.
    RecordingTool full, none;
    const InstrumentationPlan allPlan = InstrumentationPlan::all(module);
    const InstrumentationPlan nonePlan = InstrumentationPlan::none(module);

    ExecConfig cfg;
    Interpreter interp(module, cfg);
    interp.attach(&full, &allPlan);
    interp.attach(&none, &nonePlan);
    const RunResult result = interp.run();
    ASSERT_TRUE(result.finished());

    EXPECT_GT(full.events[EventClass::Load], 0u);
    EXPECT_GT(full.events[EventClass::Store], 0u);
    EXPECT_GT(full.events[EventClass::Lock], 0u);
    EXPECT_EQ(full.events[EventClass::Lock],
              full.events[EventClass::Unlock]);
    EXPECT_EQ(full.events[EventClass::Spawn], 2u);
    EXPECT_EQ(full.events[EventClass::Join], 2u);
    EXPECT_TRUE(none.events.empty());
    EXPECT_TRUE(none.blocks.empty());
    EXPECT_EQ(full.threadStarts, 3);
    // Thread lifecycle callbacks are unconditional.
    EXPECT_EQ(none.threadStarts, 3);

    // Delivered counters mirror what each tool saw.
    EXPECT_EQ(result.delivered[0][EventClass::Lock],
              full.events[EventClass::Lock]);
    EXPECT_EQ(result.delivered[1].total(), 0u);
    // Total event counts are plan-independent.
    EXPECT_GE(result.totalEvents[EventClass::Load],
              full.events[EventClass::Load]);
}

TEST(Interpreter, SelectivePlanFiltersPerInstruction)
{
    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(2);
    const Reg v = b.constInt(1);
    b.store(b.gep(buf, 0), v); // instrumented
    b.store(b.gep(buf, 1), v); // elided
    b.ret();
    module.finalize();

    // Find the two store instructions.
    std::vector<InstrId> stores;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).op == ir::Opcode::Store)
            stores.push_back(id);
    ASSERT_EQ(stores.size(), 2u);

    InstrumentationPlan plan = InstrumentationPlan::none(module);
    plan.setInstr(stores[0], true);

    RecordingTool tool;
    Interpreter interp(module, {});
    interp.attach(&tool, &plan);
    ASSERT_TRUE(interp.run().finished());
    EXPECT_EQ(tool.events[EventClass::Store], 1u);
}

TEST(Interpreter, AbortFromToolStopsExecution)
{
    class AbortingTool : public Tool
    {
      public:
        explicit AbortingTool(Interpreter *interp) : interp_(interp) {}
        void
        onEvent(const EventCtx &ctx) override
        {
            if (ctx.instr->op == ir::Opcode::Store)
                interp_->requestAbort("test abort");
        }

      private:
        Interpreter *interp_;
    };

    Module module;
    IRBuilder b(module);
    b.createFunction("main", 0);
    const Reg buf = b.alloc(1);
    b.store(buf, b.constInt(1));
    b.output(b.constInt(99)); // never reached
    b.ret();
    module.finalize();

    const InstrumentationPlan plan = InstrumentationPlan::all(module);
    Interpreter interp(module, {});
    AbortingTool tool(&interp);
    interp.attach(&tool, &plan);
    const RunResult result = interp.run();
    EXPECT_EQ(result.status, RunResult::Status::Aborted);
    EXPECT_EQ(result.abortReason, "test abort");
    EXPECT_TRUE(result.outputs.empty());
}

} // namespace
} // namespace oha::exec
