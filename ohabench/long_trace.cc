#include "long_trace.h"

#include <vector>

#include "ir/builder.h"
#include "support/rng.h"
#include "workloads/builder_util.h"
#include "zipf.h"

namespace ohabench {

using oha::Rng;
using oha::ir::BinOpKind;
using oha::ir::Function;
using oha::ir::IRBuilder;
using oha::ir::Module;
using oha::ir::Reg;
using oha::workloads::emitCountedLoop;
using oha::workloads::emitIf;

namespace {

/** Shape of the generated store. */
constexpr int kThreads = 32;
constexpr int kKeys = 1024;
constexpr int kStripes = 16;
/** Zipf key draws the program reads (input words). */
constexpr int kDrawWords = 4096;
constexpr double kZipfSkew = 0.99;
/** Operations per thread on profiling and on testing inputs. */
constexpr int kProfileOps = 64;
constexpr int kTestOps = 2048;

/** Input layout: word 0 = operations per thread, words 1.. = Zipf
 *  key draws. */
constexpr std::int64_t kDrawBase = 1;

std::shared_ptr<Module>
buildStore()
{
    auto module = std::make_shared<Module>();
    IRBuilder b(*module);

    const auto tableG = module->addGlobal("table", kKeys);
    const auto locksG = module->addGlobal("stripe_locks", kStripes);
    const auto hitsG = module->addGlobal("hot_hits", 1);
    const auto hitsLockG = module->addGlobal("hot_hits_lock", 1);

    // ---- worker(tid): ops x {draw key, lock stripe, read-modify-write,
    //      unlock}; key 0 additionally bumps a separately locked
    //      counter, so the hot key exercises a second lock.
    Function *worker = b.createFunction("kv_worker", 1);
    {
        const Reg tid = 0;
        const Reg acc = b.assign(tid);
        const Reg drawMask = b.constInt(kDrawWords - 1);
        const Reg keyMask = b.constInt(kKeys - 1);
        const Reg stripeMask = b.constInt(kStripes - 1);
        const Reg offset = b.mul(tid, b.constInt(97));
        emitCountedLoop(b, b.input(0), [&](Reg i) {
            const Reg slot = b.band(b.add(offset, i), drawMask);
            const Reg key = b.band(b.inputDyn(slot, kDrawBase), keyMask);
            const Reg lockPtr =
                b.gepDyn(b.globalAddr(locksG), b.band(key, stripeMask));
            b.lock(lockPtr);
            const Reg cell = b.gepDyn(b.globalAddr(tableG), key);
            b.store(cell, b.add(b.load(cell), acc));
            b.unlock(lockPtr);
            b.binopTo(acc, BinOpKind::Xor, acc,
                      b.mul(key, b.constInt(31)));
            emitIf(b, b.eq(key, b.constInt(0)), [&] {
                const Reg hitsLock = b.globalAddr(hitsLockG);
                b.lock(hitsLock);
                const Reg hits = b.globalAddr(hitsG);
                b.store(hits, b.add(b.load(hits), b.constInt(1)));
                b.unlock(hitsLock);
            });
        });
        b.ret(acc);
    }

    b.createFunction("main", 0);
    {
        const Reg total = b.constInt(0);
        std::vector<Reg> handles;
        for (int t = 0; t < kThreads; ++t)
            handles.push_back(b.spawn(worker, {b.constInt(t)}));
        for (Reg h : handles)
            b.binopTo(total, BinOpKind::Add, total, b.join(h));
        b.binopTo(total, BinOpKind::Add, total,
                  b.load(b.globalAddr(hitsG)));
        b.output(total);
        b.ret();
    }

    module->finalize();
    return module;
}

oha::exec::ExecConfig
makeInput(const Zipf &zipf, int ops, std::uint64_t seed)
{
    Rng rng(seed);
    oha::exec::ExecConfig config;
    config.input.resize(kDrawBase + kDrawWords);
    config.input[0] = ops;
    for (int i = 0; i < kDrawWords; ++i)
        config.input[kDrawBase + i] = zipf.draw(rng);
    config.scheduleSeed = rng.next();
    return config;
}

} // namespace

oha::workloads::Workload
makeLongTraceWorkload(std::uint64_t seed, std::size_t profileRuns,
                      std::size_t testRuns)
{
    oha::workloads::Workload workload;
    workload.name = "kvstore";
    workload.race = true;
    workload.module = buildStore();
    const Zipf zipf(kKeys, kZipfSkew);
    for (std::size_t i = 0; i < profileRuns; ++i) {
        workload.profilingSet.push_back(
            makeInput(zipf, kProfileOps, seed * 7919 + i));
    }
    for (std::size_t i = 0; i < testRuns; ++i) {
        workload.testingSet.push_back(
            makeInput(zipf, kTestOps, seed * 7919 + 100000 + i));
    }
    return workload;
}

} // namespace ohabench
