#include "workloads/builder_util.h"
#include "workloads/workloads.h"

#include "support/rng.h"

namespace oha::workloads {

std::shared_ptr<ir::Module>
makeStripedStoreModule(int opsPerThread)
{
    using ir::BinOpKind;
    using ir::Reg;
    auto module = std::make_shared<ir::Module>();
    ir::IRBuilder b(*module);
    const auto table = module->addGlobal("table", 1024);
    const auto stripes = module->addGlobal("stripe_locks", 16);
    const auto hits = module->addGlobal("hot_hits", 1);
    const auto hitsLock = module->addGlobal("hot_hits_lock", 1);

    ir::Function *worker = b.createFunction("kv_worker", 1);
    {
        const Reg tid = 0;
        const Reg acc = b.assign(tid);
        const Reg offset = b.mul(tid, b.constInt(97));
        emitCountedLoop(b, b.constInt(opsPerThread), [&](Reg i) {
            const Reg slot = b.band(b.add(offset, i), b.constInt(511));
            const Reg key =
                b.band(b.inputDyn(slot, 0), b.constInt(1023));
            const Reg lockPtr = b.gepDyn(b.globalAddr(stripes),
                                         b.band(key, b.constInt(15)));
            b.lock(lockPtr);
            const Reg cell = b.gepDyn(b.globalAddr(table), key);
            b.store(cell, b.add(b.load(cell), acc));
            b.unlock(lockPtr);
            b.binopTo(acc, BinOpKind::Xor, acc,
                      b.mul(key, b.constInt(31)));
            emitIf(b, b.eq(key, b.constInt(0)), [&] {
                const Reg lock = b.globalAddr(hitsLock);
                b.lock(lock);
                const Reg addr = b.globalAddr(hits);
                b.store(addr, b.add(b.load(addr), b.constInt(1)));
                b.unlock(lock);
            });
        });
        b.ret(acc);
    }

    b.createFunction("main", 0);
    {
        const Reg total = b.constInt(0);
        std::vector<Reg> handles;
        for (int t = 0; t < 32; ++t)
            handles.push_back(b.spawn(worker, {b.constInt(t)}));
        for (const Reg h : handles)
            b.binopTo(total, BinOpKind::Add, total, b.join(h));
        b.binopTo(total, BinOpKind::Add, total,
                  b.load(b.globalAddr(hits)));
        b.output(total);
        b.ret();
    }
    module->finalize();
    return module;
}

exec::ExecConfig
stripedStoreInput(std::uint64_t seed)
{
    Rng rng(seed);
    exec::ExecConfig config;
    config.input.resize(512);
    for (auto &key : config.input)
        key = static_cast<std::int64_t>(rng.below(rng.below(1024) + 1));
    config.scheduleSeed = seed;
    return config;
}

} // namespace oha::workloads
