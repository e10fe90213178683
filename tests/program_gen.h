/**
 * @file
 * Seeded random IR program generator shared by the randomized
 * differential tests: straight-line code plus bounded loops over
 * scalars, heap/global pointers, calls along an acyclic call DAG,
 * inputs and small critical sections, with a multithreaded variant
 * whose main spawns and joins random workers.  A program is a pure
 * function of its seed.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "support/rng.h"

namespace oha::testing_support {

using ir::BasicBlock;
using ir::BinOpKind;
using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

/** A pointer register and how many cells remain valid beyond it. */
struct PtrVal
{
    Reg reg;
    std::uint32_t remaining;
};

/** Random straight-line-plus-loops program generator. */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

    std::unique_ptr<Module>
    generate(bool multithreaded = false)
    {
        auto module = std::make_unique<Module>();
        IRBuilder b(*module);

        // A couple of globals for cross-function flow.
        const int numGlobals = 1 + int(rng_.below(3));
        for (int g = 0; g < numGlobals; ++g) {
            globals_.push_back(module->addGlobal(
                "g" + std::to_string(g),
                1 + std::uint32_t(rng_.below(4))));
            globalSizes_.push_back(
                module->globals().back().size);
        }

        // Callees first (an acyclic call DAG by construction).
        const int numFuncs = 2 + int(rng_.below(4));
        for (int f = 0; f < numFuncs; ++f) {
            const unsigned params = unsigned(rng_.below(3));
            Function *func = b.createFunction(
                "f" + std::to_string(f), params);
            emitBody(b, func, params, /*isMain=*/false);
            callees_.push_back(func);
        }
        Function *main = b.createFunction("main", 0);
        if (multithreaded) {
            emitMtMain(b);
        } else {
            emitBody(b, main, 0, /*isMain=*/true);
        }

        module->finalize();
        return module;
    }

  private:
    void
    emitBody(IRBuilder &b, Function *func, unsigned params, bool isMain)
    {
        scalars_.clear();
        ptrs_.clear();
        for (unsigned p = 0; p < params; ++p)
            scalars_.push_back(p);
        if (scalars_.empty())
            scalars_.push_back(b.constInt(std::int64_t(rng_.below(64))));

        const int instrs = 8 + int(rng_.below(24));
        for (int i = 0; i < instrs; ++i)
            emitRandomInstr(b);

        // Maybe a bounded loop with more work inside.
        if (rng_.chance(0.6)) {
            BasicBlock *head = b.createBlock(func, "head");
            BasicBlock *body = b.createBlock(func, "body");
            BasicBlock *exit = b.createBlock(func, "exit");
            const Reg i = b.constInt(0);
            const Reg n = b.constInt(2 + std::int64_t(rng_.below(6)));
            const Reg one = b.constInt(1);
            b.br(head);
            b.setInsertPoint(head);
            b.condBr(b.lt(i, n), body, exit);
            b.setInsertPoint(body);
            const int inner = 2 + int(rng_.below(6));
            for (int k = 0; k < inner; ++k)
                emitRandomInstr(b);
            b.binopTo(i, BinOpKind::Add, i, one);
            b.br(head);
            b.setInsertPoint(exit);
        }

        if (isMain) {
            // Several observable endpoints.
            const int outputs = 1 + int(rng_.below(3));
            for (int o = 0; o < outputs; ++o)
                b.output(pickScalar());
            b.ret();
        } else {
            b.ret(pickScalar());
        }
    }

    Reg
    pickScalar()
    {
        return scalars_[rng_.below(scalars_.size())];
    }

    void
    emitRandomInstr(IRBuilder &b)
    {
        switch (rng_.below(11)) {
          case 0:
            scalars_.push_back(
                b.constInt(std::int64_t(rng_.below(1000))));
            break;
          case 1: {
            static const BinOpKind kinds[] = {
                BinOpKind::Add, BinOpKind::Sub, BinOpKind::Mul,
                BinOpKind::Xor, BinOpKind::And, BinOpKind::Lt,
            };
            scalars_.push_back(b.binop(kinds[rng_.below(6)],
                                       pickScalar(), pickScalar()));
            break;
          }
          case 2: {
            const std::uint32_t size = 1 + std::uint32_t(rng_.below(4));
            ptrs_.push_back({b.alloc(size), size});
            break;
          }
          case 3: { // global address
            const std::size_t g = rng_.below(globals_.size());
            ptrs_.push_back(
                {b.globalAddr(globals_[g]), globalSizes_[g]});
            break;
          }
          case 4: { // gep within bounds
            if (ptrs_.empty())
                break;
            const PtrVal base = ptrs_[rng_.below(ptrs_.size())];
            if (base.remaining <= 1)
                break;
            const std::uint32_t field =
                std::uint32_t(rng_.below(base.remaining));
            ptrs_.push_back(
                {b.gep(base.reg, field), base.remaining - field});
            break;
          }
          case 5: // store a scalar
            if (!ptrs_.empty()) {
                b.store(ptrs_[rng_.below(ptrs_.size())].reg,
                        pickScalar());
            }
            break;
          case 6: // load
            if (!ptrs_.empty()) {
                scalars_.push_back(
                    b.load(ptrs_[rng_.below(ptrs_.size())].reg));
            }
            break;
          case 7: { // call an earlier function
            if (callees_.empty())
                break;
            Function *callee =
                callees_[rng_.below(callees_.size())];
            std::vector<Reg> args;
            for (unsigned p = 0; p < callee->numParams(); ++p)
                args.push_back(pickScalar());
            // Save/restore value pools around the callee's body
            // emission?  Not needed: callees are fully built before
            // main, so this is a plain call.
            scalars_.push_back(b.call(callee, std::move(args)));
            break;
          }
          case 8: // input
            scalars_.push_back(
                b.input(std::int64_t(rng_.below(8))));
            break;
          case 9: { // a small critical section on a global mutex
            const std::size_t g = rng_.below(globals_.size());
            const Reg mutex = b.globalAddr(globals_[g]);
            b.lock(mutex);
            if (!ptrs_.empty() && rng_.chance(0.8)) {
                const Reg p = ptrs_[rng_.below(ptrs_.size())].reg;
                b.store(p, pickScalar());
                scalars_.push_back(b.load(p));
            }
            b.unlock(mutex);
            break;
          }
          default: // register shuffling
            scalars_.push_back(b.assign(pickScalar()));
            break;
        }
    }

    /** main that spawns random workers: the race-fuzzing variant. */
    void
    emitMtMain(IRBuilder &b)
    {
        scalars_.clear();
        ptrs_.clear();
        scalars_.push_back(b.constInt(std::int64_t(rng_.below(64))));
        const int pre = 2 + int(rng_.below(8));
        for (int i = 0; i < pre; ++i)
            emitRandomInstr(b);

        std::vector<Reg> handles;
        const int threads = 2 + int(rng_.below(3));
        for (int t = 0; t < threads; ++t) {
            Function *worker = callees_[rng_.below(callees_.size())];
            std::vector<Reg> args;
            for (unsigned p = 0; p < worker->numParams(); ++p)
                args.push_back(pickScalar());
            handles.push_back(b.spawn(worker, std::move(args)));
            // Interleave a little main-thread work with live threads.
            for (int i = 0; i < int(rng_.below(4)); ++i)
                emitRandomInstr(b);
        }
        for (Reg h : handles)
            scalars_.push_back(b.join(h));
        for (int i = 0; i < int(rng_.below(5)); ++i)
            emitRandomInstr(b);
        b.output(pickScalar());
        b.ret();
    }

    Rng rng_;
    std::vector<std::uint32_t> globals_;
    std::vector<std::uint32_t> globalSizes_;
    std::vector<Function *> callees_;
    std::vector<Reg> scalars_;
    std::vector<PtrVal> ptrs_;
};

} // namespace oha::testing_support
