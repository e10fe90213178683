/**
 * @file
 * Unit tests for the IR: builder, module finalization, printer,
 * verifier helpers and CFG reachability.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/printer.h"

namespace oha::ir {
namespace {

TEST(IrBuilder, BuildsStraightLineFunction)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    const Reg a = builder.constInt(2);
    const Reg b = builder.constInt(3);
    const Reg c = builder.add(a, b);
    builder.output(c);
    builder.ret();
    module.finalize();

    EXPECT_EQ(module.numFunctions(), 1u);
    EXPECT_EQ(module.entryFunction(), main);
    EXPECT_EQ(module.numInstrs(), 5u);
    EXPECT_EQ(module.numBlocks(), 1u);

    const Instruction &add = module.instr(2);
    EXPECT_EQ(add.op, Opcode::BinOp);
    EXPECT_EQ(add.func, main->id());
}

TEST(IrBuilder, RegistersAreFreshPerDef)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    const Reg a = builder.constInt(1);
    const Reg b = builder.constInt(2);
    EXPECT_NE(a, b);
    builder.ret();
    module.finalize();
}

TEST(IrModule, InstrIdsAreDenseAndResolvable)
{
    Module module;
    IRBuilder builder(module);
    Function *helper = builder.createFunction("helper", 1);
    builder.ret(0);
    builder.createFunction("main", 0);
    const Reg x = builder.constInt(10);
    builder.call(helper, {x});
    builder.ret();
    module.finalize();

    for (InstrId id = 0; id < module.numInstrs(); ++id)
        EXPECT_EQ(module.instr(id).id, id);
}

TEST(IrModule, FunctionLookupByName)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("foo", 0);
    builder.ret();
    builder.createFunction("main", 0);
    builder.ret();
    module.finalize();

    EXPECT_NE(module.functionByName("foo"), nullptr);
    EXPECT_EQ(module.functionByName("bar"), nullptr);
}

TEST(IrModule, GlobalsGetSequentialIds)
{
    Module module;
    const std::uint32_t g0 = module.addGlobal("a", 4);
    const std::uint32_t g1 = module.addGlobal("b");
    EXPECT_EQ(g0, 0u);
    EXPECT_EQ(g1, 1u);
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    builder.ret();
    module.finalize();
    EXPECT_EQ(module.globals()[0].size, 4u);
    EXPECT_EQ(module.globals()[1].size, 1u);
}

TEST(IrInstruction, UsedRegs)
{
    Instruction store;
    store.op = Opcode::Store;
    store.a = 3;
    store.b = 7;
    std::vector<Reg> uses;
    store.usedRegs(uses);
    EXPECT_EQ(uses, (std::vector<Reg>{3, 7}));

    Instruction icall;
    icall.op = Opcode::ICall;
    icall.a = 1;
    icall.args = {4, 5};
    icall.usedRegs(uses);
    EXPECT_EQ(uses, (std::vector<Reg>{1, 4, 5}));
}

TEST(IrInstruction, EvalBinOp)
{
    EXPECT_EQ(evalBinOp(BinOpKind::Add, 2, 3), 5);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, 7, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, 7, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Lt, 1, 2), 1);
    EXPECT_EQ(evalBinOp(BinOpKind::Ge, 1, 2), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Xor, 6, 3), 5);
}

TEST(IrInstruction, EvalBinOpWrapsAtTheInt64Edges)
{
    // Guest arithmetic is total: overflow wraps in two's complement
    // and the one overflowing quotient is defined, never a host trap.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // A volatile operand keeps the compiler from folding the division,
    // so it runs on the host as the interpreter would run it.
    volatile std::int64_t minusOne = -1;
    EXPECT_EQ(evalBinOp(BinOpKind::Div, kMin, minusOne), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, kMin, minusOne), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, kMin, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, kMin, 0), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, kMax, -1), -kMax);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, 7, -1), 0);
    EXPECT_EQ(evalBinOp(BinOpKind::Div, -7, 2), -3);
    EXPECT_EQ(evalBinOp(BinOpKind::Mod, -7, 2), -1);
    EXPECT_EQ(evalBinOp(BinOpKind::Add, kMax, 1), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Add, kMin, -1), kMax);
    EXPECT_EQ(evalBinOp(BinOpKind::Sub, kMin, 1), kMax);
    EXPECT_EQ(evalBinOp(BinOpKind::Sub, 0, kMin), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Mul, kMax, 2), -2);
    EXPECT_EQ(evalBinOp(BinOpKind::Mul, kMin, -1), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Shl, -1, 63), kMin);
    EXPECT_EQ(evalBinOp(BinOpKind::Shr, kMin, 63), 1);
}

Module *
buildDiamond(Module &module, BasicBlock *&thenB, BasicBlock *&elseB,
             BasicBlock *&exitB)
{
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    thenB = builder.createBlock(main, "then");
    elseB = builder.createBlock(main, "else");
    exitB = builder.createBlock(main, "exit");

    const Reg cond = builder.input(0);
    builder.condBr(cond, thenB, elseB);
    builder.setInsertPoint(thenB);
    builder.br(exitB);
    builder.setInsertPoint(elseB);
    builder.br(exitB);
    builder.setInsertPoint(exitB);
    builder.ret();
    module.finalize();
    return &module;
}

TEST(Cfg, DiamondReachability)
{
    Module module;
    BasicBlock *thenB, *elseB, *exitB;
    buildDiamond(module, thenB, elseB, exitB);
    const Function &main = *module.entryFunction();
    Cfg cfg(main);

    const BlockId entry = main.entry()->id();
    EXPECT_TRUE(cfg.reaches(entry, exitB->id()));
    EXPECT_TRUE(cfg.reaches(thenB->id(), exitB->id()));
    EXPECT_FALSE(cfg.reaches(thenB->id(), elseB->id()));
    EXPECT_FALSE(cfg.reaches(exitB->id(), entry));
    EXPECT_FALSE(cfg.reaches(entry, entry)); // acyclic: not reflexive

    EXPECT_EQ(cfg.successors(entry).size(), 2u);
    EXPECT_EQ(cfg.predecessors(exitB->id()).size(), 2u);
    EXPECT_EQ(cfg.reachableFromEntry().size(), 4u);
}

TEST(Cfg, LoopIsSelfReaching)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    BasicBlock *loop = builder.createBlock(main, "loop");
    BasicBlock *exit = builder.createBlock(main, "exit");

    builder.br(loop);
    builder.setInsertPoint(loop);
    const Reg cond = builder.input(0);
    builder.condBr(cond, loop, exit);
    builder.setInsertPoint(exit);
    builder.ret();
    module.finalize();

    Cfg cfg(*main);
    EXPECT_TRUE(cfg.reaches(loop->id(), loop->id()));
    EXPECT_TRUE(cfg.mayPrecede(loop->id(), 1, loop->id(), 0));
    EXPECT_FALSE(cfg.reaches(exit->id(), exit->id()));
}

TEST(Cfg, MayPrecedeWithinBlockRespectsOrder)
{
    Module module;
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    builder.constInt(1);
    builder.constInt(2);
    builder.ret();
    module.finalize();

    Cfg cfg(*main);
    const BlockId entry = main->entry()->id();
    EXPECT_TRUE(cfg.mayPrecede(entry, 0, entry, 1));
    EXPECT_FALSE(cfg.mayPrecede(entry, 1, entry, 0));
}

TEST(IrPrinter, PrintsRecognizableText)
{
    Module module;
    module.addGlobal("counter", 2);
    IRBuilder builder(module);
    Function *main = builder.createFunction("main", 0);
    const Reg g = builder.globalAddr(0);
    const Reg v = builder.constInt(41);
    builder.store(g, v);
    const Reg loaded = builder.load(g);
    builder.output(loaded);
    builder.ret();
    module.finalize();

    const std::string text = printModule(module);
    EXPECT_NE(text.find("global counter[2]"), std::string::npos);
    EXPECT_NE(text.find("func main()"), std::string::npos);
    EXPECT_NE(text.find("&counter"), std::string::npos);
    EXPECT_NE(text.find("output"), std::string::npos);
    (void)main;
}

TEST(IrBuilder, RedefinitionHelpers)
{
    Module module;
    IRBuilder builder(module);
    builder.createFunction("main", 0);
    const Reg i = builder.constInt(0);
    const Reg one = builder.constInt(1);
    builder.binopTo(i, BinOpKind::Add, i, one);
    builder.assignTo(i, one);
    builder.constTo(i, 9);
    builder.ret();
    module.finalize();

    // Three redefinitions of the same register, no fresh registers.
    int defs = 0;
    for (InstrId id = 0; id < module.numInstrs(); ++id)
        if (module.instr(id).dest == i)
            ++defs;
    EXPECT_EQ(defs, 4); // original + 3 redefinitions
}

} // namespace
} // namespace oha::ir
