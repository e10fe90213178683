/**
 * @file
 * Randomized differential testing: generate random well-formed IR
 * programs from a seed, then check system-wide properties that must
 * hold for *any* program:
 *  - printer/parser round-trip preserves text and behaviour;
 *  - execution is deterministic;
 *  - every dynamically-touched address lies in the static points-to
 *    set of its access;
 *  - every dynamic slice is contained in the sound static slice;
 *  - hybrid (static-slice-planned) Giri equals pure Giri.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/race_detector.h"
#include "analysis/slicer.h"
#include "dyn/fasttrack.h"
#include "dyn/giri.h"
#include "dyn/plans.h"
#include "exec/interpreter.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "program_gen.h"

namespace oha {
namespace {

using ir::Module;
using testing_support::ProgramGen;

class RandomProgram : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    SetUp() override
    {
        // Callees built before main can only call *previously built*
        // functions, so the call graph is acyclic and terminating.
        ProgramGen gen(GetParam());
        module_ = gen.generate();
        config_.input = {3, 1, 4, 1, 5, 9, 2, 6};
        config_.scheduleSeed = GetParam();
    }

    std::unique_ptr<Module> module_;
    exec::ExecConfig config_;
};

TEST_P(RandomProgram, ExecutesCleanlyAndDeterministically)
{
    exec::Interpreter a(*module_, config_);
    const auto ra = a.run();
    ASSERT_TRUE(ra.finished()) << ra.abortReason;
    exec::Interpreter b(*module_, config_);
    EXPECT_EQ(b.run().outputs, ra.outputs);
}

TEST_P(RandomProgram, PrintParseRoundTrip)
{
    const std::string once = ir::printModule(*module_);
    const auto reparsed = ir::parseModule(once);
    EXPECT_EQ(ir::printModule(*reparsed), once);
    exec::Interpreter a(*module_, config_);
    exec::Interpreter b(*reparsed, config_);
    EXPECT_EQ(a.run().outputs, b.run().outputs);
}

TEST_P(RandomProgram, DynamicAccessesWithinPointsTo)
{
    const auto pts = analysis::runAndersen(*module_, {});

    class Recorder : public exec::Tool
    {
      public:
        explicit Recorder(exec::Interpreter &interp) : interp_(interp) {}
        void
        onEvent(const exec::EventCtx &ctx) override
        {
            if (ctx.instr->isMemAccess())
                seen_[ctx.instr->id].insert(
                    {interp_.objectAllocSite(ctx.obj), ctx.obj,
                     ctx.off});
        }
        std::map<InstrId,
                 std::set<std::tuple<InstrId, exec::ObjectId,
                                     std::uint32_t>>>
            seen_;

      private:
        exec::Interpreter &interp_;
    };

    const auto plan = exec::InstrumentationPlan::all(*module_);
    exec::Interpreter interp(*module_, config_);
    Recorder recorder(interp);
    interp.attach(&recorder, &plan);
    ASSERT_TRUE(interp.run().finished());

    for (const auto &[instr, touched] : recorder.seen_) {
        const SparseBitSet targets = pts.pointerTargets(instr);
        for (const auto &[site, obj, off] : touched) {
            bool found = false;
            targets.forEach([&](analysis::CellId cell) {
                const auto &object =
                    pts.memory.object(pts.memory.objectOfCell(cell));
                if (pts.memory.fieldOfCell(cell) != off)
                    return;
                if (site == kNoInstr) {
                    found = found ||
                            (object.kind ==
                                 analysis::AbsObjectKind::Global &&
                             object.srcId == obj);
                } else {
                    found = found ||
                            (object.kind ==
                                 analysis::AbsObjectKind::AllocSite &&
                             object.srcId == site);
                }
            });
            EXPECT_TRUE(found) << "seed " << GetParam() << " access i"
                               << instr;
        }
    }
}

TEST_P(RandomProgram, DynamicSliceWithinStaticSliceAndHybridMatchesPure)
{
    const auto pts = analysis::runAndersen(*module_, {});
    const analysis::StaticSlicer slicer(*module_, pts, {});
    const auto fullPlan = dyn::fullGiriPlan(*module_);

    dyn::GiriSlicer pure(*module_);
    {
        exec::Interpreter interp(*module_, config_);
        interp.attach(&pure, &fullPlan);
        ASSERT_TRUE(interp.run().finished());
    }

    for (InstrId id = 0; id < module_->numInstrs(); ++id) {
        if (module_->instr(id).op != ir::Opcode::Output)
            continue;
        const auto staticSlice = slicer.slice(id);
        ASSERT_TRUE(staticSlice.completed);
        const auto dynamicSlice = pure.slice(id);
        for (InstrId instr : dynamicSlice) {
            const bool inStatic = staticSlice.instructions.count(instr) > 0;
            EXPECT_TRUE(inStatic)
                << "seed " << GetParam() << " endpoint " << id;
            if (!inStatic && ::getenv("OHA_DUMP")) {
                std::fprintf(stderr, "MISSING i%u: %s\n", instr,
                    ir::printInstruction(*module_, module_->instr(instr)).c_str());
                std::fprintf(stderr, "%s\n", ir::printModule(*module_).c_str());
            }
        }

        dyn::GiriSlicer hybrid(*module_);
        const auto plan =
            dyn::sliceGiriPlan(*module_, staticSlice.instructions);
        exec::Interpreter interp(*module_, config_);
        interp.attach(&hybrid, &plan);
        ASSERT_TRUE(interp.run().finished());
        EXPECT_EQ(hybrid.slice(id), dynamicSlice);
        EXPECT_EQ(hybrid.missingDependencies(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 25));

class RandomMtProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomMtProgram, ObservedRacesAreStaticallyReported)
{
    ProgramGen gen(GetParam() * 7919 + 3);
    const auto module = gen.generate(/*multithreaded=*/true);

    const auto staticResult =
        analysis::runStaticRaceDetector(*module, nullptr);
    const auto plan = dyn::fullFastTrackPlan(*module);

    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        exec::ExecConfig config;
        config.input = {3, 1, 4, 1, 5, 9, 2, 6};
        config.scheduleSeed = seed;
        dyn::FastTrack tool;
        exec::Interpreter interp(*module, config);
        interp.attach(&tool, &plan);
        const auto result = interp.run();
        ASSERT_TRUE(result.finished()) << result.abortReason;
        for (const auto &pair : tool.racePairs()) {
            EXPECT_TRUE(staticResult.racyPairs.count(pair))
                << "seed " << GetParam() << "/" << seed
                << ": dynamic race (" << pair.first << "," << pair.second
                << ") missed by the sound static detector";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, RandomMtProgram,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace oha
