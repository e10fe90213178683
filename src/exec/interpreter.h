/**
 * @file
 * The OHA execution engine: a deterministic multi-threaded
 * interpreter for OHA IR with pluggable instrumentation.
 *
 * Determinism is the foundation of the paper's speculation story:
 * an execution is a pure function of (module, input, schedule seed),
 * so "roll back and re-execute with traditional hybrid analysis"
 * (Section 2.3) is exact — the sound re-analysis sees the very same
 * interleaving the optimistic run mis-speculated on.  This plays the
 * role of the record/replay system the paper assumes.
 */

#pragma once

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "exec/dispatch.h"
#include "exec/event.h"
#include "exec/value.h"
#include "ir/module.h"
#include "support/rng.h"

namespace oha::exec {

/** Inputs that fully determine an execution. */
struct ExecConfig
{
    /** Input word vector read by Input instructions. */
    std::vector<std::int64_t> input;
    /** Seed of the deterministic thread scheduler. */
    std::uint64_t scheduleSeed = 0;
    /** Hard cap on executed instructions (runaway protection). */
    std::uint64_t maxSteps = 200'000'000;
    /** Scheduler quantum bounds (instructions per slice). */
    std::uint32_t minQuantum = 16;
    std::uint32_t maxQuantum = 64;

    /** Capture the scheduler's decisions in RunResult::schedule.
     *  The seed already makes runs replayable; an explicit trace
     *  additionally allows replay under a *different* seed (classic
     *  record/replay, as rollback systems assume — Section 2.3). */
    bool recordSchedule = false;
    /** When non-empty, scheduling decisions are taken from this trace
     *  instead of the seeded RNG (the trace must come from a recorded
     *  run of the same module + input). */
    std::vector<ScheduleStep> replaySchedule;
};

/**
 * A set of thread ids: a bitset in ascending id order plus its
 * population count.  Insert and erase are O(1); nth(k) finds the k-th
 * member in ascending order in O(ids / 64).  The interpreter keeps its
 * runnable threads and its lock and join waiters in these, so a
 * scheduling decision never walks every thread.
 */
class ThreadSet
{
  public:
    void
    insert(ThreadId tid)
    {
        const std::size_t word = tid >> 6;
        if (word >= words_.size())
            words_.resize(word + 1, 0);
        const std::uint64_t bit = std::uint64_t{1} << (tid & 63);
        count_ += (words_[word] & bit) == 0;
        words_[word] |= bit;
    }

    void
    erase(ThreadId tid)
    {
        const std::size_t word = tid >> 6;
        if (word >= words_.size())
            return;
        const std::uint64_t bit = std::uint64_t{1} << (tid & 63);
        count_ -= (words_[word] & bit) != 0;
        words_[word] &= ~bit;
    }

    bool
    contains(ThreadId tid) const
    {
        const std::size_t word = tid >> 6;
        return word < words_.size() && (words_[word] >> (tid & 63)) & 1;
    }

    std::size_t size() const { return count_; }

    /** The @p k-th member in ascending id order; @p k < size(). */
    ThreadId
    nth(std::size_t k) const
    {
        for (std::size_t word = 0;; ++word) {
            std::uint64_t bits = words_[word];
            const auto pop = static_cast<std::size_t>(std::popcount(bits));
            if (k >= pop) {
                k -= pop;
                continue;
            }
            for (; k > 0; --k)
                bits &= bits - 1;
            return static_cast<ThreadId>(word * 64 +
                                         std::countr_zero(bits));
        }
    }

    /** Call @p fn on every member in ascending order.  @p fn may erase
     *  the member it is given. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t word = 0; word < words_.size(); ++word) {
            for (std::uint64_t bits = words_[word]; bits;
                 bits &= bits - 1) {
                fn(static_cast<ThreadId>(word * 64 +
                                         std::countr_zero(bits)));
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;
    std::size_t count_ = 0;
};

class TraceRecorder;

/**
 * Deterministic IR interpreter with instrumentation attachments.
 * Tools attach in configuration groups through the DispatchCore
 * surface (attach, addGroup, control), exactly as on a TraceReplayer:
 * a group whose tool aborts stops at the next instruction boundary
 * while the others run on.  The execution stops once every group has
 * stopped — unless a TraceRecorder is attached, in which case it
 * always runs to its end so the capture is complete.
 */
class Interpreter : public DispatchCore
{
  public:
    Interpreter(const ir::Module &module, ExecConfig config);

    /** Attach a trace-capture sink (trace.h).  Unlike a Tool, the
     *  recorder sees every event unconditionally — before plan
     *  filtering — plus instruction-boundary markers, so the recorded
     *  stream can later be replayed under any plan.  Must outlive
     *  run(). */
    void setRecorder(TraceRecorder *recorder) { recorder_ = recorder; }

    /** Execute the program once; one RunResult per group, in group
     *  order, each equal to a solo run of that group's attachments.
     *  @p execution, when given, receives the outcome of the execution
     *  itself: that of the same run with no tool attached (what a
     *  recording keeps). */
    std::vector<RunResult> runGroups(RunResult *execution = nullptr);

    /** Execute the program to completion (or abort); one group. */
    RunResult run();

    const ir::Module &module() const { return module_; }

    /** Allocation site of a heap object, or kNoInstr for globals. */
    InstrId objectAllocSite(ObjectId obj) const;

    /** Encode a value as a 64-bit observable (for Output records). */
    static std::int64_t encodeValue(const Value &value);

  private:
    struct Frame
    {
        const ir::Function *func = nullptr;
        const ir::BasicBlock *block = nullptr;
        std::size_t ip = 0;
        std::vector<Value> regs;
        const ir::Instruction *callSite = nullptr;
        std::uint64_t frameId = 0;
    };

    enum class ThreadState : std::uint8_t
    {
        Runnable, BlockedOnLock, BlockedOnJoin, Finished,
    };

    struct ThreadCtx
    {
        ThreadId tid = 0;
        ThreadState state = ThreadState::Runnable;
        std::vector<Frame> stack;
        ObjectId waitObj = 0;
        ThreadId waitTid = 0;
        Value retVal;
        InstrId spawnSite = kNoInstr;
    };

    struct HeapObject
    {
        InstrId allocSite = kNoInstr;
        std::vector<Value> cells;
    };

    /** Execute up to @p quantum instructions of thread @p pick,
     *  stopping early when it blocks, finishes, aborts, or hits the
     *  step limit.  The whole scheduling slice runs in one call so the
     *  per-instruction path has no function-call overhead. */
    void runQuantum(std::uint32_t pick, std::uint64_t quantum);

    void enterBlock(ThreadCtx &thread, const ir::BasicBlock *block);
    void pushFrame(ThreadCtx &thread, const ir::Function *func,
                   const std::vector<Value> &args,
                   const ir::Instruction *callSite);
    void popFrame(ThreadCtx &thread, const Value &retVal);
    ThreadId spawnThread(const ir::Function *func,
                         const std::vector<Value> &args, InstrId spawnSite,
                         ThreadId parent);

    void fireBlockEnter(ThreadId tid, BlockId block);

    /** Block the running thread @p thread on a lock or a join: it
     *  leaves the runnable set for @p waiters until woken. */
    void blockOn(ThreadCtx &thread, ThreadState state, ThreadSet &waiters);
    /** Wake every thread of @p waiters for which @p blockedOn holds. */
    template <typename Pred>
    void wake(ThreadSet &waiters, Pred blockedOn);

    /** Freeze the groups whose abort is pending at this instruction
     *  boundary. */
    void freezeAtBoundary();

    Value &reg(Frame &frame, ir::Reg r);
    const Value &regRead(Frame &frame, ir::Reg r);
    [[noreturn]] void guestError(const std::string &message);

    ObjectId allocObject(InstrId site, std::uint32_t cells);

    const ir::Module &module_;
    ExecConfig config_;
    Rng rng_;

    TraceRecorder *recorder_ = nullptr;
    std::vector<ThreadCtx> threads_;
    /** Scheduler state, kept incrementally: runnable threads, threads
     *  blocked on a lock or a join, and threads not yet finished. */
    ThreadSet runnable_;
    ThreadSet lockWaiters_;
    ThreadSet joinWaiters_;
    std::uint32_t liveThreads_ = 0;
    std::vector<HeapObject> heap_;
    /** obj -> owning thread + 1, or 0 when free. */
    std::vector<std::uint32_t> lockOwner_;

    std::uint64_t nextFrameId_ = 1;
    std::uint64_t steps_ = 0;
    std::size_t scheduleCursor_ = 0;
    std::vector<ScheduleStep> schedule_;
    EventCounts totalEvents_;
    std::vector<std::pair<InstrId, std::int64_t>> outputs_;
};

} // namespace oha::exec
