/**
 * @file
 * The dispatch core shared by both event sources: the live
 * Interpreter and the TraceReplayer (trace.h).
 *
 * A dispatch core holds the tools attached to one pass over an
 * execution, organised in *configuration groups*, and everything a
 * pass needs to deliver events to them:
 *
 *  - per-site dispatch words (low byte: the attachments whose plan
 *    covers the instruction; high byte: its precomputed event class)
 *    and per-block cover masks;
 *  - the active mask: attachments of groups still running;
 *  - per-attachment delivery counts;
 *  - per-group abort requests, and the freeze of a group at the next
 *    instruction boundary after its abort (steps, event totals,
 *    thread count, output and schedule prefixes).
 *
 * Groups are independent: a tool aborting through control(g) stops
 * only group g, whose RunResult is frozen at the instruction boundary
 * where a solo run of that group would stop, while the other groups
 * run on.  Each group's RunResult therefore equals, field by field, a
 * solo run of that group's attachments, whichever event source drove
 * the pass.  That is what lets a cold input be analysed on its
 * recording pass (every configuration group attached to the live
 * interpreter next to the TraceRecorder) with the same results as a
 * replay of the capture.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/event.h"
#include "ir/module.h"

namespace oha::exec {

/** One scheduler decision: which thread ran, for how many steps. */
struct ScheduleStep
{
    ThreadId thread;
    std::uint32_t quantum;

    bool
    operator==(const ScheduleStep &other) const
    {
        return thread == other.thread && quantum == other.quantum;
    }
};

/** Outcome and accounting of one execution. */
struct RunResult
{
    enum class Status
    {
        Finished,     ///< program ran to completion
        Aborted,      ///< a tool requested abort (invariant violation)
        RuntimeError, ///< the guest program faulted
        Deadlock,     ///< all live threads blocked
        StepLimit,    ///< maxSteps exceeded
    };

    Status status = Status::Finished;
    std::string abortReason;
    /** Structured metadata from the aborting tool (all-zero unless the
     *  abort came through the metadata-carrying requestAbort). */
    AbortMetadata abortMeta;

    /** (instruction, value) pairs emitted by Output, in order. */
    std::vector<std::pair<InstrId, std::int64_t>> outputs;

    /** Total guest instructions executed. */
    std::uint64_t steps = 0;
    /** All events that occurred, by class, instrumented or not. */
    EventCounts totalEvents;
    /** Events actually delivered, per attached tool. */
    std::vector<EventCounts> delivered;
    /** Number of threads ever created (main included). */
    std::uint32_t numThreads = 0;

    /** Scheduler trace (only when ExecConfig::recordSchedule). */
    std::vector<ScheduleStep> schedule;

    bool finished() const { return status == Status::Finished; }
};

/**
 * Attachments, groups and per-pass dispatch state of one event source.
 * Attachments join the newest group (group 0 exists from
 * construction; addGroup() opens the next).  The core's own
 * requestAbort aborts group 0, so a single-group source behaves as a
 * plain ExecutionControl.
 */
class DispatchCore : public ExecutionControl
{
  public:
    /** Attachments per pass, across all groups: the dispatch masks
     *  are one byte. */
    static constexpr std::size_t kMaxAttachments = 8;

    DispatchCore();
    ~DispatchCore() override;

    DispatchCore(const DispatchCore &) = delete;
    DispatchCore &operator=(const DispatchCore &) = delete;

    /** Attach a tool filtered by @p plan to the newest group.  Both
     *  must outlive the pass.  Tools are notified in attachment
     *  order. */
    void attach(Tool *tool, const InstrumentationPlan *plan);

    /** Open a new configuration group; later attach() calls join it.
     *  Returns the group's index. */
    std::size_t addGroup();

    std::size_t numGroups() const { return groups_.size(); }

    /** Abort surface of group @p group.  A tool aborting through it
     *  stops only that group. */
    ExecutionControl &control(std::size_t group);

    /** Abort group 0. */
    void requestAbort(std::string reason) override;
    void requestAbort(std::string reason,
                      const AbortMetadata &meta) override;

  protected:
    /** Where the pass stands at an instruction boundary: what a group
     *  stopping there keeps. */
    struct Progress
    {
        std::uint64_t steps = 0;
        EventCounts totalEvents;
        std::uint32_t numThreads = 0;
        std::size_t outputs = 0;  ///< prefix of the execution's outputs
        std::size_t schedule = 0; ///< prefix of its schedule
    };

    /** Snapshot the attachments' plans into the per-site dispatch
     *  words and reset the per-pass state.  Called once when the pass
     *  starts; afterwards coverage is one 16-bit load per event. */
    void beginPass(const ir::Module &module);

    /** Deliver an instruction event to the attachments in @p mask
     *  (already filtered by the active mask). */
    void
    deliverEvent(const EventCtx &ctx, std::uint8_t mask, EventClass cls)
    {
        for (; mask; mask &= static_cast<std::uint8_t>(mask - 1)) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
            ++delivered_[i][cls];
            attachments_[i].tool->onEvent(ctx);
        }
    }

    void
    deliverBlockEnter(ThreadId tid, BlockId block)
    {
        for (auto mask = static_cast<std::uint8_t>(blockMask_[block] &
                                                   active_);
             mask; mask &= static_cast<std::uint8_t>(mask - 1)) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
            ++delivered_[i][EventClass::BlockEnter];
            attachments_[i].tool->onBlockEnter(tid, block);
        }
    }

    void
    deliverThreadStart(ThreadId tid, ThreadId parent, InstrId spawnSite)
    {
        for (std::uint8_t mask = active_; mask;
             mask &= static_cast<std::uint8_t>(mask - 1))
            attachments_[std::countr_zero(mask)].tool->onThreadStart(
                tid, parent, spawnSite);
    }

    void
    deliverThreadFinish(ThreadId tid)
    {
        for (std::uint8_t mask = active_; mask;
             mask &= static_cast<std::uint8_t>(mask - 1))
            attachments_[std::countr_zero(mask)].tool->onThreadFinish(tid);
    }

    /** Has some group asked to abort since the last freeze? */
    bool abortPending() const { return abortPending_; }

    /** Freeze every group whose abort is pending at @p at.  Sources
     *  call this at the next instruction boundary after the request:
     *  the aborting instruction completes all its deliveries, as in a
     *  solo run, and the group's attachments receive nothing more. */
    void freezeAbortedGroups(const Progress &at);

    /** Groups not yet stopped. */
    std::size_t runningGroups() const { return running_; }

    /** One RunResult per group, in group order: a stopped group gets
     *  Aborted with its frozen progress (and the prefixes of
     *  @p execution's outputs and schedule), a running group gets
     *  @p execution.  Each carries its attachments' delivery counts. */
    std::vector<RunResult> groupResults(RunResult execution) const;

    /** Per-instruction dispatch words (see beginPass). */
    std::vector<std::uint16_t> dispatch_;
    /** Attachments of groups still running.  A stopped group's bits
     *  are cleared, so every delivery skips its tools. */
    std::uint8_t active_ = 0;

  private:
    struct Attachment
    {
        Tool *tool;
        const InstrumentationPlan *plan;
        std::size_t group;
    };

    /** One group's abort request; the first request wins. */
    class Group final : public ExecutionControl
    {
      public:
        explicit Group(bool &anyPending) : anyPending_(anyPending) {}
        Group(const Group &) = delete;
        Group &operator=(const Group &) = delete;

        void requestAbort(std::string reason) override;
        void requestAbort(std::string reason,
                          const AbortMetadata &meta) override;

        bool requested = false;
        std::string reason;
        AbortMetadata meta;
        /** Dispatch bits of the group's attachments. */
        std::uint8_t bits = 0;
        /** Set once the group is frozen. */
        bool stopped = false;
        Progress frozen;

      private:
        bool &anyPending_; ///< core-wide "freeze at next boundary"
    };

    std::vector<Attachment> attachments_;
    std::vector<std::unique_ptr<Group>> groups_;
    std::vector<std::uint8_t> blockMask_;
    std::vector<EventCounts> delivered_;
    std::size_t running_ = 0;
    bool abortPending_ = false;
};

} // namespace oha::exec
