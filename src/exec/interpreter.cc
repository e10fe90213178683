#include "exec/interpreter.h"

#include <bit>
#include <new>
#include <utility>

#include "exec/trace.h"

namespace oha::exec {

namespace {

/** Internal exception used to unwind on guest program faults. */
struct GuestFault
{
    std::string message;
};

} // namespace

EventClass
eventClassOf(ir::Opcode op)
{
    using ir::Opcode;
    switch (op) {
      case Opcode::Load: return EventClass::Load;
      case Opcode::Store: return EventClass::Store;
      case Opcode::Lock: return EventClass::Lock;
      case Opcode::Unlock: return EventClass::Unlock;
      case Opcode::Spawn: return EventClass::Spawn;
      case Opcode::Join: return EventClass::Join;
      case Opcode::Call:
      case Opcode::ICall: return EventClass::Call;
      case Opcode::Ret: return EventClass::Ret;
      case Opcode::Output: return EventClass::Output;
      default: return EventClass::Other;
    }
}

Interpreter::Interpreter(const ir::Module &module, ExecConfig config)
    : module_(module), config_(std::move(config)),
      rng_(config_.scheduleSeed)
{
    OHA_ASSERT(module.finalized(), "interpreter requires finalized module");
}

InstrId
Interpreter::objectAllocSite(ObjectId obj) const
{
    OHA_ASSERT(obj < heap_.size());
    return heap_[obj].allocSite;
}

std::int64_t
Interpreter::encodeValue(const Value &value)
{
    switch (value.kind) {
      case ValueKind::Scalar:
        return value.num;
      case ValueKind::Pointer:
        return (std::int64_t{1} << 62) ^
               (static_cast<std::int64_t>(value.obj) << 20) ^ value.off;
      case ValueKind::FuncPtr:
        return (std::int64_t{1} << 61) ^ value.idx;
      case ValueKind::Thread:
        return (std::int64_t{1} << 60) ^ value.idx;
    }
    return 0;
}

ObjectId
Interpreter::allocObject(InstrId site, std::uint32_t cells)
{
    const ObjectId obj = static_cast<ObjectId>(heap_.size());
    heap_.push_back({site, std::vector<Value>(cells)});
    lockOwner_.push_back(0);
    return obj;
}

Value &
Interpreter::reg(Frame &frame, ir::Reg r)
{
    // In bounds by construction: verifyModule (run by finalize(),
    // which the constructor requires) rejects any register index
    // >= numRegs(), and frames allocate exactly numRegs() slots.
    return frame.regs[r];
}

const Value &
Interpreter::regRead(Frame &frame, ir::Reg r)
{
    return frame.regs[r];
}

void
Interpreter::guestError(const std::string &message)
{
    throw GuestFault{message};
}

void
Interpreter::fireBlockEnter(ThreadId tid, BlockId block)
{
    ++totalEvents_[EventClass::BlockEnter];
    if (recorder_)
        recorder_->recordBlockEnter(tid, block);
    deliverBlockEnter(tid, block);
}

void
Interpreter::blockOn(ThreadCtx &thread, ThreadState state,
                     ThreadSet &waiters)
{
    thread.state = state;
    runnable_.erase(thread.tid);
    waiters.insert(thread.tid);
}

template <typename Pred>
void
Interpreter::wake(ThreadSet &waiters, Pred blockedOn)
{
    waiters.forEach([&](ThreadId tid) {
        ThreadCtx &waiter = threads_[tid];
        if (!blockedOn(waiter))
            return;
        waiter.state = ThreadState::Runnable;
        waiters.erase(tid);
        runnable_.insert(tid);
    });
}

void
Interpreter::freezeAtBoundary()
{
    Progress at;
    at.steps = steps_;
    at.totalEvents = totalEvents_;
    at.numThreads = static_cast<std::uint32_t>(threads_.size());
    at.outputs = outputs_.size();
    at.schedule = schedule_.size();
    freezeAbortedGroups(at);
}

void
Interpreter::enterBlock(ThreadCtx &thread, const ir::BasicBlock *block)
{
    Frame &frame = thread.stack.back();
    frame.block = block;
    frame.ip = 0;
    fireBlockEnter(thread.tid, block->id());
}

void
Interpreter::pushFrame(ThreadCtx &thread, const ir::Function *func,
                       const std::vector<Value> &args,
                       const ir::Instruction *callSite)
{
    Frame frame;
    frame.func = func;
    frame.regs.assign(func->numRegs(), Value{});
    for (std::size_t i = 0; i < args.size(); ++i)
        frame.regs[i] = args[i];
    frame.callSite = callSite;
    frame.frameId = nextFrameId_++;
    thread.stack.push_back(std::move(frame));
    enterBlock(thread, func->entry());
}

void
Interpreter::popFrame(ThreadCtx &thread, const Value &retVal)
{
    const Frame done = std::move(thread.stack.back());
    thread.stack.pop_back();
    if (thread.stack.empty()) {
        // Thread root returned: the thread is finished.
        thread.retVal = retVal;
        thread.state = ThreadState::Finished;
        runnable_.erase(thread.tid);
        --liveThreads_;
        if (recorder_)
            recorder_->recordThreadFinish(thread.tid);
        deliverThreadFinish(thread.tid);
        const ThreadId done = thread.tid;
        wake(joinWaiters_, [done](const ThreadCtx &joiner) {
            return joiner.waitTid == done;
        });
        return;
    }
    Frame &caller = thread.stack.back();
    if (done.callSite && done.callSite->dest != ir::kNoReg)
        reg(caller, done.callSite->dest) = retVal;
}

ThreadId
Interpreter::spawnThread(const ir::Function *func,
                         const std::vector<Value> &args, InstrId spawnSite,
                         ThreadId parent)
{
    const ThreadId tid = static_cast<ThreadId>(threads_.size());
    threads_.emplace_back();
    ThreadCtx &thread = threads_.back();
    thread.tid = tid;
    thread.spawnSite = spawnSite;
    runnable_.insert(tid);
    ++liveThreads_;
    if (recorder_)
        recorder_->recordThreadStart(tid, parent, spawnSite);
    deliverThreadStart(tid, parent, spawnSite);
    pushFrame(thread, func, args, nullptr);
    return tid;
}

void
Interpreter::runQuantum(std::uint32_t pick, std::uint64_t quantum)
{
    using ir::Opcode;

    for (std::uint64_t q = 0; q < quantum; ++q) {
        // Re-fetched every iteration: Spawn reallocates threads_ and
        // Call/Ret reallocate the frame stack.
        ThreadCtx &thread = threads_[pick];
        if (thread.state != ThreadState::Runnable)
            return;
        // Instruction boundary: a group whose tool aborted during the
        // previous instruction stops here.
        if (abortPending()) {
            freezeAtBoundary();
            if (runningGroups() == 0 && !recorder_)
                return;
        }
        if (steps_ >= config_.maxSteps)
            return;

        // Instruction-boundary marker for trace capture: the next
        // recorded event carries the step flag, so replay can
        // reconstruct step counts and abort boundaries.
        if (recorder_)
            recorder_->beginStep();

        Frame &fr = thread.stack.back();
        // ip stays in range because every block ends in a terminator
        // (verifyModule) and terminators replace the block instead of
        // advancing ip.
        const ir::Instruction &ins = fr.block->instructions()[fr.ip];
        const ThreadId tid = thread.tid;

        // One 16-bit dispatch load: low byte says which attachments
        // cover this site, high byte is the precomputed event class.
        // When no tool covers the site the event context is never
        // populated and no tool loop runs — eliding a check really
        // does cost nothing, as the paper's speedup model assumes
        // (Section 2.3).
        const std::uint16_t disp = dispatch_[ins.id];
        const auto evMask = static_cast<std::uint8_t>(disp & active_);
        const auto cls = static_cast<EventClass>(disp >> 8);

        // The context stays uninitialized on uninstrumented sites:
        // zero-filling ~80 bytes per instruction is measurable on the
        // interpreter floor, so construction is deferred into the
        // wantCtx branch via a union.  A recorder captures every
        // event regardless of plan coverage, but reads context fields
        // only for payload-carrying opcodes, so payload-free records
        // (the bulk of the stream) skip construction too.
        const bool wantCtx =
            evMask != 0 ||
            (recorder_ != nullptr && TraceRecorder::opHasPayload(ins.op));
        union CtxSlot
        {
            CtxSlot() {}
            EventCtx ctx;
        } slot;
        EventCtx &ctx = slot.ctx;
        if (wantCtx) {
            new (&slot.ctx) EventCtx();
            ctx.tid = tid;
            ctx.instr = &ins;
            ctx.frameId = fr.frameId;
        }
        auto fire = [&] {
            ++totalEvents_.counts[static_cast<std::size_t>(cls)];
            if (recorder_)
                recorder_->recordEvent(tid, ins, ctx);
            if (evMask)
                deliverEvent(ctx, evMask, cls);
        };

        auto pointerOperand = [&](ir::Reg r) -> const Value & {
            const Value &value = regRead(fr, r);
            if (!value.isPointer())
                guestError("dereference of non-pointer value");
            return value;
        };
        auto checkBounds = [&](const Value &ptr) {
            if (ptr.obj >= heap_.size() ||
                ptr.off >= heap_[ptr.obj].cells.size()) {
                guestError("out-of-bounds memory access");
            }
        };

        switch (ins.op) {
          case Opcode::Alloc: {
            const ObjectId obj =
                allocObject(ins.id, static_cast<std::uint32_t>(ins.imm));
            reg(fr, ins.dest) = Value::pointer(obj, 0);
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::ConstInt:
            reg(fr, ins.dest) = Value::scalar(ins.imm);
            ++fr.ip;
            fire();
            break;
          case Opcode::Assign:
            reg(fr, ins.dest) = regRead(fr, ins.a);
            ++fr.ip;
            fire();
            break;
          case Opcode::BinOp: {
            const Value &lhs = regRead(fr, ins.a);
            const Value &rhs = regRead(fr, ins.b);
            std::int64_t result;
            if (lhs.isScalar() && rhs.isScalar()) {
                result = ir::evalBinOp(ins.binop, lhs.num, rhs.num);
            } else if (ins.binop == ir::BinOpKind::Eq) {
                result = lhs == rhs;
            } else if (ins.binop == ir::BinOpKind::Ne) {
                result = !(lhs == rhs);
            } else {
                guestError("arithmetic on non-scalar values");
            }
            reg(fr, ins.dest) = Value::scalar(result);
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::GlobalAddr:
            // Globals occupy object ids [0, numGlobals) by construction.
            reg(fr, ins.dest) = Value::pointer(ins.globalId, 0);
            ++fr.ip;
            fire();
            break;
          case Opcode::FuncAddr:
            reg(fr, ins.dest) = Value::funcPtr(ins.callee);
            ++fr.ip;
            fire();
            break;
          case Opcode::Gep: {
            const Value &base = pointerOperand(ins.a);
            const std::int64_t field =
                ins.b != ir::kNoReg ? regRead(fr, ins.b).num : ins.imm;
            const std::int64_t off = static_cast<std::int64_t>(base.off) + field;
            if (off < 0)
                guestError("negative pointer offset");
            reg(fr, ins.dest) =
                Value::pointer(base.obj, static_cast<std::uint32_t>(off));
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Load: {
            const Value ptr = pointerOperand(ins.a);
            checkBounds(ptr);
            const Value value = heap_[ptr.obj].cells[ptr.off];
            reg(fr, ins.dest) = value;
            if (wantCtx) {
                ctx.obj = ptr.obj;
                ctx.off = ptr.off;
                ctx.value = value;
            }
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Store: {
            const Value ptr = pointerOperand(ins.a);
            checkBounds(ptr);
            const Value value = regRead(fr, ins.b);
            heap_[ptr.obj].cells[ptr.off] = value;
            if (wantCtx) {
                ctx.obj = ptr.obj;
                ctx.off = ptr.off;
                ctx.value = value;
            }
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Call:
          case Opcode::ICall: {
            const ir::Function *callee;
            if (ins.op == Opcode::Call) {
                callee = module_.function(ins.callee);
            } else {
                const Value &fp = regRead(fr, ins.a);
                if (!fp.isFuncPtr())
                    guestError("indirect call through non-function value");
                callee = module_.function(fp.idx);
                if (callee->numParams() != ins.args.size())
                    guestError("indirect call arity mismatch");
            }
            std::vector<Value> args;
            args.reserve(ins.args.size());
            for (ir::Reg r : ins.args)
                args.push_back(regRead(fr, r));
            if (wantCtx)
                ctx.calleeResolved = callee->id();
            ++fr.ip;
            // pushFrame may reallocate the frame stack; fr is dead after.
            pushFrame(thread, callee, args, &ins);
            if (wantCtx)
                ctx.frame2 = thread.stack.back().frameId;
            fire();
            break;
          }
          case Opcode::Ret: {
            const Value retVal = ins.a != ir::kNoReg ? regRead(fr, ins.a)
                                                     : Value::scalar(0);
            if (wantCtx) {
                if (thread.stack.size() > 1) {
                    ctx.frame2 = thread.stack[thread.stack.size() - 2].frameId;
                    ctx.callInstr = fr.callSite;
                }
                ctx.value = retVal;
            }
            fire();
            popFrame(thread, retVal);
            break;
          }
          case Opcode::Br:
            enterBlock(thread, module_.block(ins.target));
            break;
          case Opcode::CondBr: {
            const bool taken = regRead(fr, ins.a).truthy();
            enterBlock(thread,
                       module_.block(taken ? ins.target : ins.target2));
            break;
          }
          case Opcode::Lock: {
            const Value ptr = pointerOperand(ins.a);
            checkBounds(ptr);
            const std::uint32_t owner = lockOwner_[ptr.obj];
            if (owner == tid + 1)
                guestError("recursive lock acquisition");
            if (owner != 0) {
                thread.waitObj = ptr.obj;
                blockOn(thread, ThreadState::BlockedOnLock, lockWaiters_);
                return;
            }
            lockOwner_[ptr.obj] = tid + 1;
            if (wantCtx) {
                ctx.obj = ptr.obj;
                ctx.off = ptr.off;
            }
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Unlock: {
            const Value ptr = pointerOperand(ins.a);
            checkBounds(ptr);
            if (lockOwner_[ptr.obj] != tid + 1)
                guestError("unlock of lock not held");
            if (wantCtx) {
                ctx.obj = ptr.obj;
                ctx.off = ptr.off;
            }
            ++fr.ip;
            fire();
            lockOwner_[ptr.obj] = 0;
            const ObjectId released = ptr.obj;
            wake(lockWaiters_, [released](const ThreadCtx &waiter) {
                return waiter.waitObj == released;
            });
            break;
          }
          case Opcode::Spawn: {
            const ir::Function *callee = module_.function(ins.callee);
            std::vector<Value> args;
            args.reserve(ins.args.size());
            for (ir::Reg r : ins.args)
                args.push_back(regRead(fr, r));
            const ir::Reg dest = ins.dest;
            const std::uint64_t callerFrame = fr.frameId;
            ++fr.ip;
            // spawnThread reallocates threads_; all references die here.
            const ThreadId child = spawnThread(callee, args, ins.id, tid);
            ThreadCtx &self = threads_[tid];
            reg(self.stack.back(), dest) = Value::thread(child);
            if (wantCtx) {
                ctx.frameId = callerFrame;
                ctx.otherTid = child;
                ctx.frame2 = threads_[child].stack.back().frameId;
            }
            fire();
            break;
          }
          case Opcode::Join: {
            const Value &handle = regRead(fr, ins.a);
            if (!handle.isThread())
                guestError("join of non-thread value");
            ThreadCtx &target = threads_[handle.idx];
            if (target.state != ThreadState::Finished) {
                thread.waitTid = handle.idx;
                blockOn(thread, ThreadState::BlockedOnJoin, joinWaiters_);
                return;
            }
            if (ins.dest != ir::kNoReg)
                reg(fr, ins.dest) = target.retVal;
            if (wantCtx) {
                ctx.otherTid = handle.idx;
                ctx.value = target.retVal;
            }
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Output: {
            const Value value = regRead(fr, ins.a);
            outputs_.push_back({ins.id, encodeValue(value)});
            if (wantCtx)
                ctx.value = value;
            ++fr.ip;
            fire();
            break;
          }
          case Opcode::Input: {
            std::int64_t index = ins.imm;
            if (ins.b != ir::kNoReg)
                index += regRead(fr, ins.b).num;
            std::int64_t value = 0;
            if (!config_.input.empty()) {
                const std::int64_t n =
                    static_cast<std::int64_t>(config_.input.size());
                value = config_.input[static_cast<std::size_t>(
                    ((index % n) + n) % n)];
            }
            reg(fr, ins.dest) = Value::scalar(value);
            ++fr.ip;
            fire();
            break;
          }
        }
        ++steps_;
    }
}

std::vector<RunResult>
Interpreter::runGroups(RunResult *executionOut)
{
    RunResult execution;

    // Snapshot the attachments' plans into flat per-site dispatch
    // masks; from here on coverage is one byte load per event.
    beginPass(module_);

    // Globals become heap objects [0, numGlobals) so GlobalAddr can
    // use the global id directly as the object id.
    for (const auto &global : module_.globals())
        allocObject(kNoInstr, global.size);

    const ir::Function *mainFunc = module_.entryFunction();
    if (mainFunc->numParams() != 0)
        OHA_FATAL("main() must take no parameters");

    try {
        spawnThread(mainFunc, {}, kNoInstr, 0);

        while (true) {
            if (abortPending())
                freezeAtBoundary();
            if (runningGroups() == 0 && !recorder_) {
                // Every group stopped; nothing is left to observe.
                execution.status = RunResult::Status::Aborted;
                break;
            }
            if (steps_ >= config_.maxSteps) {
                execution.status = RunResult::Status::StepLimit;
                break;
            }
            if (runnable_.size() == 0) {
                if (liveThreads_ > 0) {
                    execution.status = RunResult::Status::Deadlock;
                    execution.abortReason =
                        "deadlock: all live threads blocked";
                } else {
                    execution.status = RunResult::Status::Finished;
                }
                break;
            }

            // The pick is the k-th runnable thread in ascending id
            // order with k = rng.below(#runnable); the quantum is drawn
            // after it.  The runnable set is kept incrementally, so a
            // decision costs O(threads / 64), not a walk of every
            // thread.
            std::uint32_t pick;
            std::uint64_t quantum;
            if (scheduleCursor_ < config_.replaySchedule.size()) {
                // Replay mode: take the recorded decision verbatim.
                const ScheduleStep &step =
                    config_.replaySchedule[scheduleCursor_++];
                pick = step.thread;
                quantum = step.quantum;
                if (!runnable_.contains(pick)) {
                    OHA_FATAL("schedule replay diverged: thread %u not "
                              "runnable",
                              pick);
                }
            } else {
                pick = runnable_.nth(rng_.below(runnable_.size()));
                quantum = config_.minQuantum +
                          rng_.below(config_.maxQuantum -
                                     config_.minQuantum + 1);
            }
            if (config_.recordSchedule) {
                schedule_.push_back(
                    {pick, static_cast<std::uint32_t>(quantum)});
            }

            runQuantum(pick, quantum);
        }
    } catch (const GuestFault &fault) {
        execution.status = RunResult::Status::RuntimeError;
        execution.abortReason = fault.message;
    }
    // An abort requested during the final instruction still stops its
    // group, with every step counted.
    if (abortPending())
        freezeAtBoundary();

    execution.outputs = std::move(outputs_);
    execution.schedule = std::move(schedule_);
    execution.steps = steps_;
    execution.totalEvents = totalEvents_;
    execution.numThreads = static_cast<std::uint32_t>(threads_.size());
    if (executionOut)
        *executionOut = execution;
    return groupResults(std::move(execution));
}

RunResult
Interpreter::run()
{
    OHA_ASSERT(numGroups() == 1, "run() executes one group");
    return std::move(runGroups().front());
}

} // namespace oha::exec
