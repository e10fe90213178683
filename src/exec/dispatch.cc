#include "exec/dispatch.h"

namespace oha::exec {

DispatchCore::DispatchCore()
{
    groups_.push_back(std::make_unique<Group>(abortPending_));
}

DispatchCore::~DispatchCore() = default;

void
DispatchCore::attach(Tool *tool, const InstrumentationPlan *plan)
{
    OHA_ASSERT(tool && plan);
    attachments_.push_back({tool, plan, groups_.size() - 1});
}

std::size_t
DispatchCore::addGroup()
{
    groups_.push_back(std::make_unique<Group>(abortPending_));
    return groups_.size() - 1;
}

ExecutionControl &
DispatchCore::control(std::size_t group)
{
    OHA_ASSERT(group < groups_.size());
    return *groups_[group];
}

void
DispatchCore::requestAbort(std::string reason)
{
    groups_[0]->requestAbort(std::move(reason));
}

void
DispatchCore::requestAbort(std::string reason, const AbortMetadata &meta)
{
    groups_[0]->requestAbort(std::move(reason), meta);
}

void
DispatchCore::Group::requestAbort(std::string abortReason)
{
    if (!requested) {
        requested = true;
        reason = std::move(abortReason);
        anyPending_ = true;
    }
}

void
DispatchCore::Group::requestAbort(std::string abortReason,
                                  const AbortMetadata &abortMeta)
{
    if (!requested) {
        meta = abortMeta;
        requestAbort(std::move(abortReason));
    }
}

void
DispatchCore::beginPass(const ir::Module &module)
{
    const std::size_t numInstrs = module.numInstrs();
    const std::size_t numBlocks = module.numBlocks();
    OHA_ASSERT(attachments_.size() <= kMaxAttachments,
               "dispatch masks hold at most 8 attachments");
    dispatch_.resize(numInstrs);
    for (InstrId id = 0; id < numInstrs; ++id) {
        dispatch_[id] = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(eventClassOf(module.instr(id).op))
            << 8);
    }
    blockMask_.assign(numBlocks, 0);
    for (std::size_t i = 0; i < attachments_.size(); ++i) {
        const InstrumentationPlan &plan = *attachments_[i].plan;
        const auto bit = static_cast<std::uint8_t>(1u << i);
        groups_[attachments_[i].group]->bits |= bit;
        for (InstrId id = 0; id < numInstrs; ++id)
            if (plan.coversInstr(id))
                dispatch_[id] |= bit;
        for (BlockId id = 0; id < numBlocks; ++id)
            if (plan.coversBlock(id))
                blockMask_[id] |= bit;
    }
    active_ = static_cast<std::uint8_t>((1u << attachments_.size()) - 1);
    delivered_.assign(attachments_.size(), EventCounts{});
    running_ = groups_.size();
}

void
DispatchCore::freezeAbortedGroups(const Progress &at)
{
    abortPending_ = false;
    for (const auto &group : groups_) {
        if (group->stopped || !group->requested)
            continue;
        group->stopped = true;
        group->frozen = at;
        --running_;
        active_ &= static_cast<std::uint8_t>(~group->bits);
    }
}

std::vector<RunResult>
DispatchCore::groupResults(RunResult execution) const
{
    const std::size_t numGroups = groups_.size();
    std::vector<RunResult> results(numGroups);
    for (std::size_t g = 0; g < numGroups; ++g) {
        RunResult &result = results[g];
        const Group &group = *groups_[g];
        if (group.stopped) {
            const Progress &at = group.frozen;
            result.status = RunResult::Status::Aborted;
            result.abortReason = group.reason;
            result.abortMeta = group.meta;
            result.steps = at.steps;
            result.totalEvents = at.totalEvents;
            result.numThreads = at.numThreads;
            result.outputs.assign(
                execution.outputs.begin(),
                execution.outputs.begin() +
                    static_cast<std::ptrdiff_t>(at.outputs));
            result.schedule.assign(
                execution.schedule.begin(),
                execution.schedule.begin() +
                    static_cast<std::ptrdiff_t>(at.schedule));
        } else if (g + 1 == numGroups) {
            result = std::move(execution);
        } else {
            result = execution;
        }
        for (std::size_t i = 0; i < attachments_.size(); ++i)
            if (attachments_[i].group == g)
                result.delivered.push_back(delivered_[i]);
    }
    return results;
}

} // namespace oha::exec
