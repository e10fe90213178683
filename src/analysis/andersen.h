/**
 * @file
 * Andersen-style inclusion-based points-to analysis (Section 5.1.2).
 *
 * Features mirroring the paper's implementation:
 *  - field-sensitive, with heap cloning in the context-sensitive mode;
 *  - context-insensitive (CI) and call-site context-sensitive (CS)
 *    variants; CS clones function node blocks per acyclic call chain,
 *    connecting recursive calls back to the enclosing instance;
 *  - offline HVN variable substitution and periodic online cycle
 *    collapse (in the spirit of HVN/HRU [30] and LCD/HCD [29]);
 *  - *predicated* operation when an InvariantSet is supplied: code in
 *    likely-unreachable blocks is ignored, indirect calls are resolved
 *    to their likely callee sets, and (in CS mode) only observed call
 *    contexts are cloned (Figure 3).
 *
 * The CS variant carries a context budget: exceeding it marks the
 * result incomplete, modelling the paper's "most accurate analysis
 * that will run on a given benchmark" selection (Table 2).
 */

#pragma once

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/memory_model.h"
#include "invariants/invariant_set.h"
#include "ir/module.h"
#include "support/sparse_bit_set.h"

namespace oha::analysis {

/** Context instance of a function in the CS analysis. */
struct ContextInstance
{
    std::uint32_t id = 0;
    FuncId func = kNoFunc;
    /** Chain of call-site instruction ids from the root (empty for
     *  main; [spawnSite] for thread roots; truncated at the
     *  fallback). */
    inv::CallContext chain;
    std::uint32_t parent = 0;
    InstrId callSite = kNoInstr;
    /** True for the per-function context-insensitive fallback
     *  instance used for recursion / depth overflow. */
    bool fallback = false;
};

/** Analysis configuration. */
struct AndersenOptions
{
    bool contextSensitive = false;
    /** Non-null => predicated analysis assuming these invariants. */
    const inv::InvariantSet *invariants = nullptr;
    /** Apply offline HVN variable substitution. */
    bool useHvn = true;
    /** Collapse copy-graph SCCs periodically while solving. */
    bool cycleCollapse = true;
    /** CS context budget; exceeding it aborts the analysis. */
    std::uint32_t maxContexts = 20000;
    std::uint32_t maxContextDepth = 64;
    /**
     * Run the pre-overhaul solver: FIFO worklist, full points-to
     * sets re-unioned along every copy edge, no offline constraint
     * reduction.  The two solvers compute the same fixpoint (results
     * from either are hash-consed and query-cached identically); this
     * path exists so the parity test and the static-phase
     * microbenchmark can compare the production delta solver against
     * it.
     */
    bool referenceSolver = false;
};

/** Result of a points-to run. */
class AndersenResult
{
  public:
    AndersenResult();
    ~AndersenResult();
    AndersenResult(AndersenResult &&) noexcept;
    AndersenResult &operator=(AndersenResult &&) noexcept;

    /** False when the CS context budget was exhausted. */
    bool completed = false;

    MemoryModel memory;

    /** All context instances (CS mode; CI has one per function). */
    std::vector<ContextInstance> contexts;

    /** Solver effort in abstract units (for Table 1/2 modelling). */
    std::uint64_t workUnits = 0;

    /** Points-to set of register @p reg of context instance @p ctx. */
    const SparseBitSet &pts(std::uint32_t ctx, ir::Reg reg) const;

    /** Points-to set of an abstract memory cell (what may be stored
     *  in it) — used by escape analysis. */
    const SparseBitSet &
    cellPts(CellId cell) const
    {
        return ptsPool_[ptsIdx_[repr_[cell]]];
    }

    /** All call/spawn edges: (callerCtx, site, callee) -> calleeCtx. */
    const std::map<std::tuple<std::uint32_t, InstrId, FuncId>,
                   std::uint32_t> &
    callEdges() const
    {
        return callEdges_;
    }

    /**
     * Union of pts over every context instance of the register's
     * function (the CI view of a CS result).  Results are immutable
     * after solving, so the flattened set is computed once per
     * (func, reg) and served from a cache thereafter — the slicer
     * and detector hot loops issue these queries per instruction.
     * Thread-safe.
     */
    const SparseBitSet &ptsAllContexts(FuncId func, ir::Reg reg) const;

    /** Cells the pointer operand of @p instr (Load/Store/Lock/Unlock/
     *  Gep base) may point to, over all contexts. */
    const SparseBitSet &pointerTargets(InstrId instr) const;

    /** Possible targets of an indirect call, over all contexts,
     *  sorted ascending and deduplicated. */
    std::vector<FuncId> icallTargets(InstrId instr) const;

    /** Context instances of @p func. */
    const std::vector<std::uint32_t> &instancesOf(FuncId func) const;

    /** Instance reached from @p ctx through call site @p site, or
     *  ~0u if that edge was pruned / never built. */
    std::uint32_t calleeInstance(std::uint32_t ctx, InstrId site,
                                 FuncId callee) const;

    /**
     * Probability that a random (load, store) pair may alias — the
     * metric of Figure 9.  When @p filter is non-null only accesses
     * in blocks it marks visited are considered (the paper compares
     * base and optimistic analyses over the optimistic access set).
     */
    double aliasRate(const ir::Module &module,
                     const inv::InvariantSet *filter = nullptr) const;

    /** Approximate heap footprint (excluding the module and the
     *  lazily-filled query cache), for cache byte budgeting. */
    std::size_t byteSizeEstimate() const;

  private:
    friend class AndersenSolver;

    const ir::Module *module_ = nullptr;
    /** node id = regBase_[ctx] + reg; ret node = regBase + numRegs. */
    std::vector<std::uint32_t> regBase_;
    std::vector<std::vector<std::uint32_t>> funcInstances_;
    /** (ctx, callsite, callee) -> callee ctx. */
    std::map<std::tuple<std::uint32_t, InstrId, FuncId>, std::uint32_t>
        callEdges_;
    /**
     * Final pts storage, hash-consed: pool of unique sets (index 0
     * is the empty set) and a node -> pool-index map.  The many
     * singleton and duplicate sets a solve produces share one copy.
     */
    std::vector<SparseBitSet> ptsPool_;
    std::vector<std::uint32_t> ptsIdx_;
    /** Node representative map from cycle/HVN merging. */
    std::vector<std::uint32_t> repr_;
    /** Lazily-filled flattened per-(func, reg) query cache. */
    struct QueryCache;
    std::unique_ptr<QueryCache> cache_;

    std::uint32_t nodeOf(std::uint32_t ctx, ir::Reg reg) const;
};

/** Run Andersen analysis over @p module. */
AndersenResult runAndersen(const ir::Module &module,
                           const AndersenOptions &options);

/**
 * As runAndersen, but with a caller-supplied CI pre-pass for sound CS
 * runs (the pre-pass resolves indirect calls).  Lets the memoizing
 * wrapper reuse a cached CI result instead of recomputing it inside
 * every sound CS solve.  The pre-pass's workUnits are NOT folded in —
 * the caller owns that accounting.
 */
AndersenResult runAndersenPrepassed(const ir::Module &module,
                                    const AndersenOptions &options,
                                    const AndersenResult *ciPrepass);

} // namespace oha::analysis
