/**
 * @file
 * Offline activation memory planning.
 *
 * Giving every node's output its own buffer sizes a run by the SUM of
 * every output; peak *live* memory is far smaller because most
 * intermediates die as soon as their single consumer has run. This
 * pass computes, for every value in a compiled layer graph, the
 * [first-def, last-use] interval in execution (node-id) order, then
 * packs the buffers into one arena with a greedy best-fit-by-size
 * allocator under interval-overlap constraints: two buffers may share
 * addresses iff their lifetimes are disjoint. The result — a
 * MemoryPlan of (offset, size) slots plus the arena extent — is
 * derived by every CompiledModel from its graph (compile and artifact
 * restore alike; it is never stored), and every run executes in a
 * Workspace over it: a single allocation of arenaBytes(batch) instead
 * of one malloc per layer (the FlexNN-style "memory-planned execution"
 * direction in ROADMAP.md).
 *
 * Units: everything is in float *elements per sample*. Every op in the
 * runtime keeps the batch as the leading dimension, so a buffer's
 * extent for batch N is exactly N x its per-sample extent, and scaling
 * every offset and size by the same N preserves both disjointness and
 * 64-byte alignment — one plan serves every batch size.
 *
 * Correctness of a plan is an aliasing property that ordinary unit
 * tests won't catch; see tests/memplan_test.cc (randomized-graph
 * properties) and tests/memplan_exec_test.cc (bit-exact differential
 * execution against a planWithoutReuse() workspace, plus a NaN poison
 * canary over freed ranges).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace patdnn {

/**
 * Planner view of one compiled graph node: just liveness, producer
 * edges and the per-sample extent of its output value. Built from a
 * CompiledModel by CompiledModel::planNodes(); tests build these
 * directly for randomized graphs.
 */
struct PlanNode
{
    bool live = false;
    std::vector<int> inputs;      ///< Producer node ids; -1 = model input.
    int64_t elems_per_sample = 0; ///< Output extent for one sample.
};

/** One planned buffer: where it lives in the arena and when. */
struct PlanSlot
{
    bool planned = false;      ///< False for dead node slots.
    int64_t offset_elems = 0;  ///< Arena offset, multiple of alignElems().
    int64_t size_elems = 0;    ///< Per-sample extent.
    int def = -1;              ///< Producing node id (== slot index).
    int last_use = -1;         ///< Last consuming node id (output: node count).
};

/**
 * A single-arena allocation plan over a compiled layer graph. An
 * empty() plan means "no plan": the graph's shapes could not be
 * inferred, so it cannot back a session.
 */
class MemoryPlan
{
  public:
    /// 16 floats = 64 bytes: matches Tensor's allocator alignment so
    /// arena views are as SIMD-friendly as owned tensors.
    static constexpr int64_t kDefaultAlignElems = 16;

    MemoryPlan() = default;
    MemoryPlan(std::vector<PlanSlot> slots, int64_t arena_elems,
               int64_t sum_elems, int64_t align_elems);

    bool empty() const { return slots_.empty(); }
    size_t slotCount() const { return slots_.size(); }
    const PlanSlot& slot(size_t id) const;
    const std::vector<PlanSlot>& slots() const { return slots_; }

    /** Arena extent for one sample (elements / bytes). */
    int64_t arenaElemsPerSample() const { return arena_elems_; }
    size_t arenaBytes(int64_t batch) const;

    /** Every live buffer side by side, each rounded to the allocator's
     * 64-byte granularity: the no-reuse baseline the arena is measured
     * against. Always >= arenaElemsPerSample(). */
    int64_t sumElemsPerSample() const { return sum_elems_; }
    size_t sumBytes(int64_t batch) const;

    int64_t alignElems() const { return align_elems_; }

    /**
     * Full consistency check of this plan against the graph it claims
     * to cover: slot count and liveness match, sizes equal the node
     * extents, lifetimes equal a recomputed lifetime pass, offsets are
     * aligned and inside the arena, the arena never exceeds the
     * no-reuse sum, and no two buffers with overlapping lifetimes
     * overlap in the arena. kInvalidArgument with a diagnostic on the
     * first violation. The oracle of tests/memplan_test.cc's
     * randomized-graph property sweep.
     */
    Status validateAgainst(const std::vector<PlanNode>& nodes,
                           int output_node) const;

  private:
    std::vector<PlanSlot> slots_;
    int64_t arena_elems_ = 0;
    int64_t sum_elems_ = 0;
    int64_t align_elems_ = kDefaultAlignElems;
};

/**
 * The lifetime-analysis pass alone: per-node [def, last_use] intervals
 * in execution order, with the output node's value kept live past the
 * final node (its slot is read after the run loop). Slots for dead
 * nodes have planned == false; offsets are left 0 (assigned by
 * planActivations()).
 */
std::vector<PlanSlot> computeLifetimes(const std::vector<PlanNode>& nodes,
                                       int output_node);

/**
 * Lifetime analysis + arena assignment. Deterministic for identical
 * inputs: buffers are placed largest-first (ties by node id) at the
 * best-fit aligned gap among the address ranges of lifetime-
 * overlapping, already-placed buffers. Freed ranges are reused as soon
 * as their owner's last consumer has run.
 */
MemoryPlan planActivations(const std::vector<PlanNode>& nodes, int output_node,
                           int64_t align_elems = MemoryPlan::kDefaultAlignElems);

/**
 * The plan in which every value survives the run: each live node gets
 * its own aligned range, in node-id order. For runs that read values
 * after the fact: kInt8 calibration and the planned-execution
 * differential reference (tests/memplan_exec_test.cc).
 */
MemoryPlan planWithoutReuse(const std::vector<PlanNode>& nodes, int output_node);

}  // namespace patdnn
