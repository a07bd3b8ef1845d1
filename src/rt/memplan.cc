#include "rt/memplan.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace patdnn {

namespace {

int64_t
alignUp(int64_t v, int64_t align)
{
    return (v + align - 1) / align * align;
}

/** Closed-interval lifetime overlap: b is live while a executes (or
 * vice versa). A buffer defined at node i and one last used at node i
 * DO overlap — the executor reads the one while writing the other. */
bool
lifetimesOverlap(const PlanSlot& a, const PlanSlot& b)
{
    return a.def <= b.last_use && b.def <= a.last_use;
}

}  // namespace

MemoryPlan::MemoryPlan(std::vector<PlanSlot> slots, int64_t arena_elems,
                       int64_t sum_elems, int64_t align_elems)
    : slots_(std::move(slots)), arena_elems_(arena_elems), sum_elems_(sum_elems),
      align_elems_(align_elems)
{
    PATDNN_CHECK_GT(align_elems_, 0, "plan alignment must be positive");
}

const PlanSlot&
MemoryPlan::slot(size_t id) const
{
    PATDNN_CHECK(id < slots_.size(), "plan slot " << id << " out of range");
    return slots_[id];
}

size_t
MemoryPlan::arenaBytes(int64_t batch) const
{
    return static_cast<size_t>(arena_elems_) * static_cast<size_t>(batch) *
           sizeof(float);
}

size_t
MemoryPlan::sumBytes(int64_t batch) const
{
    return static_cast<size_t>(sum_elems_) * static_cast<size_t>(batch) *
           sizeof(float);
}

std::vector<PlanSlot>
computeLifetimes(const std::vector<PlanNode>& nodes, int output_node)
{
    std::vector<PlanSlot> slots(nodes.size());
    for (size_t id = 0; id < nodes.size(); ++id) {
        if (!nodes[id].live)
            continue;
        slots[id].planned = true;
        slots[id].size_elems = nodes[id].elems_per_sample;
        slots[id].def = static_cast<int>(id);
        slots[id].last_use = static_cast<int>(id);
    }
    for (size_t id = 0; id < nodes.size(); ++id) {
        if (!nodes[id].live)
            continue;
        for (int in : nodes[id].inputs)
            if (in >= 0 && static_cast<size_t>(in) < slots.size())
                slots[static_cast<size_t>(in)].last_use =
                    std::max(slots[static_cast<size_t>(in)].last_use,
                             static_cast<int>(id));
    }
    // The output value is read after the loop (copied out of the
    // workspace), so its buffer must never be recycled.
    if (output_node >= 0 && static_cast<size_t>(output_node) < slots.size() &&
        slots[static_cast<size_t>(output_node)].planned)
        slots[static_cast<size_t>(output_node)].last_use =
            static_cast<int>(nodes.size());
    return slots;
}

MemoryPlan
planActivations(const std::vector<PlanNode>& nodes, int output_node,
                int64_t align_elems)
{
    PATDNN_CHECK_GT(align_elems, 0, "plan alignment must be positive");
    std::vector<PlanSlot> slots = computeLifetimes(nodes, output_node);

    // Largest-first placement (ties broken by node id for determinism):
    // big buffers anchor the arena, small ones fill the holes.
    std::vector<size_t> order;
    for (size_t id = 0; id < slots.size(); ++id)
        if (slots[id].planned)
            order.push_back(id);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (slots[a].size_elems != slots[b].size_elems)
            return slots[a].size_elems > slots[b].size_elems;
        return a < b;
    });

    int64_t arena_elems = 0;
    int64_t sum_elems = 0;
    std::vector<size_t> placed;
    std::vector<std::pair<int64_t, int64_t>> busy;  ///< Reused scratch.
    for (size_t id : order) {
        PlanSlot& s = slots[id];
        PATDNN_CHECK_GT(s.size_elems, 0,
                        "planned node " << id << " has an empty output");
        sum_elems += alignUp(s.size_elems, align_elems);

        // Address ranges owned by lifetime-overlapping buffers, merged.
        // Two such ranges may themselves overlap (each conflicts with
        // this buffer but not with the other), hence the merge.
        busy.clear();
        for (size_t pid : placed) {
            const PlanSlot& p = slots[pid];
            if (lifetimesOverlap(s, p))
                busy.emplace_back(p.offset_elems, p.offset_elems + p.size_elems);
        }
        std::sort(busy.begin(), busy.end());
        size_t m = 0;
        for (const auto& b : busy) {
            if (m > 0 && b.first <= busy[m - 1].second)
                busy[m - 1].second = std::max(busy[m - 1].second, b.second);
            else
                busy[m++] = b;
        }
        busy.resize(m);

        // Best-fit over the free gaps (smallest gap that holds the
        // buffer); fall back to the open-ended range past the last
        // conflict. Freed ranges are gaps here, so they are reused.
        int64_t best_off = -1;
        int64_t best_waste = 0;
        int64_t cursor = 0;
        for (const auto& b : busy) {
            int64_t start = alignUp(cursor, align_elems);
            if (start + s.size_elems <= b.first) {
                int64_t waste = b.first - start - s.size_elems;
                if (best_off < 0 || waste < best_waste) {
                    best_off = start;
                    best_waste = waste;
                }
            }
            cursor = std::max(cursor, b.second);
        }
        if (best_off < 0)
            best_off = alignUp(cursor, align_elems);
        s.offset_elems = best_off;
        arena_elems = std::max(arena_elems, best_off + s.size_elems);
        placed.push_back(id);
    }
    return MemoryPlan(std::move(slots), arena_elems, sum_elems, align_elems);
}

MemoryPlan
planWithoutReuse(const std::vector<PlanNode>& nodes, int output_node)
{
    std::vector<PlanSlot> slots = computeLifetimes(nodes, output_node);
    const int64_t align = MemoryPlan::kDefaultAlignElems;
    int64_t sum_elems = 0;
    int64_t arena_elems = 0;
    for (PlanSlot& s : slots) {
        if (!s.planned)
            continue;
        s.offset_elems = sum_elems;
        arena_elems = s.offset_elems + s.size_elems;
        sum_elems += alignUp(s.size_elems, align);
    }
    return MemoryPlan(std::move(slots), arena_elems, sum_elems, align);
}

Status
MemoryPlan::validateAgainst(const std::vector<PlanNode>& nodes,
                            int output_node) const
{
    auto bad = [](const std::string& msg) {
        return Status(ErrorCode::kInvalidArgument, "memory plan: " + msg);
    };
    if (slots_.size() != nodes.size())
        return bad("covers " + std::to_string(slots_.size()) +
                   " slots, graph has " + std::to_string(nodes.size()));
    if (align_elems_ < 1)
        return bad("non-positive alignment");
    if (arena_elems_ < 0 || sum_elems_ < 0 || arena_elems_ > sum_elems_)
        return bad("arena extent " + std::to_string(arena_elems_) +
                   " exceeds the no-reuse sum " + std::to_string(sum_elems_));

    std::vector<PlanSlot> expect = computeLifetimes(nodes, output_node);
    int64_t max_end = 0;
    int64_t sum = 0;
    for (size_t id = 0; id < slots_.size(); ++id) {
        const PlanSlot& s = slots_[id];
        const PlanSlot& e = expect[id];
        if (s.planned != e.planned)
            return bad("slot " + std::to_string(id) +
                       (e.planned ? " misses a live node" : " plans a dead node"));
        if (!s.planned)
            continue;
        if (s.size_elems != e.size_elems)
            return bad("slot " + std::to_string(id) + " size " +
                       std::to_string(s.size_elems) + " != node extent " +
                       std::to_string(e.size_elems));
        if (s.def != e.def || s.last_use != e.last_use)
            return bad("slot " + std::to_string(id) +
                       " lifetime disagrees with the graph's lifetime pass");
        if (s.offset_elems < 0 || s.offset_elems % align_elems_ != 0)
            return bad("slot " + std::to_string(id) + " offset " +
                       std::to_string(s.offset_elems) + " is misaligned");
        if (s.offset_elems + s.size_elems > arena_elems_)
            return bad("slot " + std::to_string(id) + " overruns the arena");
        max_end = std::max(max_end, s.offset_elems + s.size_elems);
        sum += alignUp(s.size_elems, align_elems_);
    }
    if (sum != sum_elems_)
        return bad("no-reuse sum " + std::to_string(sum_elems_) +
                   " != recomputed " + std::to_string(sum));
    if (max_end != arena_elems_ && !(max_end == 0 && arena_elems_ == 0))
        return bad("arena extent " + std::to_string(arena_elems_) +
                   " != live high-water mark " + std::to_string(max_end));
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].planned)
            continue;
        for (size_t j = i + 1; j < slots_.size(); ++j) {
            if (!slots_[j].planned || !lifetimesOverlap(slots_[i], slots_[j]))
                continue;
            int64_t ai = slots_[i].offset_elems;
            int64_t bi = ai + slots_[i].size_elems;
            int64_t aj = slots_[j].offset_elems;
            int64_t bj = aj + slots_[j].size_elems;
            if (ai < bj && aj < bi)
                return bad("live buffers " + std::to_string(i) + " and " +
                           std::to_string(j) + " alias in the arena");
        }
    }
    return Status::OK();
}

}  // namespace patdnn
