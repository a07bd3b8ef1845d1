/** @file Memory-planner property tests.
 *
 * A plan's correctness is an aliasing property: no pair of values with
 * overlapping lifetimes may overlap in the arena, for any graph the
 * compiler can produce. Unit cases can't cover that space, so the core
 * suite here generates 1000+ seeded random layer graphs (chains with
 * extra long-range edges, dead slots, varying extents) and asserts the
 * planner invariants hold on every one (for planActivations() and the
 * no-reuse planWithoutReuse() alike) — plus targeted shapes (chain,
 * diamond, dead output predecessors) where the expected packing is
 * known, and negative cases proving validateAgainst() — the sweep's
 * oracle — rejects every class of corrupted plan.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rt/memplan.h"
#include "util/rng.h"

namespace patdnn {
namespace {

int64_t
alignUp(int64_t v, int64_t a)
{
    return (v + a - 1) / a * a;
}

bool
livesOverlap(const PlanSlot& a, const PlanSlot& b)
{
    return a.def <= b.last_use && b.def <= a.last_use;
}

bool
addressesOverlap(const PlanSlot& a, const PlanSlot& b)
{
    return a.offset_elems < b.offset_elems + b.size_elems &&
           b.offset_elems < a.offset_elems + a.size_elems;
}

/**
 * A random compiled-graph shape: mostly a chain (each live node reads
 * the previous live node), with occasional extra edges back to earlier
 * live nodes (extending their lifetimes past the chain step) and
 * occasional dead slots (the compiler leaves these behind after fusion
 * passes). Node 0 always reads the model input (-1).
 */
std::vector<PlanNode>
randomGraph(Rng& rng, int* output_node)
{
    int n = static_cast<int>(rng.uniformInt(2, 40));
    std::vector<PlanNode> nodes(static_cast<size_t>(n));
    int prev_live = -1;
    for (int id = 0; id < n; ++id) {
        PlanNode& nd = nodes[static_cast<size_t>(id)];
        // ~10% dead slots, but keep at least the first and last alive
        // so the graph has an input-reader and an output.
        bool dead = id != 0 && id != n - 1 && rng.bernoulli(0.1);
        if (dead)
            continue;
        nd.live = true;
        nd.inputs.push_back(prev_live);  // -1 for the first live node.
        // ~25% of nodes also read a random earlier live node (residual
        // style edge): stretches that value's lifetime.
        if (prev_live >= 0 && rng.bernoulli(0.25)) {
            int extra = static_cast<int>(rng.uniformInt(0, prev_live));
            while (!nodes[static_cast<size_t>(extra)].live)
                --extra;  // Node 0 is always live.
            nd.inputs.push_back(extra);
        }
        nd.elems_per_sample = rng.uniformInt(1, 5000);
        prev_live = id;
    }
    *output_node = prev_live;
    return nodes;
}

/** The invariants every plan must satisfy, checked from first
 * principles (independent of validateAgainst's implementation). */
void
checkPlanInvariants(const MemoryPlan& plan, const std::vector<PlanNode>& nodes,
                    int output_node)
{
    ASSERT_FALSE(plan.empty());
    ASSERT_EQ(plan.slotCount(), nodes.size());
    const int64_t align = plan.alignElems();
    ASSERT_GT(align, 0);

    int64_t sum = 0;
    int64_t high_water = 0;
    for (size_t id = 0; id < nodes.size(); ++id) {
        const PlanSlot& s = plan.slot(id);
        ASSERT_EQ(s.planned, nodes[id].live) << "slot " << id;
        if (!s.planned)
            continue;
        EXPECT_EQ(s.size_elems, nodes[id].elems_per_sample) << "slot " << id;
        EXPECT_EQ(s.offset_elems % align, 0) << "slot " << id;
        EXPECT_EQ(s.def, static_cast<int>(id));
        EXPECT_GE(s.last_use, s.def);
        sum += alignUp(s.size_elems, align);
        high_water = std::max(high_water, s.offset_elems + s.size_elems);
    }
    // The output value must outlive the whole run loop.
    EXPECT_EQ(plan.slot(static_cast<size_t>(output_node)).last_use,
              static_cast<int>(nodes.size()));

    // Arena is tight (exactly the high-water mark) and never worse than
    // the per-layer sum — the headline guarantee of the pass.
    EXPECT_EQ(plan.arenaElemsPerSample(), high_water);
    EXPECT_EQ(plan.sumElemsPerSample(), sum);
    EXPECT_LE(plan.arenaElemsPerSample(), plan.sumElemsPerSample());

    // The aliasing property: concurrently-live buffers are disjoint.
    for (size_t i = 0; i < nodes.size(); ++i) {
        const PlanSlot& a = plan.slot(i);
        if (!a.planned)
            continue;
        for (size_t j = i + 1; j < nodes.size(); ++j) {
            const PlanSlot& b = plan.slot(j);
            if (!b.planned)
                continue;
            if (livesOverlap(a, b)) {
                EXPECT_FALSE(addressesOverlap(a, b))
                    << "slots " << i << " and " << j << " are live together "
                    << "but share arena addresses";
            }
        }
    }
}

TEST(MemPlan, RandomGraphPropertySweep)
{
    // 1200 seeded graphs; every invariant checked on each. A planner
    // bug that only shows on a rare graph shape has ~1200 chances to
    // surface, and any failure reproduces from its seed.
    for (uint64_t seed = 1; seed <= 1200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        int output_node = -1;
        std::vector<PlanNode> nodes = randomGraph(rng, &output_node);
        MemoryPlan plan = planActivations(nodes, output_node);
        checkPlanInvariants(plan, nodes, output_node);
        EXPECT_TRUE(plan.validateAgainst(nodes, output_node).ok());

        // The no-reuse plan is a valid plan too, and no two of its
        // buffers share an address whatever their lifetimes.
        MemoryPlan kept = planWithoutReuse(nodes, output_node);
        checkPlanInvariants(kept, nodes, output_node);
        EXPECT_TRUE(kept.validateAgainst(nodes, output_node).ok());
        EXPECT_EQ(kept.sumElemsPerSample(), plan.sumElemsPerSample());
        for (size_t i = 0; i < nodes.size(); ++i)
            for (size_t j = i + 1; j < nodes.size(); ++j) {
                if (kept.slot(i).planned && kept.slot(j).planned) {
                    EXPECT_FALSE(addressesOverlap(kept.slot(i), kept.slot(j)))
                        << "slots " << i << " and " << j;
                }
            }
    }
}

TEST(MemPlan, DeterministicAcrossRuns)
{
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        Rng rng_a(seed), rng_b(seed);
        int out_a = -1, out_b = -1;
        std::vector<PlanNode> na = randomGraph(rng_a, &out_a);
        std::vector<PlanNode> nb = randomGraph(rng_b, &out_b);
        MemoryPlan pa = planActivations(na, out_a);
        MemoryPlan pb = planActivations(nb, out_b);
        ASSERT_EQ(pa.slotCount(), pb.slotCount());
        EXPECT_EQ(pa.arenaElemsPerSample(), pb.arenaElemsPerSample());
        for (size_t i = 0; i < pa.slotCount(); ++i) {
            EXPECT_EQ(pa.slot(i).offset_elems, pb.slot(i).offset_elems);
            EXPECT_EQ(pa.slot(i).size_elems, pb.slot(i).size_elems);
            EXPECT_EQ(pa.slot(i).last_use, pb.slot(i).last_use);
        }
    }
}

/** Chain a->b->c->d: at any step only producer + consumer are live, so
 * the arena needs just the two largest adjacent buffers — far less
 * than the sum. Buffers reuse freed ranges alternately. */
TEST(MemPlan, ChainReusesFreedRanges)
{
    std::vector<PlanNode> nodes(4);
    int64_t sizes[] = {1000, 1000, 1000, 10};
    for (int id = 0; id < 4; ++id) {
        nodes[static_cast<size_t>(id)].live = true;
        nodes[static_cast<size_t>(id)].inputs = {id - 1};
        nodes[static_cast<size_t>(id)].elems_per_sample = sizes[id];
    }
    MemoryPlan plan = planActivations(nodes, 3);
    checkPlanInvariants(plan, nodes, 3);
    // Peak live = two adjacent 1000-elem buffers (the lower one rounded
    // up so the upper one starts aligned), not the 3010-elem sum.
    EXPECT_EQ(plan.arenaElemsPerSample(),
              alignUp(1000, plan.alignElems()) + 1000);
    // a and c are never live together: c must reuse a's range.
    EXPECT_EQ(plan.slot(0).offset_elems, plan.slot(2).offset_elems);
}

/** Diamond: b and c both read a, d reads both. a stays live until c
 * runs; b and c are live together and must not alias. */
TEST(MemPlan, DiamondKeepsBranchesDisjoint)
{
    std::vector<PlanNode> nodes(4);
    nodes[0] = {true, {-1}, 500};
    nodes[1] = {true, {0}, 600};
    nodes[2] = {true, {0}, 700};
    nodes[3] = {true, {1, 2}, 100};
    MemoryPlan plan = planActivations(nodes, 3);
    checkPlanInvariants(plan, nodes, 3);
    EXPECT_EQ(plan.slot(0).last_use, 2);
    EXPECT_EQ(plan.slot(1).last_use, 3);
    EXPECT_FALSE(addressesOverlap(plan.slot(1), plan.slot(2)));
    EXPECT_FALSE(addressesOverlap(plan.slot(0), plan.slot(1)));
    EXPECT_FALSE(addressesOverlap(plan.slot(0), plan.slot(2)));
}

TEST(MemPlan, DeadSlotsStayUnplanned)
{
    std::vector<PlanNode> nodes(5);
    nodes[0] = {true, {-1}, 128};
    nodes[1] = {};  // Dead (e.g. fused away).
    nodes[2] = {true, {0}, 256};
    nodes[3] = {};  // Dead.
    nodes[4] = {true, {2}, 64};
    MemoryPlan plan = planActivations(nodes, 4);
    checkPlanInvariants(plan, nodes, 4);
    EXPECT_FALSE(plan.slot(1).planned);
    EXPECT_FALSE(plan.slot(3).planned);
}

TEST(MemPlan, BatchScalingOfArenaAndSumBytes)
{
    std::vector<PlanNode> nodes(2);
    nodes[0] = {true, {-1}, 100};
    nodes[1] = {true, {0}, 50};
    MemoryPlan plan = planActivations(nodes, 1);
    // Per-sample units: batch N scales both measures linearly.
    EXPECT_EQ(plan.arenaBytes(3), 3 * plan.arenaBytes(1));
    EXPECT_EQ(plan.sumBytes(3), 3 * plan.sumBytes(1));
    EXPECT_EQ(plan.arenaBytes(1),
              static_cast<size_t>(plan.arenaElemsPerSample()) * sizeof(float));
}

TEST(MemPlan, LifetimesOutputSurvivesRunLoop)
{
    std::vector<PlanNode> nodes(3);
    nodes[0] = {true, {-1}, 10};
    nodes[1] = {true, {0}, 10};
    nodes[2] = {true, {1}, 10};
    std::vector<PlanSlot> lives = computeLifetimes(nodes, 2);
    EXPECT_EQ(lives[0].last_use, 1);
    EXPECT_EQ(lives[1].last_use, 2);
    EXPECT_EQ(lives[2].last_use, 3);  // == node count: read after the loop.
}

/** validateAgainst must refuse every corruption class of a plan, or it
 * could not serve as the property sweep's oracle. */
class MemPlanValidate : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        nodes_.resize(4);
        nodes_[0] = {true, {-1}, 500};
        nodes_[1] = {true, {0}, 600};
        nodes_[2] = {true, {0}, 700};
        nodes_[3] = {true, {1, 2}, 100};
        plan_ = planActivations(nodes_, 3);
        ASSERT_TRUE(plan_.validateAgainst(nodes_, 3).ok());
    }

    /** Rebuild a plan from mutated slots, keeping the claimed arena /
     * sum unless overridden. */
    MemoryPlan
    mutated(std::vector<PlanSlot> slots, int64_t arena = -1, int64_t sum = -1)
    {
        return MemoryPlan(std::move(slots),
                          arena >= 0 ? arena : plan_.arenaElemsPerSample(),
                          sum >= 0 ? sum : plan_.sumElemsPerSample(),
                          plan_.alignElems());
    }

    std::vector<PlanNode> nodes_;
    MemoryPlan plan_;
};

TEST_F(MemPlanValidate, RejectsAliasedLiveBuffers)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots[2].offset_elems = slots[1].offset_elems;  // b and c live together.
    int64_t arena = 0;
    for (const PlanSlot& s : slots)
        arena = std::max(arena, s.offset_elems + s.size_elems);
    EXPECT_FALSE(mutated(std::move(slots), arena).validateAgainst(nodes_, 3).ok());
}

TEST_F(MemPlanValidate, RejectsMisalignedOffset)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots[3].offset_elems += 1;
    int64_t arena = 0;
    for (const PlanSlot& s : slots)
        arena = std::max(arena, s.offset_elems + s.size_elems);
    EXPECT_FALSE(mutated(std::move(slots), arena).validateAgainst(nodes_, 3).ok());
}

TEST_F(MemPlanValidate, RejectsWrongSize)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots[1].size_elems -= 1;  // Claims less than the node produces.
    EXPECT_FALSE(mutated(std::move(slots)).validateAgainst(nodes_, 3).ok());
}

TEST_F(MemPlanValidate, RejectsWrongLifetime)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots[0].last_use = 1;  // Truth: node 2 still reads it.
    EXPECT_FALSE(mutated(std::move(slots)).validateAgainst(nodes_, 3).ok());
}

TEST_F(MemPlanValidate, RejectsSlotOutsideArena)
{
    std::vector<PlanSlot> slots = plan_.slots();
    // Shrink the claimed arena below the high-water mark.
    EXPECT_FALSE(mutated(std::move(slots), plan_.alignElems())
                     .validateAgainst(nodes_, 3)
                     .ok());
}

TEST_F(MemPlanValidate, RejectsSlotCountMismatch)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots.pop_back();
    EXPECT_FALSE(mutated(std::move(slots)).validateAgainst(nodes_, 3).ok());
}

TEST_F(MemPlanValidate, RejectsPlannednessMismatch)
{
    std::vector<PlanSlot> slots = plan_.slots();
    slots[1].planned = false;  // Live node claimed dead.
    EXPECT_FALSE(mutated(std::move(slots)).validateAgainst(nodes_, 3).ok());
}

}  // namespace
}  // namespace patdnn
