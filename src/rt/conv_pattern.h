/**
 * @file
 * The PatDNN pattern-based sparse convolution engine (Section 5).
 *
 * Consumes FKW-stored weights plus an LR and executes the branch-free
 * code structure of Fig. 7: filters are visited in FKR order and each
 * filter's kernels are walked one pattern segment at a time. A stride-1
 * layer with LRE runs the paper's generated-code shape: the input is
 * copied once per sample into a zero-padded plane per channel, each
 * output plane is one flat row of OH·(W+2p) positions (the pad columns
 * are computed and dropped), so every tap is a constant offset, and
 * SimdOps::pattern_accum holds a block of up to 4 vectors of one
 * filter's outputs in registers across all of its kernels. The
 * ablation switches reproduce the paper's No-opt / +Reorder / +LRE /
 * +Tune progression (Fig. 13); the No-opt and +Reorder levels and
 * strided layers keep guarded loops over the unpadded input.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "rt/lr.h"
#include "rt/microkernels.h"
#include "rt/simd/dispatch.h"
#include "sparse/fkw.h"

namespace patdnn {

/** A schedulable unit: contiguous filters of one FKR group. */
struct WorkItem
{
    int32_t filter_begin = 0;
    int32_t filter_end = 0;
};

/** Prepared execution plan (also consumed by the load analyzer). */
struct PatternPlan
{
    std::vector<PatternKernel> lowered;  ///< Per pattern id.
    std::vector<WorkItem> items;
    int entries = 4;
};

/** FKW + LR -> executable plan. */
PatternPlan preparePatternPlan(const FkwLayer& fkw, const LayerwiseRep& lr,
                               const DeviceSpec& device);

/**
 * Call fn(pattern_id, first_kernel, count) for each pattern segment of
 * reordered filter `f`, in storage order: the stride segments of the
 * tight format, or runs of equal kernel_pattern in the loose one.
 * Kernel indices are global (into fkw.index; fkw.weights by entries).
 */
template <class Fn>
void
forEachSegment(const FkwLayer& fkw, int64_t f, Fn&& fn)
{
    int32_t kb = fkw.offset[static_cast<size_t>(f)];
    int32_t ke = fkw.offset[static_cast<size_t>(f) + 1];
    if (fkw.kernel_pattern.empty()) {
        int npat = static_cast<int>(fkw.patterns.size());
        for (int p = 0; p < npat; ++p) {
            int32_t s0 = kb + fkw.strideAt(f, p);
            int32_t s1 = kb + fkw.strideAt(f, p + 1);
            if (s1 > s0)
                fn(p, s0, s1 - s0);
        }
        return;
    }
    for (int32_t k = kb; k < ke;) {
        int32_t pid = fkw.kernel_pattern[static_cast<size_t>(k)];
        int32_t e = k + 1;
        while (e < ke && fkw.kernel_pattern[static_cast<size_t>(e)] == pid)
            ++e;
        fn(pid, k, e - k);
        k = e;
    }
}

/** The pattern-based executor. */
class PatternConv : public ConvEngine
{
  public:
    /**
     * Build from packed weights and an LR. The FkwLayer must outlive
     * the executor (it borrows the weight/index arrays).
     */
    PatternConv(ConvDesc desc, const FkwLayer* fkw, LayerwiseRep lr,
                DeviceSpec device);

    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "pattern"; }

    const PatternPlan& plan() const { return plan_; }
    const LayerwiseRep& lr() const { return lr_; }

    /** Kernel table this executor dispatches to (device ISA, resolved). */
    const SimdOps& simdOps() const { return *ops_; }

    /** True when run() takes the padded flat-row path (stride 1 + LRE). */
    bool padded() const { return !taps_.empty(); }

  private:
    void runPadded(const Tensor& in, Tensor& out, const Epilogue& ep) const;
    void runPaddedItem(const WorkItem& item, const float* padded, float* out,
                       const Epilogue& ep, float* acc,
                       std::vector<PatternSegment>& segs) const;
    void runGuardedItem(const WorkItem& item, const float* in, float* out) const;

    ConvDesc desc_;
    const FkwLayer* fkw_;
    LayerwiseRep lr_;
    DeviceSpec device_;
    PatternPlan plan_;
    const SimdOps* ops_;  ///< Resolved once from device_.simd_isa.
    /// Padded path only: per pattern id, 9 slots of flat tap offsets
    /// dy·(W+2p) + dx. Empty on the guarded paths.
    std::vector<int32_t> taps_;
};

}  // namespace patdnn
