/**
 * @file
 * The PatDNN pattern-based sparse convolution engine (Section 5).
 *
 * Consumes FKW-stored weights plus a layer's TuneParams and OptSwitches
 * (with its ConvDesc, the LR of rt/lr.h) and executes the branch-free
 * code structure of Fig. 7: filters are visited in FKR order and each
 * filter's kernels are walked one pattern segment at a time. Each pool
 * worker walks one contiguous range of reordered filters
 * (preparePatternPlan); a filter runs on one thread in a fixed
 * per-output order, so the split never changes an output bit. A stride-1
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
#include <functional>
#include <vector>

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "rt/lr.h"
#include "rt/microkernels.h"
#include "rt/simd/dispatch.h"
#include "sparse/fkw.h"

namespace patdnn {

/** Prepared execution plan (also consumed by the load analyzer). */
struct PatternPlan
{
    std::vector<PatternKernel> lowered;  ///< Per pattern id.
    /// device.threads + 1 monotone filter indices from 0 to fkw.filters:
    /// worker w walks reordered filters [cuts[w], cuts[w + 1]).
    std::vector<int32_t> cuts;
    int entries = 4;
};

/**
 * FKW -> executable plan. The thread split is derived, not tuned
 * (Fig. 14a: FKR exists to balance threads): cut w is the filter
 * boundary whose kernel prefix sum (fkw.offset) is nearest to w/T of
 * the layer's kernels, T = device.threads. A GPU-like device cuts only
 * at FKR group ends, keeping each group in one thread block.
 */
PatternPlan preparePatternPlan(const FkwLayer& fkw, const DeviceSpec& device);

/** The busiest worker's kernel count over the mean under plan.cuts
 * (1 = perfectly balanced; Fig. 14a). */
double kernelImbalance(const FkwLayer& fkw, const PatternPlan& plan);

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
     * Build from packed weights, tuned parameters and switches. The
     * FkwLayer must outlive the executor (it borrows the weight/index
     * arrays).
     */
    PatternConv(ConvDesc desc, const FkwLayer* fkw, const TuneParams& tuning,
                const OptSwitches& opts, DeviceSpec device);

    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "pattern"; }

    /** Row tiles {4, 8, 16, 32, whole plane}, deduplicated by the tile
     * they run on this plane, times both loop orders (none on the
     * No-opt level, which reads neither). */
    std::vector<TuneParams> tuneCandidates() const override;

    const PatternPlan& plan() const { return plan_; }

    /** True when run() takes the padded flat-row path (stride 1 + LRE). */
    bool padded() const { return !taps_.empty(); }

  private:
    /** body(f_begin, f_end) once per worker over its filter range. */
    void forEachRange(const std::function<void(int32_t, int32_t)>& body) const;
    void runPadded(const Tensor& in, Tensor& out, const Epilogue& ep) const;
    void runPaddedFilters(int32_t f_begin, int32_t f_end, const float* padded,
                          float* out, const Epilogue& ep, float* acc,
                          std::vector<PatternSegment>& segs) const;
    void runGuardedFilters(int32_t f_begin, int32_t f_end, const float* in,
                           float* out) const;

    ConvDesc desc_;
    const FkwLayer* fkw_;
    TuneParams tuning_;
    OptSwitches opts_;
    DeviceSpec device_;
    PatternPlan plan_;
    const SimdOps* ops_;  ///< Resolved once from device_.simd_isa.
    /// Padded path only: per pattern id, 9 slots of flat tap offsets
    /// dy·(W+2p) + dx. Empty on the guarded paths.
    std::vector<int32_t> taps_;
};

}  // namespace patdnn
