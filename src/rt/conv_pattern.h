/**
 * @file
 * The PatDNN pattern-based sparse convolution engine (Section 5).
 *
 * Consumes FKW-stored weights plus an LR and executes the branch-free
 * code structure of Fig. 7: filters are visited in FKR order, each
 * filter's kernels are processed one pattern segment at a time through
 * pattern-specialized micro-kernels, with register-level LRE and
 * tuning-decided tiling/permutation. The ablation switches reproduce
 * the paper's No-opt / +Reorder / +LRE / +Tune progression (Fig. 13).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "rt/lr.h"
#include "rt/microkernels.h"
#include "sparse/fkw.h"

namespace patdnn {

/** One scheduled accumulation: a kernel or a multi-filter bundle. */
struct PatternOp
{
    int32_t filter_begin = 0;  ///< First reordered filter position.
    int32_t filter_count = 1;  ///< >1 for filter-level LRE bundles.
    int32_t pattern_id = 0;
    int32_t input_channel = 0;
    /// Global kernel index (into fkw.weights / entries) per bundled
    /// kernel, parallel to filter_pos.
    std::vector<int32_t> kernel_index;
    /// Reordered filter position per bundled kernel (bundles group by
    /// (input channel, pattern), so members need not be adjacent).
    std::vector<int32_t> filter_pos;
};

/** A schedulable unit: contiguous filters of one FKR group. */
struct WorkItem
{
    int32_t filter_begin = 0;
    int32_t filter_end = 0;
    std::vector<PatternOp> ops;
    int64_t macs = 0;  ///< For load-balance accounting.
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

  private:
    void runItem(const WorkItem& item, const float* in, float* out,
                 int64_t b) const;

    ConvDesc desc_;
    const FkwLayer* fkw_;
    LayerwiseRep lr_;
    DeviceSpec device_;
    PatternPlan plan_;
    const SimdOps* ops_;  ///< Resolved once from device_.simd_isa.
};

}  // namespace patdnn
