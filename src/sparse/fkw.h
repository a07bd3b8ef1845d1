/**
 * @file
 * FKW (Filter-Kernel-Weight) compressed weight storage, paper
 * Section 5.3 / Fig. 10.
 *
 * Five arrays describe a pattern-pruned layer after FKR:
 *   - offset  (filter level): cumulative non-empty-kernel counts,
 *   - reorder (filter level): reordered position -> original filter,
 *   - index   (kernel level): input channel of each non-empty kernel,
 *   - stride  (kernel level): per filter, the boundaries of its
 *     same-pattern kernel runs (npatterns + 1 entries per filter),
 *   - weight  (weight level): `entries` floats per non-empty kernel.
 *
 * The pattern id of a kernel is implied by which stride segment it
 * falls into, so no per-kernel pattern array is stored — this is where
 * the index-overhead saving over CSR comes from (Fig. 16).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prune/pattern_set.h"
#include "sparse/fkr.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace patdnn {

/** A conv layer's weights in FKW format. */
struct FkwLayer
{
    int64_t filters = 0;      ///< cout (original count).
    int64_t in_channels = 0;  ///< cin.
    int64_t kh = 0, kw = 0;
    int entries = 4;          ///< Non-zero weights per kernel.
    std::vector<Pattern> patterns;   ///< The candidate set (small).
    std::vector<int32_t> offset;     ///< filters + 1.
    std::vector<int32_t> reorder;    ///< filters.
    std::vector<int32_t> index;      ///< total non-empty kernels.
    std::vector<int32_t> stride;     ///< filters * (patterns.size() + 1).
    std::vector<float> weights;      ///< non-empty kernels * entries.
    std::vector<FilterGroup> groups; ///< Equal-length groups from FKR.
    /**
     * Loose-format fallback (paper footnote 2: "before reorder, a
     * relatively loose data format is used"): when kernels are NOT
     * sorted by pattern id the stride segments cannot encode pattern
     * membership, so a per-kernel pattern id array is stored instead.
     * Empty in the tight (post-FKR) format.
     */
    std::vector<int32_t> kernel_pattern;

    /** Non-empty kernel count. */
    int64_t kernelCount() const { return static_cast<int64_t>(index.size()); }

    /** Stride boundary b (0..npat) of reordered filter f. */
    int32_t
    strideAt(int64_t f, int64_t b) const
    {
        return stride[static_cast<size_t>(f * (static_cast<int64_t>(patterns.size()) + 1) + b)];
    }

    /**
     * Bytes of extra structure (offset+reorder+index+stride), Fig. 16.
     *
     * FKW is kernel-level, so every array's values are small (input
     * channel < cin, per-filter kernel counts < 256, ...); each array
     * is accounted at the minimal sufficient integer width (1/2/4
     * bytes), which is how the serialized format stores them. The CSR
     * comparison point keeps the standard 32-bit indices of clSPARSE-
     * class libraries (paper ref. [11]).
     */
    size_t indexBytes() const;

    /** Total bytes including the weight array and pattern table. */
    size_t totalBytes() const;
};

/**
 * Build FKW from a pruned OIHW weight tensor, its pattern assignment
 * and the FKR result computed from that assignment.
 *
 * Weights are gathered in reordered (filter, kernel) order; each kernel
 * contributes exactly `entries` values at its pattern's kept positions
 * (in ascending position order).
 */
FkwLayer buildFkw(const Tensor& weight, const PatternSet& set,
                  const PatternAssignment& assignment, const FkrResult& fkr);

/** Convenience: joint-project a dense weight, run FKR, build FKW. */
FkwLayer pruneAndPack(Tensor& weight, const PatternSet& set, int64_t alpha,
                      const FkrOptions& fkr_opts = {});

/** Reconstruct the dense OIHW weight (round-trip testing). */
Tensor fkwToDense(const FkwLayer& fkw);

/** Validate all structural invariants; kDataLoss on corruption. */
Status validateFkw(const FkwLayer& fkw);

/**
 * Append the layer's byte-level serialized form to `out`: the five FKW
 * arrays stored at the minimal sufficient integer width (1/2/4 bytes,
 * the Fig. 16 accounting of indexBytes()), plus the pattern table and
 * FKR groups. The model-artifact serializer (src/serve/) embeds one
 * such record per pattern-compiled conv layer.
 */
void serializeFkw(const FkwLayer& fkw, std::vector<uint8_t>& out);

/**
 * serializeFkw() up to and including the weight count: everything but
 * the f32 weight array, whose bytes (fkw.weights as stored) close the
 * record. Lets a streaming writer pass the weights through without
 * copying them.
 */
void serializeFkwPrefix(const FkwLayer& fkw, std::vector<uint8_t>& out);

/**
 * Parse one serialized layer from [data, data + size). On success
 * advances *consumed past the record; a truncated or malformed record
 * returns kDataLoss. The caller should still run validateFkw() on the
 * result (this routine only checks framing, not the structural
 * invariants).
 */
Status deserializeFkw(const uint8_t* data, size_t size, size_t* consumed,
                      FkwLayer* fkw);

}  // namespace patdnn
