/**
 * @file
 * Pattern-specialized micro-kernels: this repo's equivalent of PatDNN's
 * generated code (Section 5.4).
 *
 * The real system emits one straight-line code block per kernel pattern
 * with all data-access instructions statically determined. Here each
 * pattern is "compiled" once into a PatternKernel — its kept positions
 * resolved to (dy, dx) offsets — and executed with no per-weight
 * indirection, the branch-free property FKR guarantees.
 *
 * The stride-1 LRE path of the engine runs through the SimdOps
 * `pattern_accum` kernel over a zero-padded input (rt/conv_pattern.h),
 * which needs only the pattern's tap offsets. The guarded loops here
 * serve everything else, each one pass per kernel over an unpadded
 * plane:
 *
 *  - the LRE variant for strided layers: one pass per kernel over the
 *    output tile with a register accumulator (output loaded/stored
 *    once);
 *  - the no-LRE variant: one pass per entry, reloading output and
 *    input each time — the redundant-load behaviour LRE removes;
 *  - guardedPatternDot, the per-pixel call of the No-opt baseline.
 *
 * All three are deliberately scalar and bounds-checked.
 */
#pragma once

#include <cstdint>

#include "prune/pattern.h"

namespace patdnn {

/** A pattern lowered to static offsets ("generated code" metadata). */
struct PatternKernel
{
    int entries = 0;
    int32_t dy[9] = {0};   ///< Row offset per kept entry.
    int32_t dx[9] = {0};   ///< Col offset per kept entry.
    uint32_t mask = 0;
};

/** Lower a pattern to its static-offset form. */
PatternKernel lowerPattern(const Pattern& p);

/** Geometry handed to the micro-kernels (one input/output plane). */
struct PlaneGeom
{
    int64_t h = 0, w = 0;    ///< Input plane size.
    int64_t oh = 0, ow = 0;  ///< Output plane size.
    int64_t pad = 0;
    int64_t stride = 1;
    int64_t y0 = 0, y1 = 0;  ///< Output-row tile [y0, y1).
    int64_t x0 = 0, x1 = 0;  ///< Output-col tile [x0, x1).
};

/**
 * LRE micro-kernel for strided layers: out[y][x] += sum_e w[e] *
 * in[y*s-pad+dy[e]][x*s-pad+dx[e]] over the tile, one guarded pass.
 */
void kernelAccumulateLre(const PatternKernel& pk, const float* weights,
                         const float* in, float* out, const PlaneGeom& g);

/**
 * No-LRE micro-kernel: one full pass over the tile per entry (output
 * re-loaded and re-stored per entry; input rows re-traversed per entry).
 */
void kernelAccumulateNoLre(const PatternKernel& pk, const float* weights,
                           const float* in, float* out, const PlaneGeom& g);

/**
 * One guarded output element: sum over the pattern's entries with full
 * bounds checks. Deliberately not inlined: the No-opt execution mode
 * calls it per (pixel, kernel), reproducing the per-kernel dispatch
 * and heavy control flow of the unoptimized code in Fig. 7 that FKR
 * exists to eliminate.
 */
float guardedPatternDot(const PatternKernel& pk, const float* weights,
                        const float* in, const PlaneGeom& g, int64_t y, int64_t x);

}  // namespace patdnn
