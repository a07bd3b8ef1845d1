#include "rt/conv_pattern.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace patdnn {

PatternPlan
preparePatternPlan(const FkwLayer& fkw, const DeviceSpec& device)
{
    PatternPlan plan;
    plan.entries = fkw.entries;
    plan.lowered.reserve(fkw.patterns.size());
    for (const auto& p : fkw.patterns)
        plan.lowered.push_back(lowerPattern(p));

    // Candidate cuts: every filter boundary, or only the group ends.
    // The targets rise with w, so the nearest candidates do too.
    std::vector<int32_t> bounds = {0};
    for (const FilterGroup& g : fkw.groups)
        for (int32_t f = device.gpu_like ? g.end : g.begin + 1; f <= g.end; ++f)
            bounds.push_back(f);
    auto prefix = [&](int32_t f) { return fkw.offset[static_cast<size_t>(f)]; };
    const int threads = std::max(1, device.threads);
    plan.cuts.assign(static_cast<size_t>(threads) + 1, 0);
    for (int w = 1; w < threads; ++w) {
        const int64_t target = fkw.kernelCount() * w / threads;
        auto it = std::partition_point(bounds.begin(), bounds.end(),
                                       [&](int32_t f) { return prefix(f) < target; });
        if (it == bounds.end() ||
            (it != bounds.begin() && target - prefix(*(it - 1)) < prefix(*it) - target))
            --it;
        plan.cuts[static_cast<size_t>(w)] = *it;
    }
    plan.cuts.back() = static_cast<int32_t>(fkw.filters);
    return plan;
}

double
kernelImbalance(const FkwLayer& fkw, const PatternPlan& plan)
{
    int64_t busiest = 0;
    for (size_t w = 0; w + 1 < plan.cuts.size(); ++w)
        busiest = std::max<int64_t>(busiest, fkw.offset[static_cast<size_t>(plan.cuts[w + 1])] -
                                                 fkw.offset[static_cast<size_t>(plan.cuts[w])]);
    const double mean = static_cast<double>(fkw.kernelCount()) /
                        static_cast<double>(plan.cuts.size() - 1);
    return mean > 0.0 ? static_cast<double>(busiest) / mean : 1.0;
}

PatternConv::PatternConv(ConvDesc desc, const FkwLayer* fkw, const TuneParams& tuning,
                         const OptSwitches& opts, DeviceSpec device)
    : desc_(std::move(desc)), fkw_(fkw), tuning_(tuning), opts_(opts),
      device_(std::move(device)), ops_(&resolveSimdOps(device_.simd_isa))
{
    PATDNN_CHECK_EQ(desc_.groups, 1, "PatternConv supports groups == 1");
    PATDNN_CHECK_EQ(fkw_->in_channels, desc_.cin, "fkw channels");
    PATDNN_CHECK_EQ(fkw_->filters, desc_.cout, "fkw filters");
    plan_ = preparePatternPlan(*fkw_, device_);
    if (desc_.stride == 1 && opts_.lre) {
        // The generated code's statically determined data access: each
        // pattern's taps as constant offsets into the padded plane.
        int64_t wp = desc_.w + 2 * desc_.pad;
        taps_.assign(plan_.lowered.size() * 9, 0);
        for (size_t p = 0; p < plan_.lowered.size(); ++p) {
            const PatternKernel& pk = plan_.lowered[p];
            for (int e = 0; e < pk.entries; ++e)
                taps_[p * 9 + static_cast<size_t>(e)] =
                    static_cast<int32_t>(pk.dy[e] * wp + pk.dx[e]);
        }
    }
}

std::vector<TuneParams>
PatternConv::tuneCandidates() const
{
    // The No-opt loops read neither the row tile nor the loop order.
    if (!opts_.reorder && !opts_.lre)
        return {};
    const int64_t oh = desc_.outH();
    const LoopPermutation other = tuning_.permute == LoopPermutation::kCoHWCi
                                      ? LoopPermutation::kCoCiHW
                                      : LoopPermutation::kCoHWCi;
    std::vector<TuneParams> list;
    for (int64_t tile : {tuning_.tile_oh, int64_t{4}, int64_t{8}, int64_t{16},
                         int64_t{32}, int64_t{0}})
        for (LoopPermutation perm : {tuning_.permute, other}) {
            TuneParams t = tuning_;
            t.tile_oh = tile;
            t.permute = perm;
            // Tiles past the plane all run the whole plane.
            if (std::none_of(list.begin(), list.end(), [&](const TuneParams& u) {
                    return u.permute == perm && u.rowTile(oh) == t.rowTile(oh);
                }))
                list.push_back(t);
        }
    return list;
}

void
PatternConv::forEachRange(const std::function<void(int32_t, int32_t)>& body) const
{
    device_.pool().parallelChunks(
        static_cast<int64_t>(plan_.cuts.size()) - 1, [&](int64_t begin, int64_t end) {
            for (int64_t w = begin; w < end; ++w) {
                const int32_t fb = plan_.cuts[static_cast<size_t>(w)];
                const int32_t fe = plan_.cuts[static_cast<size_t>(w) + 1];
                if (fb < fe)
                    body(fb, fe);
            }
        });
}

void
PatternConv::runPaddedFilters(int32_t f_begin, int32_t f_end, const float* padded,
                              float* out, const Epilogue& ep, float* acc,
                              std::vector<PatternSegment>& segs) const
{
    const ConvDesc& d = desc_;
    const int64_t oh = d.outH(), ow = d.outW();
    const int64_t wp = d.w + 2 * d.pad;
    const int64_t plane = (d.h + 2 * d.pad) * wp;
    const TuneParams& t = tuning_;
    const int64_t tile = t.rowTile(oh);
    // Fig. 15's loop orders: the pixel block outside the kernel loop
    // (accumulators stay in registers across the filter's kernels) or
    // inside it (one op call per kernel, accumulators round-trip memory).
    const bool block_outside = t.permute == LoopPermutation::kCoHWCi;
    const int entries = plan_.entries;

    for (int32_t f = f_begin; f < f_end; ++f) {
        segs.clear();
        forEachSegment(*fkw_, f, [&](int pid, int32_t k0, int32_t count) {
            segs.push_back({taps_.data() + static_cast<size_t>(pid) * 9, entries,
                            fkw_->weights.data() + static_cast<int64_t>(k0) * entries,
                            fkw_->index.data() + k0, count});
        });
        int32_t oc = fkw_->reorder[static_cast<size_t>(f)];
        float bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
        float* oplane = out + static_cast<int64_t>(oc) * oh * ow;
        for (int64_t y0 = 0; y0 < oh; y0 += tile) {
            const int64_t y1 = std::min(oh, y0 + tile);
            // Flat positions of rows [y0, y1), without the last row's
            // pad columns.
            const int64_t len = (y1 - y0 - 1) * wp + ow;
            const float* src = padded + y0 * wp;
            std::fill(acc, acc + len, bias);
            if (block_outside) {
                ops_->pattern_accum(src, plane, segs.data(),
                                    static_cast<int>(segs.size()), acc, len);
            } else {
                for (const PatternSegment& sg : segs) {
                    PatternSegment one = sg;
                    one.count = 1;
                    for (int64_t k = 0; k < sg.count; ++k) {
                        one.weights = sg.weights + k * entries;
                        one.channels = sg.channels + k;
                        ops_->pattern_accum(src, plane, &one, 1, acc, len);
                    }
                }
            }
            // Store once: drop the pad columns, apply the fused ReLU.
            for (int64_t y = y0; y < y1; ++y) {
                const float* a = acc + (y - y0) * wp;
                float* o = oplane + y * ow;
                if (ep.relu)
                    for (int64_t x = 0; x < ow; ++x)
                        o[x] = std::max(0.0f, a[x]);
                else
                    std::memcpy(o, a, static_cast<size_t>(ow) * sizeof(float));
            }
        }
    }
}

void
PatternConv::runPadded(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    const ConvDesc& d = desc_;
    const int64_t n = in.shape().dim(0);
    const int64_t oh = d.outH(), ow = d.outW();
    const int64_t wp = d.w + 2 * d.pad;
    const int64_t plane = (d.h + 2 * d.pad) * wp;
    const int64_t tile = tuning_.rowTile(oh);
    // Per-call scratch (run() is const and may race across sessions):
    // the zero-padded planes — borders stay zero, interiors are rewritten
    // per sample — plus `width` floats of slack for the last vector's
    // overrun (SimdOps::pattern_accum). Workers share it read-only.
    std::vector<float> padded(static_cast<size_t>(d.cin * plane + ops_->width), 0.0f);
    for (int64_t b = 0; b < n; ++b) {
        const float* ibase = in.data() + b * d.cin * d.h * d.w;
        float* obase = out.data() + b * d.cout * oh * ow;
        device_.pool().parallelFor(d.cin, [&](int64_t c) {
            for (int64_t y = 0; y < d.h; ++y)
                std::memcpy(padded.data() + c * plane + (y + d.pad) * wp + d.pad,
                            ibase + (c * d.h + y) * d.w,
                            static_cast<size_t>(d.w) * sizeof(float));
        });
        forEachRange([&](int32_t fb, int32_t fe) {
            std::vector<float> acc(static_cast<size_t>(tile * wp));
            std::vector<PatternSegment> segs;
            runPaddedFilters(fb, fe, padded.data(), obase, ep, acc.data(), segs);
        });
    }
}

void
PatternConv::runGuardedFilters(int32_t f_begin, int32_t f_end, const float* in,
                               float* out) const
{
    const ConvDesc& d = desc_;
    int64_t oh = d.outH(), ow = d.outW();
    const TuneParams& t = tuning_;
    const int entries = plan_.entries;

    PlaneGeom g;
    g.h = d.h;
    g.w = d.w;
    g.oh = oh;
    g.ow = ow;
    g.pad = d.pad;
    g.stride = d.stride;
    g.x0 = 0;
    g.x1 = ow;

    // Every kernel of filter f with its lowered pattern, weights and
    // input plane, in storage order.
    auto for_each_kernel = [&](int32_t f, auto&& fn) {
        forEachSegment(*fkw_, f, [&](int pid, int32_t k0, int32_t count) {
            const PatternKernel& pk = plan_.lowered[static_cast<size_t>(pid)];
            for (int32_t k = k0; k < k0 + count; ++k)
                fn(pk, fkw_->weights.data() + static_cast<int64_t>(k) * entries,
                   in + static_cast<int64_t>(fkw_->index[static_cast<size_t>(k)]) *
                            d.h * d.w);
        });
    };
    auto out_plane = [&](int32_t f) {
        return out + static_cast<int64_t>(fkw_->reorder[static_cast<size_t>(f)]) * oh * ow;
    };

    if (!opts_.reorder && !opts_.lre) {
        // No-opt execution (Fig. 7 left): pixel loops outside, a
        // per-kernel pattern dispatch inside — one non-inlined call
        // with full bounds checks per (pixel, kernel), plus the input-
        // channel indirection per step. This is the baseline the FKR
        // and LRE speedups in Fig. 13 are measured against.
        g.y0 = 0;
        g.y1 = oh;
        for (int32_t f = f_begin; f < f_end; ++f) {
            float* optr = out_plane(f);
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t x = 0; x < ow; ++x) {
                    float acc = 0.0f;
                    for_each_kernel(f, [&](const PatternKernel& pk, const float* w,
                                           const float* in_plane) {
                        acc += guardedPatternDot(pk, w, in_plane, g, y, x);
                    });
                    optr[y * ow + x] += acc;
                }
            }
        }
        return;
    }

    // One guarded pass of a kernel over the row tile starting at y0.
    const int64_t tile = t.rowTile(oh);
    auto accumulate = [&](const PatternKernel& pk, const float* w,
                          const float* in_plane, float* optr, int64_t y0) {
        g.y0 = y0;
        g.y1 = std::min(oh, y0 + tile);
        if (opts_.lre)
            kernelAccumulateLre(pk, w, in_plane, optr, g);
        else
            kernelAccumulateNoLre(pk, w, in_plane, optr, g);
    };
    if (t.permute == LoopPermutation::kCoHWCi) {
        // Spatial tile outer, kernels inner: inputs for the tile stay
        // cache-resident while every kernel of the range visits them.
        for (int64_t y0 = 0; y0 < oh; y0 += tile)
            for (int32_t f = f_begin; f < f_end; ++f)
                for_each_kernel(f, [&](const PatternKernel& pk, const float* w,
                                       const float* in_plane) {
                    accumulate(pk, w, in_plane, out_plane(f), y0);
                });
    } else {
        // Kernel outer, full plane inner (weight-stationary); a row
        // tile still tiles rows inside each kernel for cache reuse.
        for (int32_t f = f_begin; f < f_end; ++f)
            for_each_kernel(f, [&](const PatternKernel& pk, const float* w,
                                   const float* in_plane) {
                for (int64_t y0 = 0; y0 < oh; y0 += tile)
                    accumulate(pk, w, in_plane, out_plane(f), y0);
            });
    }
}

void
PatternConv::run(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    if (padded()) {
        runPadded(in, out, ep);
        return;
    }
    const ConvDesc& d = desc_;
    int64_t n = in.shape().dim(0);
    int64_t oh = d.outH(), ow = d.outW();
    for (int64_t b = 0; b < n; ++b) {
        float* obase = out.data() + b * d.cout * oh * ow;
        const float* ibase = in.data() + b * d.cin * d.h * d.w;
        // Bias init.
        device_.pool().parallelFor(d.cout, [&](int64_t oc) {
            float bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
            float* optr = obase + oc * oh * ow;
            std::fill(optr, optr + oh * ow, bias);
        });
        forEachRange([&](int32_t fb, int32_t fe) { runGuardedFilters(fb, fe, ibase, obase); });
        if (ep.relu) {
            device_.pool().parallelFor(d.cout, [&](int64_t oc) {
                ops_->relu(obase + oc * oh * ow, oh * ow);
            });
        }
    }
}

}  // namespace patdnn
