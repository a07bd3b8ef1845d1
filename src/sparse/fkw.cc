#include "sparse/fkw.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "util/byteio.h"
#include "util/logging.h"

namespace patdnn {

namespace {

/** Minimal integer width (bytes) needed to store values in [0, maxv]. */
size_t
bytesFor(int64_t maxv)
{
    if (maxv < (1 << 8))
        return 1;
    if (maxv < (1 << 16))
        return 2;
    return 4;
}

// --- byte-level encoding helpers (width-prefixed, over util/byteio) --------

/** Array of non-negative int32 values at the minimal sufficient width:
 *  [u8 width][u64 count][count * width bytes]. */
void
putIntArray(std::vector<uint8_t>& out, const std::vector<int32_t>& v)
{
    int32_t maxv = 0;
    for (int32_t x : v)
        maxv = std::max(maxv, x);
    size_t width = bytesFor(maxv);
    out.push_back(static_cast<uint8_t>(width));
    bytes::putU64(out, v.size());
    for (int32_t x : v) {
        uint32_t u = static_cast<uint32_t>(x);
        for (size_t i = 0; i < width; ++i)
            out.push_back(static_cast<uint8_t>(u >> (8 * i)));
    }
}

/** FKW-specific arrays on top of the shared bounds-checked reader. */
struct ByteReader : bytes::Reader
{
    bool
    intArray(std::vector<int32_t>& out)
    {
        if (!need(1))
            return false;
        size_t width = data[pos++];
        if (width != 1 && width != 2 && width != 4) {
            ok = false;
            return false;
        }
        uint64_t count = u64();
        // Reject counts the remaining bytes cannot possibly hold before
        // sizing the output (guards against overflow on corrupt input).
        if (!ok || count > (size - pos) / width) {
            ok = false;
            return false;
        }
        out.resize(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
            uint32_t v = 0;
            for (size_t b = 0; b < width; ++b)
                v |= static_cast<uint32_t>(data[pos + b]) << (8 * b);
            pos += width;
            out[static_cast<size_t>(i)] = static_cast<int32_t>(v);
        }
        return ok;
    }

    bool
    floatArray(std::vector<float>& out)
    {
        uint64_t count = u64();
        if (!ok || count > (size - pos) / sizeof(float)) {
            ok = false;
            return false;
        }
        out.resize(static_cast<size_t>(count));
        if (count > 0)
            std::memcpy(out.data(), data + pos,
                        static_cast<size_t>(count) * sizeof(float));
        pos += static_cast<size_t>(count) * sizeof(float);
        return ok;
    }
};

}  // namespace

size_t
FkwLayer::indexBytes() const
{
    // Offsets count kernels (<= kernelCount); reorder names filters;
    // index names input channels; stride holds per-filter kernel
    // counts (< 256 in practice); kernel_pattern holds pattern ids.
    int64_t max_per_filter = 0;
    for (size_t f = 0; f + 1 < offset.size(); ++f)
        max_per_filter =
            std::max<int64_t>(max_per_filter, offset[f + 1] - offset[f]);
    size_t bytes = 0;
    bytes += offset.size() * bytesFor(kernelCount());
    bytes += reorder.size() * bytesFor(filters - 1);
    bytes += index.size() * bytesFor(in_channels - 1);
    bytes += stride.size() * bytesFor(max_per_filter);
    bytes += kernel_pattern.size() *
             bytesFor(static_cast<int64_t>(patterns.size()));
    return bytes;
}

size_t
FkwLayer::totalBytes() const
{
    // Pattern table: one 32-bit mask per candidate pattern.
    return indexBytes() + weights.size() * sizeof(float) +
           patterns.size() * sizeof(uint32_t);
}

FkwLayer
buildFkw(const Tensor& weight, const PatternSet& set,
         const PatternAssignment& assignment, const FkrResult& fkr)
{
    PATDNN_CHECK_EQ(weight.shape().rank(), 4, "conv weight must be OIHW");
    FkwLayer fkw;
    fkw.filters = weight.shape().dim(0);
    fkw.in_channels = weight.shape().dim(1);
    fkw.kh = weight.shape().dim(2);
    fkw.kw = weight.shape().dim(3);
    fkw.patterns = set.patterns;
    fkw.groups = fkr.groups;
    fkw.reorder = fkr.reorder;
    PATDNN_CHECK_EQ(assignment.filters, fkw.filters, "assignment filters");
    PATDNN_CHECK_EQ(assignment.kernels_per_filter, fkw.in_channels,
                    "assignment kernels");

    int npat = set.size();
    fkw.entries = set.patterns.empty() ? 0 : set.patterns[0].popcount();
    int64_t ksz = fkw.kh * fkw.kw;

    // Tight (post-FKR) format requires EVERY filter's kernels sorted by
    // pattern id; otherwise the whole layer uses the loose format with a
    // per-kernel pattern array (paper footnote 2).
    bool sorted = true;
    for (const auto& kernels : fkr.filters)
        for (size_t i = 1; i < kernels.size(); ++i)
            if (kernels[i].pattern_id < kernels[i - 1].pattern_id)
                sorted = false;

    fkw.offset.reserve(static_cast<size_t>(fkw.filters) + 1);
    fkw.offset.push_back(0);
    for (size_t fpos = 0; fpos < fkr.filters.size(); ++fpos) {
        const auto& kernels = fkr.filters[fpos];
        int32_t original_f = fkr.reorder[fpos];
        // Stride boundaries: cumulative kernel count per pattern id.
        std::vector<int32_t> bounds(static_cast<size_t>(npat) + 1, 0);
        if (sorted) {
            size_t ki = 0;
            for (int p = 0; p < npat; ++p) {
                bounds[static_cast<size_t>(p)] = static_cast<int32_t>(ki);
                while (ki < kernels.size() && kernels[ki].pattern_id == p)
                    ++ki;
            }
            bounds[static_cast<size_t>(npat)] = static_cast<int32_t>(kernels.size());
            // Fill boundaries monotonically for patterns with no kernels.
            for (int p = npat - 1; p >= 0; --p)
                if (bounds[static_cast<size_t>(p)] > bounds[static_cast<size_t>(p) + 1])
                    bounds[static_cast<size_t>(p)] = bounds[static_cast<size_t>(p) + 1];
        } else {
            // Unsorted (no kernel reorder): single segment covering all;
            // per-kernel pattern ids go to the loose-format array.
            for (int p = 1; p <= npat; ++p)
                bounds[static_cast<size_t>(p)] = static_cast<int32_t>(kernels.size());
        }
        for (int32_t b : bounds)
            fkw.stride.push_back(b);

        for (const auto& k : kernels) {
            if (!sorted)
                fkw.kernel_pattern.push_back(k.pattern_id);
            fkw.index.push_back(k.input_channel);
            const float* kp =
                weight.data() + (static_cast<int64_t>(original_f) * fkw.in_channels +
                                 k.input_channel) * ksz;
            const Pattern& pat = set.patterns[static_cast<size_t>(k.pattern_id)];
            for (uint32_t m = pat.keptBits(); m != 0; m &= m - 1)
                fkw.weights.push_back(kp[std::countr_zero(m)]);
        }
        fkw.offset.push_back(static_cast<int32_t>(fkw.index.size()));
    }
    return fkw;
}

FkwLayer
pruneAndPack(Tensor& weight, const PatternSet& set, int64_t alpha,
             const FkrOptions& fkr_opts)
{
    PatternAssignment asg = projectJoint(weight, set, alpha);
    FkrResult fkr = filterKernelReorder(asg, fkr_opts);
    return buildFkw(weight, set, asg, fkr);
}

Tensor
fkwToDense(const FkwLayer& fkw)
{
    Tensor dense(Shape{fkw.filters, fkw.in_channels, fkw.kh, fkw.kw});
    int64_t ksz = fkw.kh * fkw.kw;
    int npat = static_cast<int>(fkw.patterns.size());
    bool loose = !fkw.kernel_pattern.empty();
    int64_t widx = 0;
    for (int64_t fpos = 0; fpos < fkw.filters; ++fpos) {
        int32_t original_f = fkw.reorder[static_cast<size_t>(fpos)];
        int32_t kb = fkw.offset[static_cast<size_t>(fpos)];
        int32_t ke = fkw.offset[static_cast<size_t>(fpos) + 1];
        for (int32_t gk = kb; gk < ke; ++gk) {
            int pid;
            if (loose) {
                pid = fkw.kernel_pattern[static_cast<size_t>(gk)];
            } else {
                pid = 0;
                int32_t k = gk - kb;
                for (int p = 0; p < npat; ++p) {
                    if (k >= fkw.strideAt(fpos, p) && k < fkw.strideAt(fpos, p + 1)) {
                        pid = p;
                        break;
                    }
                }
            }
            const Pattern& pat = fkw.patterns[static_cast<size_t>(pid)];
            int32_t ic = fkw.index[static_cast<size_t>(gk)];
            float* kp = dense.data() +
                        (static_cast<int64_t>(original_f) * fkw.in_channels + ic) * ksz;
            for (uint32_t m = pat.keptBits(); m != 0; m &= m - 1)
                kp[std::countr_zero(m)] = fkw.weights[static_cast<size_t>(widx++)];
        }
    }
    return dense;
}

Status
validateFkw(const FkwLayer& fkw)
{
    auto fail = [](std::string msg) {
        return Status(ErrorCode::kDataLoss, std::move(msg));
    };
    int npat = static_cast<int>(fkw.patterns.size());
    if (npat == 0)
        return fail("empty pattern table");
    for (const auto& p : fkw.patterns) {
        if (p.kh() != fkw.kh || p.kw() != fkw.kw)
            return fail("pattern geometry mismatch");
        // Executors step through the weight array `entries` floats per
        // kernel and read one weight per kept position.
        if ((uint64_t{p.mask()} >> (p.kh() * p.kw())) != 0 ||
            p.popcount() != fkw.entries)
            return fail("pattern mask disagrees with the kernel window or entries");
    }
    if (fkw.offset.empty() || static_cast<int64_t>(fkw.offset.size()) - 1 != fkw.filters)
        return fail("offset size != filters + 1");
    if (fkw.offset.front() != 0)
        return fail("offset[0] != 0");
    for (size_t i = 1; i < fkw.offset.size(); ++i)
        if (fkw.offset[i] < fkw.offset[i - 1])
            return fail("offset not monotonic");
    if (fkw.offset.back() != static_cast<int32_t>(fkw.index.size()))
        return fail("offset back != kernel count");
    if (static_cast<int64_t>(fkw.reorder.size()) != fkw.filters)
        return fail("reorder size != filters");
    std::vector<uint8_t> seen(static_cast<size_t>(fkw.filters), 0);
    for (int32_t r : fkw.reorder) {
        if (r < 0 || r >= fkw.filters)
            return fail("reorder entry out of range");
        if (seen[static_cast<size_t>(r)])
            return fail("reorder is not a permutation");
        seen[static_cast<size_t>(r)] = 1;
    }
    for (int32_t ic : fkw.index)
        if (ic < 0 || ic >= fkw.in_channels)
            return fail("index entry out of range");
    if (static_cast<int64_t>(fkw.stride.size()) !=
        fkw.filters * (static_cast<int64_t>(npat) + 1))
        return fail("stride size != filters * (npat + 1)");
    for (int64_t f = 0; f < fkw.filters; ++f) {
        int32_t fk = fkw.offset[static_cast<size_t>(f) + 1] -
                     fkw.offset[static_cast<size_t>(f)];
        if (fkw.strideAt(f, 0) != 0)
            return fail("stride run does not start at 0");
        for (int p = 0; p < npat; ++p)
            if (fkw.strideAt(f, p + 1) < fkw.strideAt(f, p))
                return fail("stride not monotonic");
        if (fkw.strideAt(f, npat) != fk)
            return fail("stride does not cover filter kernels");
    }
    // FKR groups: consecutive equal-length runs that partition the
    // reordered filters (the executor schedules work by group).
    int64_t next = 0;
    for (const FilterGroup& g : fkw.groups) {
        if (g.begin != next || g.end <= g.begin || g.end > fkw.filters)
            return fail("filter groups do not partition the filters");
        for (int32_t f = g.begin; f < g.end; ++f)
            if (fkw.offset[static_cast<size_t>(f) + 1] -
                    fkw.offset[static_cast<size_t>(f)] != g.length)
                return fail("filter group length disagrees with its kernels");
        next = g.end;
    }
    if (next != fkw.filters)
        return fail("filter groups do not partition the filters");
    if (!fkw.kernel_pattern.empty()) {
        // Loose format: per-kernel pattern array parallel to index.
        if (fkw.kernel_pattern.size() != fkw.index.size())
            return fail("kernel_pattern size mismatch");
        int64_t expect_weights = 0;
        for (int32_t pid : fkw.kernel_pattern) {
            if (pid < 0 || pid >= npat)
                return fail("kernel_pattern id out of range");
            expect_weights += fkw.patterns[static_cast<size_t>(pid)].popcount();
        }
        if (expect_weights != static_cast<int64_t>(fkw.weights.size()))
            return fail("weight array size mismatch (loose)");
        return Status::OK();
    }
    int64_t expect_weights = 0;
    for (int64_t f = 0; f < fkw.filters; ++f)
        for (int p = 0; p < npat; ++p)
            expect_weights += static_cast<int64_t>(
                                  fkw.strideAt(f, p + 1) - fkw.strideAt(f, p)) *
                              fkw.patterns[static_cast<size_t>(p)].popcount();
    if (expect_weights != static_cast<int64_t>(fkw.weights.size()))
        return fail("weight array size mismatch");
    return Status::OK();
}

void
serializeFkwPrefix(const FkwLayer& fkw, std::vector<uint8_t>& out)
{
    bytes::putU64(out, static_cast<uint64_t>(fkw.filters));
    bytes::putU64(out, static_cast<uint64_t>(fkw.in_channels));
    bytes::putU64(out, static_cast<uint64_t>(fkw.kh));
    bytes::putU64(out, static_cast<uint64_t>(fkw.kw));
    bytes::putU32(out, static_cast<uint32_t>(fkw.entries));

    // Pattern table: geometry lives in the header, one mask per entry.
    bytes::putU32(out, static_cast<uint32_t>(fkw.patterns.size()));
    for (const Pattern& p : fkw.patterns)
        bytes::putU32(out, p.mask());

    putIntArray(out, fkw.offset);
    putIntArray(out, fkw.reorder);
    putIntArray(out, fkw.index);
    putIntArray(out, fkw.stride);
    putIntArray(out, fkw.kernel_pattern);

    bytes::putU32(out, static_cast<uint32_t>(fkw.groups.size()));
    for (const FilterGroup& g : fkw.groups) {
        bytes::putU32(out, static_cast<uint32_t>(g.begin));
        bytes::putU32(out, static_cast<uint32_t>(g.end));
        bytes::putU32(out, static_cast<uint32_t>(g.length));
    }

    bytes::putU64(out, fkw.weights.size());
}

void
serializeFkw(const FkwLayer& fkw, std::vector<uint8_t>& out)
{
    serializeFkwPrefix(fkw, out);
    size_t old = out.size();
    out.resize(old + fkw.weights.size() * sizeof(float));
    if (!fkw.weights.empty())
        std::memcpy(out.data() + old, fkw.weights.data(),
                    fkw.weights.size() * sizeof(float));
}

Status
deserializeFkw(const uint8_t* data, size_t size, size_t* consumed, FkwLayer* fkw)
{
    auto fail = [](const char* msg) {
        return Status(ErrorCode::kDataLoss, msg);
    };
    ByteReader r{{data, size}};
    FkwLayer out;
    out.filters = static_cast<int64_t>(r.u64());
    out.in_channels = static_cast<int64_t>(r.u64());
    out.kh = static_cast<int64_t>(r.u64());
    out.kw = static_cast<int64_t>(r.u64());
    out.entries = static_cast<int>(r.u32());
    if (!r.ok)
        return fail("fkw: truncated header");
    // Geometry sanity before any Pattern is built (the Pattern ctor
    // aborts on kh*kw > 32, which corrupt bytes must not trigger).
    if (out.filters < 0 || out.in_channels < 0 || out.kh <= 0 || out.kw <= 0 ||
        out.kh > 32 || out.kw > 32 || out.kh * out.kw > 32)
        return fail("fkw: implausible geometry");

    // Counts are bounded by the bytes left before anything is sized.
    uint32_t npat = r.u32();
    if (!r.ok || npat > (size - r.pos) / 4)
        return fail("fkw: bad pattern table");
    out.patterns.reserve(npat);
    for (uint32_t i = 0; i < npat; ++i) {
        uint32_t mask = r.u32();
        if (!r.ok)
            return fail("fkw: truncated pattern table");
        out.patterns.emplace_back(out.kh, out.kw, mask);
    }

    if (!r.intArray(out.offset) || !r.intArray(out.reorder) ||
        !r.intArray(out.index) || !r.intArray(out.stride) ||
        !r.intArray(out.kernel_pattern))
        return fail("fkw: truncated index arrays");

    uint32_t ngroups = r.u32();
    if (!r.ok || ngroups > (size - r.pos) / 12)
        return fail("fkw: bad group table");
    out.groups.reserve(ngroups);
    for (uint32_t i = 0; i < ngroups; ++i) {
        FilterGroup g;
        g.begin = static_cast<int32_t>(r.u32());
        g.end = static_cast<int32_t>(r.u32());
        g.length = static_cast<int32_t>(r.u32());
        if (!r.ok)
            return fail("fkw: truncated group table");
        out.groups.push_back(g);
    }

    if (!r.floatArray(out.weights))
        return fail("fkw: truncated weight array");
    if (!r.ok)
        return fail("fkw: truncated record");

    if (consumed != nullptr)
        *consumed = r.pos;
    *fkw = std::move(out);
    return Status::OK();
}

}  // namespace patdnn
