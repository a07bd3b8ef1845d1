#include "prune/pattern.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace patdnn {

Pattern::Pattern(int64_t kh, int64_t kw, uint32_t mask) : kh_(kh), kw_(kw), mask_(mask)
{
    PATDNN_CHECK_LE(kh * kw, 32, "pattern mask limited to 32 positions");
}

Pattern::Pattern(int64_t kh, int64_t kw, const std::vector<int>& kept) : kh_(kh), kw_(kw)
{
    PATDNN_CHECK_LE(kh * kw, 32, "pattern mask limited to 32 positions");
    for (int p : kept) {
        PATDNN_CHECK(p >= 0 && p < kh * kw, "kept position out of range: " << p);
        mask_ |= (1u << p);
    }
}

int
Pattern::popcount() const
{
    return std::popcount(mask_);
}

bool
Pattern::keeps(int64_t r, int64_t c) const
{
    return (mask_ >> (r * kw_ + c)) & 1u;
}

bool
Pattern::keepsCenter() const
{
    if (kh_ % 2 == 0 || kw_ % 2 == 0)
        return false;
    return keeps(kh_ / 2, kw_ / 2);
}

double
Pattern::keptEnergy(const float* kernel) const
{
    double e = 0.0;
    for (int i = 0; i < kh_ * kw_; ++i)
        if ((mask_ >> i) & 1u)
            e += static_cast<double>(kernel[i]) * kernel[i];
    return e;
}

void
Pattern::apply(float* kernel) const
{
    for (int i = 0; i < kh_ * kw_; ++i)
        if (!((mask_ >> i) & 1u))
            kernel[i] = 0.0f;
}

std::string
Pattern::str() const
{
    std::ostringstream out;
    for (int64_t r = 0; r < kh_; ++r) {
        for (int64_t c = 0; c < kw_; ++c)
            out << (keeps(r, c) ? 'x' : '.');
        if (r + 1 < kh_)
            out << '\n';
    }
    return out.str();
}

std::vector<Pattern>
allNaturalPatterns3x3()
{
    std::vector<Pattern> out;
    const int center = 4;
    for (int a = 0; a < 9; ++a) {
        if (a == center)
            continue;
        for (int b = a + 1; b < 9; ++b) {
            if (b == center)
                continue;
            for (int c = b + 1; c < 9; ++c) {
                if (c == center)
                    continue;
                out.emplace_back(3, 3, std::vector<int>{center, a, b, c});
            }
        }
    }
    PATDNN_CHECK_EQ(out.size(), 56u, "C(8,3) natural patterns");
    return out;
}

Pattern
naturalPatternOf(const float* kernel, int64_t kh, int64_t kw, int entries)
{
    PATDNN_CHECK(kh % 2 == 1 && kw % 2 == 1, "natural pattern needs odd kernel");
    PATDNN_CHECK_GE(entries, 1, "entries");
    int n = static_cast<int>(kh * kw);
    PATDNN_CHECK_LE(entries, n, "entries exceed kernel size");
    PATDNN_CHECK_LE(n, 32, "pattern mask limited to 32 positions");
    int center = static_cast<int>((kh / 2) * kw + kw / 2);
    // Key each tap by (|w| bits, 31 - i): the entries-1 largest keys are
    // the first entries-1 of a stable descending sort by magnitude. Only
    // key[0, n) is read, and all of it is written first.
    uint64_t key[32];
    for (int i = 0; i < n; ++i)
        key[i] = (uint64_t{std::bit_cast<uint32_t>(std::fabs(kernel[i]))} << 5) |
                 static_cast<uint64_t>(31 - i);
    key[center] = 0;
    uint32_t mask = 1u << center;
    for (int t = 0; t < entries - 1; ++t) {
        uint64_t best = 0;
        for (int i = 0; i < n; ++i)
            best = std::max(best, key[i]);
        int pos = 31 - static_cast<int>(best & 31u);
        mask |= 1u << pos;
        key[pos] = 0;
    }
    return Pattern(kh, kw, mask);
}

}  // namespace patdnn
