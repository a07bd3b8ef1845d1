#include "sparse/fkr.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace patdnn {

int
filterSimilarity(const std::vector<ReorderedKernel>& a,
                 const std::vector<ReorderedKernel>& b)
{
    size_t n = std::min(a.size(), b.size());
    int same = 0;
    for (size_t i = 0; i < n; ++i)
        if (a[i].pattern_id == b[i].pattern_id)
            ++same;
    return same;
}

FkrResult
filterKernelReorder(const PatternAssignment& assignment, const FkrOptions& opts)
{
    int64_t filters = assignment.filters;
    int64_t kernels = assignment.kernels_per_filter;
    PATDNN_CHECK_GT(filters, 0, "assignment has no filters");

    // Collect surviving kernels per filter.
    std::vector<std::vector<ReorderedKernel>> per_filter(
        static_cast<size_t>(filters));
    for (int64_t f = 0; f < filters; ++f) {
        for (int64_t k = 0; k < kernels; ++k) {
            int pid = assignment.at(f, k);
            if (pid < 0)
                continue;  // Removed by connectivity pruning.
            per_filter[static_cast<size_t>(f)].push_back(
                {static_cast<int32_t>(k), static_cast<int32_t>(pid)});
        }
    }

    // Step 2: kernel reorder — sort by pattern id (stable keeps input
    // channels ascending within a pattern, helping locality).
    if (opts.reorder_kernels) {
        for (auto& ks : per_filter)
            std::stable_sort(ks.begin(), ks.end(),
                             [](const ReorderedKernel& x, const ReorderedKernel& y) {
                                 if (x.pattern_id != y.pattern_id)
                                     return x.pattern_id < y.pattern_id;
                                 return x.input_channel < y.input_channel;
                             });
    }

    // Step 1: filter reorder.
    std::vector<int32_t> order(static_cast<size_t>(filters));
    std::iota(order.begin(), order.end(), 0);
    if (opts.reorder_filters) {
        // 1a: group by length (descending so heavy filters lead).
        std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
            return per_filter[static_cast<size_t>(a)].size() >
                   per_filter[static_cast<size_t>(b)].size();
        });
        // 1b: greedy similarity chaining inside each equal-length run.
        if (opts.similarity_within_group) {
            size_t i = 0;
            while (i < order.size()) {
                size_t j = i + 1;
                while (j < order.size() &&
                       per_filter[static_cast<size_t>(order[j])].size() ==
                           per_filter[static_cast<size_t>(order[i])].size())
                    ++j;
                // Chain [i, j): repeatedly bring forward the most similar
                // filter to the last placed one.
                for (size_t p = i + 1; p < j; ++p) {
                    const auto& prev = per_filter[static_cast<size_t>(order[p - 1])];
                    size_t best = p;
                    int best_sim = -1;
                    for (size_t q = p; q < j; ++q) {
                        int sim = filterSimilarity(
                            prev, per_filter[static_cast<size_t>(order[q])]);
                        if (sim > best_sim) {
                            best_sim = sim;
                            best = q;
                        }
                    }
                    std::swap(order[p], order[best]);
                }
                i = j;
            }
        }
    }

    FkrResult result;
    result.reorder = order;
    result.filters.reserve(order.size());
    for (int32_t original : order)
        result.filters.push_back(std::move(per_filter[static_cast<size_t>(original)]));

    // Build equal-length groups over the final ordering.
    size_t i = 0;
    while (i < result.filters.size()) {
        size_t j = i + 1;
        while (j < result.filters.size() &&
               result.filters[j].size() == result.filters[i].size())
            ++j;
        result.groups.push_back({static_cast<int32_t>(i), static_cast<int32_t>(j),
                                 static_cast<int32_t>(result.filters[i].size())});
        i = j;
    }
    return result;
}

std::vector<int32_t>
filterLengths(const FkrResult& fkr)
{
    std::vector<int32_t> lengths;
    lengths.reserve(fkr.filters.size());
    for (const auto& f : fkr.filters)
        lengths.push_back(static_cast<int32_t>(f.size()));
    return lengths;
}

}  // namespace patdnn
