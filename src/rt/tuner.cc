#include "rt/tuner.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace patdnn {
namespace {

/** Chromosome: indices into each axis of the TuneSpace. */
struct Genes
{
    int tile_oh = 0, permutation = 0, blocked = 0;
    int gemm_kc = 0, gemm_nc = 0;
};

TuneParams
decode(const Genes& g, const TuneSpace& s)
{
    TuneParams p;
    p.tile_oh = s.tile_oh[static_cast<size_t>(g.tile_oh)];
    p.permute = s.permutations[static_cast<size_t>(g.permutation)];
    p.blocked = s.blocked[static_cast<size_t>(g.blocked)];
    p.gemm_kc = s.gemm_kc[static_cast<size_t>(g.gemm_kc)];
    p.gemm_nc = s.gemm_nc[static_cast<size_t>(g.gemm_nc)];
    return p;
}

Genes
randomGenes(const TuneSpace& s, Rng& rng)
{
    auto pick = [&](size_t n) {
        return static_cast<int>(rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    };
    Genes g;
    g.tile_oh = pick(s.tile_oh.size());
    g.permutation = pick(s.permutations.size());
    g.blocked = pick(s.blocked.size());
    g.gemm_kc = pick(s.gemm_kc.size());
    g.gemm_nc = pick(s.gemm_nc.size());
    return g;
}

Genes
crossover(const Genes& a, const Genes& b, Rng& rng)
{
    Genes c;
    c.tile_oh = rng.bernoulli(0.5) ? a.tile_oh : b.tile_oh;
    c.permutation = rng.bernoulli(0.5) ? a.permutation : b.permutation;
    c.blocked = rng.bernoulli(0.5) ? a.blocked : b.blocked;
    c.gemm_kc = rng.bernoulli(0.5) ? a.gemm_kc : b.gemm_kc;
    c.gemm_nc = rng.bernoulli(0.5) ? a.gemm_nc : b.gemm_nc;
    return c;
}

void
mutate(Genes& g, const TuneSpace& s, double rate, Rng& rng)
{
    auto maybe = [&](int& gene, size_t n) {
        if (rng.bernoulli(rate))
            gene = static_cast<int>(rng.uniformInt(0, static_cast<int64_t>(n) - 1));
    };
    maybe(g.tile_oh, s.tile_oh.size());
    maybe(g.permutation, s.permutations.size());
    maybe(g.blocked, s.blocked.size());
    maybe(g.gemm_kc, s.gemm_kc.size());
    maybe(g.gemm_nc, s.gemm_nc.size());
}

}  // namespace

TuneSpace
tuneSpaceFor(SimdIsa isa)
{
    TuneSpace s;
    const SimdOps& ops = resolveSimdOps(isa);
    // GEMM N-blocks in whole tile widths of this ISA's gemm_nr (so a
    // block never splits a tile); 0 keeps the budget heuristic as a
    // candidate. kc candidates are ISA-independent (panel depth).
    int64_t nr = ops.gemm_nr;
    s.gemm_nc = {0, 4 * nr, 8 * nr, 16 * nr};
    return s;
}

TuneResult
tuneLayer(const std::function<double(const TuneParams&)>& measure,
          const TuneSpace& space, const TunerConfig& cfg)
{
    Rng rng(cfg.seed);
    TuneResult result;
    result.best_ms = 1e30;

    std::vector<Genes> population;
    for (int i = 0; i < cfg.population; ++i)
        population.push_back(randomGenes(space, rng));

    // Evaluate one batch of candidates (the initial population, then
    // each generation's brood). Breeding only depends on the *previous*
    // generation's fitness, so a whole batch can be measured at once —
    // in parallel on cfg.eval_pool when provided — while history order,
    // the RNG sequence and the explored candidates stay identical to
    // the serial schedule.
    auto evaluateBatch = [&](const std::vector<Genes>& batch) {
        std::vector<TuneRecord> records(batch.size());
        auto eval_one = [&](int64_t i) {
            TuneParams p = decode(batch[static_cast<size_t>(i)], space);
            double best = 1e30;
            for (int r = 0; r < cfg.measure_reps; ++r)
                best = std::min(best, measure(p));
            records[static_cast<size_t>(i)] = {p, best};
        };
        if (cfg.eval_pool != nullptr && batch.size() > 1)
            cfg.eval_pool->parallelFor(static_cast<int64_t>(batch.size()),
                                       eval_one);
        else
            for (int64_t i = 0; i < static_cast<int64_t>(batch.size()); ++i)
                eval_one(i);
        std::vector<double> fit(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            result.history.push_back(records[i]);
            ++result.evaluations;
            if (records[i].time_ms < result.best_ms) {
                result.best_ms = records[i].time_ms;
                result.best = records[i].params;
            }
            fit[i] = records[i].time_ms;
        }
        return fit;
    };

    std::vector<double> fitness = evaluateBatch(population);

    for (int gen = 0; gen < cfg.generations; ++gen) {
        std::vector<Genes> next;
        std::vector<double> next_fit;
        // Elitism: carry the best chromosome forward (not re-measured).
        size_t best_idx = 0;
        for (size_t i = 1; i < population.size(); ++i)
            if (fitness[i] < fitness[best_idx])
                best_idx = i;
        next.push_back(population[best_idx]);
        next_fit.push_back(fitness[best_idx]);
        std::vector<Genes> brood;
        while (next.size() + brood.size() < population.size()) {
            // Tournament selection of two parents.
            auto tournament = [&]() -> const Genes& {
                size_t a = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(population.size()) - 1));
                size_t b = static_cast<size_t>(
                    rng.uniformInt(0, static_cast<int64_t>(population.size()) - 1));
                return fitness[a] <= fitness[b] ? population[a] : population[b];
            };
            Genes child = crossover(tournament(), tournament(), rng);
            mutate(child, space, cfg.mutation_rate, rng);
            brood.push_back(child);
        }
        std::vector<double> brood_fit = evaluateBatch(brood);
        for (size_t i = 0; i < brood.size(); ++i) {
            next.push_back(brood[i]);
            next_fit.push_back(brood_fit[i]);
        }
        population = std::move(next);
        fitness = std::move(next_fit);
    }
    return result;
}

std::vector<double>
PerfEstimator::features(const TuneParams& p)
{
    return {
        1.0,
        std::log2(static_cast<double>(std::max<int64_t>(1, p.tile_oh))),
        p.permute == LoopPermutation::kCoHWCi ? 1.0 : 0.0,
        p.blocked ? 1.0 : 0.0,
        // 0 = "heuristic blocking" decodes to log2(1) = 0, a neutral
        // baseline the fitted slope measures concrete blocks against.
        std::log2(static_cast<double>(std::max<int64_t>(1, p.gemm_kc))),
        std::log2(static_cast<double>(std::max<int64_t>(1, p.gemm_nc))),
    };
}

void
PerfEstimator::fit(const std::vector<TuneRecord>& history)
{
    if (history.size() < 4)
        return;
    size_t n = history.size();
    size_t d = features(history[0].params).size();
    // Normal equations with ridge regularization: (X'X + lI) c = X'y.
    std::vector<std::vector<double>> xtx(d, std::vector<double>(d, 0.0));
    std::vector<double> xty(d, 0.0);
    for (const auto& rec : history) {
        auto f = features(rec.params);
        for (size_t i = 0; i < d; ++i) {
            xty[i] += f[i] * rec.time_ms;
            for (size_t j = 0; j < d; ++j)
                xtx[i][j] += f[i] * f[j];
        }
    }
    double lambda = 1e-3 * static_cast<double>(n);
    for (size_t i = 0; i < d; ++i)
        xtx[i][i] += lambda;
    // Gaussian elimination with partial pivoting.
    std::vector<std::vector<double>> a = xtx;
    std::vector<double> b = xty;
    for (size_t col = 0; col < d; ++col) {
        size_t piv = col;
        for (size_t r = col + 1; r < d; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[piv][col]))
                piv = r;
        std::swap(a[col], a[piv]);
        std::swap(b[col], b[piv]);
        if (std::fabs(a[col][col]) < 1e-12)
            return;  // Singular; stay untrained.
        for (size_t r = 0; r < d; ++r) {
            if (r == col)
                continue;
            double factor = a[r][col] / a[col][col];
            for (size_t c2 = col; c2 < d; ++c2)
                a[r][c2] -= factor * a[col][c2];
            b[r] -= factor * b[col];
        }
    }
    coef_.assign(d, 0.0);
    for (size_t i = 0; i < d; ++i)
        coef_[i] = b[i] / a[i][i];
    trained_ = true;
}

double
PerfEstimator::predict(const TuneParams& params) const
{
    PATDNN_CHECK(trained_, "estimator not trained");
    auto f = features(params);
    double y = 0.0;
    for (size_t i = 0; i < f.size(); ++i)
        y += coef_[i] * f[i];
    return y;
}

TuneParams
PerfEstimator::argminOver(const TuneSpace& space) const
{
    PATDNN_CHECK(trained_, "estimator not trained");
    TuneParams best;
    double best_y = 1e30;
    for (int64_t toh : space.tile_oh)
        for (auto perm : space.permutations)
            for (bool blk : space.blocked)
                for (int64_t gkc : space.gemm_kc)
                    for (int64_t gnc : space.gemm_nc) {
                        TuneParams p;
                        p.tile_oh = toh;
                        p.permute = perm;
                        p.blocked = blk;
                        p.gemm_kc = gkc;
                        p.gemm_nc = gnc;
                        double y = predict(p);
                        if (y < best_y) {
                            best_y = y;
                            best = p;
                        }
                    }
    return best;
}

TuneCache&
TuneCache::instance()
{
    static TuneCache cache;
    return cache;
}

std::string
TuneCache::key(const ConvDesc& desc, const DeviceSpec& device, FrameworkKind kind,
               double connectivity_rate)
{
    std::string k;
    for (int64_t v : {desc.cin, desc.cout, desc.kh, desc.kw, desc.h, desc.w,
                      desc.stride, desc.pad, desc.dilation, desc.groups,
                      // The kind picks the engine the GA timed.
                      static_cast<int64_t>(kind),
                      // Device fingerprint: the measured runtime depends
                      // on the pool width, scheduling model and tile
                      // budget, so tunings never cross devices.
                      static_cast<int64_t>(device.threads),
                      static_cast<int64_t>(device.gpu_like ? 1 : 0),
                      device.tile_budget_kb}) {
        k += std::to_string(v);
        k += ':';
    }
    k += isaName(resolveSimdOps(device.simd_isa).isa);
    k += ':';
    // The GA measures a concrete FKW density; a different pruning rate
    // is a different workload.
    k += std::to_string(connectivity_rate);
    return k;
}

bool
TuneCache::lookup(const ConvDesc& desc, const DeviceSpec& device, FrameworkKind kind,
                  double connectivity_rate, TuneParams* params) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = entries_.find(key(desc, device, kind, connectivity_rate));
    if (it == entries_.end())
        return false;
    ++hits_;
    if (params != nullptr)
        *params = it->second;
    return true;
}

void
TuneCache::insert(const ConvDesc& desc, const DeviceSpec& device, FrameworkKind kind,
                  double connectivity_rate, const TuneParams& params)
{
    std::lock_guard<std::mutex> lk(mutex_);
    entries_[key(desc, device, kind, connectivity_rate)] = params;
}

size_t
TuneCache::size() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return entries_.size();
}

int64_t
TuneCache::hits() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return hits_;
}

void
TuneCache::clear()
{
    std::lock_guard<std::mutex> lk(mutex_);
    entries_.clear();
    hits_ = 0;
}

}  // namespace patdnn
