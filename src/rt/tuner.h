/**
 * @file
 * Parameter auto-tuning (paper Section 5.5): a Genetic-Algorithm
 * explorer over the configuration space (row tiles / spatial blocking /
 * loop permutations / dense GEMM blocking) plus a learned performance
 * estimator (linear least-squares over configuration features, the
 * paper's "performance estimation model created from historical data")
 * that warm-starts tuning on a new platform.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "nn/conv_desc.h"
#include "rt/device.h"
#include "rt/lr.h"
#include "rt/simd/dispatch.h"
#include "util/rng.h"

namespace patdnn {

/** The discrete configuration space the GA explores. */
struct TuneSpace
{
    std::vector<int64_t> tile_oh = {4, 8, 16, 32};
    std::vector<LoopPermutation> permutations = {LoopPermutation::kCoCiHW,
                                                 LoopPermutation::kCoHWCi};
    std::vector<bool> blocked = {false, true};
    // Dense packed-GEMM cache blocking (rt/gemm_packed.h); 0 = the
    // budget-derived heuristic stays in the running as a candidate.
    std::vector<int64_t> gemm_kc = {0, 64, 128, 256};
    std::vector<int64_t> gemm_nc = {0, 32, 64, 128};
};

/**
 * Search space specialized to the kernel ISA the layer will execute
 * with: dense GEMM N-blocks are whole tile widths of its gemm_nr, so
 * tuned TuneParams are meaningful for the kernels that will actually
 * run (and an artifact records which ISA its parameters were searched
 * on — serve/artifact.h).
 */
TuneSpace tuneSpaceFor(SimdIsa isa);

/** GA knobs. */
struct TunerConfig
{
    int population = 12;
    int generations = 4;
    double mutation_rate = 0.25;
    int measure_reps = 2;     ///< Timed runs per fitness evaluation.
    uint64_t seed = 99;

    /**
     * Evaluate each batch of candidates (initial population, then each
     * generation's children) in parallel on this pool instead of
     * serially. Candidate *selection* is unchanged — every generation's
     * children are bred from the previous generation only, so the RNG
     * sequence and the explored configurations are identical to the
     * serial schedule, and history keeps its deterministic order.
     * Requirements: `measure` must be thread-safe, and the pool must
     * not be one `measure` itself forks on (ThreadPool fork-joins are
     * not reentrant). Measured times gain cross-candidate contention
     * noise; with a deterministic measure, results are bit-identical
     * to serial.
     */
    ThreadPool* eval_pool = nullptr;
};

/** One explored configuration with its measured cost. */
struct TuneRecord
{
    TuneParams params;
    double time_ms = 0.0;
};

/** Result of a tuning run. */
struct TuneResult
{
    TuneParams best;
    double best_ms = 0.0;
    std::vector<TuneRecord> history;  ///< All evaluated points.
    int evaluations = 0;
};

/**
 * Tune a layer: `measure` runs the layer under the given params and
 * returns median time in ms. The GA initializes an arbitrary number of
 * chromosomes (paper: better parallelism than simulated annealing),
 * evolves with tournament selection, uniform crossover and point
 * mutation, and returns the best configuration found.
 */
TuneResult tuneLayer(const std::function<double(const TuneParams&)>& measure,
                     const TuneSpace& space = {}, const TunerConfig& cfg = {});

/** Engine family a tuning was measured on (defined in rt/framework.h). */
enum class FrameworkKind;

/**
 * Process-wide cache of tuned parameters keyed by (layer geometry,
 * framework kind, resolved kernel ISA, device fingerprint, connectivity
 * rate). Tuned widths do not depend on the weight *values*, but they do
 * depend on everything that shapes the measured runtime: the engine the
 * kind selects for the layer (a pattern tile, an im2col GEMM and a
 * Winograd GEMM block differently), the layer geometry, the kernel
 * vector width, the device's pool width / scheduling model / tile
 * budget, and the sparsity the GA measured (connectivity rate fixes the
 * FKW density). All of that is in the key, so once
 * Compiler::tuneLayer has tuned one configuration, every later
 * Compiler::compile over the same configuration reuses the result and
 * skips the search, and a different engine, device or pruning rate
 * never silently inherits a foreign tuning. Thread-safe; the hit
 * counter backs tests and cache-efficacy logging.
 */
class TuneCache
{
  public:
    /** The process cache (the auto-tune paths all share one). */
    static TuneCache& instance();

    /** True + *params filled on a hit for (desc geometry, device, kind,
     * connectivity). The device's ISA is resolved to what would
     * actually execute. */
    bool lookup(const ConvDesc& desc, const DeviceSpec& device, FrameworkKind kind,
                double connectivity_rate, TuneParams* params) const;

    /** Record the GA's best; later inserts for the same key overwrite
     * (newest tuning wins). */
    void insert(const ConvDesc& desc, const DeviceSpec& device, FrameworkKind kind,
                double connectivity_rate, const TuneParams& params);

    size_t size() const;
    int64_t hits() const;

    /** Drop every entry and reset the hit counter (tests). */
    void clear();

  private:
    /** Geometry + engine + device + sparsity key; the layer name is
     * deliberately excluded so identically-shaped layers share one
     * tuning. */
    static std::string key(const ConvDesc& desc, const DeviceSpec& device,
                           FrameworkKind kind, double connectivity_rate);

    mutable std::mutex mutex_;
    std::map<std::string, TuneParams> entries_;
    mutable int64_t hits_ = 0;
};

/**
 * Performance estimator trained on tuning history: ridge-regularized
 * least squares over configuration features. Predicts time for unseen
 * configurations so a new platform can start from a good guess.
 */
class PerfEstimator
{
  public:
    /** Fit from records (needs >= 4 points). */
    void fit(const std::vector<TuneRecord>& history);

    /** Predict time (ms) for a configuration. */
    double predict(const TuneParams& params) const;

    bool trained() const { return trained_; }

    /** Best configuration in `space` according to the model. */
    TuneParams argminOver(const TuneSpace& space) const;

  private:
    static std::vector<double> features(const TuneParams& p);
    std::vector<double> coef_;
    bool trained_ = false;
};

}  // namespace patdnn
