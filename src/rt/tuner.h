/**
 * @file
 * Parameter tuning (paper Section 5.5). The paper searches its
 * generated code's large configuration space with a genetic algorithm
 * and a performance-estimation model. The engines here read a much
 * smaller space: each lists the configurations it can tell apart
 * (ConvEngine::tuneCandidates, at most 10 for the pattern engine and 16
 * for the dense GEMM engines), so tuning times every one of them
 * (docs/ARCHITECTURE.md, "Substitutions"). Tuning never changes an
 * output bit: every row tile, loop order and GEMM block keeps each
 * output's accumulation order.
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

namespace patdnn {

/**
 * The fastest of `candidates` under `measure` (ms per run of the layer
 * built with those params): each is measured once, in order, and ties
 * go to the earlier one. A list of at most one entry is returned
 * without measuring (`fallback` when empty).
 */
TuneParams tuneLayer(const std::vector<TuneParams>& candidates,
                     const std::function<double(const TuneParams&)>& measure,
                     const TuneParams& fallback = {});

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
 * budget, and the sparsity the tuner measured (connectivity rate fixes
 * the FKW density). All of that is in the key, so once
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

    /** Record the tuner's pick; later inserts for the same key
     * overwrite (newest tuning wins). */
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

}  // namespace patdnn
