#include "rt/tuner.h"

#include "rt/simd/dispatch.h"

namespace patdnn {

TuneParams
tuneLayer(const std::vector<TuneParams>& candidates,
          const std::function<double(const TuneParams&)>& measure,
          const TuneParams& fallback)
{
    if (candidates.size() <= 1)
        return candidates.empty() ? fallback : candidates.front();
    size_t best = 0;
    double best_ms = measure(candidates[0]);
    for (size_t i = 1; i < candidates.size(); ++i) {
        const double ms = measure(candidates[i]);
        if (ms < best_ms) {
            best_ms = ms;
            best = i;
        }
    }
    return candidates[best];
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
                      // The kind picks the engine the tuner timed.
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
    // The tuner measures a concrete FKW density; a different pruning
    // rate is a different workload.
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
