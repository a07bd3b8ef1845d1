#include "rt/device.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace patdnn {

ThreadPool&
DeviceSpec::pool() const
{
    static ThreadPool inline_pool(1);
    if (threads <= 1)
        return inline_pool;
    static std::mutex mutex;
    static std::map<int, std::unique_ptr<ThreadPool>> pools;
    std::lock_guard<std::mutex> lk(mutex);
    std::unique_ptr<ThreadPool>& pool = pools[threads];
    if (!pool)
        pool = std::make_unique<ThreadPool>(threads);
    return *pool;
}

namespace {

int
hostThreads(int want)
{
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0)
        hw = 4;
    return std::max(1, std::min(want, hw));
}

}  // namespace

DeviceSpec
makeCpuDevice(int threads)
{
    DeviceSpec d;
    d.name = "mobile-cpu-sim";
    d.threads = hostThreads(threads);
    d.gpu_like = false;
    d.tile_budget_kb = 32;
    return d;
}

DeviceSpec
makeFixedWidthCpuDevice(int threads)
{
    DeviceSpec d;
    d.name = "mobile-cpu-sim-fixed";
    d.threads = std::max(1, threads);
    d.gpu_like = false;
    d.tile_budget_kb = 32;
    return d;
}

DeviceSpec
makeGpuDevice()
{
    DeviceSpec d;
    d.name = "mobile-gpu-sim";
    d.threads = hostThreads(64);
    d.gpu_like = true;
    d.tile_budget_kb = 16;
    return d;
}

DeviceSpec
makeSnapdragon855()
{
    DeviceSpec d = makeCpuDevice(8);
    d.name = "snapdragon-855-sim";
    return d;
}

DeviceSpec
makeSnapdragon845()
{
    DeviceSpec d = makeCpuDevice(6);
    d.name = "snapdragon-845-sim";
    d.tile_budget_kb = 24;
    return d;
}

DeviceSpec
makeKirin980()
{
    DeviceSpec d = makeCpuDevice(4);
    d.name = "kirin-980-sim";
    d.tile_budget_kb = 16;
    return d;
}

}  // namespace patdnn
