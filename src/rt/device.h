/**
 * @file
 * Execution device abstraction.
 *
 * The paper runs on Snapdragon 855/845 and Kirin 980 CPUs and their
 * GPUs. This repo substitutes host-CPU execution behind a DeviceSpec
 * that carries the scheduling-relevant properties of each target:
 * worker count, a GPU-like flag (FKR filter groups kept whole as
 * "thread blocks", so the thread split is coarser — the Fig. 13
 * observation), and a cache tile budget. See docs/ARCHITECTURE.md,
 * "Substitutions".
 */
#pragma once

#include <string>

#include "rt/simd/dispatch.h"
#include "util/thread_pool.h"

namespace patdnn {

/** A simulated execution target. */
struct DeviceSpec
{
    std::string name = "host-cpu";
    int threads = 8;         ///< Worker count (paper uses 8 CPU threads).
    bool gpu_like = false;   ///< Schedule groups as thread blocks.
    int64_t tile_budget_kb = 32;  ///< L1-resident working-set budget.

    /**
     * Kernel ISA executors on this device use, defaulting to the best
     * the process supports. Overridable per spec (tests force kScalar;
     * tools/verify.sh --simd-off builds without vector tables at all);
     * an unavailable value silently degrades to scalar at resolve time.
     */
    SimdIsa simd_isa = detectSimdIsa();

    /** Active-ISA display name ("scalar"/"avx2"/"neon"). */
    const char* simdName() const { return isaName(resolveSimdOps(simd_isa).isa); }

    /**
     * The process's one pool of width `threads`, created on first use
     * and shared by every device of that width (and so by every
     * executor on them); a one-thread device's pool runs inline.
     */
    ThreadPool& pool() const;
};

/** Snapdragon-855-class CPU stand-in (the paper's primary platform).
 * The pool width is clamped to the host's hardware concurrency. */
DeviceSpec makeCpuDevice(int threads = 8);

/**
 * CPU device whose pool width is taken verbatim — NOT clamped to
 * std::thread::hardware_concurrency(). Analytic models (load counts,
 * per-thread balance) and committed bench baselines must describe the
 * *target* width, not whatever core count the current CI cell happens
 * to have; serving tests likewise pin their width so single-core
 * runners exercise the same schedules. Oversubscription is fine for
 * both uses (the pool is just threads).
 */
DeviceSpec makeFixedWidthCpuDevice(int threads);

/** Adreno-640-class GPU stand-in: max parallelism, block scheduling. */
DeviceSpec makeGpuDevice();

/** Portability presets for Fig. 18 (differ in threads + tile budget). */
DeviceSpec makeSnapdragon855();
DeviceSpec makeSnapdragon845();
DeviceSpec makeKirin980();

}  // namespace patdnn
