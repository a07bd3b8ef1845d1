/**
 * @file
 * Shared-weight inference sessions.
 *
 * One compiled model (weights, FKW storage, LR, tuned parameters) is an
 * immutable artifact that many concurrent sessions share through a
 * shared_ptr; each session owns only its activation Workspace plus its
 * latency bookkeeping. This is the serving-side answer to model-size
 * pressure: N concurrent streams cost one copy of the weights and N
 * copies of the (much smaller) activations.
 *
 * A session's activations live in one arena of plan.arenaBytes(batch),
 * laid out by the model's activation MemoryPlan (rt/memplan.h — every
 * compiled or restored model derives one from its graph) and sized by
 * peak LIVE memory instead of one allocation per layer, which is what
 * lets a host hold many more concurrent sessions per GB. Runs under
 * the model's plan are bit-exact against runs under a plan that
 * recycles nothing (tests/memplan_exec_test.cc).
 */
#pragma once

#include <cstdint>
#include <memory>

#include "rt/framework.h"

namespace patdnn {

/** Per-session request counters. */
struct SessionStats
{
    int64_t requests = 0;      ///< run() calls completed.
    int64_t samples = 0;       ///< Total N across all inputs.
    double total_ms = 0.0;     ///< Wall-clock summed over run() calls.
};

/**
 * A single inference stream over a shared compiled model. Not
 * thread-safe itself (one stream = one caller), but any number of
 * sessions may run concurrently against the same model.
 */
class InferenceSession
{
  public:
    /** `model` must carry a memory plan (the Workspace CHECK-aborts
     * otherwise; only a directly constructed graph that fails shape
     * inference lacks one). */
    explicit InferenceSession(std::shared_ptr<const CompiledModel> model);

    /** Run one NCHW batch through the shared model. */
    Tensor run(const Tensor& input);

    /**
     * Per-layer breakdown of the MOST RECENT run() (empty before the
     * first run or when profiling is disabled): layer name, engine
     * kind, kernel ISA, bytes touched, call count, total/max time.
     * RunProfile::renderTable() prints it as a Fig. 14-style table.
     */
    const RunProfile& lastRunProfile() const { return profile_; }

    /** Per-layer profiling on/off (on by default; the per-node clock
     * reads cost well under a percent of a model run). */
    void setProfilingEnabled(bool on) { profiling_ = on; }

    /** Bytes of this session's activation arena: the model's
     * memoryPlan().arenaBytes() at the largest batch run so far (0
     * before the first run). */
    size_t activationBytes() const { return workspace_.activationBytes(); }

    /** Debug canary (tests): NaN-poison freed arena ranges between
     * layers to surface any executor reading recycled memory. */
    void setDebugPoisonFreed(bool on) { workspace_.setPoisonFreed(on); }

    const SessionStats& stats() const { return stats_; }
    const CompiledModel& model() const { return *model_; }

  private:
    std::shared_ptr<const CompiledModel> model_;
    Workspace workspace_;  ///< This session's private activation scratch.
    SessionStats stats_;
    RunProfile profile_;   ///< Most recent run's per-layer breakdown.
    bool profiling_ = true;
};

}  // namespace patdnn
