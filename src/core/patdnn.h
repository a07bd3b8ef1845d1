/**
 * @file
 * PatDNN public API — the Fig. 5 end-to-end pipeline in three calls:
 *
 *   1. compress(): pattern-based training stage — design a pattern set
 *      and run the extended-ADMM kernel-pattern + connectivity pruning
 *      on a trainable net (or one-shot projection on zoo weights);
 *   2. compileLayer(): execution-code-generation stage — FKR, FKW
 *      packing, LR construction and parameter auto-tuning for a device;
 *   3. the returned CompiledLayer's PatternConv engine runs inference
 *      (whole-model execution lives in CompiledModel, rt/framework.h).
 *
 * Deployment extends the pipeline past Fig. 5: saveModel()/loadModel()
 * (serve/artifact.h) freeze a CompiledModel into a distributable
 * artifact (it records the compile options + device fingerprint, so a
 * mismatched host gets a diagnostic instead of a failed invariant, and
 * the offline activation MemoryPlan, so sessions on the serving host
 * run out of one peak-live-sized arena — rt/memplan.h), serve()
 * stands up an async batched InferenceServer — per-request deadlines,
 * cancellation, and a linger window that coalesces sparse request
 * streams — and ModelRegistry serves several named artifacts from one
 * process over one shared compute pool (src/serve/). Above the
 * registry sits the horizontal-scale tier: AdmissionController
 * (serve/admission.h) holds the process-wide queued-work budget with
 * weighted fair-share shedding, and ShardRouter (serve/router.h)
 * spreads a model's traffic across N server replicas with
 * consistent-hash or least-loaded routing, per-replica health
 * ejection, and transparent failover.
 *
 * The v1 error contract (src/util/status.h): every facade call that
 * can fail for a caller-visible reason returns Status or Result<T>
 * with a typed ErrorCode; serve-side futures fail with ServeError
 * carrying the same codes. The Compiler class (core/compiler.h) is the
 * pipeline-shaped entry point with typed errors on malformed inputs;
 * the free functions below are the historical thin wrappers and keep
 * CHECK-abort semantics for invariant violations.
 *
 * Everything here is a thin, documented facade over the subsystem
 * libraries; include this single header to use the framework.
 */
#pragma once

#include "core/compiler.h"
#include "graph/builder.h"
#include "graph/passes.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "prune/admm.h"
#include "prune/pruners.h"
#include "rt/framework.h"
#include "rt/load_analysis.h"
#include "rt/tuner.h"
#include "serve/admission.h"
#include "serve/artifact.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sparse/csr.h"
#include "sparse/fkw.h"
#include "util/status.h"

namespace patdnn {

/**
 * Stage 1 on a trainable net: mine the pattern set from the trained
 * weights, then run joint kernel-pattern + connectivity ADMM pruning
 * with masked retraining. Thin wrapper over Compiler::compress()
 * (which adds typed validation).
 */
CompressResult compress(Net& net, const SyntheticShapes& data, int pattern_count = 8,
                        double connectivity_rate = 3.6, const AdmmConfig& cfg = {});

/**
 * Stage 2 for a single layer: prune a weight copy, reorder, pack to
 * FKW, build the LR and (optionally) auto-tune on the device. Returns
 * the ready-to-run executor plus its storage. Thin wrapper over
 * Compiler::compileLayer() — malformed inputs abort here where the
 * Compiler returns kInvalidArgument; auto-tuned shapes share the same
 * process TuneCache.
 */
CompiledLayer compileLayer(const ConvDesc& desc, Tensor weight,
                           const PatternSet& set, double connectivity_rate,
                           const DeviceSpec& device, bool auto_tune = false);

/** Stand up an async batched inference server over a shared model. */
std::unique_ptr<InferenceServer> serve(std::shared_ptr<const CompiledModel> model,
                                       const ServerOptions& opts = {});

/** Stand up a multi-model registry (serve several named artifacts from
 * one process over one shared compute pool). */
std::unique_ptr<ModelRegistry> serveRegistry(const RegistryOptions& opts = {});

}  // namespace patdnn
