/**
 * @file
 * PatDNN public API — the Fig. 5 end-to-end pipeline, driven through
 * the Compiler class (core/compiler.h):
 *
 *   1. Compiler::compress(): pattern-based training stage — design a
 *      pattern set and run the extended-ADMM kernel-pattern +
 *      connectivity pruning on a trainable net;
 *   2. Compiler::tuneLayer(): parameter auto-tuning of the engine a
 *      layer will run (optional; the result lands in the TuneCache);
 *   3. Compiler::compile(): execution-code-generation stage — FKR, FKW
 *      packing, LR construction and engine selection for a whole model
 *      or a one-conv model (singleConvModel), returning a runnable
 *      CompiledModel (rt/framework.h).
 *
 * Deployment extends the pipeline past Fig. 5: saveModel()/loadModel()
 * (serve/artifact.h) freeze a CompiledModel into a distributable
 * artifact (it records the compile options + device fingerprint, so a
 * mismatched host gets a diagnostic instead of a failed invariant; the
 * loaded model re-derives its activation MemoryPlan, so sessions on
 * the serving host run out of one peak-live-sized arena —
 * rt/memplan.h).
 * InferenceServer (serve/server.h) is the async batched server —
 * per-request deadlines, cancellation, and a linger window that
 * coalesces sparse request streams. ShardRouter (serve/router.h) is
 * the one named-model front door: it serves several named models from
 * one process, each over N server replicas, with consistent-hash or
 * least-loaded routing, per-replica health ejection, transparent
 * failover and removal. AdmissionController (serve/admission.h) holds
 * the process-wide queued-work budget with weighted fair-share
 * shedding that the servers behind the router charge.
 *
 * The error contract (src/util/status.h): every call that can fail for
 * a caller-visible reason returns Status or Result<T> with a typed
 * ErrorCode; serve-side futures fail with ServeError carrying the same
 * codes.
 *
 * Include this single header to use the framework.
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
#include "serve/router.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sparse/csr.h"
#include "sparse/fkw.h"
#include "util/status.h"
