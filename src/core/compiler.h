/**
 * @file
 * The Compiler pipeline facade: the Fig. 5 pipeline as one object with
 * typed errors.
 *
 * Construct a Compiler once with the target DeviceSpec and the
 * CompileOptions (pattern count, connectivity rates, optimization
 * switches), then drive the stages:
 *
 *   Compiler compiler(makeSnapdragon855());
 *   auto compressed = compiler.compress(net, data);        // stage 1
 *   auto tuned = compiler.tuneLayer(desc, kind);           // Sec. 5.5
 *   auto model = compiler.compile(trained_model, kind);    // stages 2-3
 *
 * There is one compile path: a single layer is compiled as a one-conv
 * Model (singleConvModel), so every compile ends in CompiledModel and
 * its one engine-selection point. Every entry point returns Status /
 * Result<T>: a malformed conv descriptor, a weight or bias that does
 * not fit its layer, or nonsense options come back as kInvalidArgument
 * instead of an abort, so serving-adjacent callers (model-build
 * services, tools) can reject bad requests without dying.
 *
 * Tunings live in the process-wide TuneCache (rt/tuner.h), keyed by
 * (layer geometry, framework kind, kernel ISA, device fingerprint,
 * connectivity rate): tuneLayer pays for the search once per
 * configuration, and every later compile() of that kind picks the
 * result up for free.
 */
#pragma once

#include <memory>

#include "prune/admm.h"
#include "rt/framework.h"
#include "rt/tuner.h"
#include "util/status.h"

namespace patdnn {

/** Result of the pattern-based training stage on a trainable net. */
struct CompressResult
{
    PatternSet pattern_set;
    AdmmResult admm;
};

/**
 * The canonical way to drive the PatDNN pipeline for one device. All
 * methods are thread-safe (the Compiler holds no per-call mutable
 * state; the shared TuneCache locks internally).
 */
class Compiler
{
  public:
    explicit Compiler(DeviceSpec device, CompileOptions opts = {});

    /**
     * Stage 1 on a trainable net: mine the pattern set from the
     * trained weights (options().pattern_count candidates), then run
     * joint kernel-pattern + connectivity ADMM pruning with masked
     * retraining. kInvalidArgument when the options are nonsense or
     * the net has no conv layers to prune.
     */
    Result<CompressResult> compress(Net& net, const SyntheticShapes& data,
                                    const AdmmConfig& cfg = {}) const;

    /**
     * Stages 2-3: validate every layer, then compile `model` for
     * `kind` on this Compiler's device with its options (pattern set
     * mined from the weights, pruning + FKW packing for sparse kinds).
     * A conv weight must be {cout, cin/groups, kh, kw}, an FC weight
     * {out, in}, a bias {outputs} or absent; anything else, a
     * malformed conv descriptor, or a graph whose shapes do not chain
     * (CompiledModel::checkGraph names the node) is kInvalidArgument.
     * Per-layer tuned parameters come from the TuneCache entries
     * tuneLayer wrote for the same kind. The result carries its memory
     * plan, is immutable and is ready for saveModel /
     * InferenceSession / ShardRouter.
     */
    Result<std::shared_ptr<CompiledModel>> compile(
        const Model& model, FrameworkKind kind = FrameworkKind::kPatDnn) const;

    /**
     * Auto-tune (Section 5.5) the engine `kind` runs for one layer
     * geometry: compile the one-conv model of `desc` once at the
     * options' default tuning (pruned at the connectivity rate, as an
     * inner layer), then time every TuneParams its engine lists
     * (ConvEngine::tuneCandidates, the default first), serially, each
     * by rebuilding that model from its exported state with the
     * candidate and taking the median of 3 warm runs; the fastest
     * wins, ties to the earlier. An engine that lists at most one
     * candidate is not timed. Memoized in the TuneCache under `kind`,
     * so compile() applies the result only to the engine it was
     * measured on. kInvalidArgument on a malformed descriptor or
     * nonsense options.
     */
    Result<TuneParams> tuneLayer(const ConvDesc& desc, FrameworkKind kind) const;

    const DeviceSpec& device() const { return device_; }
    const CompileOptions& options() const { return opts_; }

  private:
    /** Option sanity shared by the stages. */
    Status validateOptions() const;

    DeviceSpec device_;
    CompileOptions opts_;
};

}  // namespace patdnn
