/**
 * @file
 * End-to-end model execution facades.
 *
 * The paper compares PatDNN against TFLite, TVM and MNN. Those binaries
 * are closed/mobile-only, so this repo re-implements baseline engines
 * with each framework's documented optimization inventory (Table 1).
 * Each kind's conv engines, as selectConvEngine() picks them:
 *
 *  - kTfliteLike:  naive direct conv; reduced graph passes;
 *  - kTvmLike:     packed im2col + GEMM, never Winograd;
 *  - kPatDnnDense: the dense comparator (Fig. 12/18's "MNN-like"):
 *                  Winograd where WinogradConv::applies(), else im2col;
 *  - kCsrSparse:   pruned weights in CSR;
 *  - kPatDnn:      the pattern engine (FKR + FKW + LRE + tuning) on 3x3
 *                  convs, pruned dense weights on im2col elsewhere.
 *
 * Grouped convs run the naive engine under every kind.
 *
 * Relative orderings between these engines — not absolute ms — are the
 * reproduction target (see docs/ARCHITECTURE.md, "Substitutions").
 */
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/passes.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "obs/profile.h"
#include "prune/quant.h"
#include "rt/conv_csr.h"
#include "rt/conv_engine.h"
#include "rt/conv_im2col.h"
#include "rt/conv_naive.h"
#include "rt/conv_pattern.h"
#include "rt/conv_winograd.h"
#include "rt/device.h"
#include "rt/memplan.h"
#include "util/status.h"

namespace patdnn {

/** Engine selection for a whole-model run. */
enum class FrameworkKind
{
    kTfliteLike,
    kTvmLike,
    kPatDnnDense,
    kCsrSparse,
    kPatDnn,
};

/** Display name used in bench output. */
std::string frameworkName(FrameworkKind kind);

/** The kinds that prune (pattern + connectivity): kCsrSparse, kPatDnn. */
bool isSparseKind(FrameworkKind kind);

/** Conv layers the kInt8 knob applies to: ungrouped dense-GEMM layers
 * of the packed-backend kinds (kTvmLike, kPatDnnDense). The
 * sparse kinds, kTfliteLike and grouped convs stay f32: no engine they
 * select runs int8, so the artifact loader refuses a quant record on
 * any other conv. */
bool denseQuantEligible(FrameworkKind kind, const ConvDesc& conv);

/** Activation-scale calibration knobs for Precision::kInt8 compiles.
 * Compilation first builds the f32 engines, runs a synthetic
 * calibration batch through them observing every dense conv layer's
 * *input*, then rebuilds those executors in quantized mode with the
 * calibrated scales (recorded per layer; see prune/quant.h). */
struct CalibrationOptions
{
    CalibrationMethod method = CalibrationMethod::kAbsMax;
    double percentile = 99.9;  ///< Used by kPercentile only.
    int samples = 2;           ///< Calibration batch size.
    uint64_t seed = 1234;      ///< Synthetic calibration input seed.
};

/** Options controlling sparse compilation for the sparse engines. */
struct CompileOptions
{
    int pattern_count = 8;
    /// Each conv keeps ceil(kernels / rate) kernels; rates must be >= 1.
    double connectivity_rate = 3.6;
    double first_layer_rate = 1.5;  ///< The rate of the model's first conv.
    OptSwitches opts;       ///< FKR / LRE switches.
    TuneParams default_tuning;
    uint64_t seed = 5;
    /**
     * Optional per-layer tuned-parameter source consulted for each
     * conv layer at compile time (Compiler::compile wires the process
     * TuneCache here, so a compile picks up the tunings
     * Compiler::tuneLayer measured for its kind). Returns true and
     * fills *params on a hit; a miss falls back to default_tuning. Not
     * recorded in artifacts.
     */
    std::function<bool(const ConvDesc&, TuneParams*)> tune_lookup;
    /**
     * Dense-executor precision knob. kInt8 runs every
     * denseQuantEligible() conv on quantized im2col: weights
     * per-output-channel symmetric, activations per-layer via
     * `calibration`. Other convs and the layer interchange stay f32.
     * Recorded in model artifacts.
     */
    Precision precision = Precision::kF32;
    CalibrationOptions calibration;
};

/**
 * One compiled graph node: everything needed to build its executor on
 * a (possibly different) device without re-running pruning, reordering
 * or tuning. A CompiledModel holds one per live node (its executor is
 * this record plus the engine); exportState() copies them out and
 * layerState() reads one in place. The state-restoring constructor and
 * the serve/ model-artifact (de)serializer consume them.
 *
 * A kPatDnn 3x3 conv layer's only weights are its FKW arrays: its
 * `weight` is empty (rank 0) after compile and after restore. All other
 * layers carry their dense tensors.
 */
struct CompiledLayerState
{
    bool live = false;             ///< False for dead/eliminated node slots.
    OpKind kind = OpKind::kConv;
    ConvDesc conv;                 ///< For kConv.
    std::vector<int> inputs;       ///< Producer node ids (-1 = model input).
    bool fused_relu = false;
    int64_t pool_k = 2, pool_stride = 2;
    int64_t in_features = 0, out_features = 0;
    Tensor weight;                 ///< Dense weights (rank 0 for FKW convs).
    Tensor bias;
    std::optional<FkwLayer> fkw;   ///< Pattern-engine storage (kPatDnn 3x3 convs).
    TuneParams tuning;             ///< Pattern-engine tuned parameters.
    OptSwitches opts;              ///< Pattern-engine switches.
    /// Int8 quantization record (conv layers compiled at kInt8). The
    /// weights stay f32 in `weight`; scales are stored so restore
    /// re-quantizes deterministically to the same i8 values.
    bool quantized = false;
    float act_scale = 0.0f;           ///< Calibrated input scale.
    std::vector<float> weight_scales; ///< Per-output-channel scales.
};

/**
 * Activation scratch for runs of one model: one value slot per graph
 * node, each a view into ONE 64-byte-aligned arena laid out by a
 * MemoryPlan, so a run costs plan.arenaBytes(batch) — peak-live, not
 * sum-of-layers, under the model's own plan. Each InferenceSession
 * owns its own Workspace so that concurrent sessions sharing one
 * immutable CompiledModel never share intermediate buffers.
 */
class Workspace
{
  public:
    /** `plan` must be non-empty (CHECK-aborts otherwise) and outlive
     * the workspace (sessions point at their shared model's plan). */
    explicit Workspace(const MemoryPlan& plan);

    size_t size() const { return values_.size(); }

    /** Called by CompiledModel at the start of every run: sizes the
     * arena for this batch and rebuilds slot views when the batch (and
     * with it every scaled offset) changed. */
    void beginRun(int64_t batch);

    /**
     * Debug canary for plan correctness (used by the memplan execution
     * tests, including under ASan/UBSan — intra-arena stale reads are
     * invisible to ASan): when enabled, the whole arena is NaN-filled
     * at the start of every run and every arena range whose lifetime
     * ends at node `id` is NaN-poisoned right after node `id` executes,
     * so an op that reads a freed range, or an output element it never
     * wrote, corrupts its output instead of silently consuming stale
     * bytes.
     */
    void setPoisonFreed(bool on) { poison_freed_ = on; }
    bool poisonFreed() const { return poison_freed_; }
    void poisonFreedAfter(size_t id);

    /** Bytes of the arena allocation (0 before the first run). */
    size_t activationBytes() const;

    /** Slot for node id shaped to `shape`, contents unspecified: every
     * op (conv engines included) writes each element of its output
     * before reading it. */
    Tensor& raw(size_t id, const Shape& shape);

    /** Read access to a produced value. */
    const Tensor& value(size_t id) const { return values_[id]; }

  private:
    std::vector<Tensor> values_;
    const MemoryPlan* plan_;  ///< Never null.
    Tensor arena_;
    int64_t batch_ = 0;       ///< Batch the views were built for.
    bool poison_freed_ = false;
};

/**
 * A compiled, runnable model: per-conv-layer executors plus the simple
 * non-conv ops (pool/add/fc) executed directly. Holds all storage.
 *
 * Immutable once constructed: run() is const and safe to call from
 * many threads at once (each call only touches its Workspace and the
 * device thread pool, which serializes concurrent submitters), which is
 * what the serving layer's shared-weight sessions rely on.
 */
class CompiledModel
{
  public:
    /** Compile `model` for `kind` on `device`. Prunes a copy of the
     * weights for sparse engines (pattern projection + connectivity). */
    CompiledModel(const Model& model, FrameworkKind kind, DeviceSpec device,
                  CompileOptions opts = {});

    /**
     * Rebuild a model from previously exported per-layer state (the
     * serve/ artifact load path). No pruning, reordering or tuning
     * runs; engines are instantiated directly from the stored FKW /
     * dense weights for `device`. `tuned_isa` is the kernel ISA the
     * stored TuneParams were searched on (artifact header); execution
     * always uses the ISA of `device`, so a mismatch only means the
     * parameters may be off-width for this host. `compile_opts` is the
     * option record from the artifact header. `layers` must pass
     * checkGraph(), so the restored model derives its memory plan.
     */
    CompiledModel(FrameworkKind kind, DeviceSpec device,
                  std::vector<CompiledLayerState> layers, int output_node,
                  SimdIsa tuned_isa = SimdIsa::kScalar,
                  CompileOptions compile_opts = {});
    ~CompiledModel();

    /** Run one NCHW input through every layer in a fresh Workspace
     * over memoryPlan(); returns the final output. */
    Tensor run(const Tensor& input) const;

    /**
     * Run in caller-owned activation scratch (serving sessions; `ws`
     * must cover this model's nodes). `input` must be a non-empty batch
     * of inputShape() samples (CHECK-aborts otherwise). When `profile`
     * is non-null, every executed node is timed and accumulated into it
     * (prepare() is called to size it; pass the same profile across
     * runs to accumulate, reset() it for per-run numbers). Timing uses
     * the steady clock directly, independent of tracing; when the
     * Tracer is enabled a span per layer (cat "layer") plus a whole-run
     * "model.run" span (cat "rt") are emitted too.
     */
    Tensor run(const Tensor& input, Workspace& ws,
               RunProfile* profile = nullptr) const;

    /** Per-sample input shape {1, C, H, W} the model's input convs
     * read, fixed by planNodes()'s shape inference (rank 0 iff the
     * model has no memory plan). */
    const Shape& inputShape() const { return input_shape_; }

    /** True when `input` is a non-empty batch of inputShape() samples:
     * the only inputs run() accepts. */
    bool acceptsInput(const Tensor& input) const;

    /** Median over reps (after warmup) of the summed conv rows of a
     * per-run RunProfile: conv-layer time only, the paper's reported
     * metric. */
    double convOnlyTimeMs(const Tensor& input, int warmup = 1, int reps = 3) const;

    /** Total non-zero conv weights after compilation (FKW layers count
     * their stored weights). */
    int64_t convNonZeros() const;

    /** Dense conv weight count (ConvDesc::weightCount() summed). */
    int64_t convDense() const;

    /**
     * Copy every node's record (FKW storage included). Slot order is
     * node-id order; dead slots have live == false.
     */
    std::vector<CompiledLayerState> exportState() const;

    /** Node `id`'s record, read in place (the artifact serializer walks
     * the records through this without copying them); null for a dead
     * slot. Valid for the model's lifetime. */
    const CompiledLayerState* layerState(size_t id) const;

    /** The tuning candidates of node `id`'s conv engine
     * (ConvEngine::tuneCandidates); empty for any other node. */
    std::vector<TuneParams> tuneCandidates(size_t id) const;

    /** Node-id of the output value. */
    int outputNode() const { return output_node_; }

    /** Number of node slots (live + dead). */
    size_t nodeCount() const { return executors_.size(); }

    FrameworkKind kind() const { return kind_; }
    const DeviceSpec& device() const { return device_; }

    /** Kernel ISA the model's TuneParams were searched on (compile
     * time: the compile device's resolved ISA; restored models: the
     * value recorded in the artifact header). */
    SimdIsa tunedIsa() const { return tuned_isa_; }

    /** Options this model was compiled with (restored models: the
     * record from the artifact header).
     * Recorded so a serving host can diagnose what produced an
     * artifact without re-deriving it from the weights. */
    const CompileOptions& compileOptions() const { return compile_opts_; }

    /**
     * The activation MemoryPlan, derived from the graph by both
     * constructors (planActivations over planNodes()). Empty only when
     * planNodes() is: Compiler::compile refuses such a model and the
     * artifact loader never builds one.
     */
    bool hasMemoryPlan() const { return !plan_.empty(); }
    const MemoryPlan& memoryPlan() const { return plan_; }

    /**
     * Planner view of the compiled graph: per-node liveness, producer
     * edges and per-sample output extents, derived by static shape
     * inference over the executor list. Empty when shapes cannot be
     * inferred (a non-conv node reads the model input directly) or the
     * graph fails any checkGraph() rule.
     */
    std::vector<PlanNode> planNodes() const;

    /**
     * Check that exported layer state forms a graph the executors can
     * run, using the same shape inference as planNodes(). The rules:
     *  - the output node is live; Add nodes have 2 inputs, every other
     *    node 1, each the model input (-1) or a live earlier node, and
     *    only convs read the model input (all with one geometry);
     *  - conv geometry is positive and divisible by groups, and `cin`,
     *    `h`, `w` equal the producer's per-sample shape; FC
     *    `in_features` equals the producer's per-sample element count;
     *    pool windows fit the input; Add operands have equal shapes;
     *  - a conv's dense weight is {cout, cin/groups, kh, kw}, except that
     *    a conv with FKW storage carries none; FKW storage is a 3x3
     *    groups==1 layer with `filters` == cout and `in_channels` == cin;
     *    an FC weight is {out, in}; conv / FC bias is {cout} / {out} or
     *    absent; a BatchNorm's scale and shift match the input channels;
     *  - every geometry field and every node's per-sample element count
     *    is at most 2^26, so no shape arithmetic can overflow.
     * kInvalidArgument naming the first offending node otherwise. The
     * artifact loader runs this before any engine is built.
     */
    static Status checkGraph(const std::vector<CompiledLayerState>& layers,
                             int output_node);

  private:
    /** A live node's record plus its engine and attribution labels. */
    struct Executor;
    /** The one conv-engine selection point: build the engine for a
     * conv executor whose record (weight / fkw / tuning / quant record)
     * is already populated. */
    std::unique_ptr<ConvEngine> selectConvEngine(const Executor& ex) const;
    /** The kInt8 compile pass: run a synthetic calibration batch
     * through the freshly built f32 engines, then rebuild every
     * eligible dense conv executor in quantized mode. */
    void quantizeDenseConvLayers();
    /** Fill the executor's display label / engine-kind / ISA strings
     * (profile + trace attribution), after its engine is selected. */
    void labelExecutor(Executor& ex, size_t id) const;
    /** Shape inference over the executors' records (planNodes, derivePlan). */
    Status inferOwnShapes(std::vector<PlanNode>* nodes, Shape* model_input) const;
    /** The one plan site of both constructors: plan_ and input_shape_
     * from inferOwnShapes(), plus the memplan.* gauges. */
    void derivePlan();

    FrameworkKind kind_;
    DeviceSpec device_;
    SimdIsa tuned_isa_ = SimdIsa::kScalar;
    CompileOptions compile_opts_;
    int output_node_ = -1;
    std::vector<std::unique_ptr<Executor>> executors_;  ///< Per node id.
    MemoryPlan plan_;  ///< Activation arena plan; empty iff planNodes() is.
    Shape input_shape_;  ///< Per-sample model input; rank 0 iff plan_ is empty.
};

}  // namespace patdnn
