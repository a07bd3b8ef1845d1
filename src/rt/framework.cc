#include "rt/framework.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prune/projections.h"
#include "util/logging.h"
#include "util/stats.h"

namespace patdnn {

std::string
frameworkName(FrameworkKind kind)
{
    switch (kind) {
      case FrameworkKind::kTfliteLike: return "TFLite-like";
      case FrameworkKind::kTvmLike: return "TVM-like";
      case FrameworkKind::kPatDnnDense: return "PatDNN-dense";
      case FrameworkKind::kCsrSparse: return "CSR-sparse";
      case FrameworkKind::kPatDnn: return "PatDNN";
    }
    return "unknown";
}

bool
isSparseKind(FrameworkKind kind)
{
    return kind == FrameworkKind::kCsrSparse || kind == FrameworkKind::kPatDnn;
}

bool
denseQuantEligible(FrameworkKind kind, const ConvDesc& conv)
{
    // The precision knob targets the dense GEMM backend, not the sparse
    // formats; grouped convs run the naive engine.
    return conv.groups == 1 &&
           (kind == FrameworkKind::kTvmLike || kind == FrameworkKind::kPatDnnDense);
}

namespace {

/** Joint-prune a conv weight copy per the compile options. */
PatternAssignment
pruneWeightsForCompile(Tensor& weight, const PatternSet& set,
                       const CompileOptions& opts, bool first_layer)
{
    int64_t kernels = weight.shape().dim(0) * weight.shape().dim(1);
    double rate = first_layer ? opts.first_layer_rate : opts.connectivity_rate;
    int64_t alpha = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(static_cast<double>(kernels) / rate)));
    return projectJoint(weight, set, alpha);
}

/// Cap on every geometry field and every node's per-sample element
/// count (and on conv weight elements): far above any zoo model, low
/// enough that no shape product can overflow int64.
constexpr int64_t kMaxElems = int64_t{1} << 26;

/** Product of `dims`, or -1 when a factor is not positive or the
 * product passes kMaxElems. */
int64_t
cappedProduct(std::initializer_list<int64_t> dims)
{
    int64_t p = 1;
    for (int64_t d : dims) {
        if (d < 1 || d > kMaxElems / p)
            return -1;
        p *= d;
    }
    return p;
}

/** An optional bias: absent (rank 0) or one value per output. */
bool
biasFits(const Tensor& bias, int64_t outputs)
{
    return bias.shape().rank() == 0 || bias.shape() == Shape{outputs};
}

/**
 * The one static shape-inference routine, shared by inferOwnShapes()
 * (over the executors' records) and checkGraph() (over exported
 * records). `records[id]` is null for dead slots. Derives
 * every live node's per-sample output shape (leading batch dim 1) in id
 * order, and the per-sample model input shape the input convs read,
 * while enforcing the checkGraph() rules.
 */
Status
inferShapes(const std::vector<const CompiledLayerState*>& records, int output_node,
            std::vector<PlanNode>* nodes, Shape* model_input)
{
    const size_t count = records.size();
    if (output_node < 0 || static_cast<size_t>(output_node) >= count ||
        records[static_cast<size_t>(output_node)] == nullptr)
        return Status(ErrorCode::kInvalidArgument, "output node is not a live node");
    nodes->assign(count, PlanNode{});
    std::vector<Shape> shapes(count);
    *model_input = Shape();  // Rank 0 until a conv reading the input fixes it.
    for (size_t id = 0; id < count; ++id) {
        const CompiledLayerState* n = records[id];
        if (n == nullptr)
            continue;
        auto bad = [&](const std::string& what) {
            return Status(ErrorCode::kInvalidArgument,
                          "node " + std::to_string(id) + " (" + opKindName(n->kind) +
                              "): " + what);
        };
        size_t arity = n->kind == OpKind::kAdd ? 2 : 1;
        if (n->inputs.size() != arity)
            return bad("expects " + std::to_string(arity) + " input(s)");
        for (int src : n->inputs) {
            if (src == -1 && n->kind != OpKind::kConv)
                return bad("only a conv may read the model input");
            if (src != -1 && (src < 0 || static_cast<size_t>(src) >= id ||
                              records[static_cast<size_t>(src)] == nullptr))
                return bad("input is neither the model input nor a live earlier node");
        }
        const Shape& x = n->inputs[0] == -1
                             ? *model_input
                             : shapes[static_cast<size_t>(n->inputs[0])];
        Shape out;
        switch (n->kind) {
          case OpKind::kConv: {
            const ConvDesc& c = n->conv;
            for (int64_t v : {c.cin, c.cout, c.kh, c.kw, c.h, c.w, c.stride,
                              c.dilation, c.groups})
                if (v < 1 || v > kMaxElems)
                    return bad("conv geometry field out of range");
            if (c.pad < 0 || c.pad > kMaxElems || c.cin % c.groups != 0 ||
                c.cout % c.groups != 0 ||
                c.h + 2 * c.pad < c.dilation * (c.kh - 1) + 1 ||
                c.w + 2 * c.pad < c.dilation * (c.kw - 1) + 1)
                return bad("implausible conv geometry");
            Shape in{1, c.cin, c.h, c.w};
            if (cappedProduct({c.cin, c.h, c.w}) < 0 ||
                cappedProduct({c.cout, c.outH(), c.outW()}) < 0 ||
                cappedProduct({c.cout, c.cin / c.groups, c.kh, c.kw}) < 0)
                return bad("conv exceeds the element cap");
            if (n->inputs[0] != -1) {
                if (x != in)
                    return bad("cin/h/w disagree with the producer's output shape");
            } else if (model_input->rank() == 0) {
                *model_input = in;
            } else if (*model_input != in) {
                return bad("disagrees with another conv on the model input shape");
            }
            if (const auto& fkw = n->fkw) {
                if (c.groups != 1 || c.kh != 3 || c.kw != 3 || fkw->filters != c.cout ||
                    fkw->in_channels != c.cin || fkw->kh != c.kh || fkw->kw != c.kw)
                    return bad("FKW storage disagrees with the conv descriptor");
                if (n->weight.shape().rank() != 0)
                    return bad("carries a dense weight besides its FKW storage");
            } else if (n->weight.shape() != Shape{c.cout, c.cin / c.groups, c.kh, c.kw}) {
                return bad("weight shape disagrees with the conv descriptor");
            }
            if (!biasFits(n->bias, c.cout))
                return bad("bias shape disagrees with cout");
            out = Shape{1, c.cout, c.outH(), c.outW()};
            break;
          }
          case OpKind::kBatchNorm:
            if (x.rank() < 2 || n->weight.shape() != Shape{x.dim(1)} ||
                n->bias.shape() != Shape{x.dim(1)})
                return bad("scale / shift disagree with the input channels");
            out = x;
            break;
          case OpKind::kReLU:
            out = x;
            break;
          case OpKind::kAdd:
            if (shapes[static_cast<size_t>(n->inputs[1])] != x)
                return bad("operand shapes differ");
            out = x;
            break;
          case OpKind::kMaxPool:
          case OpKind::kAvgPool: {
            int64_t k = n->pool_k, st = n->pool_stride;
            if (x.rank() != 4 || k < 1 || st < 1 || st > kMaxElems ||
                k > x.dim(2) || k > x.dim(3))
                return bad("pool window does not fit the input");
            out = Shape{1, x.dim(1), (x.dim(2) - k) / st + 1, (x.dim(3) - k) / st + 1};
            break;
          }
          case OpKind::kFlatten:
            out = Shape{1, x.numel()};
            break;
          case OpKind::kFullyConnected:
            if (n->out_features < 1 || n->out_features > kMaxElems ||
                n->in_features != x.numel())
                return bad("in_features disagrees with the producer's element count");
            if (n->weight.shape() != Shape{n->out_features, n->in_features})
                return bad("weight shape is not {out_features, in_features}");
            if (!biasFits(n->bias, n->out_features))
                return bad("bias shape disagrees with out_features");
            out = Shape{1, n->out_features};
            break;
        }
        shapes[id] = out;
        (*nodes)[id].live = true;
        (*nodes)[id].inputs = n->inputs;
        (*nodes)[id].elems_per_sample = out.numel();
    }
    return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

Workspace::Workspace(const MemoryPlan& plan)
    : values_(plan.slotCount()), plan_(&plan)
{
    PATDNN_CHECK(!plan.empty(),
                 "workspace needs a memory plan (graph fails shape inference)");
}

void
Workspace::beginRun(int64_t batch)
{
    PATDNN_CHECK_GT(batch, 0, "a run needs a positive batch");
    if (batch != batch_) {
        batch_ = batch;
        int64_t needed = plan_->arenaElemsPerSample() * batch;
        if (arena_.shape().rank() == 0 || arena_.numel() < needed) {
            arena_ = Tensor(Shape{needed});
            // Reference cached: the registry lookup (mutex + map) must not
            // recur on the run path; registered metrics never move.
            static Gauge& arena_hwm =
                MetricsRegistry::global().gauge("rt.arena_hwm_bytes");
            arena_hwm.setMax(static_cast<double>(needed) * sizeof(float));
        }
        // Every offset scales with the batch, so stale views must go.
        for (Tensor& v : values_)
            v = Tensor();
    }
    if (poison_freed_)
        arena_.fill(std::numeric_limits<float>::quiet_NaN());
}

void
Workspace::poisonFreedAfter(size_t id)
{
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    for (size_t j = 0; j < plan_->slotCount(); ++j) {
        const PlanSlot& s = plan_->slot(j);
        if (!s.planned || s.last_use != static_cast<int>(id))
            continue;
        float* p = arena_.data() + s.offset_elems * batch_;
        std::fill(p, p + s.size_elems * batch_, kNan);
    }
}

size_t
Workspace::activationBytes() const
{
    return arena_.shape().rank() == 0
               ? 0
               : static_cast<size_t>(arena_.numel()) * sizeof(float);
}

Tensor&
Workspace::raw(size_t id, const Shape& shape)
{
    const PlanSlot& s = plan_->slot(id);
    PATDNN_CHECK_GT(batch_, 0, "beginRun() must precede slot access");
    PATDNN_CHECK_EQ(shape.numel(), s.size_elems * batch_,
                    "planned slot extent mismatch for node " << id);
    Tensor& t = values_[id];
    if (!t.isView() || t.shape() != shape)
        t = Tensor::view(arena_.data() + s.offset_elems * batch_, shape);
    return t;
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

/** A live node's record (weights, FKW, tuning; the pruned copy for
 * sparse kinds) plus its engine. Held behind unique_ptr: the engine
 * borrows `&weight` / `&*fkw`, so the record must never move. */
struct CompiledModel::Executor : CompiledLayerState
{
    Executor() = default;
    explicit Executor(CompiledLayerState&& st) : CompiledLayerState(std::move(st)) {}
    Executor(Executor&&) = delete;

    std::unique_ptr<ConvEngine> engine;  ///< Conv nodes only.

    // Attribution strings for RunProfile rows and trace spans,
    // precomputed at compile/restore time (labelExecutor) so the run
    // loop never formats on the hot path.
    std::string label;             ///< "conv1_1" or "maxpool#4".
    const char* kind_name = "?";   ///< Engine actually executing.
    const char* isa_name = "-";    ///< Kernel-table ISA ("-": no table).
    const char* prec_name = "f32"; ///< Numeric path ("i8" when quantized).
};

CompiledModel::~CompiledModel() = default;

/**
 * The conv-engine selection table; the first matching row wins.
 *
 *   layer                                       engine
 *   has FKW storage (kPatDnn, 3x3, ungrouped)   pattern
 *   kCsrSparse, ungrouped                       csr
 *   int8 record, denseQuantEligible()           im2col (i8)
 *   grouped, or kTfliteLike                     naive
 *   kTvmLike                                    im2col
 *   WinogradConv::applies()                     winograd
 *   otherwise                                   im2col
 *
 * Int8 layers always run quantized im2col: Winograd's transform-domain
 * arithmetic does not survive int8.
 */
std::unique_ptr<ConvEngine>
CompiledModel::selectConvEngine(const Executor& ex) const
{
    const ConvDesc& c = ex.conv;
    if (ex.fkw)
        return std::make_unique<PatternConv>(c, &*ex.fkw, ex.tuning, ex.opts, device_);
    if (kind_ == FrameworkKind::kCsrSparse && c.groups == 1)
        return std::make_unique<CsrConv>(c, buildCsr(ex.weight), device_);
    if (ex.quantized && denseQuantEligible(kind_, c))
        return std::make_unique<Im2colConv>(c, &ex.weight, device_, ex.tuning,
                                            ex.act_scale, ex.weight_scales);
    if (c.groups != 1 || kind_ == FrameworkKind::kTfliteLike)
        return std::make_unique<NaiveConv>(c, &ex.weight, device_);
    if (kind_ != FrameworkKind::kTvmLike && WinogradConv::applies(c))
        return std::make_unique<WinogradConv>(c, &ex.weight, device_, ex.tuning);
    return std::make_unique<Im2colConv>(c, &ex.weight, device_, ex.tuning);
}

void
CompiledModel::labelExecutor(Executor& ex, size_t id) const
{
    if (ex.kind == OpKind::kConv && !ex.conv.name.empty())
        ex.label = ex.conv.name;
    else
        ex.label = opKindName(ex.kind) + "#" + std::to_string(id);
    switch (ex.kind) {
      case OpKind::kConv:
        ex.kind_name = ex.engine->name();
        if (ex.engine->usesSimdTable())
            ex.isa_name = isaName(resolveSimdOps(device_.simd_isa).isa);
        ex.prec_name = precisionName(ex.engine->precision());
        break;
      case OpKind::kBatchNorm:      ex.kind_name = "bn"; break;
      case OpKind::kReLU:           ex.kind_name = "relu"; break;
      case OpKind::kMaxPool:
      case OpKind::kAvgPool:        ex.kind_name = "pool"; break;
      case OpKind::kAdd:            ex.kind_name = "add"; break;
      case OpKind::kFlatten:        ex.kind_name = "flatten"; break;
      case OpKind::kFullyConnected: ex.kind_name = "fc"; break;
    }
}

CompiledModel::CompiledModel(const Model& model, FrameworkKind kind, DeviceSpec device,
                             CompileOptions opts)
    : kind_(kind), device_(std::move(device)),
      tuned_isa_(resolveSimdOps(device_.simd_isa).isa), compile_opts_(opts)
{
    Graph graph = buildGraph(model);
    // Graph-level optimization (Table 1): all frameworks fold BN and
    // fuse ReLU; TFLite-like runs a reduced pass set ("less advanced").
    foldBatchNorm(graph);
    if (kind_ != FrameworkKind::kTfliteLike)
        fuseConvRelu(graph);
    foldConstants(graph);
    eliminateDeadNodes(graph);
    output_node_ = graph.outputNode();

    // Shared pattern set mined from all 3x3 conv weights (training-stage
    // output in the real pipeline).
    PatternSet set;
    if (isSparseKind(kind_)) {
        std::vector<const Tensor*> ws;
        for (const auto& n : graph.nodes())
            if (!n.dead && n.kind == OpKind::kConv)
                ws.push_back(&n.weight);
        set = canonicalPatternSet(opts.pattern_count);
        auto freqs = minePatternFrequencies(ws);
        if (!freqs.empty())
            set = selectTopK(freqs, opts.pattern_count);
    }

    // The graph is local and mining has read it: its tensors move into
    // the executors.
    executors_.resize(graph.nodes().size());
    bool first_conv = true;
    for (auto& n : graph.nodes()) {
        if (n.dead)
            continue;
        auto ex = std::make_unique<Executor>();
        ex->live = true;
        ex->kind = n.kind;
        ex->conv = n.conv;
        ex->inputs = n.inputs;
        ex->fused_relu = n.fused_relu;
        ex->pool_k = n.pool_k;
        ex->pool_stride = n.pool_stride;
        ex->in_features = n.in_features;
        ex->out_features = n.out_features;
        ex->bias = std::move(n.bias);
        if (n.kind == OpKind::kConv) {
            ex->weight = std::move(n.weight);
            ex->tuning = opts.default_tuning;
            if (opts.tune_lookup) {
                TuneParams cached;
                if (opts.tune_lookup(n.conv, &cached))
                    ex->tuning = cached;
            }
            ex->opts = opts.opts;
            if (isSparseKind(kind_) && n.conv.groups == 1) {
                PatternAssignment asg = pruneWeightsForCompile(
                    ex->weight, set, opts, first_conv);
                // Kernel patterns exist for 3x3 kernels only (PCONV):
                // any other conv keeps its connectivity-pruned dense
                // weights and runs a dense engine.
                if (kind_ == FrameworkKind::kPatDnn && n.conv.kh == 3 &&
                    n.conv.kw == 3) {
                    FkrOptions fkr_opts;
                    fkr_opts.reorder_filters = opts.opts.reorder;
                    fkr_opts.similarity_within_group = opts.opts.reorder;
                    fkr_opts.reorder_kernels = opts.opts.reorder;
                    FkrResult fkr = filterKernelReorder(asg, fkr_opts);
                    ex->fkw = buildFkw(ex->weight, set, asg, fkr);
                    ex->weight = Tensor();  // FKW is the layer's only weight storage.
                }
            }
            ex->engine = selectConvEngine(*ex);
            first_conv = false;
        } else if (n.kind == OpKind::kFullyConnected) {
            ex->weight = std::move(n.weight);
        } else if (n.kind == OpKind::kBatchNorm) {
            ex->weight = std::move(n.bn_scale);
            ex->bias = std::move(n.bn_shift);
        }
        labelExecutor(*ex, static_cast<size_t>(n.id));
        executors_[static_cast<size_t>(n.id)] = std::move(ex);
    }

    derivePlan();
    // Calibration runs the graph, so one whose shapes do not chain
    // (no plan; Compiler::compile refuses it) is never calibrated.
    if (opts.precision == Precision::kInt8 && hasMemoryPlan())
        quantizeDenseConvLayers();
}

Status
CompiledModel::inferOwnShapes(std::vector<PlanNode>* nodes, Shape* model_input) const
{
    std::vector<const CompiledLayerState*> records;
    for (const auto& ex : executors_)
        records.push_back(ex.get());
    return inferShapes(records, output_node_, nodes, model_input);
}

void
CompiledModel::derivePlan()
{
    std::vector<PlanNode> nodes;
    Shape input;
    if (!inferOwnShapes(&nodes, &input).ok())
        return;
    input_shape_ = input;
    plan_ = planActivations(nodes, output_node_);
    // Most-recent-model planner quality, for dashboards/tests.
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.gauge("memplan.arena_kb_per_sample")
        .set(static_cast<double>(plan_.arenaBytes(1)) / 1024.0);
    reg.gauge("memplan.reuse_x")
        .set(static_cast<double>(plan_.sumElemsPerSample()) /
             static_cast<double>(plan_.arenaElemsPerSample()));
}

void
CompiledModel::quantizeDenseConvLayers()
{
    bool any_eligible = false;
    for (const auto& exp : executors_)
        if (exp && exp->kind == OpKind::kConv && denseQuantEligible(kind_, exp->conv))
            any_eligible = true;
    if (!any_eligible)
        return;

    // Synthetic calibration batch of model inputs, run through the f32
    // engines in a workspace that recycles nothing — every node's value
    // survives the run, so each conv's *input* distribution can be
    // observed without new runtime hooks.
    const CalibrationOptions& cal = compile_opts_.calibration;
    std::vector<int64_t> dims = input_shape_.dims();
    dims[0] = std::max(1, cal.samples);
    Tensor calib{Shape{std::move(dims)}};
    Rng rng(cal.seed);
    calib.fillUniform(rng, -1.0f, 1.0f);
    const MemoryPlan keep_all = planWithoutReuse(planNodes(), output_node_);
    Workspace ws(keep_all);
    run(calib, ws);

    for (size_t id = 0; id < executors_.size(); ++id) {
        auto& exp = executors_[id];
        if (!exp || exp->kind != OpKind::kConv)
            continue;
        Executor& ex = *exp;
        if (!denseQuantEligible(kind_, ex.conv))
            continue;
        ActivationCalibrator calibrator(cal.method, cal.percentile);
        int src = ex.inputs.empty() ? -1 : ex.inputs[0];
        calibrator.observe(src < 0 ? calib
                                   : ws.value(static_cast<size_t>(src)));
        ex.quantized = true;
        ex.act_scale = calibrator.scale();
        ex.weight_scales = quantizeWeightsPerChannel(ex.weight).scales;
        ex.engine = selectConvEngine(ex);
        labelExecutor(ex, id);
    }
}

CompiledModel::CompiledModel(FrameworkKind kind, DeviceSpec device,
                             std::vector<CompiledLayerState> layers, int output_node,
                             SimdIsa tuned_isa, CompileOptions compile_opts)
    : kind_(kind), device_(std::move(device)), tuned_isa_(tuned_isa),
      compile_opts_(std::move(compile_opts)), output_node_(output_node)
{
    PATDNN_CHECK(output_node_ >= 0 &&
                     static_cast<size_t>(output_node_) < layers.size(),
                 "output node out of range");
    executors_.resize(layers.size());
    for (size_t id = 0; id < layers.size(); ++id) {
        if (!layers[id].live)
            continue;
        auto ex = std::make_unique<Executor>(std::move(layers[id]));
        if (ex->kind == OpKind::kConv)
            ex->engine = selectConvEngine(*ex);
        labelExecutor(*ex, id);
        executors_[id] = std::move(ex);
    }
    derivePlan();
}

std::vector<PlanNode>
CompiledModel::planNodes() const
{
    std::vector<PlanNode> nodes;
    Shape input;
    return inferOwnShapes(&nodes, &input).ok() ? nodes : std::vector<PlanNode>{};
}

Status
CompiledModel::checkGraph(const std::vector<CompiledLayerState>& layers,
                          int output_node)
{
    std::vector<const CompiledLayerState*> records;
    for (const CompiledLayerState& st : layers)
        records.push_back(st.live ? &st : nullptr);
    std::vector<PlanNode> nodes;
    Shape input;
    return inferShapes(records, output_node, &nodes, &input);
}

std::vector<CompiledLayerState>
CompiledModel::exportState() const
{
    std::vector<CompiledLayerState> out(executors_.size());
    for (size_t id = 0; id < executors_.size(); ++id)
        if (executors_[id])
            out[id] = *executors_[id];
    return out;
}

const CompiledLayerState*
CompiledModel::layerState(size_t id) const
{
    return executors_[id].get();
}

std::vector<TuneParams>
CompiledModel::tuneCandidates(size_t id) const
{
    const Executor* ex = executors_[id].get();
    return ex && ex->engine ? ex->engine->tuneCandidates() : std::vector<TuneParams>{};
}

bool
CompiledModel::acceptsInput(const Tensor& input) const
{
    const Shape& s = input.shape();
    return s.rank() > 0 && s.rank() == input_shape_.rank() && s.dim(0) >= 1 &&
           std::equal(s.dims().begin() + 1, s.dims().end(), input_shape_.dims().begin() + 1);
}

Tensor
CompiledModel::run(const Tensor& input, Workspace& ws, RunProfile* profile) const
{
    PATDNN_CHECK(acceptsInput(input), "model input " << input.shape().str()
                                                     << " is not a batch of "
                                                     << input_shape_.str());
    PATDNN_CHECK_EQ(ws.size(), executors_.size(),
                    "workspace plan does not cover this model");
    static Counter& model_runs =
        MetricsRegistry::global().counter("rt.model_runs");
    model_runs.inc();
    const int64_t batch = input.shape().dim(0);
    TraceSpan run_span("model.run", "rt", "batch", batch);
    // Per-node timing is paid only when someone is looking: a profile
    // was requested or the tracer is live.
    const bool timing = profile != nullptr || Tracer::enabled();
    const int64_t run_start_ns = timing ? Tracer::nowNs() : 0;
    if (profile != nullptr)
        profile->prepare(executors_.size());
    ws.beginRun(batch);
    auto input_of = [&](const Executor& ex, int i) -> const Tensor& {
        int id = ex.inputs[static_cast<size_t>(i)];
        return id < 0 ? input : ws.value(static_cast<size_t>(id));
    };
    for (size_t id = 0; id < executors_.size(); ++id) {
        const auto& exp = executors_[id];
        if (!exp)
            continue;
        const Executor& ex = *exp;
        const Tensor& x = input_of(ex, 0);
        const int64_t node_start_ns = timing ? Tracer::nowNs() : 0;
        switch (ex.kind) {
          case OpKind::kConv: {
            Tensor& y = ws.raw(
                id, Shape{x.shape().dim(0), ex.conv.cout, ex.conv.outH(),
                          ex.conv.outW()});
            Epilogue ep;
            ep.bias = ex.bias.shape().rank() != 0 ? &ex.bias : nullptr;
            ep.relu = ex.fused_relu;
            ex.engine->run(x, y, ep);
            break;
          }
          case OpKind::kBatchNorm: {
            Tensor& y = ws.raw(id, x.shape());
            int64_t c = ex.weight.numel();
            int64_t n = x.shape().dim(0);
            int64_t hw = x.numel() / (n * c);
            for (int64_t b = 0; b < n; ++b)
                for (int64_t ch = 0; ch < c; ++ch) {
                    float s = ex.weight[ch];
                    float sh = ex.bias[ch];
                    const float* p = x.data() + (b * c + ch) * hw;
                    float* q = y.data() + (b * c + ch) * hw;
                    for (int64_t i = 0; i < hw; ++i)
                        q[i] = p[i] * s + sh;
                }
            break;
          }
          case OpKind::kReLU: {
            Tensor& y = ws.raw(id, x.shape());
            for (int64_t i = 0, n = y.numel(); i < n; ++i)
                y[i] = std::max(0.0f, x[i]);
            break;
          }
          case OpKind::kMaxPool:
          case OpKind::kAvgPool: {
            int64_t n = x.shape().dim(0), c = x.shape().dim(1);
            int64_t h = x.shape().dim(2), w = x.shape().dim(3);
            int64_t k = ex.pool_k, s = ex.pool_stride;
            int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
            Tensor& y = ws.raw(id, Shape{n, c, oh, ow});
            bool is_max = ex.kind == OpKind::kMaxPool;
            for (int64_t bc = 0; bc < n * c; ++bc) {
                const float* ip = x.data() + bc * h * w;
                float* op = y.data() + bc * oh * ow;
                for (int64_t yy = 0; yy < oh; ++yy)
                    for (int64_t xx = 0; xx < ow; ++xx) {
                        float acc = is_max ? -1e30f : 0.0f;
                        for (int64_t r = 0; r < k; ++r)
                            for (int64_t cc = 0; cc < k; ++cc) {
                                float v = ip[(yy * s + r) * w + xx * s + cc];
                                acc = is_max ? std::max(acc, v) : acc + v;
                            }
                        op[yy * ow + xx] =
                            is_max ? acc : acc / static_cast<float>(k * k);
                    }
            }
            break;
          }
          case OpKind::kAdd: {
            const Tensor& r = input_of(ex, 1);
            PATDNN_CHECK(r.shape() == x.shape(),
                         "residual add operand shapes must match");
            Tensor& y = ws.raw(id, x.shape());
            for (int64_t i = 0, n = y.numel(); i < n; ++i)
                y[i] = ex.fused_relu ? std::max(0.0f, x[i] + r[i]) : x[i] + r[i];
            break;
          }
          case OpKind::kFlatten: {
            Tensor& y = ws.raw(
                id, Shape{x.shape().dim(0), x.numel() / x.shape().dim(0)});
            std::copy(x.data(), x.data() + x.numel(), y.data());
            break;
          }
          case OpKind::kFullyConnected: {
            // Row-major NCHW is already flat per batch row; read the
            // input in place instead of materializing a reshaped copy.
            int64_t n = x.shape().dim(0);
            Tensor& y = ws.raw(id, Shape{n, ex.out_features});
            device_.pool().parallelFor(ex.out_features, [&](int64_t o) {
                const float* wr = ex.weight.data() + o * ex.in_features;
                for (int64_t b = 0; b < n; ++b) {
                    const float* xr = x.data() + b * ex.in_features;
                    float acc = ex.bias.shape().rank() != 0 ? ex.bias[o] : 0.0f;
                    for (int64_t i = 0; i < ex.in_features; ++i)
                        acc += wr[i] * xr[i];
                    if (ex.fused_relu && acc < 0.0f)
                        acc = 0.0f;
                    y[b * ex.out_features + o] = acc;
                }
            });
            break;
          }
        }
        if (timing) {
            const int64_t dur_ns = Tracer::nowNs() - node_start_ns;
            if (Tracer::enabled())
                Tracer::emitSpan(ex.label.c_str(), "layer", node_start_ns,
                                 dur_ns);
            if (profile != nullptr) {
                RunProfileEntry& e = profile->entries[id];
                if (e.name.empty()) {
                    e.name = ex.label;
                    e.kind = ex.kind_name;
                    e.isa = ex.isa_name;
                    e.prec = ex.prec_name;
                }
                int64_t elems = x.numel() + ws.value(id).numel();
                if (ex.fkw)
                    elems += static_cast<int64_t>(ex.fkw->weights.size());
                else if (ex.weight.shape().rank() != 0)
                    elems += ex.weight.numel();
                if (ex.kind == OpKind::kAdd)
                    elems += input_of(ex, 1).numel();
                e.bytes += elems * static_cast<int64_t>(sizeof(float));
                e.calls += 1;
                e.total_ns += dur_ns;
                e.max_ns = std::max(e.max_ns, dur_ns);
            }
        }
        if (ws.poisonFreed())
            ws.poisonFreedAfter(id);
    }
    if (profile != nullptr) {
        profile->runs += 1;
        profile->wall_ns += Tracer::nowNs() - run_start_ns;
    }
    // Deep-copy out of the workspace: the slot is reused by the next run.
    return ws.value(static_cast<size_t>(output_node_));
}

Tensor
CompiledModel::run(const Tensor& input) const
{
    Workspace ws(plan_);
    return run(input, ws);
}

double
CompiledModel::convOnlyTimeMs(const Tensor& input, int warmup, int reps) const
{
    Workspace ws(plan_);
    for (int i = 0; i < warmup; ++i)
        run(input, ws);
    RunProfile profile;
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        profile.reset();
        run(input, ws, &profile);
        int64_t conv_ns = 0;
        for (size_t id = 0; id < executors_.size(); ++id)
            if (executors_[id] && executors_[id]->kind == OpKind::kConv)
                conv_ns += profile.entries[id].total_ns;
        times.push_back(static_cast<double>(conv_ns) / 1e6);
    }
    return summarize(times).median;
}

int64_t
CompiledModel::convNonZeros() const
{
    int64_t nnz = 0;
    for (const auto& ex : executors_) {
        if (!ex || ex->kind != OpKind::kConv)
            continue;
        if (ex->fkw)
            nnz += std::count_if(ex->fkw->weights.begin(), ex->fkw->weights.end(),
                                 [](float v) { return v != 0.0f; });
        else
            nnz += ex->weight.countNonZero();
    }
    return nnz;
}

int64_t
CompiledModel::convDense() const
{
    int64_t n = 0;
    for (const auto& ex : executors_)
        if (ex && ex->kind == OpKind::kConv)
            n += ex->conv.weightCount();
    return n;
}

}  // namespace patdnn
