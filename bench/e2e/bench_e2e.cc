/**
 * @file
 * End-to-end benchmark of the deployed PatDNN artifact.
 *
 * One process runs one named workload. It compiles a zoo model, ships
 * it through serializeModel -> deserializeModel (the deployment path),
 * stands up an InferenceServer behind a ShardRouter, checks
 * outputs against independent references, then drives closed-loop
 * callers through the router for a fixed time and prints one JSON
 * result line as the last line of stdout.
 *
 * Every layer is measured from outside, by timing calls into its public
 * functions and reading what the program already exposes (RunProfile,
 * ServerStats, RouterStats, MetricsRegistry counters, Tracer spans).
 * With --trace 1 the run alternates untraced and traced windows: the
 * per-layer metrics come from the traced windows, the untraced ones give
 * the baseline for the tracing overhead. End-to-end metrics come only
 * from --trace 0 runs. README.md holds the workload and metric
 * dictionary.
 *
 *   bench_e2e --workload vgg_pattern_b1 --seed 1 --seconds 20 --trace 0
 *   bench_e2e --quick            # every workload, 2 s each, all checks
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/patdnn.h"

namespace patdnn::e2e {
namespace {

using Clock = std::chrono::steady_clock;

enum class ModelId
{
    kVgg,   ///< VGG-16 CIFAR-10 from the zoo (fixed weights).
    kTiny,  ///< One 3x3 conv + fc (bench_serve_load's dispatch control).
};

struct Workload
{
    const char* name;
    ModelId model;
    FrameworkKind kind;
    int callers;  ///< Closed-loop callers through the ShardRouter.
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"vgg_pattern_b1", ModelId::kVgg, FrameworkKind::kPatDnn, 1},
    {"vgg_dense_b1", ModelId::kVgg, FrameworkKind::kPatDnnDense, 1},
    {"vgg_serve_c4", ModelId::kVgg, FrameworkKind::kPatDnn, 4},
    {"tiny_serve_c1", ModelId::kTiny, FrameworkKind::kPatDnnDense, 1},
};

constexpr const char* kRouteName = "model";
constexpr int64_t kMaxBatch = 8;
constexpr int kInputs = 4;             ///< Distinct seeded inputs per run.
constexpr double kDenseRelTol = 1e-5;  ///< Pattern/Winograd vs scalar im2col.
/// Trace toggle period: long against a VGG request (60-250 ms), short
/// enough that the busiest ring (tiny's worker: ~1.1*10^5 events/s)
/// never wraps within one window.
constexpr double kTraceWindowS = 1.0;
constexpr size_t kTraceRingEvents = size_t{1} << 18;
constexpr double kBlockS = 2.0;  ///< Block length for the end-to-end medians.
constexpr double kWarmupS = 1.0;
/// Cheap set-ups repeat until this much set-up time has accrued, so
/// their median is not one page-fault pattern.
constexpr size_t kMinSetupReps = 3;
constexpr double kMinSetupS = 1.0;
constexpr size_t kMaxSetupReps = 200;
constexpr int kVggStages = 5;

struct Options
{
    std::string workload;  ///< Empty: every workload (--quick only).
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool quick = false;
    std::string trace_out;  ///< Chrome trace path (--trace 1).
};

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

[[noreturn]] void
die(const std::string& what)
{
    std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
    std::exit(2);
}

double
msBetween(int64_t start_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) / 1e6;
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

bool
sameBits(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/** bench_serve_load's one-conv model: serve-path overhead dominates. */
Model
tinyModel()
{
    Model m("tiny-load", "bench");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 16, 3, 3, 16, 16, 1, 1, 1, 1};
    m.addLayer(std::move(conv));
    Layer relu;
    relu.kind = OpKind::kReLU;
    relu.name = "c1_relu";
    m.addLayer(std::move(relu));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 16 * 16 * 16;
    fc.out_features = 8;
    m.addLayer(std::move(fc));
    m.randomizeWeights(7);
    return m;
}

Model
buildModel(ModelId id)
{
    return id == ModelId::kVgg ? buildVGG16(Dataset::kCifar10) : tinyModel();
}

/** Batch-1 input shape: the first conv's input geometry. */
Shape
inputShape(const Model& m)
{
    for (const Layer& l : m.layers())
        if (l.kind == OpKind::kConv)
            return Shape{1, l.conv.cin, l.conv.h, l.conv.w};
    die("model has no conv layer");
}

// ---------------------------------------------------------------------------
// Set-up: compile -> serialize -> deserialize -> construct
// ---------------------------------------------------------------------------

/**
 * The serving objects over one deserialized artifact: a ShardRouter with
 * one replica, one InferenceServer with one worker. Two one-worker
 * replicas made vgg_serve_c4's two concurrent VGG streams swing with the
 * host's load (quartile spread 15-25% of the median over 10 seeds, where
 * one replica stays within ~4%). The server is declared before the
 * router, so the router (which holds the replica handle) is destroyed
 * first and the server then drains and joins.
 */
struct Deployed
{
    std::vector<uint8_t> artifact;
    std::shared_ptr<const CompiledModel> model;
    std::shared_ptr<InferenceServer> server;
    std::unique_ptr<ShardRouter> router;
};

struct SetupTimes
{
    double compile_ms = 0.0;
    double serialize_ms = 0.0;
    double deserialize_ms = 0.0;
    double construct_ms = 0.0;

    double totalS() const
    {
        return (compile_ms + serialize_ms + deserialize_ms + construct_ms) / 1e3;
    }
};

Deployed
deploy(const Model& m, const Workload& w, SetupTimes* t)
{
    const DeviceSpec dev = makeFixedWidthCpuDevice(1);
    Deployed d;
    const int64_t t0 = Tracer::nowNs();
    auto compiled = std::make_unique<const CompiledModel>(m, w.kind, dev);
    const int64_t t1 = Tracer::nowNs();
    d.artifact = serializeModel(*compiled);
    const int64_t t2 = Tracer::nowNs();
    compiled.reset();  // Only the artifact is deployed.
    const int64_t t3 = Tracer::nowNs();
    Result<std::shared_ptr<CompiledModel>> loaded = deserializeModel(d.artifact, dev);
    if (!loaded.ok())
        die("deserializeModel: " + loaded.status().toString());
    d.model = std::move(loaded).value();
    const int64_t t4 = Tracer::nowNs();
    AdmissionOptions aopts;
    aopts.max_queued_samples = 64;  // Far above what the callers can queue.
    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_batch = kMaxBatch;
    sopts.admission = std::make_shared<AdmissionController>(aopts);
    sopts.admission_name = kRouteName;
    d.server = std::make_shared<InferenceServer>(d.model, sopts);
    d.router = std::make_unique<ShardRouter>();
    d.router->addReplica(kRouteName, std::make_shared<LocalReplica>(d.server));
    const int64_t t5 = Tracer::nowNs();
    *t = {msBetween(t0, t1), msBetween(t1, t2), msBetween(t3, t4), msBetween(t4, t5)};
    return d;
}

// ---------------------------------------------------------------------------
// References, model facts and the correctness gate
// ---------------------------------------------------------------------------

struct Reference
{
    std::vector<Tensor> inputs;
    std::vector<Tensor> outputs;  ///< Batch-1 session outputs per input.
};

/** What the trace attribution needs to know about one graph node. */
struct LayerInfo
{
    bool conv = false;
    int stage = 0;      ///< VGG conv stage 1..5; 0 = not a VGG conv.
    double macs = 0.0;  ///< Effective MACs per sample.
};

struct ModelFacts
{
    std::unordered_map<std::string, LayerInfo> layers;  ///< By layer label.
    int64_t conv_stored = 0;  ///< Conv weights the engines store and run.
    int64_t conv_dense = 0;   ///< Dense conv weight count.
    double conv_macs = 0.0;   ///< Effective conv MACs per sample.
    double conv_bytes = 0.0;  ///< RunProfile conv bytes per sample.
    size_t arena_bytes = 0;   ///< Batch-1 session activation arena.
};

/** "conv3_2" -> 3; anything else -> 0. */
int
vggStage(const std::string& name)
{
    if (name.size() > 5 && name.compare(0, 4, "conv") == 0 && name[5] == '_' &&
        name[4] >= '1' && name[4] <= '0' + kVggStages)
        return name[4] - '0';
    return 0;
}

Reference
makeReference(const Deployed& d, const Shape& shape, uint64_t seed, ModelFacts* facts)
{
    Reference ref;
    Rng rng(seed);
    InferenceSession session(d.model);
    for (int i = 0; i < kInputs; ++i) {
        Tensor x(shape);
        x.fillUniform(rng, -1.0f, 1.0f);
        ref.outputs.push_back(session.run(x));
        ref.inputs.push_back(std::move(x));
    }
    facts->arena_bytes = session.activationBytes();

    // Node ids index both the profile and the exported state.
    const RunProfile& prof = session.lastRunProfile();
    const std::vector<CompiledLayerState> states = d.model->exportState();
    for (size_t id = 0; id < states.size() && id < prof.entries.size(); ++id) {
        const CompiledLayerState& st = states[id];
        const RunProfileEntry& e = prof.entries[id];
        if (!st.live || e.calls == 0)
            continue;
        LayerInfo info;
        if (st.kind == OpKind::kConv) {
            const int64_t stored = st.fkw ? static_cast<int64_t>(st.fkw->weights.size())
                                          : st.weight.numel();
            info.conv = true;
            info.stage = vggStage(st.conv.name);
            info.macs = static_cast<double>(stored * st.conv.outH() * st.conv.outW());
            facts->conv_stored += stored;
            facts->conv_dense += st.conv.weightCount();
            facts->conv_macs += info.macs;
            facts->conv_bytes += static_cast<double>(e.bytes) / static_cast<double>(e.calls);
        }
        facts->layers[e.name] = info;
    }
    return ref;
}

/**
 * The correctness gate; returns the number of failed checks:
 *  - a SimdIsa::kScalar load of the same artifact is bitwise equal;
 *  - an independent dense rebuild (exportState -> fkwToDense ->
 *    kTvmLike on scalar) agrees within kDenseRelTol relative;
 *  - every conv layer keeps a nonzero weight and no output is all-zero.
 * Served responses are checked bitwise per request in callerLoop.
 */
int
checkArtifact(const Deployed& d, const Reference& ref)
{
    int failures = 0;
    auto fail = [&](const std::string& what) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        ++failures;
    };
    DeviceSpec scalar = makeFixedWidthCpuDevice(1);
    scalar.simd_isa = SimdIsa::kScalar;

    Result<std::shared_ptr<CompiledModel>> scalar_model =
        deserializeModel(d.artifact, scalar);
    if (!scalar_model.ok()) {
        fail("scalar load: " + scalar_model.status().toString());
    } else {
        for (size_t i = 0; i < ref.inputs.size(); ++i)
            if (!sameBits(scalar_model.value()->run(ref.inputs[i]), ref.outputs[i]))
                fail("scalar-ISA output differs bitwise on input " + std::to_string(i));
    }

    std::vector<CompiledLayerState> states = d.model->exportState();
    for (CompiledLayerState& st : states) {
        if (!st.live || st.kind != OpKind::kConv)
            continue;
        if (st.fkw) {
            st.weight = fkwToDense(*st.fkw);
            st.fkw.reset();
        }
        if (st.weight.countNonZero() == 0)
            fail("conv layer " + st.conv.name + " has no nonzero weight");
    }
    const CompiledModel dense(FrameworkKind::kTvmLike, scalar, std::move(states),
                              d.model->outputNode());
    for (size_t i = 0; i < ref.inputs.size(); ++i) {
        const Tensor& want = ref.outputs[i];
        if (want.countNonZero() == 0)
            fail("output " + std::to_string(i) + " is all zero");
        double scale = 0.0;
        for (int64_t k = 0; k < want.numel(); ++k)
            scale = std::max(scale, static_cast<double>(std::fabs(want[k])));
        const double rel = Tensor::maxAbsDiff(dense.run(ref.inputs[i]), want) /
                           std::max(scale, 1e-30);
        if (!(rel <= kDenseRelTol))
            fail("dense rebuild differs by " + std::to_string(rel) +
                 " relative on input " + std::to_string(i));
    }
    return failures;
}

// ---------------------------------------------------------------------------
// Closed-loop callers
// ---------------------------------------------------------------------------

/** One benchmark span, kept in memory (and mirrored into the Tracer
 * rings under cat "bench" so the Chrome export shows it). */
struct Span
{
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t request;
    int parent;  ///< Index in the same caller's span list; -1 = root.
};

/** One finished request, measured from the caller. */
struct Sample
{
    int64_t end_ns;
    double ms;
    bool ok;      ///< Answered, and bitwise equal to the reference.
    bool traced;  ///< Tracing was on when the request was submitted.
};

struct CallerLog
{
    std::vector<Sample> samples;  ///< Warm-up included; filtered by end time.
    std::vector<Span> spans;      ///< Requests submitted with tracing on.
};

struct Loop
{
    const Deployed& dep;
    const Reference& ref;
    uint64_t seed;
    std::atomic<bool> stop{false};
    std::atomic<int> window{0};  ///< Odd = tracing on.
    std::atomic<int64_t> next_request{1};
};

void
recordSpan(CallerLog& log, const char* name, int64_t start_ns, int64_t end_ns,
           int64_t request, int parent)
{
    log.spans.push_back({name, start_ns, end_ns, request, parent});
    Tracer::emitSpan(name, "bench", start_ns, end_ns - start_ns, "request", request);
}

/** Each caller is one user with a seeded routing key; each request
 * draws its input from the caller's seeded stream, submits through the
 * router and waits on the future. */
void
callerLoop(Loop& loop, int caller, CallerLog& log)
{
    std::mt19937_64 rng(loop.seed * 1000003u + static_cast<uint64_t>(caller));
    const uint64_t key = rng();
    while (!loop.stop.load(std::memory_order_relaxed)) {
        const size_t idx = rng() % loop.ref.inputs.size();
        Tensor input = loop.ref.inputs[idx];
        const bool traced = loop.window.load() % 2 == 1;
        const int64_t request = loop.next_request.fetch_add(1);

        Tensor out;
        std::future<Tensor> fut;
        const int64_t t0 = Tracer::nowNs();
        const Result<RequestId> r =
            loop.dep.router->trySubmit(kRouteName, key, std::move(input), &fut);
        const int64_t submitted = Tracer::nowNs();
        bool ok = r.ok();
        try {
            if (ok)
                out = fut.get();
        } catch (const std::exception&) {  // ServeError, or a broken promise.
            ok = false;
        }
        const int64_t t1 = Tracer::nowNs();
        ok = ok && sameBits(out, loop.ref.outputs[idx]);
        log.samples.push_back({t1, msBetween(t0, t1), ok, traced});
        if (ok && traced) {
            const int root = static_cast<int>(log.spans.size());
            recordSpan(log, "bench.request", t0, t1, request, -1);
            recordSpan(log, "bench.try_submit", t0, submitted, request, root);
            recordSpan(log, "bench.future_wait", submitted, t1, request, root);
        }
    }
}

/**
 * Caller-side latency percentiles as medians over equal blocks of about
 * kBlockS: the host's contention bursts last seconds, and a block median
 * ignores any that cover less than half the run. Over 10 seeds of
 * vgg_pattern_b1 the p90's quartile spread was 0.165 this way, against
 * 0.33 for one p90 over the whole run.
 */
Percentiles
blockLatency(const std::vector<Sample>& samples, int64_t start_ns, int64_t end_ns)
{
    const double seconds = static_cast<double>(end_ns - start_ns) / 1e9;
    const int blocks = std::max(1, static_cast<int>(seconds / kBlockS));
    const double block_ns = static_cast<double>(end_ns - start_ns) / blocks;
    std::vector<std::vector<double>> per(static_cast<size_t>(blocks));
    for (const Sample& s : samples) {
        const auto b = static_cast<size_t>(static_cast<double>(s.end_ns - start_ns) / block_ns);
        per[std::min(per.size() - 1, b)].push_back(s.ms);
    }
    std::vector<double> p50, p90;
    for (std::vector<double>& b : per) {
        if (b.empty())
            continue;
        const Percentiles q = computePercentiles(std::move(b));
        p50.push_back(q.p50);
        p90.push_back(q.p90);
    }
    Percentiles out;
    out.p50 = median(std::move(p50));
    out.p90 = median(std::move(p90));
    return out;
}

/** Server, router and admission counters, differenced around the
 * measured phase. */
struct ServeCounters
{
    int64_t latency_count = 0;
    double latency_sum_ms = 0.0;
    int64_t batches = 0;
    double batched_samples = 0.0;
    int64_t failovers = 0;
    int64_t admission_shed = 0;
};

ServeCounters
readServeCounters(const Deployed& d)
{
    ServeCounters c;
    const ServerStats st = d.server->stats();
    c.latency_count = st.latency_hist.count;
    c.latency_sum_ms = st.latency_hist.sum;
    c.batches = st.batches;
    c.batched_samples = st.avg_batch * static_cast<double>(st.batches);
    c.failovers = d.router->stats(kRouteName).failovers;
    MetricsRegistry& reg = MetricsRegistry::global();
    c.admission_shed = reg.counter("serve.admission.shed_over_fair_share").value() +
                       reg.counter("serve.admission.shed_global_budget").value();
    return c;
}

// ---------------------------------------------------------------------------
// Trace attribution
// ---------------------------------------------------------------------------

/** Per-layer totals over every traced window, from the program's spans.
 * Served runs carry batches of 1-8, so times are normalised per sample
 * (per inference). */
struct TraceAgg
{
    std::vector<double> sample_ms;  ///< session.run duration / batch.
    double run_total_ms = 0.0;
    int64_t samples = 0;
    double conv_ms = 0.0;
    double conv_flop = 0.0;
    std::array<double, kVggStages + 1> stage_ms{};
    std::array<double, kVggStages + 1> stage_flop{};
    double glue_ms = 0.0;
    double unattributed_ms = 0.0;  ///< session.run + model.run self time.
    std::map<std::string, std::pair<double, int64_t>> serve;  ///< name -> (ms, n).

    void add(const std::vector<TraceEvent>& events, const ModelFacts& facts);
};

/**
 * Nest each thread's spans by time containment and attribute self
 * times. Layer spans count only inside a recorded session.run, so a run
 * cut by a trace toggle never leaves orphan layers in the totals.
 * queue_wait starts at submit, before earlier work on the worker
 * finished, so it is kept out of the nesting.
 */
void
TraceAgg::add(const std::vector<TraceEvent>& events, const ModelFacts& facts)
{
    struct Open
    {
        const TraceEvent* ev;
        int64_t end_ns;
        int64_t child_ns;
        int64_t batch;  ///< Enclosing session.run batch; 0 = outside a run.
    };
    auto close = [&](const Open& o) {
        const TraceEvent& e = *o.ev;
        const double ms = static_cast<double>(e.dur_ns) / 1e6;
        const std::string name = e.name;
        if (std::strcmp(e.cat, "layer") == 0) {
            auto it = facts.layers.find(name);
            if (o.batch == 0 || it == facts.layers.end())
                return;
            const LayerInfo& info = it->second;
            if (!info.conv) {
                glue_ms += ms;
                return;
            }
            const double flop = 2.0 * info.macs * static_cast<double>(o.batch);
            conv_ms += ms;
            conv_flop += flop;
            stage_ms[info.stage] += ms;
            stage_flop[info.stage] += flop;
        } else if (name == "session.run" || (name == "model.run" && o.batch > 0)) {
            unattributed_ms += static_cast<double>(e.dur_ns - o.child_ns) / 1e6;
            if (name == "session.run") {
                sample_ms.push_back(ms / static_cast<double>(o.batch));
                run_total_ms += ms;
                samples += o.batch;
            }
        } else if (name == "batch_form" || name == "dispatch" || name == "epilogue") {
            auto& s = serve[name];
            s.first += ms;
            s.second += 1;
        }
    };

    std::map<uint32_t, std::vector<const TraceEvent*>> by_tid;
    for (const TraceEvent& e : events) {
        if (std::strcmp(e.cat, "bench") == 0 || e.ts_ns == 0)
            continue;  // ts 0: the server took its start stamp while tracing was off.
        if (std::strcmp(e.name, "queue_wait") == 0) {
            auto& s = serve["queue_wait"];
            s.first += static_cast<double>(e.dur_ns) / 1e6;
            s.second += 1;
            continue;
        }
        by_tid[e.tid].push_back(&e);  // collect() sorts parents first.
    }
    for (const auto& [tid, list] : by_tid) {
        std::vector<Open> stack;
        for (const TraceEvent* e : list) {
            const int64_t end = e->ts_ns + e->dur_ns;
            while (!stack.empty() &&
                   (stack.back().end_ns <= e->ts_ns || stack.back().end_ns < end)) {
                close(stack.back());
                stack.pop_back();
            }
            int64_t batch = stack.empty() ? 0 : stack.back().batch;
            if (!stack.empty())
                stack.back().child_ns += e->dur_ns;
            if (std::strcmp(e->name, "session.run") == 0)
                batch = std::max<int64_t>(1, e->arg_value);
            stack.push_back({e, end, 0, batch});
        }
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            close(*it);
    }
}

/** Chrome trace_event JSON of one traced window. Tracer::writeChromeTrace
 * would export the ts-0 spans TraceAgg::add drops, which stretch the
 * timeline to the clock's epoch. Span names are layer and span labels,
 * which never need escaping. */
void
writeChromeTrace(const std::string& path, const std::vector<TraceEvent>& events)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        die("cannot write " + path);
    std::fprintf(f, "{\"traceEvents\":[");
    const char* sep = "";
    for (const TraceEvent& e : events) {
        if (e.ts_ns == 0)
            continue;
        std::fprintf(f, "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                     sep, e.name, e.cat, static_cast<double>(e.ts_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3, e.tid);
        if (e.arg_name != nullptr)
            std::fprintf(f, ",\"args\":{\"%s\":%lld}", e.arg_name,
                         static_cast<long long>(e.arg_value));
        std::fprintf(f, "}");
        sep = ",";
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    if (std::fclose(f) != 0)
        die("failed writing " + path);
}

double
gflops(double flop, double ms)
{
    return ratio(flop, ms * 1e6);
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct Outcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/** The per-layer metrics of a traced run (see README.md). */
std::vector<Metric>
layerMetrics(const std::vector<SetupTimes>& setups, const ModelFacts& facts,
             const TraceAgg& agg, const std::vector<CallerLog>& logs,
             const std::array<std::vector<double>, 2>& lat, const ServeCounters& before,
             const ServeCounters& after)
{
    std::vector<Metric> m;
    auto setupMedian = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes& t : setups)
            v.push_back(t.*field);
        return median(std::move(v));
    };
    m.push_back({"core.compile_ms", setupMedian(&SetupTimes::compile_ms), "ms"});
    m.push_back({"serve.artifact.serialize_ms", setupMedian(&SetupTimes::serialize_ms), "ms"});
    m.push_back({"serve.artifact.deserialize_ms", setupMedian(&SetupTimes::deserialize_ms), "ms"});
    m.push_back({"serve.setup.construct_ms", setupMedian(&SetupTimes::construct_ms), "ms"});
    m.push_back({"sparse.conv_nnz", static_cast<double>(facts.conv_stored), "count"});
    m.push_back({"sparse.compression_x",
                 ratio(static_cast<double>(facts.conv_dense),
                       static_cast<double>(facts.conv_stored)),
                 "x"});
    m.push_back({"rt.memplan.arena_kb", static_cast<double>(facts.arena_bytes) / 1024.0, "KB"});

    const double inferences = static_cast<double>(std::max<int64_t>(1, agg.samples));
    m.push_back({"rt.conv.ms", agg.conv_ms / inferences, "ms"});
    m.push_back({"rt.conv.share", ratio(agg.conv_ms, agg.run_total_ms), "ratio"});
    m.push_back({"rt.conv.gflops", gflops(agg.conv_flop, agg.conv_ms), "GFLOP/s"});
    m.push_back({"rt.conv.bytes_per_mac", ratio(facts.conv_bytes, facts.conv_macs), "B/MAC"});
    m.push_back({"rt.glue.ms", agg.glue_ms / inferences, "ms"});
    m.push_back({"rt.unattributed.ms", agg.unattributed_ms / inferences, "ms"});
    m.push_back({"rt.session_run_p50_ms", median(agg.sample_ms), "ms"});
    for (int s = 1; s <= kVggStages; ++s) {
        const std::string base = "rt.vgg.conv" + std::to_string(s);
        m.push_back({base + ".share", ratio(agg.stage_ms[s], agg.run_total_ms), "ratio"});
        m.push_back({base + ".gflops", gflops(agg.stage_flop[s], agg.stage_ms[s]), "GFLOP/s"});
    }

    // try_submit has no child span, so its duration is its self time.
    double try_submit_ms = 0.0;
    int64_t try_submits = 0;
    for (const CallerLog& log : logs)
        for (const Span& s : log.spans)
            if (std::strcmp(s.name, "bench.try_submit") == 0) {
                try_submit_ms += msBetween(s.start_ns, s.end_ns);
                ++try_submits;
            }
    double caller_sum_ms = 0.0;
    for (const std::vector<double>& v : lat)
        for (double ms : v)
            caller_sum_ms += ms;
    const auto caller_count = static_cast<double>(lat[0].size() + lat[1].size());
    auto serveMean = [&](const char* name) {
        const auto it = agg.serve.find(name);
        return it == agg.serve.end()
                   ? 0.0
                   : ratio(it->second.first, static_cast<double>(it->second.second));
    };
    const double server_mean_ms =
        ratio(after.latency_sum_ms - before.latency_sum_ms,
              static_cast<double>(after.latency_count - before.latency_count));
    m.push_back({"serve.router.try_submit_us",
                 1e3 * ratio(try_submit_ms, static_cast<double>(try_submits)), "us"});
    m.push_back({"serve.future_wake_us",
                 1e3 * (ratio(caller_sum_ms, caller_count) - server_mean_ms), "us"});
    m.push_back({"serve.queue_wait_ms", serveMean("queue_wait"), "ms"});
    m.push_back({"serve.batch_form_ms", serveMean("batch_form"), "ms"});
    m.push_back({"serve.dispatch_ms", serveMean("dispatch"), "ms"});
    m.push_back({"serve.epilogue_ms", serveMean("epilogue"), "ms"});
    m.push_back({"serve.avg_batch",
                 ratio(after.batched_samples - before.batched_samples,
                       static_cast<double>(after.batches - before.batches)),
                 "samples"});
    m.push_back({"serve.router.failovers",
                 static_cast<double>(after.failovers - before.failovers), "count"});
    m.push_back({"serve.admission.shed",
                 static_cast<double>(after.admission_shed - before.admission_shed), "count"});
    const double p50_off = median(lat[0]);
    m.push_back({"obs.trace_overhead_pct",
                 100.0 * ratio(median(lat[1]) - p50_off, p50_off), "%"});
    return m;
}

Outcome
runWorkload(const Workload& w, const Options& opt)
{
    const Model model = buildModel(w.model);

    // Set-up, repeated; the median total is setup_s and the last
    // repetition's objects are the ones measured.
    std::vector<SetupTimes> setups;
    std::vector<double> totals;
    double setup_sum_s = 0.0;
    Deployed dep;
    while (totals.empty() ||
           (!opt.quick && (totals.size() < kMinSetupReps ||
                           (setup_sum_s < kMinSetupS && totals.size() < kMaxSetupReps)))) {
        dep = Deployed();  // Tear the previous set-up down first.
        setups.emplace_back();
        dep = deploy(model, w, &setups.back());
        totals.push_back(setups.back().totalS());
        setup_sum_s += totals.back();
    }

    const int64_t gate_start = Tracer::nowNs();
    ModelFacts facts;
    const Reference ref = makeReference(dep, inputShape(model), opt.seed, &facts);
    const int gate_failures = checkArtifact(dep, ref);
    std::fprintf(stderr, "%s: setup %.3f s (median of %zu), gate %s in %.2f s\n", w.name,
                 median(totals), totals.size(), gate_failures == 0 ? "passed" : "FAILED",
                 msBetween(gate_start, Tracer::nowNs()) / 1e3);

    // Closed loop: warm up, then measure; with tracing, alternate
    // untraced and traced windows of kTraceWindowS.
    Loop loop{dep, ref, opt.seed};
    std::vector<CallerLog> logs(static_cast<size_t>(w.callers));
    std::vector<std::thread> threads;
    for (int c = 0; c < w.callers; ++c)
        threads.emplace_back(callerLoop, std::ref(loop), c, std::ref(logs[c]));

    std::this_thread::sleep_for(std::chrono::duration<double>(opt.quick ? 0.2 : kWarmupS));
    const ServeCounters before = readServeCounters(dep);
    const int64_t start_ns = Tracer::nowNs();
    TraceAgg agg;
    std::vector<TraceEvent> last_window;
    const auto start = Clock::now();
    auto at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };
    if (opt.trace) {
        const double window_s = std::min(kTraceWindowS, opt.seconds / 2);
        const int pairs = std::max(1, static_cast<int>(opt.seconds / (2 * window_s)));
        for (int p = 0; p < pairs; ++p) {
            std::this_thread::sleep_until(at((2 * p + 1) * window_s));
            Tracer::setEnabled(true);
            loop.window.fetch_add(1);
            std::this_thread::sleep_until(at((2 * p + 2) * window_s));
            loop.window.fetch_add(1);
            Tracer::setEnabled(false);
            last_window = Tracer::collect();
            Tracer::clear();
            agg.add(last_window, facts);
        }
    } else {
        std::this_thread::sleep_until(at(opt.seconds));
    }
    const int64_t end_ns = Tracer::nowNs();
    const ServeCounters after = readServeCounters(dep);
    loop.stop = true;
    for (std::thread& t : threads)
        t.join();

    // Requests count when they finish inside [start, end).
    Outcome out;
    out.failed = gate_failures;
    std::array<std::vector<double>, 2> lat;  ///< [untraced, traced] ms.
    std::vector<Sample> answered;
    for (const CallerLog& log : logs)
        for (const Sample& s : log.samples) {
            if (s.end_ns < start_ns || s.end_ns >= end_ns)
                continue;
            ++out.attempted;
            if (!s.ok) {
                ++out.failed;
                continue;
            }
            lat[s.traced].push_back(s.ms);
            answered.push_back(s);
        }

    if (opt.trace) {
        if (!opt.trace_out.empty())
            writeChromeTrace(opt.trace_out, last_window);
        const double attributed_ms = agg.conv_ms + agg.glue_ms + agg.unattributed_ms;
        const double per_inference = attributed_ms / std::max<double>(1.0, agg.samples);
        const double run_p50 = median(agg.sample_ms);
        std::fprintf(stderr,
                     "%s: conv + glue + unattributed = %.4f ms per inference; "
                     "session.run p50 = %.4f ms per inference (%+.1f%%) over %zu runs\n",
                     w.name, per_inference, run_p50,
                     100.0 * ratio(per_inference - run_p50, run_p50), agg.sample_ms.size());
        out.metrics = layerMetrics(setups, facts, agg, logs, lat, before, after);
        return out;
    }

    const Percentiles q = blockLatency(answered, start_ns, end_ns);
    out.metrics = {
        {"setup_s", median(totals), "s"},
        {"latency_p50_ms", q.p50, "ms"},
        {"latency_p90_ms", q.p90, "ms"},
        {"throughput_ips",
         static_cast<double>(answered.size()) / (static_cast<double>(end_ns - start_ns) / 1e9),
         "1/s"},
        {"artifact_mb", static_cast<double>(dep.artifact.size()) / 1e6, "MB"},
        {"activation_mb", static_cast<double>(facts.arena_bytes) / 1e6, "MB"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return out;
}

void
printResult(const Workload& w, const Outcome& o)
{
    for (const Metric& m : o.metrics)
        std::fprintf(stderr, "%s %s %.6g %s\n", w.name, m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                o.failed == 0 ? "true" : "false", static_cast<long long>(o.attempted),
                static_cast<long long>(o.failed));
    for (size_t i = 0; i < o.metrics.size(); ++i) {
        const Metric& m = o.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = next();
        } else if (a == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(next().c_str());
            seconds_set = true;
        } else if (a == "--trace") {
            opt.trace = next() == "1";
        } else if (a == "--trace-out") {
            opt.trace_out = next();
        } else if (a == "--quick") {
            opt.quick = true;
        } else {
            die("unknown argument " + a +
                " (use --workload NAME --seed N --seconds S --trace 0|1 "
                "[--trace-out PATH] [--quick])");
        }
    }
    if (opt.quick && !seconds_set)
        opt.seconds = 2.0;
    if (!(opt.seconds > 0.0))
        die("--seconds must be positive");
    if (opt.workload.empty() && !opt.quick)
        die("--workload is required (or --quick for every workload)");
    if (opt.trace && !Tracer::compiledIn())
        die("--trace 1 needs a build with PATDNN_ENABLE_TRACING=ON");
    return opt;
}

int
run(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    // Rings are sized when a thread first emits, so set this before
    // any tracing is enabled.
    Tracer::setRingCapacity(kTraceRingEvents);
    bool all_correct = true;
    bool found = false;
    for (const Workload& w : kWorkloads) {
        if (!opt.workload.empty() && opt.workload != w.name)
            continue;
        found = true;
        const Outcome o = runWorkload(w, opt);
        printResult(w, o);
        all_correct = all_correct && o.failed == 0;
    }
    if (!found)
        die("unknown workload " + opt.workload);
    return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace patdnn::e2e

int
main(int argc, char** argv)
{
    return patdnn::e2e::run(argc, argv);
}
