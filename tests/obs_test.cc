/** @file Observability tests: metrics registry identity and kinds,
 * histogram percentiles + exchange-drained resets under concurrency,
 * trace span nesting / ring bounds / Chrome JSON export, the compile-out
 * contract of PATDNN_ENABLE_TRACING=OFF builds, and the per-layer
 * RunProfile surfaced by InferenceSession. */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

// ---------------------------------------------------------------------------
// Metrics: registry
// ---------------------------------------------------------------------------

TEST(Metrics, RegistryHandsOutStableIdenticalReferences)
{
    MetricsRegistry reg;
    Counter& a = reg.counter("requests");
    Counter& b = reg.counter("requests");
    EXPECT_EQ(&a, &b);  // Same name -> same object, forever.
    a.inc();
    a.inc(4);
    EXPECT_EQ(b.value(), 5);

    Gauge& g = reg.gauge("depth");
    g.set(3.0);
    g.setMax(1.0);  // Lower: no effect.
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    g.setMax(7.5);
    EXPECT_DOUBLE_EQ(g.value(), 7.5);

    // resetAllForTest zeroes values but keeps registrations/addresses.
    reg.resetAllForTest();
    EXPECT_EQ(&reg.counter("requests"), &a);
    EXPECT_EQ(a.value(), 0);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsDeath, KindMismatchAborts)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.gauge("x"), "registered as a different kind");
    EXPECT_DEATH(reg.histogram("x"), "registered as a different kind");
}

TEST(Metrics, RenderTextAndJson)
{
    MetricsRegistry reg;
    reg.counter("runs").inc(3);
    reg.gauge("hwm").set(42.0);
    reg.histogram("lat").record(1.0);
    reg.histogram("lat").record(2.0);

    std::string text = reg.renderText();
    EXPECT_NE(text.find("counter runs 3"), std::string::npos);
    EXPECT_NE(text.find("gauge hwm 42"), std::string::npos);
    EXPECT_NE(text.find("histogram lat count 2"), std::string::npos);

    std::string json = reg.renderJson();
    EXPECT_NE(json.find("\"counters\":{\"runs\":3}"), std::string::npos);
    EXPECT_NE(json.find("\"hwm\":42"), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics: histogram
// ---------------------------------------------------------------------------

TEST(Histogram, CountSumMinMaxAreExact)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 100);
    EXPECT_DOUBLE_EQ(s.sum, 5050.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Histogram, PercentileAccuracyBoundedByBucketGrowth)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i) / 100.0);  // 0.01 .. 10.0.
    HistogramSnapshot s = h.snapshot();
    Percentiles q = s.percentiles();
    // Bucketed estimates: within one growth factor of the exact value.
    EXPECT_NEAR(q.p50, 5.0, 5.0 * (kHistogramGrowth - 1.0));
    EXPECT_NEAR(q.p99, 9.9, 9.9 * (kHistogramGrowth - 1.0));
    EXPECT_GE(q.p999, q.p99);
    EXPECT_GE(q.p99, q.p90);
    EXPECT_GE(q.p90, q.p50);
    // Clamped to the observed range.
    EXPECT_LE(q.p999, s.max);
    EXPECT_GE(q.p50, s.min);
}

TEST(Histogram, EmptySnapshotIsAllZero)
{
    Histogram h;
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a, b;
    a.record(1.0);
    a.record(2.0);
    b.record(10.0);
    HistogramSnapshot sa = a.snapshot();
    sa.merge(b.snapshot());
    EXPECT_EQ(sa.count, 3);
    EXPECT_DOUBLE_EQ(sa.sum, 13.0);
    EXPECT_DOUBLE_EQ(sa.min, 1.0);
    EXPECT_DOUBLE_EQ(sa.max, 10.0);
    // Merging an empty snapshot changes nothing.
    sa.merge(HistogramSnapshot{});
    EXPECT_EQ(sa.count, 3);
}

TEST(Histogram, CollectAndResetDrains)
{
    Histogram h;
    h.record(1.0);
    h.record(5.0);
    HistogramSnapshot first = h.collectAndReset();
    EXPECT_EQ(first.count, 2);
    EXPECT_DOUBLE_EQ(first.sum, 6.0);
    HistogramSnapshot second = h.collectAndReset();
    EXPECT_EQ(second.count, 0);
    EXPECT_DOUBLE_EQ(second.sum, 0.0);
    // The histogram keeps working after a drain.
    h.record(2.0);
    EXPECT_EQ(h.snapshot().count, 1);
    EXPECT_DOUBLE_EQ(h.snapshot().min, 2.0);
}

// Counts are conserved under writers racing the collector: every
// recorded sample lands in exactly one drained snapshot (or the final
// sweep), never zero or two. This is the exchange-drain contract.
TEST(HistogramStress, ConcurrentRecordAndCollectConservesCounts)
{
    Histogram h;
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 50000;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&h, w] {
            for (int i = 0; i < kPerWriter; ++i)
                h.record(0.5 + 0.001 * static_cast<double>((w + i) % 100));
        });

    int64_t collected = 0;
    double collected_sum = 0.0;
    std::thread collector([&] {
        while (!done.load(std::memory_order_acquire)) {
            HistogramSnapshot s = h.collectAndReset();
            collected += s.count;
            collected_sum += s.sum;
        }
    });
    for (auto& t : writers)
        t.join();
    done.store(true, std::memory_order_release);
    collector.join();

    HistogramSnapshot tail = h.collectAndReset();
    EXPECT_EQ(collected + tail.count,
              static_cast<int64_t>(kWriters) * kPerWriter);
    // All samples are in [0.5, 0.6]: the summed sums must agree too.
    EXPECT_NEAR(collected_sum + tail.sum,
                0.5 * kWriters * kPerWriter, 0.1 * kWriters * kPerWriter + 1.0);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/**
 * Minimal JSON reader used to prove the Chrome trace export is
 * well-formed (structure + escaping), without a JSON dependency.
 * Returns true iff the whole string is exactly one valid JSON value.
 */
class JsonChecker
{
  public:
    static bool valid(const std::string& s)
    {
        JsonChecker c(s);
        c.skipWs();
        if (!c.value())
            return false;
        c.skipWs();
        return c.pos_ == s.size();
    }

  private:
    explicit JsonChecker(const std::string& s) : s_(s) {}

    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
                    return false;
                }
            } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
                return false;  // Raw control characters are invalid.
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;  // Closing quote.
        return true;
    }

    bool number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const char* lit)
    {
        size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string& s_;
    size_t pos_ = 0;
};

TEST(JsonCheckerSelfTest, AcceptsValidRejectsInvalid)
{
    EXPECT_TRUE(JsonChecker::valid("{\"a\":[1,2.5,-3e2],\"b\":\"x\\\"y\"}"));
    EXPECT_TRUE(JsonChecker::valid("{}"));
    EXPECT_FALSE(JsonChecker::valid("{\"a\":}"));
    EXPECT_FALSE(JsonChecker::valid("{\"a\":1} trailing"));
    EXPECT_FALSE(JsonChecker::valid("{\"a\\:1}"));  // Bad string escape.
}

/** Scoped enable/clear so trace tests never see each other's spans. */
struct TraceCapture
{
    TraceCapture()
    {
        Tracer::clear();
        Tracer::setEnabled(true);
    }
    ~TraceCapture()
    {
        Tracer::setEnabled(false);
        Tracer::clear();
    }
};

#if PATDNN_TRACING_ENABLED

TEST(Trace, SpansNestProperlyPerThread)
{
    TraceCapture capture;
    {
        TraceSpan outer("outer", "test");
        {
            TraceSpan inner("inner", "test");
        }
    }
    std::vector<TraceEvent> events = Tracer::collect();
    const TraceEvent* outer = nullptr;
    const TraceEvent* inner = nullptr;
    for (const TraceEvent& e : events) {
        if (std::strcmp(e.name, "outer") == 0)
            outer = &e;
        if (std::strcmp(e.name, "inner") == 0)
            inner = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->tid, inner->tid);  // Same thread, same ring.
    // Proper nesting: inner's interval inside outer's.
    EXPECT_GE(inner->ts_ns, outer->ts_ns);
    EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
    // collect() sorts parents before children.
    EXPECT_LT(outer - events.data(), inner - events.data());
}

TEST(Trace, ThreadsGetDistinctTids)
{
    TraceCapture capture;
    {
        TraceSpan main_span("main.span", "test");
    }
    std::thread t([] { TraceSpan other("other.span", "test"); });
    t.join();
    uint32_t main_tid = 0, other_tid = 0;
    for (const TraceEvent& e : Tracer::collect()) {
        if (std::strcmp(e.name, "main.span") == 0)
            main_tid = e.tid;
        if (std::strcmp(e.name, "other.span") == 0)
            other_tid = e.tid;  // Ring outlives the thread.
    }
    ASSERT_NE(main_tid, 0u);
    ASSERT_NE(other_tid, 0u);
    EXPECT_NE(main_tid, other_tid);
}

TEST(Trace, RingCapacityBoundsEventsKeepingNewest)
{
    TraceCapture capture;
    Tracer::setRingCapacity(16);
    uint32_t ring_tid = 0;
    // A fresh thread gets a fresh (16-slot) ring.
    std::thread t([&ring_tid] {
        for (int i = 0; i < 40; ++i) {
            std::string name = "span" + std::to_string(i);
            Tracer::emitSpan(name.c_str(), "test", i, 1);
        }
        for (const TraceEvent& e : Tracer::collect())
            if (std::strncmp(e.name, "span", 4) == 0)
                ring_tid = e.tid;
    });
    t.join();
    Tracer::setRingCapacity(Tracer::kDefaultRingCapacity);

    std::vector<const TraceEvent*> mine;
    std::vector<TraceEvent> events = Tracer::collect();
    for (const TraceEvent& e : events)
        if (e.tid == ring_tid)
            mine.push_back(&e);
    ASSERT_EQ(mine.size(), 16u);
    // Oldest overwritten: only span24..span39 survive, in order.
    for (size_t i = 0; i < mine.size(); ++i)
        EXPECT_EQ(std::string(mine[i]->name),
                  "span" + std::to_string(24 + i));
}

TEST(Trace, DisabledEmitsNothingAndClearDrops)
{
    Tracer::clear();
    Tracer::setEnabled(false);
    {
        TraceSpan span("should.not.appear", "test");
        Tracer::emitSpan("nor.this", "test", 0, 1);
    }
    for (const TraceEvent& e : Tracer::collect()) {
        EXPECT_STRNE(e.name, "should.not.appear");
        EXPECT_STRNE(e.name, "nor.this");
    }

    TraceCapture capture;
    Tracer::emitSpan("pre.clear", "test", 0, 1);
    Tracer::clear();
    for (const TraceEvent& e : Tracer::collect())
        EXPECT_STRNE(e.name, "pre.clear");
}

TEST(Trace, ChromeTraceJsonIsValidAndEscaped)
{
    TraceCapture capture;
    Tracer::emitSpan("quote\"back\\slash", "test", 1000, 2000, "rows", 4);
    {
        TraceSpan span("plain", "test");
    }
    std::ostringstream os;
    Tracer::writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"rows\":4}"), std::string::npos);
    // ts/dur are microseconds: 1000 ns -> 1 us, 2000 ns -> 2 us.
    EXPECT_NE(json.find("\"ts\":1,\"dur\":2"), std::string::npos);
}

TEST(Trace, LongNamesAreTruncatedNotOverflowed)
{
    TraceCapture capture;
    std::string long_name(200, 'x');
    Tracer::emitSpan(long_name.c_str(), "test", 0, 1);
    bool found = false;
    for (const TraceEvent& e : Tracer::collect()) {
        if (std::strncmp(e.name, "xxxx", 4) == 0) {
            found = true;
            EXPECT_LT(std::strlen(e.name), TraceEvent::kMaxName);
        }
    }
    EXPECT_TRUE(found);
}

#else  // !PATDNN_TRACING_ENABLED

// The compile-out contract: spans are empty objects and the runtime
// collects nothing, so traced and untraced builds behave identically.
static_assert(std::is_empty_v<TraceSpan>,
              "tracing-off TraceSpan must compile to an empty object");
static_assert(!Tracer::compiledIn());

TEST(Trace, CompiledOutCollectsNothing)
{
    Tracer::setEnabled(true);  // Must be a no-op.
    {
        TraceSpan span("invisible", "test");
        Tracer::emitSpan("invisible.manual", "test", 0, 1);
    }
    EXPECT_FALSE(Tracer::enabled());
    for (const TraceEvent& e : Tracer::collect()) {
        EXPECT_STRNE(e.name, "invisible");
        EXPECT_STRNE(e.name, "invisible.manual");
    }
}

#endif  // PATDNN_TRACING_ENABLED

// ---------------------------------------------------------------------------
// RunProfile + session surfacing
// ---------------------------------------------------------------------------

TEST(RunProfile, ResetKeepsLabelsAndMergeAccumulates)
{
    RunProfile p;
    p.prepare(2);
    p.entries[0] = {"conv1", "pattern", "avx2", "f32", 100, 1, 1000, 1000};
    p.entries[1] = {"fc", "fc", "-", "f32", 50, 1, 500, 500};
    p.runs = 1;
    p.wall_ns = 1600;
    EXPECT_EQ(p.totalNs(), 1500);

    RunProfile other;
    other.merge(p);
    other.merge(p);
    EXPECT_EQ(other.runs, 2);
    EXPECT_EQ(other.entries[0].calls, 2);
    EXPECT_EQ(other.entries[0].total_ns, 2000);
    EXPECT_EQ(other.entries[0].max_ns, 1000);
    EXPECT_EQ(other.entries[0].name, "conv1");

    p.reset();
    EXPECT_EQ(p.entries[0].name, "conv1");  // Labels survive reset.
    EXPECT_EQ(p.entries[0].calls, 0);
    EXPECT_EQ(p.totalNs(), 0);
    EXPECT_EQ(p.runs, 0);

    std::string table = other.renderTable();
    EXPECT_NE(table.find("conv1"), std::string::npos);
    EXPECT_NE(table.find("pattern"), std::string::npos);
    EXPECT_NE(table.find("avx2"), std::string::npos);
}

Model
tinyObsModel()
{
    Model m("tiny-obs", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(std::move(conv));
    Layer relu;
    relu.kind = OpKind::kReLU;
    relu.name = "r1";
    m.addLayer(std::move(relu));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 8 * 8 * 8;
    fc.out_features = 4;
    m.addLayer(std::move(fc));
    m.randomizeWeights(77);
    return m;
}

TEST(SessionProfile, LastRunProfileDescribesTheMostRecentRun)
{
    Model m = tinyObsModel();
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, makeFixedWidthCpuDevice(1));
    InferenceSession session(model);
    EXPECT_TRUE(session.lastRunProfile().empty());

    Tensor in(Shape{1, 3, 8, 8});
    Rng rng(3);
    in.fillUniform(rng, -1.0f, 1.0f);
    session.run(in);
    const RunProfile& p = session.lastRunProfile();
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.runs, 1);
    EXPECT_GT(p.totalNs(), 0);
    EXPECT_GE(p.wall_ns, p.totalNs());  // Wall covers the per-node sum.

    // Every live node appears exactly once with its attribution.
    int live = 0;
    bool saw_conv = false, saw_fc = false;
    for (const RunProfileEntry& e : p.entries) {
        if (e.calls == 0)
            continue;
        ++live;
        EXPECT_EQ(e.calls, 1);  // Profile resets per run.
        EXPECT_GT(e.bytes, 0);
        if (e.name == "c1") {
            saw_conv = true;
            EXPECT_TRUE(e.kind == "winograd" || e.kind == "im2col") << e.kind;
        }
        if (e.kind == "fc")
            saw_fc = true;
    }
    EXPECT_TRUE(saw_conv);
    EXPECT_TRUE(saw_fc);
    EXPECT_GE(live, 2);  // conv (+fused relu) and fc; glue ops may fold away.

    // A second run replaces the profile instead of accumulating.
    session.run(in);
    EXPECT_EQ(session.lastRunProfile().runs, 1);

    // The table renders the layer rows.
    std::string table = session.lastRunProfile().renderTable();
    EXPECT_NE(table.find("c1"), std::string::npos);
}

TEST(SessionProfile, ProfilingCanBeDisabled)
{
    Model m = tinyObsModel();
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, makeFixedWidthCpuDevice(1));
    InferenceSession session(model);
    session.setProfilingEnabled(false);
    Tensor in(Shape{1, 3, 8, 8});
    Rng rng(4);
    in.fillUniform(rng, -1.0f, 1.0f);
    session.run(in);
    EXPECT_TRUE(session.lastRunProfile().empty());
}

TEST(SessionProfile, CompileRegistersMemplanGaugesAndRunsCount)
{
    int64_t runs_before =
        MetricsRegistry::global().counter("rt.model_runs").value();
    Model m = tinyObsModel();
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, makeFixedWidthCpuDevice(1));
    ASSERT_TRUE(model->hasMemoryPlan());
    // The compile published the planner-quality gauges.
    EXPECT_GT(MetricsRegistry::global().gauge("memplan.arena_kb_per_sample")
                  .value(),
              0.0);
    EXPECT_GE(MetricsRegistry::global().gauge("memplan.reuse_x").value(), 1.0);

    InferenceSession session(model);
    Tensor in(Shape{1, 3, 8, 8});
    Rng rng(5);
    in.fillUniform(rng, -1.0f, 1.0f);
    session.run(in);
    EXPECT_EQ(MetricsRegistry::global().counter("rt.model_runs").value(),
              runs_before + 1);
    // The planned arena recorded its high-water mark.
    EXPECT_GE(MetricsRegistry::global().gauge("rt.arena_hwm_bytes").value(),
              static_cast<double>(session.activationBytes()));
}

}  // namespace
}  // namespace patdnn
