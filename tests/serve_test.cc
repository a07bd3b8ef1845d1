/** @file Serving subsystem tests: artifacts, sessions, async server,
 * deadlines/cancellation, fake-clock linger batching, and the
 * multi-model registry. */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

Model
tinyModel()
{
    Model m("tiny-serve", "test");
    auto add_conv = [&](const std::string& name, int64_t cin, int64_t cout,
                        int64_t res) {
        Layer conv;
        conv.kind = OpKind::kConv;
        conv.name = name;
        conv.conv = ConvDesc{name, cin, cout, 3, 3, res, res, 1, 1, 1, 1};
        m.addLayer(std::move(conv));
        Layer relu;
        relu.kind = OpKind::kReLU;
        relu.name = name + "_relu";
        m.addLayer(std::move(relu));
    };
    add_conv("c1", 3, 16, 16);
    add_conv("c2", 16, 16, 16);
    Layer pool;
    pool.kind = OpKind::kMaxPool;
    pool.name = "p1";
    m.addLayer(std::move(pool));
    add_conv("c3", 16, 32, 8);
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 32 * 8 * 8;
    fc.out_features = 10;
    m.addLayer(std::move(fc));
    m.randomizeWeights(123);
    return m;
}

Tensor
makeInput(uint64_t seed, int64_t n = 1)
{
    Tensor in(Shape{n, 3, 16, 16});
    Rng rng(seed);
    in.fillUniform(rng, -1.0f, 1.0f);
    return in;
}

std::string
tempArtifactPath(const char* tag)
{
    return std::string(::testing::TempDir()) + "patdnn_" + tag + ".pdnn";
}

constexpr size_t kArtifactHeader = 4 + 4 + 8;  ///< magic + version + size.

/** The artifact checksum of bytes [begin, end) as artifact.h defines
 * it: FNV-1a-64 over little-endian 8-byte words, the last word
 * zero-padded. */
uint64_t
artifactChecksum(const std::vector<uint8_t>& bytes, size_t begin, size_t end)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = begin; i < end; i += 8) {
        uint64_t word = 0;
        for (size_t j = 0; j < 8 && i + j < end; ++j)
            word |= static_cast<uint64_t>(bytes[i + j]) << (8 * j);
        h ^= word;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Recompute the payload size and checksum after a deliberate payload
 * mutation, so negatives exercise the payload validation rather than
 * tripping the earlier framing and checksum gates. Layout constants
 * are part of the artifact format contract (artifact.h). */
std::vector<uint8_t>
resealArtifact(std::vector<uint8_t> bytes)
{
    uint64_t h = artifactChecksum(bytes, kArtifactHeader, bytes.size() - 8);
    uint64_t payload_size = bytes.size() - kArtifactHeader - 8;
    for (int i = 0; i < 8; ++i)
        bytes[8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(payload_size >> (8 * i));
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(h >> (8 * i));
    return bytes;
}

/** The ErrorCode a serving future failed with (kOk if it resolved). */
ErrorCode
futureErrorCode(std::future<Tensor>& f)
{
    try {
        f.get();
    } catch (const ServeError& e) {
        return e.code();
    }
    return ErrorCode::kOk;
}

/** Both loaders, deserializeModel() and loadModel() over a file of the
 * same bytes, refuse `bytes` with `code` and `slug`. */
void
expectBothLoadersRefuse(const std::vector<uint8_t>& bytes, const DeviceSpec& dev,
                        ErrorCode code, const char* slug, const std::string& what)
{
    std::string path = tempArtifactPath("refused");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    for (bool from_file : {false, true}) {
        auto r = from_file ? loadModel(path, dev) : deserializeModel(bytes, dev);
        const std::string via = (from_file ? "loadModel " : "deserializeModel ") + what;
        ASSERT_FALSE(r.ok()) << via;
        EXPECT_EQ(r.status().code(), code) << via;
        EXPECT_STREQ(r.status().detail(), slug) << via;
    }
    std::remove(path.c_str());
}

TEST(Artifact, RoundTripBitIdenticalOutputs)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    Tensor in = makeInput(9);
    Tensor expect = compiled.run(in);

    std::vector<uint8_t> bytes = serializeModel(compiled);
    Result<std::shared_ptr<CompiledModel>> loaded = deserializeModel(bytes, dev);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value()->kind(), FrameworkKind::kPatDnn);
    EXPECT_EQ(loaded.value()->nodeCount(), compiled.nodeCount());
    EXPECT_EQ(loaded.value()->convNonZeros(), compiled.convNonZeros());

    // Same FKW arrays + same engine configuration => bit-identical.
    Tensor got = loaded.value()->run(in);
    EXPECT_EQ(got.shape(), expect.shape());
    EXPECT_EQ(Tensor::maxAbsDiff(got, expect), 0.0);
}

TEST(Artifact, VggPatternLayersKeepOnlyFkwWeights)
{
    // FKW is a pattern layer's only weight storage: neither the compile
    // nor an artifact load keeps a dense copy next to it, and the
    // weight counters read the same either way.
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto compiled =
        Compiler(dev).compile(buildVGG16(Dataset::kCifar10), FrameworkKind::kPatDnn);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    auto loaded = deserializeModel(serializeModel(*compiled.value()), dev);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    // The values these counters read when pattern layers still held a
    // dense weight copy and counted its non-zeros.
    const int64_t nnz = 1816423, dense = 14710464;
    for (const auto& model : {compiled.value(), loaded.value()}) {
        int fkw_layers = 0;
        for (const CompiledLayerState& st : model->exportState()) {
            if (!st.fkw)
                continue;
            ++fkw_layers;
            EXPECT_EQ(st.weight.shape().rank(), 0) << st.conv.name;
        }
        EXPECT_EQ(fkw_layers, 13);
        EXPECT_EQ(model->convNonZeros(), nnz);
        EXPECT_EQ(model->convDense(), dense);
    }
}

TEST(Artifact, RoundTripAllFrameworkKinds)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    Tensor in = makeInput(10);
    for (auto kind : {FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
                      FrameworkKind::kPatDnnDense, FrameworkKind::kCsrSparse,
                      FrameworkKind::kPatDnn}) {
        CompiledModel compiled(m, kind, dev);
        Tensor expect = compiled.run(in);
        auto loaded = deserializeModel(serializeModel(compiled), dev);
        ASSERT_TRUE(loaded.ok())
            << frameworkName(kind) << ": " << loaded.status().toString();
        EXPECT_EQ(Tensor::maxAbsDiff(loaded.value()->run(in), expect), 0.0)
            << frameworkName(kind);
    }
}

TEST(Artifact, SaveLoadFileRoundTrip)
{
    // The streamed file equals serializeModel()'s bytes. Record and
    // tensor boundaries fall mid-word, so the streaming checksum's carry
    // between chunks is exercised.
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    std::string path = tempArtifactPath("roundtrip");
    Tensor in = makeInput(11);
    for (auto kind : {FrameworkKind::kPatDnn, FrameworkKind::kPatDnnDense}) {
        CompiledModel compiled(m, kind, dev);
        Status saved = saveModel(compiled, path);
        ASSERT_TRUE(saved.ok()) << saved.toString();
        std::vector<uint8_t> file;
        {
            std::FILE* f = std::fopen(path.c_str(), "rb");
            ASSERT_NE(f, nullptr);
            uint8_t chunk[4096];
            size_t got = 0;
            while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
                file.insert(file.end(), chunk, chunk + got);
            std::fclose(f);
        }
        EXPECT_EQ(file, serializeModel(compiled)) << frameworkName(kind);
        Result<std::shared_ptr<CompiledModel>> loaded = loadModel(path, dev);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        EXPECT_EQ(Tensor::maxAbsDiff(loaded.value()->run(in), compiled.run(in)), 0.0)
            << frameworkName(kind);
    }
    std::remove(path.c_str());
}

TEST(Artifact, PatternArtifactSmallerThanDense)
{
    // FKW replaces the dense weight view in the artifact, so a pruned
    // model must serialize smaller than its dense compilation.
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev);
    CompiledModel dense(m, FrameworkKind::kPatDnnDense, dev);
    EXPECT_LT(serializeModel(sparse).size(), serializeModel(dense).size());
}

TEST(Artifact, RejectsCorruptedAndTruncatedBytes)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    const std::vector<uint8_t> bytes = serializeModel(compiled);

    // Every rejection carries a typed code + stable detail slug — the
    // assertions here never match message prose.
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    expectBothLoadersRefuse(bad, dev, ErrorCode::kDataLoss, artifact_detail::kBadMagic,
                            "bad magic");
    bad = bytes;
    bad[4] = 0xEE;
    expectBothLoadersRefuse(bad, dev, ErrorCode::kInvalidArgument,
                            artifact_detail::kUnsupportedVersion, "bad version");
    // Truncation at several depths is distinguishable from a checksum
    // failure without reading the message.
    for (size_t keep : {size_t(3), size_t(15), size_t(20), bytes.size() / 2,
                        bytes.size() - 1})
        expectBothLoadersRefuse({bytes.begin(), bytes.begin() + static_cast<long>(keep)},
                                dev, ErrorCode::kDataLoss,
                                artifact_detail::kTruncatedStream,
                                "keep " + std::to_string(keep));
    // Payload and trailer bit flips must fail the checksum.
    for (size_t at : {size_t(20), bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
        bad = bytes;
        bad[at] ^= 0x01;
        expectBothLoadersRefuse(bad, dev, ErrorCode::kDataLoss,
                                artifact_detail::kChecksumMismatch,
                                "flip " + std::to_string(at));
    }
    // Missing file.
    auto missing = loadModel(tempArtifactPath("does_not_exist"), dev);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
    // A directory opens but has no file size to read.
    auto directory = loadModel(::testing::TempDir(), dev);
    ASSERT_FALSE(directory.ok());
    EXPECT_EQ(directory.status().code(), ErrorCode::kUnavailable);
}

TEST(Session, SharedModelConcurrentSessionsMatchSerial)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnn, dev);

    constexpr int kSessions = 4;
    constexpr int kRequests = 6;
    // Serial references from a fresh session per stream.
    std::vector<std::vector<Tensor>> expect(kSessions);
    for (int s = 0; s < kSessions; ++s) {
        InferenceSession session(model);
        for (int r = 0; r < kRequests; ++r)
            expect[static_cast<size_t>(s)].push_back(
                session.run(makeInput(100 + static_cast<uint64_t>(s * 31 + r))));
    }

    // Same streams, all sessions running concurrently.
    std::vector<std::vector<Tensor>> got(kSessions);
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s)
        threads.emplace_back([&, s] {
            InferenceSession session(model);
            for (int r = 0; r < kRequests; ++r)
                got[static_cast<size_t>(s)].push_back(
                    session.run(makeInput(100 + static_cast<uint64_t>(s * 31 + r))));
        });
    for (auto& t : threads)
        t.join();

    for (int s = 0; s < kSessions; ++s)
        for (int r = 0; r < kRequests; ++r)
            EXPECT_EQ(Tensor::maxAbsDiff(got[static_cast<size_t>(s)][static_cast<size_t>(r)],
                                         expect[static_cast<size_t>(s)][static_cast<size_t>(r)]),
                      0.0)
                << "session " << s << " request " << r;
}

/** flatten -> fc(out=1), a scalar head; `conv_first` puts a conv in
 * front so the graph's shapes chain from the model input. */
Model
scalarHeadModel(bool conv_first)
{
    Model m("scalar-head", "test");
    int64_t features = 3 * 4 * 4;
    if (conv_first) {
        Layer conv;
        conv.kind = OpKind::kConv;
        conv.name = "c1";
        conv.conv = ConvDesc{"c1", 3, 4, 3, 3, 4, 4, 1, 1, 1, 1};
        m.addLayer(std::move(conv));
        features = 4 * 4 * 4;
    }
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = features;
    fc.out_features = 1;
    m.addLayer(std::move(fc));
    m.randomizeWeights(5);
    return m;
}

TEST(Workspace, SingleElementOutputRunsPlanned)
{
    // A 1-element output gets a one-element arena slot; two runs
    // through one session agree.
    auto model = std::make_shared<const CompiledModel>(
        scalarHeadModel(true), FrameworkKind::kPatDnnDense, makeFixedWidthCpuDevice(2));
    ASSERT_TRUE(model->hasMemoryPlan());
    InferenceSession session(model);
    Tensor in(Shape{1, 3, 4, 4});
    Rng rng(6);
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor a = session.run(in);
    Tensor b = session.run(in);
    EXPECT_EQ(a.shape(), Shape({1, 1}));
    EXPECT_EQ(Tensor::maxAbsDiff(a, b), 0.0);
}

TEST(WorkspaceDeathTest, EmptyPlanAborts)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    // Reading the model input through a flatten fails shape inference,
    // so a directly constructed model of it has no plan to run in.
    CompiledModel model(scalarHeadModel(false), FrameworkKind::kPatDnnDense,
                        makeFixedWidthCpuDevice(2));
    ASSERT_FALSE(model.hasMemoryPlan());
    EXPECT_DEATH(Workspace ws(model.memoryPlan()), "fails shape inference");
}

TEST(Session, TracksStats)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);
    InferenceSession session(model);
    session.run(makeInput(1));
    session.run(makeInput(2, /*n=*/3));
    EXPECT_EQ(session.stats().requests, 2);
    EXPECT_EQ(session.stats().samples, 4);
    EXPECT_GT(session.stats().total_ms, 0.0);
}

TEST(Server, DrainsBurstWithCorrectResultsAndStats)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnn, dev);

    constexpr int kBurst = 40;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expect;
    {
        InferenceSession reference(model);
        for (int i = 0; i < kBurst; ++i) {
            inputs.push_back(makeInput(500 + static_cast<uint64_t>(i)));
            expect.push_back(reference.run(inputs.back()));
        }
    }

    ServerOptions opts;
    opts.workers = 3;
    opts.max_batch = 4;
    opts.max_queue = kBurst;
    InferenceServer server(model, opts);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(server.submit(inputs[static_cast<size_t>(i)]));
    for (int i = 0; i < kBurst; ++i) {
        Tensor out = futures[static_cast<size_t>(i)].get();
        EXPECT_EQ(Tensor::maxAbsDiff(out, expect[static_cast<size_t>(i)]), 0.0)
            << "request " << i;
    }
    server.drain();

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, kBurst);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_GT(stats.latency.p50, 0.0);
    EXPECT_GE(stats.latency.p99, stats.latency.p50);
    EXPECT_GT(stats.throughput_rps, 0.0);
    EXPECT_GT(stats.batches, 0);
    EXPECT_LE(stats.batches, kBurst);
    EXPECT_GE(stats.avg_batch, 1.0);
    server.shutdown();
}

TEST(Server, MicroBatchesMultiSampleRequests)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    InferenceSession reference(model);
    Tensor a = makeInput(71, 2), b = makeInput(72, 3), c = makeInput(73, 1);
    Tensor ea = reference.run(a), eb = reference.run(b), ec = reference.run(c);

    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 8;
    opts.start_paused = true;  // Queue everything, then serve: one batch.
    InferenceServer server(model, opts);
    auto fa = server.submit(a);
    auto fb = server.submit(b);
    auto fc = server.submit(c);
    server.start();
    EXPECT_EQ(Tensor::maxAbsDiff(fa.get(), ea), 0.0);
    EXPECT_EQ(Tensor::maxAbsDiff(fb.get(), eb), 0.0);
    EXPECT_EQ(Tensor::maxAbsDiff(fc.get(), ec), 0.0);
    server.drain();
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 3);
    EXPECT_EQ(stats.batches, 1);          // 2+3+1 samples fit one batch.
    EXPECT_DOUBLE_EQ(stats.avg_batch, 6.0);
    server.shutdown();
}

TEST(Server, BoundedQueueRejectsWhenFull)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    ServerOptions opts;
    opts.workers = 1;
    opts.max_queue = 4;
    opts.start_paused = true;  // No draining: the bound must bite.
    InferenceServer server(model, opts);
    std::vector<std::future<Tensor>> accepted;
    for (size_t i = 0; i < opts.max_queue; ++i) {
        std::future<Tensor> f;
        Result<RequestId> admitted = server.trySubmit(makeInput(i), &f);
        ASSERT_TRUE(admitted.ok()) << i << ": " << admitted.status().toString();
        EXPECT_NE(admitted.value(), 0u);
        accepted.push_back(std::move(f));
    }
    std::future<Tensor> overflow;
    Result<RequestId> refused = server.trySubmit(makeInput(99), &overflow);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(server.stats().rejected, 1);
    EXPECT_EQ(server.stats().queue_depth, opts.max_queue);

    server.start();
    for (auto& f : accepted)
        EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    server.drain();
    EXPECT_EQ(server.stats().completed, static_cast<int64_t>(opts.max_queue));
    server.shutdown();
}

TEST(Server, MalformedInputFailsOnlyThatRequest)
{
    // Rank-0, zero-sample and mis-shaped inputs are refused at intake
    // with a typed kInvalidArgument, through the server and the router
    // alike, and every refusal counts. (Per-sample dims other than the
    // model's would send the input conv past the end of its input.)
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(m, FrameworkKind::kPatDnn, dev);
    EXPECT_EQ(model->inputShape(), Shape({1, 3, 16, 16}));
    InferenceServer server(model);
    ShardRouter router;
    ASSERT_TRUE(router.addLocalReplicas("m", model, 2).ok());

    const std::vector<Shape> bad = {Shape{},           Shape{0, 3, 16, 16},
                                    Shape{1, 3, 8, 8}, Shape{1, 3, 16, 8},
                                    Shape{1, 4, 16, 16}, Shape{1, 3, 16},
                                    Shape{1, 3, 16, 16, 1}};
    for (const Shape& shape : bad) {
        SCOPED_TRACE(shape.str());
        std::future<Tensor> f = server.submit(Tensor(shape));
        EXPECT_EQ(futureErrorCode(f), ErrorCode::kInvalidArgument);
        Result<RequestId> r = server.trySubmit(Tensor(shape), &f);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
        Result<RequestId> routed = router.trySubmit("m", 1, Tensor(shape), &f);
        ASSERT_FALSE(routed.ok());
        EXPECT_EQ(routed.code(), ErrorCode::kInvalidArgument);
    }
    EXPECT_EQ(server.stats().rejected, static_cast<int64_t>(2 * bad.size()));
    EXPECT_EQ(server.stats().accepted, 0);

    // Well-formed requests are still served, bit-exact.
    Tensor in = makeInput(78, 2);
    Tensor want = model->run(in);
    const size_t bytes = static_cast<size_t>(want.numel()) * sizeof(float);
    Tensor served = server.submit(in).get();
    ASSERT_EQ(served.shape(), want.shape());
    EXPECT_EQ(std::memcmp(served.data(), want.data(), bytes), 0);
    std::future<Tensor> routed;
    ASSERT_TRUE(router.trySubmit("m", 1, in, &routed).ok());
    Tensor got = routed.get();
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0);
    router.shutdownAll();
}

TEST(ModelRunDeathTest, MisShapedInputAborts)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    CompiledModel model(tinyModel(), FrameworkKind::kPatDnn, makeFixedWidthCpuDevice(2));
    EXPECT_DEATH(model.run(Tensor(Shape{1, 3, 8, 8})), "is not a batch of");
    EXPECT_DEATH(model.run(Tensor(Shape{1, 4, 16, 16})), "is not a batch of");
}

TEST(Server, SubmitAfterShutdownFails)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);
    InferenceServer server(model);
    server.shutdown();
    std::future<Tensor> f;
    Result<RequestId> refused = server.trySubmit(makeInput(1), &f);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), ErrorCode::kUnavailable);
    std::future<Tensor> late = server.submit(makeInput(2));
    EXPECT_EQ(futureErrorCode(late), ErrorCode::kUnavailable);
}

TEST(Server, LoadedArtifactServesBurst)
{
    // The full deployment path: compile -> save -> load -> serve,
    // driven end-to-end through the Compiler + Result facade.
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    Result<std::shared_ptr<CompiledModel>> built = Compiler(dev).compile(m);
    ASSERT_TRUE(built.ok()) << built.status().toString();
    std::string path = tempArtifactPath("serve_e2e");
    Status saved = saveModel(*built.value(), path);
    ASSERT_TRUE(saved.ok()) << saved.toString();
    Result<std::shared_ptr<CompiledModel>> load_result = loadModel(path, dev);
    ASSERT_TRUE(load_result.ok()) << load_result.status().toString();
    std::shared_ptr<CompiledModel> loaded = std::move(load_result).value();
    std::remove(path.c_str());

    auto server = std::make_unique<InferenceServer>(loaded);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(server->submit(makeInput(300 + static_cast<uint64_t>(i))));
    InferenceSession reference(loaded);
    for (int i = 0; i < 32; ++i) {
        Tensor expect = reference.run(makeInput(300 + static_cast<uint64_t>(i)));
        EXPECT_EQ(Tensor::maxAbsDiff(futures[static_cast<size_t>(i)].get(), expect),
                  0.0);
    }
    server->drain();
    EXPECT_EQ(server->stats().completed, 32);
    EXPECT_GT(server->stats().latency.p99, 0.0);
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation
// ---------------------------------------------------------------------------

TEST(Server, ExpiredDeadlineIsShedBeforeDispatch)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.start_paused = true;  // Stage both requests before serving.
    opts.clock = clock;
    InferenceServer server(model, opts);

    SubmitOptions expired;
    expired.deadline = clock->now();  // Already due when a worker looks.
    std::future<Tensor> dead = server.submit(makeInput(1), expired);
    std::future<Tensor> alive = server.submit(makeInput(2));
    server.start();

    EXPECT_EQ(futureErrorCode(dead), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(alive.get().shape(), Shape({1, 10}));
    server.drain();

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.deadline_exceeded, 1);
    EXPECT_EQ(stats.cancelled, 0);
    server.shutdown();
}

TEST(Server, CancelRemovesOnlyQueuedRequests)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    ServerOptions opts;
    opts.workers = 1;
    opts.start_paused = true;
    InferenceServer server(model, opts);

    RequestId id = 0;
    std::future<Tensor> f = server.submit(makeInput(1), {}, &id);
    ASSERT_NE(id, 0u);
    EXPECT_TRUE(server.cancel(id));
    EXPECT_FALSE(server.cancel(id));   // Already removed.
    EXPECT_FALSE(server.cancel(999));  // Never issued.
    EXPECT_EQ(futureErrorCode(f), ErrorCode::kCancelled);

    server.start();
    RequestId id2 = 0;
    std::future<Tensor> g = server.submit(makeInput(2), {}, &id2);
    EXPECT_EQ(g.get().shape(), Shape({1, 10}));
    server.drain();
    EXPECT_FALSE(server.cancel(id2));  // Completed: too late to cancel.

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.accepted, 2);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Linger batching under a fake clock (deterministic, no sleeps)
// ---------------------------------------------------------------------------

TEST(Server, LingerFlushesAtExactlyMaxLinger)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 4;
    opts.max_linger_ms = 10.0;
    opts.clock = clock;
    InferenceServer server(model, opts);

    std::future<Tensor> f = server.submit(makeInput(1));
    // The worker popped the request and armed the linger wait.
    clock->waitForRegistrations(1);
    int64_t r = clock->registrations();
    clock->advanceMs(9.0);  // One ms short of the window...
    clock->waitForRegistrations(r + 1);  // ...worker re-evaluated, re-armed.
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
    EXPECT_EQ(server.stats().batches, 0);

    clock->advanceMs(1.0);  // Exactly max_linger: the batch must flush.
    EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    server.drain();
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.batches, 1);
    EXPECT_DOUBLE_EQ(stats.avg_batch, 1.0);
    server.shutdown();
}

// The serve spans are stamped from the server's injectable clock, so
// under a FakeClock the batch_form span must cover the linger window
// EXACTLY — not approximately — from first pop to flush.
TEST(Server, BatchFormSpanCoversExactlyTheLingerWindow)
{
    if (!Tracer::compiledIn())
        GTEST_SKIP() << "built with PATDNN_ENABLE_TRACING=OFF";

    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 4;
    opts.max_linger_ms = 10.0;
    opts.clock = clock;
    InferenceServer server(model, opts);

    Tracer::clear();
    Tracer::setEnabled(true);  // Before submit: stamps the admission time.
    std::future<Tensor> f = server.submit(makeInput(1));
    clock->waitForRegistrations(1);
    int64_t r = clock->registrations();
    clock->advanceMs(9.0);
    clock->waitForRegistrations(r + 1);
    clock->advanceMs(1.0);  // Exactly max_linger: flush.
    EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    server.drain();
    Tracer::setEnabled(false);
    server.shutdown();

    const TraceEvent* batch_form = nullptr;
    const TraceEvent* queue_wait = nullptr;
    std::vector<TraceEvent> events = Tracer::collect();
    for (const TraceEvent& e : events) {
        if (std::strcmp(e.name, "batch_form") == 0)
            batch_form = &e;
        if (std::strcmp(e.name, "queue_wait") == 0)
            queue_wait = &e;
    }
    ASSERT_NE(batch_form, nullptr);
    // First pop to flush is the whole 10 ms linger window, on the dot:
    // 9 ms advance + 1 ms advance, and the fake clock never moves
    // otherwise.
    EXPECT_EQ(batch_form->dur_ns, 10'000'000);
    EXPECT_STREQ(batch_form->arg_name, "rows");
    EXPECT_EQ(batch_form->arg_value, 1);
    // The request's queue wait is also clock-stamped and can only be
    // the same window or less (popped at or after admission).
    ASSERT_NE(queue_wait, nullptr);
    EXPECT_GE(queue_wait->dur_ns, 0);
    EXPECT_LE(queue_wait->dur_ns, 10'000'000);
    Tracer::clear();
}

// ServerStats latencies come from a lock-free histogram.
TEST(Server, StatsLatencyHistogramCountsEveryCompletion)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    ServerOptions opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.max_linger_ms = 0.5;
    InferenceServer server(model, opts);

    constexpr int kBurst = 12;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(server.submit(makeInput(static_cast<uint64_t>(i))));
    for (auto& f : futures)
        EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    server.drain();

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, kBurst);
    EXPECT_EQ(stats.latency_hist.count, kBurst);
    EXPECT_GT(stats.latency_hist.min, 0.0);
    EXPECT_GE(stats.latency_hist.max, stats.latency_hist.min);
    EXPECT_GE(stats.latency.p99, stats.latency.p50);
    EXPECT_GE(stats.latency.p999, stats.latency.p99);
    EXPECT_GT(stats.latency_hist.mean(), 0.0);
    server.shutdown();
}

TEST(Server, FullBatchPreemptsLingerAndBurstFormsFullBatches)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 4;
    opts.max_linger_ms = 1000.0;  // Would stall forever if linger decided.
    opts.start_paused = true;
    opts.clock = clock;
    InferenceServer server(model, opts);

    // A burst of 2 x max_batch requests staged before serving starts.
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(server.submit(makeInput(static_cast<uint64_t>(i))));
    server.start();
    for (auto& f : futures)
        EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    server.drain();

    // Full batches dispatched without a single timed wait: max_batch
    // preempts the linger window.
    EXPECT_EQ(clock->registrations(), 0);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 8);
    EXPECT_EQ(stats.batches, 2);  // >= 2 full batches from the burst.
    EXPECT_DOUBLE_EQ(stats.avg_batch, 4.0);
    server.shutdown();
}

TEST(Server, SparseStreamLingersToSingletonBatches)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 4;
    opts.max_linger_ms = 10.0;
    opts.clock = clock;
    InferenceServer server(model, opts);

    // One request per 2 x linger window: every batch must flush at the
    // window with exactly one sample (sparse streams still make
    // progress; they just never find a batchmate).
    constexpr int kRequests = 4;
    for (int i = 0; i < kRequests; ++i) {
        int64_t r = clock->registrations();
        std::future<Tensor> f =
            server.submit(makeInput(static_cast<uint64_t>(100 + i)));
        clock->waitForRegistrations(r + 1);
        clock->advanceMs(20.0);  // 2 x max_linger between arrivals.
        EXPECT_EQ(f.get().shape(), Shape({1, 10}));
    }
    server.drain();
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.batches, kRequests);  // Batch size 1 throughout.
    EXPECT_DOUBLE_EQ(stats.avg_batch, 1.0);
    server.shutdown();
}

TEST(Server, ZeroLingerReproducesImmediateDispatch)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(
        m, FrameworkKind::kPatDnnDense, dev);

    auto clock = std::make_shared<FakeClock>();
    ServerOptions opts;
    opts.workers = 1;
    opts.max_batch = 4;
    opts.max_linger_ms = 0.0;  // Legacy behaviour: serve what is queued.
    opts.clock = clock;
    InferenceServer server(model, opts);

    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(server.submit(makeInput(static_cast<uint64_t>(i))).get().shape(),
                  Shape({1, 10}));
    server.drain();
    // The fake clock never advanced and the server never armed a timed
    // wait: zero linger cannot stall a request stream.
    EXPECT_EQ(clock->registrations(), 0);
    EXPECT_EQ(server.stats().completed, 5);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Artifact provenance + file-load negative paths
// ---------------------------------------------------------------------------

TEST(Artifact, RecordsCompileOptionsAndFingerprint)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions copts;
    copts.pattern_count = 6;
    copts.connectivity_rate = 4.25;
    copts.seed = 77;
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev, copts);

    ArtifactInfo info;
    auto loaded = deserializeModel(serializeModel(compiled), dev,
                                   ArtifactLoadOptions{}, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(info.version, kModelArtifactVersion);
    EXPECT_EQ(info.pool_width, dev.threads);
    EXPECT_FALSE(info.gpu_like);
    EXPECT_EQ(info.tile_budget_kb, dev.tile_budget_kb);
    EXPECT_EQ(info.compile_opts.pattern_count, 6);
    EXPECT_DOUBLE_EQ(info.compile_opts.connectivity_rate, 4.25);
    EXPECT_EQ(info.compile_opts.seed, 77u);
    EXPECT_EQ(loaded.value()->compileOptions().pattern_count, 6);
    EXPECT_TRUE(info.warnings.empty()) << info.warnings.front();
}

TEST(Artifact, DeviceFingerprintMismatchDiagnostics)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bytes = serializeModel(compiled);

    // Scheduling-model mismatch is always an error: the tuned plan does
    // not transfer between CPU and GPU-like block scheduling. The
    // rejection carries a typed code + slug, no message matching.
    DeviceSpec gpuish = makeFixedWidthCpuDevice(2);
    gpuish.gpu_like = true;
    auto rejected = deserializeModel(bytes, gpuish);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), ErrorCode::kDeviceMismatch);
    EXPECT_STREQ(rejected.status().detail(),
                 artifact_detail::kFingerprintMismatch);

    // Pool-width mismatch: diagnostic warning by default...
    DeviceSpec wide = makeFixedWidthCpuDevice(dev.threads + 2);
    ArtifactInfo info;
    auto loaded = deserializeModel(bytes, wide, ArtifactLoadOptions{}, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    bool warned = false;
    for (const std::string& w : info.warnings)
        warned = warned ||
                 w.find("compiled for pool width " +
                        std::to_string(dev.threads)) != std::string::npos;
    EXPECT_TRUE(warned);

    // ...and a typed kDeviceMismatch rejection under strict loading.
    ArtifactLoadOptions strict;
    strict.require_matching_fingerprint = true;
    auto strict_rejected = deserializeModel(bytes, wide, strict);
    ASSERT_FALSE(strict_rejected.ok());
    EXPECT_EQ(strict_rejected.status().code(), ErrorCode::kDeviceMismatch);
    EXPECT_STREQ(strict_rejected.status().detail(),
                 artifact_detail::kFingerprintMismatch);
}

// ---------------------------------------------------------------------------
// Artifact memory plan
// ---------------------------------------------------------------------------

TEST(Artifact, RestoredModelDerivesTheCompiledMemoryPlan)
{
    // The artifact stores no plan: the restored model derives it from
    // the layer records, and it is the compiled plan, slot for slot.
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    ASSERT_TRUE(compiled.hasMemoryPlan());

    auto loaded = deserializeModel(serializeModel(compiled), dev);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    ASSERT_TRUE(loaded.value()->hasMemoryPlan());
    const MemoryPlan& want = compiled.memoryPlan();
    const MemoryPlan& got = loaded.value()->memoryPlan();
    ASSERT_EQ(got.slotCount(), want.slotCount());
    EXPECT_EQ(got.arenaElemsPerSample(), want.arenaElemsPerSample());
    EXPECT_EQ(got.sumElemsPerSample(), want.sumElemsPerSample());
    EXPECT_EQ(got.alignElems(), want.alignElems());
    for (size_t i = 0; i < want.slotCount(); ++i) {
        EXPECT_EQ(got.slot(i).planned, want.slot(i).planned) << i;
        EXPECT_EQ(got.slot(i).offset_elems, want.slot(i).offset_elems) << i;
        EXPECT_EQ(got.slot(i).size_elems, want.slot(i).size_elems) << i;
        EXPECT_EQ(got.slot(i).def, want.slot(i).def) << i;
        EXPECT_EQ(got.slot(i).last_use, want.slot(i).last_use) << i;
    }

    // A session over the restored model runs bit-exact against the
    // original compile.
    Tensor in = makeInput(41, 2);
    Tensor expect = compiled.run(in);
    InferenceSession session(loaded.value());
    Tensor out = session.run(in);
    ASSERT_EQ(out.shape(), expect.shape());
    EXPECT_EQ(std::memcmp(out.data(), expect.data(),
                          static_cast<size_t>(out.numel()) * sizeof(float)),
              0);
}

TEST(Artifact, V5RoundTripRestoresGemmBlocking)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions opts;
    opts.default_tuning.gemm_kc = 96;
    opts.default_tuning.gemm_nc = 48;
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev, opts);

    // The artifact carries the dense packed-GEMM blocking.
    auto loaded = deserializeModel(serializeModel(compiled), dev);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    int checked = 0;
    for (const CompiledLayerState& st : loaded.value()->exportState()) {
        if (!st.live || st.kind != OpKind::kConv)
            continue;
        EXPECT_EQ(st.tuning.gemm_kc, 96);
        EXPECT_EQ(st.tuning.gemm_nc, 48);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Artifact quantization records
// ---------------------------------------------------------------------------

TEST(Artifact, V6RoundTripRestoresQuantizationBitExactly)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    opts.calibration.method = CalibrationMethod::kPercentile;
    opts.calibration.percentile = 99.5;
    opts.calibration.samples = 3;
    opts.calibration.seed = 777;
    CompiledModel compiled(m, FrameworkKind::kPatDnnDense, dev, opts);

    ArtifactInfo info;
    auto loaded = deserializeModel(serializeModel(compiled), dev,
                                   ArtifactLoadOptions{}, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(info.version, kModelArtifactVersion);
    // Quantization provenance survives the header round trip.
    EXPECT_EQ(info.compile_opts.precision, Precision::kInt8);
    EXPECT_EQ(info.compile_opts.calibration.method,
              CalibrationMethod::kPercentile);
    EXPECT_EQ(info.compile_opts.calibration.percentile, 99.5);
    EXPECT_EQ(info.compile_opts.calibration.samples, 3);
    EXPECT_EQ(info.compile_opts.calibration.seed, 777u);

    // Per-layer scales restore exactly: the stored f32 weights are
    // re-quantized against them, so restored execution is bit-exact.
    std::vector<CompiledLayerState> want = compiled.exportState();
    std::vector<CompiledLayerState> got = loaded.value()->exportState();
    ASSERT_EQ(want.size(), got.size());
    int quantized = 0;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].quantized, want[i].quantized) << i;
        EXPECT_EQ(got[i].act_scale, want[i].act_scale) << i;
        EXPECT_EQ(got[i].weight_scales, want[i].weight_scales) << i;
        quantized += got[i].quantized ? 1 : 0;
    }
    EXPECT_EQ(quantized, 3) << "all three tiny-model convs quantize";

    Tensor in = makeInput(51, 2);
    Tensor expect = compiled.run(in);
    Tensor out = loaded.value()->run(in);
    ASSERT_EQ(out.shape(), expect.shape());
    EXPECT_EQ(std::memcmp(out.data(), expect.data(),
                          static_cast<size_t>(out.numel()) * sizeof(float)),
              0)
        << "restored quantized model diverges from the in-memory compile";
}

TEST(Artifact, CorruptQuantRecordIsDataLossWithQuantSlug)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    CompiledModel compiled(m, FrameworkKind::kPatDnnDense, dev, opts);
    std::vector<uint8_t> bytes = serializeModel(compiled);

    // Locate the first quantized layer's act_scale by its f64 byte
    // pattern (unique in the payload with overwhelming probability);
    // the scale count and scale list follow it by the format contract.
    float act_scale = 0.0f;
    for (const CompiledLayerState& st : compiled.exportState())
        if (st.quantized) {
            act_scale = st.act_scale;
            break;
        }
    ASSERT_GT(act_scale, 0.0f);
    double as64 = static_cast<double>(act_scale);
    uint8_t pat[8];
    std::memcpy(pat, &as64, 8);
    size_t at = 0;
    for (at = 16; at + 8 < bytes.size(); ++at)
        if (std::memcmp(bytes.data() + at, pat, 8) == 0)
            break;
    ASSERT_LT(at + 8, bytes.size()) << "act_scale bytes not found";

    auto expect_quant_slug = [&](std::vector<uint8_t> bad, const char* what) {
        auto r = deserializeModel(resealArtifact(std::move(bad)), dev);
        ASSERT_FALSE(r.ok()) << what;
        EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss) << what;
        EXPECT_STREQ(r.status().detail(), artifact_detail::kBadQuantRecord)
            << what;
    };
    {
        // Negative activation scale: sign bit of the f64.
        std::vector<uint8_t> bad = bytes;
        bad[at + 7] |= 0x80;
        expect_quant_slug(std::move(bad), "negative act_scale");
    }
    {
        // Zero activation scale.
        std::vector<uint8_t> bad = bytes;
        std::memset(bad.data() + at, 0, 8);
        expect_quant_slug(std::move(bad), "zero act_scale");
    }
    {
        // Implausible scale count (the u32 right after act_scale):
        // parses as a truncated quant record.
        std::vector<uint8_t> bad = bytes;
        std::memset(bad.data() + at + 8, 0xFF, 4);
        expect_quant_slug(std::move(bad), "huge scale count");
    }
    {
        // Negative per-channel weight scale (first scale follows the
        // count u32).
        std::vector<uint8_t> bad = bytes;
        bad[at + 8 + 4 + 7] |= 0x80;
        expect_quant_slug(std::move(bad), "negative weight scale");
    }
}

TEST(Artifact, QuantRecordOnAKindThatRunsNoInt8IsRefused)
{
    // A kTvmLike int8 one-conv artifact relabelled as a kind whose
    // engines never run int8: loading it would silently drop the quant
    // record, so the loader refuses it instead.
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    CompiledModel compiled(singleConvModel(ConvDesc{"q", 8, 8, 3, 3, 8, 8, 1, 1, 1, 1}, 7),
                           FrameworkKind::kTvmLike, dev, opts);
    ASSERT_TRUE(compiled.layerState(compiled.outputNode())->quantized);
    const std::vector<uint8_t> bytes = serializeModel(compiled);
    ASSERT_TRUE(deserializeModel(bytes, dev).ok());
    for (auto kind : {FrameworkKind::kTfliteLike, FrameworkKind::kCsrSparse,
                      FrameworkKind::kPatDnn}) {
        std::vector<uint8_t> bad = bytes;
        // The framework kind is the payload's first u32.
        bad[kArtifactHeader] = static_cast<uint8_t>(kind);
        auto r = deserializeModel(resealArtifact(std::move(bad)), dev);
        ASSERT_FALSE(r.ok()) << frameworkName(kind);
        EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss) << frameworkName(kind);
        EXPECT_STREQ(r.status().detail(), artifact_detail::kBadQuantRecord)
            << frameworkName(kind);
    }
}

// ---------------------------------------------------------------------------
// One artifact format; artifact bytes as untrusted input
// ---------------------------------------------------------------------------

/** `n` little-endian bytes of `v`, as the artifact stores integers. */
std::vector<uint8_t>
le(uint64_t v, size_t n = 8)
{
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
    return out;
}

std::vector<uint8_t>
concat(std::initializer_list<std::vector<uint8_t>> parts)
{
    std::vector<uint8_t> out;
    for (const auto& p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

/** Offset of the only occurrence of `needle` in `hay`; npos when it is
 * absent or ambiguous. */
size_t
findOnce(const std::vector<uint8_t>& hay, const std::vector<uint8_t>& needle)
{
    auto first = std::search(hay.begin(), hay.end(), needle.begin(), needle.end());
    if (first == hay.end() ||
        std::search(first + 1, hay.end(), needle.begin(), needle.end()) != hay.end())
        return std::string::npos;
    return static_cast<size_t>(first - hay.begin());
}

void
poke(std::vector<uint8_t>& bytes, size_t at, uint64_t v, size_t n = 8)
{
    std::vector<uint8_t> b = le(v, n);
    std::copy(b.begin(), b.end(), bytes.begin() + static_cast<long>(at));
}

/** Offset of the named conv's ConvDesc fields; field i of (cin, cout,
 * kh, kw, h, w, stride, pad, dilation, groups) is at +8*i, and the
 * layer's input count follows the last one. */
size_t
convFieldsAt(const std::vector<uint8_t>& bytes, const std::string& name)
{
    std::vector<uint8_t> needle = le(name.size(), 4);
    needle.insert(needle.end(), name.begin(), name.end());
    size_t at = findOnce(bytes, needle);
    return at == std::string::npos ? at : at + needle.size();
}

/** A resealed (well-framed, checksum-valid) mutation must be refused
 * as a malformed payload before any engine is built. */
void
expectMalformed(std::vector<uint8_t> bad, const DeviceSpec& dev)
{
    auto r = deserializeModel(resealArtifact(std::move(bad)), dev);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kDataLoss) << r.status().toString();
    EXPECT_STREQ(r.status().detail(), artifact_detail::kMalformedPayload)
        << r.status().toString();
}

TEST(Artifact, RejectsEveryOtherVersion)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    const std::vector<uint8_t> bytes = serializeModel(compiled);
    for (uint32_t version :
         {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 14u, 0xFFFFFFFFu}) {
        std::vector<uint8_t> bad = bytes;
        poke(bad, 4, version, 4);
        expectBothLoadersRefuse(bad, dev, ErrorCode::kInvalidArgument,
                                artifact_detail::kUnsupportedVersion,
                                "version " + std::to_string(version));
    }
}

TEST(Artifact, UnknownFrameworkKindIsMalformed)
{
    // The kind is the payload's first u32. 5 is one past the last
    // FrameworkKind (it was kPatDnn before v11 dropped a kind).
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    const std::vector<uint8_t> bytes = serializeModel(compiled);
    for (uint32_t kind : {5u, 0xFFFFFFFFu}) {
        std::vector<uint8_t> bad = bytes;
        poke(bad, kArtifactHeader, kind, 4);
        expectBothLoadersRefuse(resealArtifact(std::move(bad)), dev, ErrorCode::kDataLoss,
                                artifact_detail::kMalformedPayload,
                                "kind " + std::to_string(kind));
    }
}

/** A small model built by hand through the restore constructor: fixed
 * weights, explicit tuning, provenance and tuned ISA, one FKW (pattern)
 * conv, one int8 dense conv and a dead slot, so its serialized bytes
 * depend on nothing but the artifact layout. */
std::shared_ptr<CompiledModel>
formatPinModel()
{
    auto ramp = [](Shape shape) {
        Tensor t(std::move(shape));
        for (int64_t i = 0; i < t.numel(); ++i)
            t[i] = 0.0625f * static_cast<float>(i % 13) - 0.375f;
        return t;
    };
    TuneParams tune;
    tune.permute = LoopPermutation::kCoHWCi;
    tune.tile_oh = 2;
    tune.gemm_kc = 16;
    tune.gemm_nc = 8;
    OptSwitches sw;
    sw.reorder = true;
    sw.lre = true;

    std::vector<CompiledLayerState> layers(5);
    // Node 0: pattern conv 2->2, 3x3 on 4x4, from the model input.
    CompiledLayerState& pat = layers[0];
    pat.live = true;
    pat.conv = ConvDesc{"pin_pattern", 2, 2, 3, 3, 4, 4, 1, 1, 1, 1};
    pat.inputs = {-1};
    pat.fused_relu = true;
    pat.bias = ramp(Shape{2});
    pat.tuning = tune;
    pat.opts = sw;
    pat.fkw.emplace();
    pat.fkw->filters = 2;
    pat.fkw->in_channels = 2;
    pat.fkw->kh = 3;
    pat.fkw->kw = 3;
    pat.fkw->entries = 4;
    pat.fkw->patterns = {Pattern(3, 3, 0x3Au)};
    pat.fkw->offset = {0, 1, 2};
    pat.fkw->reorder = {1, 0};
    pat.fkw->index = {0, 1};
    pat.fkw->stride = {0, 1, 0, 1};
    pat.fkw->weights = {0.5f, -0.25f, 0.125f, 1.0f, -0.5f, 0.75f, 0.25f, -1.0f};
    pat.fkw->groups = {FilterGroup{0, 2, 1}};
    // Node 1: a dead slot. Node 2: int8 dense conv 2->3.
    CompiledLayerState& i8 = layers[2];
    i8.live = true;
    i8.conv = ConvDesc{"pin_int8", 2, 3, 3, 3, 4, 4, 1, 1, 1, 1};
    i8.inputs = {0};
    i8.weight = ramp(Shape{3, 2, 3, 3});
    i8.bias = ramp(Shape{3});
    i8.tuning = tune;
    i8.opts = sw;
    i8.quantized = true;
    i8.act_scale = 0.03125f;
    i8.weight_scales = {0.0078125f, 0.015625f, 0.0234375f};
    // Node 3: flatten. Node 4: FC 48 -> 2.
    layers[3].live = true;
    layers[3].kind = OpKind::kFlatten;
    layers[3].inputs = {2};
    CompiledLayerState& fc = layers[4];
    fc.live = true;
    fc.kind = OpKind::kFullyConnected;
    fc.inputs = {3};
    fc.in_features = 48;
    fc.out_features = 2;
    fc.weight = ramp(Shape{2, 48});
    fc.bias = ramp(Shape{2});

    CompileOptions co;
    co.pattern_count = 4;
    co.connectivity_rate = 2.5;
    co.first_layer_rate = 1.25;
    co.opts = sw;
    co.seed = 9;
    co.precision = Precision::kInt8;
    co.calibration.method = CalibrationMethod::kPercentile;
    co.calibration.percentile = 99.0;
    co.calibration.samples = 3;
    co.calibration.seed = 11;
    return std::make_shared<CompiledModel>(FrameworkKind::kPatDnnDense,
                                           makeFixedWidthCpuDevice(2),
                                           std::move(layers), 4, SimdIsa::kAvx2, co);
}

TEST(Artifact, FormatPinnedForTheCurrentVersion)
{
    // Any change to the byte layout must bump kModelArtifactVersion and
    // re-pin these values: loaders refuse every other version. `h` is a
    // byte-wise FNV-1a fingerprint of the whole artifact; the trailer
    // holds the word-wise payload checksum.
    ASSERT_EQ(kModelArtifactVersion, 13u);
    std::shared_ptr<CompiledModel> model = formatPinModel();
    std::vector<uint8_t> bytes = serializeModel(*model);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(bytes.size(), 1697u);
    EXPECT_EQ(h, 0x3bc10fa61c641cf8ULL);
    EXPECT_EQ(resealArtifact(bytes), bytes);
    auto loaded = deserializeModel(bytes, makeFixedWidthCpuDevice(2));
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(serializeModel(*loaded.value()), bytes);
}

TEST(Artifact, EveryPayloadAndTrailerBitFlipFailsTheChecksum)
{
    // Not resealed: each single-bit flip of a payload or trailer byte
    // must be caught by the checksum before the payload is parsed.
    const std::vector<uint8_t> bytes = serializeModel(*formatPinModel());
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    for (size_t at = kArtifactHeader; at < bytes.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = bytes;
            bad[at] ^= static_cast<uint8_t>(1u << bit);
            auto r = deserializeModel(bad, dev);
            ASSERT_FALSE(r.ok()) << "byte " << at << " bit " << bit;
            ASSERT_STREQ(r.status().detail(), artifact_detail::kChecksumMismatch)
                << "byte " << at << " bit " << bit;
        }
    }
}

TEST(Artifact, InflatedLayerCountIsRefusedWithoutAllocating)
{
    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bytes = serializeModel(compiled);
    // The fixed-size payload prefix ends with the output-node id and the
    // layer count; the layer table starts right after it.
    const size_t count_at = kArtifactHeader + 77;
    ASSERT_EQ(std::vector<uint8_t>(bytes.begin() + count_at,
                                   bytes.begin() + count_at + 4),
              le(compiled.nodeCount(), 4));

    // 105 bytes claiming 2^20 layers: header, provenance, output node,
    // count, checksum and no layer records at all.
    std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + static_cast<long>(count_at) + 4);
    poke(bad, count_at, 1u << 20, 4);
    bad.resize(bad.size() + 8);
    ASSERT_EQ(bad.size(), 105u);
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    expectMalformed(bad, dev);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024) << "KB of peak RSS";

    // A count the bytes could hold, but the payload ends inside the
    // table: every record of the model, and one more claimed.
    bad = bytes;
    poke(bad, count_at, compiled.nodeCount() + 1, 4);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, ConvWeightShapeDisagreeingWithDescIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnnDense, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // c2's weight {16, 16, 3, 3} re-declared as {16, 16, 9, 1}: same
    // element count, so the record stays well framed.
    size_t dims = findOnce(bad, concat({le(4, 4), le(16), le(16), le(3), le(3)}));
    ASSERT_NE(dims, std::string::npos);
    poke(bad, dims + 4 + 16, 9);
    poke(bad, dims + 4 + 24, 1);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, ConvBiasShapeDisagreeingWithCoutIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnnDense, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // c3's bias {32} cut down to {16} (16 floats dropped).
    size_t dims = findOnce(bad, concat({le(1, 4), le(32)}));
    ASSERT_NE(dims, std::string::npos);
    poke(bad, dims + 4, 16);
    size_t floats = dims + 4 + 8;
    bad.erase(bad.begin() + static_cast<long>(floats),
              bad.begin() + static_cast<long>(floats + 16 * sizeof(float)));
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, FkwStorageDisagreeingWithDescIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // c3's FKW header {filters 32, in_channels 16, 3, 3}: 17 input
    // channels still validate as FKW but disagree with the ConvDesc.
    size_t fkw = findOnce(bad, concat({le(32), le(16), le(3), le(3)}));
    ASSERT_NE(fkw, std::string::npos);
    poke(bad, fkw + 8, 17);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, FkwConvCarryingADenseWeightIsMalformed)
{
    // One weight representation per layer: a conv with FKW storage
    // carries no dense weight, and a record with both is refused.
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<CompiledLayerState> state = compiled.exportState();
    auto c3 = std::find_if(state.begin(), state.end(), [](const CompiledLayerState& st) {
        return st.live && st.conv.name == "c3";
    });
    ASSERT_NE(c3, state.end());
    ASSERT_TRUE(c3->fkw);
    ASSERT_EQ(c3->weight.shape().rank(), 0);
    c3->weight = fkwToDense(*c3->fkw);
    Status direct = CompiledModel::checkGraph(state, compiled.outputNode());
    EXPECT_EQ(direct.code(), ErrorCode::kInvalidArgument) << direct.toString();

    // The same record through the loader: c3's absent weight (a bare
    // zero rank) precedes its bias {32}, the FKW flag and the FKW header.
    std::vector<uint8_t> bad = serializeModel(compiled);
    size_t fkw = findOnce(bad, concat({le(32), le(16), le(3), le(3)}));
    ASSERT_NE(fkw, std::string::npos);
    const size_t weight_at = fkw - 1 - (4 + 8 + 32 * sizeof(float)) - 4;
    ASSERT_EQ(std::vector<uint8_t>(bad.begin() + static_cast<long>(weight_at),
                                   bad.begin() + static_cast<long>(weight_at) + 16),
              concat({le(0, 4), le(1, 4), le(32)}));
    std::vector<uint8_t> dense = concat({le(4, 4), le(32), le(16), le(3), le(3)});
    const auto* w = reinterpret_cast<const uint8_t*>(c3->weight.data());
    dense.insert(dense.end(), w, w + c3->weight.numel() * sizeof(float));
    bad.erase(bad.begin() + static_cast<long>(weight_at),
              bad.begin() + static_cast<long>(weight_at) + 4);
    bad.insert(bad.begin() + static_cast<long>(weight_at), dense.begin(), dense.end());
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, FcWeightShapeIsNotOutByInIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    size_t dims = findOnce(bad, concat({le(2, 4), le(10), le(32 * 8 * 8)}));
    ASSERT_NE(dims, std::string::npos);
    poke(bad, dims + 4, 32 * 8 * 8);
    poke(bad, dims + 12, 10);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, WrongInputCountIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // c2 with its producer listed twice: a conv takes exactly one input.
    size_t count = convFieldsAt(bad, "c2");
    ASSERT_NE(count, std::string::npos);
    count += 80;
    std::vector<uint8_t> producer(bad.begin() + static_cast<long>(count) + 4,
                                  bad.begin() + static_cast<long>(count) + 8);
    poke(bad, count, 2, 4);
    bad.insert(bad.begin() + static_cast<long>(count) + 8, producer.begin(),
               producer.end());
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, InputThatIsNotALiveEarlierNodeIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bytes = serializeModel(compiled);
    // The fused ReLU between c1 and c2 left a dead slot behind.
    std::vector<CompiledLayerState> state = compiled.exportState();
    int dead = -1;
    for (size_t id = 0; id < state.size() && state[id].conv.name != "c2"; ++id)
        if (!state[id].live)
            dead = static_cast<int>(id);
    ASSERT_GE(dead, 0);
    size_t input = convFieldsAt(bytes, "c2");
    ASSERT_NE(input, std::string::npos);
    input += 80 + 4;
    for (uint32_t src : {static_cast<uint32_t>(dead), 0xFFFFFFFEu}) {
        std::vector<uint8_t> bad = bytes;
        poke(bad, input, src, 4);
        expectMalformed(std::move(bad), dev);
    }
}

TEST(Artifact, ConvCinDisagreeingWithProducerIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    size_t fields = convFieldsAt(bad, "c2");
    ASSERT_NE(fields, std::string::npos);
    poke(bad, fields, 8);  // cin 16 -> 8; c1 produces 16 channels.
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, FcInFeaturesDisagreeingWithFlattenIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // pool_k, pool_stride, in_features, out_features of the FC record.
    size_t fields = findOnce(bad, concat({le(2), le(2), le(32 * 8 * 8), le(10)}));
    ASSERT_NE(fields, std::string::npos);
    poke(bad, fields + 16, 32 * 8 * 4);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, AddOperandShapeMismatchIsMalformed)
{
    Model m("residual", "test");
    Layer c1;
    c1.kind = OpKind::kConv;
    c1.conv = ConvDesc{"r1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(c1);
    Layer c2 = c1;
    c2.conv = ConvDesc{"r2", 8, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(c2);
    Layer add;
    add.kind = OpKind::kAdd;
    add.residual_from = 0;
    m.addLayer(add);
    Layer fl;
    fl.kind = OpKind::kFlatten;
    m.addLayer(fl);
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.in_features = 8 * 8 * 8;
    fc.out_features = 4;
    m.addLayer(fc);
    m.randomizeWeights(3);
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(m, FrameworkKind::kPatDnnDense, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    ASSERT_TRUE(deserializeModel(bad, dev).ok());
    // r2 at stride 2 still reads its producer correctly but yields 4x4
    // planes, which the Add cannot sum with r1's 8x8 ones.
    size_t fields = convFieldsAt(bad, "r2");
    ASSERT_NE(fields, std::string::npos);
    poke(bad, fields + 6 * 8, 2);
    expectMalformed(std::move(bad), dev);
}

TEST(Artifact, PerSampleElementCapIsMalformed)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompiledModel compiled(tinyModel(), FrameworkKind::kPatDnn, dev);
    std::vector<uint8_t> bad = serializeModel(compiled);
    // c1 reads the model input: a 3 x 2^22 x 16 input is over the cap.
    size_t fields = convFieldsAt(bad, "c1");
    ASSERT_NE(fields, std::string::npos);
    poke(bad, fields + 4 * 8, 1u << 22);
    expectMalformed(std::move(bad), dev);
}

/** Two 3x3 convs, a pool, a flatten and an FC: about 4-5 KB as an
 * artifact, small enough to mutate every payload byte. */
Model
microModel()
{
    Model m("micro", "test");
    Layer c1;
    c1.kind = OpKind::kConv;
    c1.conv = ConvDesc{"m1", 3, 4, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(c1);
    Layer relu;
    relu.kind = OpKind::kReLU;
    m.addLayer(relu);
    Layer c2 = c1;
    c2.conv = ConvDesc{"m2", 4, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(c2);
    Layer pool;
    pool.kind = OpKind::kMaxPool;
    m.addLayer(pool);
    Layer fl;
    fl.kind = OpKind::kFlatten;
    m.addLayer(fl);
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.in_features = 8 * 4 * 4;
    fc.out_features = 4;
    m.addLayer(fc);
    m.randomizeWeights(17);
    return m;
}

/** An input shaped for whatever the (possibly mutated) model reads. */
Tensor
inputFor(const CompiledModel& model)
{
    for (const CompiledLayerState& st : model.exportState())
        if (st.live && st.inputs == std::vector<int>{-1}) {
            Tensor in(Shape{1, st.conv.cin, st.conv.h, st.conv.w});
            Rng rng(3);
            in.fillUniform(rng, -1.0f, 1.0f);
            return in;
        }
    return Tensor();
}

TEST(Artifact, SingleByteMutationSweep)
{
    // Stands in for a coverage-guided fuzzer: every payload byte, +1
    // and set to 0xFF, resealed so the payload checks (not the
    // checksum) see it. Each load ends in a typed refusal or in a model
    // that runs — never in a crash, an abort or an unbounded allocation.
    Model m = microModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    CompileOptions i8;
    i8.precision = Precision::kInt8;
    struct Case
    {
        const char* name;
        FrameworkKind kind;
        CompileOptions opts;
    };
    for (const Case& c : {Case{"pattern", FrameworkKind::kPatDnn, {}},
                          Case{"dense-f32", FrameworkKind::kPatDnnDense, {}},
                          Case{"dense-i8", FrameworkKind::kPatDnnDense, i8}}) {
        CompiledModel compiled(m, c.kind, dev, c.opts);
        const std::vector<uint8_t> bytes = serializeModel(compiled);
        int refused = 0, ran = 0;
        for (size_t at = kArtifactHeader; at + 8 < bytes.size(); ++at) {
            for (uint8_t v : {static_cast<uint8_t>(bytes[at] + 1), uint8_t{0xFF}}) {
                if (v == bytes[at])
                    continue;
                std::vector<uint8_t> bad = bytes;
                bad[at] = v;
                auto r = deserializeModel(resealArtifact(std::move(bad)), dev);
                if (!r.ok()) {
                    ErrorCode code = r.status().code();
                    ASSERT_TRUE(code == ErrorCode::kDataLoss ||
                                code == ErrorCode::kDeviceMismatch)
                        << c.name << " byte " << at << ": " << r.status().toString();
                    ++refused;
                    continue;
                }
                InferenceSession session(r.value());
                Tensor out = session.run(inputFor(*r.value()));
                ASSERT_GT(out.numel(), 0) << c.name << " byte " << at;
                ++ran;
            }
        }
        EXPECT_GT(refused, 0) << c.name;
        EXPECT_GT(ran, 0) << c.name;
    }
}

}  // namespace
}  // namespace patdnn
