#include "serve/artifact.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>

#include "util/byteio.h"
#include "util/logging.h"

namespace patdnn {

namespace {

constexpr char kMagic[4] = {'P', 'D', 'N', 'N'};
constexpr size_t kHeaderSize = 4 + 4 + 8;  ///< magic + version + payload size.

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/**
 * The artifact checksum: FNV-1a-64 over the payload read as
 * little-endian 8-byte words, the last word zero-padded. One multiply
 * per word rather than per byte; a changed word always changes the hash
 * (xor-then-multiply by an odd constant is a bijection of the state),
 * and the header's payload size catches a changed length. update()
 * takes chunks that end anywhere: bytes short of a whole word wait in
 * a carry for the next chunk.
 */
class PayloadHasher
{
  public:
    void
    update(const uint8_t* p, size_t n)
    {
        if (carried_ > 0) {
            size_t take = std::min(n, sizeof carry_ - carried_);
            std::memcpy(carry_ + carried_, p, take);
            carried_ += take;
            p += take;
            n -= take;
            if (carried_ < sizeof carry_)
                return;
            h_ = mix(h_, carry_);
            carried_ = 0;
        }
        uint64_t h = h_;  // A local: `p` may alias the member.
        for (; n >= 8; p += 8, n -= 8)
            h = mix(h, p);
        h_ = h;
        std::memcpy(carry_, p, n);
        carried_ = n;
    }

    uint64_t
    digest() const
    {
        if (carried_ == 0)
            return h_;
        uint8_t last[8] = {};
        std::memcpy(last, carry_, carried_);
        return mix(h_, last);
    }

  private:
    /** The little-endian u64 at `p` (any alignment). */
    static uint64_t
    loadLe64(const uint8_t* p)
    {
        uint64_t v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, p, sizeof v);
        } else {
            for (int i = 0; i < 8; ++i)
                v |= static_cast<uint64_t>(p[i]) << (8 * i);
        }
        return v;
    }

    static uint64_t
    mix(uint64_t h, const uint8_t* word)
    {
        return (h ^ loadLe64(word)) * kFnvPrime;
    }

    uint64_t h_ = kFnvOffset;
    uint8_t carry_[8] = {};
    size_t carried_ = 0;
};

using bytes::putF64;
using bytes::putI64;
using bytes::putU32;
using bytes::putU64;

/** A tensor record's rank and dims; its float bytes follow (none for
 * rank 0, the "no tensor" marker: a default Tensor reports numel() == 1
 * but owns no storage). */
void
putTensorDims(std::vector<uint8_t>& out, const Tensor& t)
{
    const auto& dims = t.shape().dims();
    putU32(out, static_cast<uint32_t>(dims.size()));
    for (int64_t d : dims)
        putI64(out, d);
}

void
putTuning(std::vector<uint8_t>& out, const TuneParams& p)
{
    putU32(out, p.permute == LoopPermutation::kCoCiHW ? 0u : 1u);
    putI64(out, p.tile_oh);
    putI64(out, p.gemm_kc);
    putI64(out, p.gemm_nc);
}

/** Artifact-specific records (framing only; structural checks stay
 * with validateFkw / CompiledModel::checkGraph) on top of the shared
 * bounds-checked reader. */
struct Reader : bytes::Reader
{
    size_t left() const { return size - pos; }

    bool
    tensor(Tensor& t)
    {
        uint32_t rank = u32();
        if (!ok || rank > 8)
            return ok = false;
        if (rank == 0) {
            t = Tensor();  // "No tensor" marker, not a 1-element scalar.
            return true;
        }
        std::vector<int64_t> dims(rank);
        int64_t numel = 1;
        for (uint32_t i = 0; i < rank; ++i) {
            dims[i] = i64();
            if (!ok || dims[i] < 0 || (numel != 0 && dims[i] > (1LL << 40) / numel))
                return ok = false;
            numel *= dims[i];
        }
        if (static_cast<uint64_t>(numel) > left() / sizeof(float))
            return ok = false;
        t = Tensor(Shape{std::move(dims)});
        if (numel > 0)
            std::memcpy(t.data(), data + pos,
                        static_cast<size_t>(numel) * sizeof(float));
        pos += static_cast<size_t>(numel) * sizeof(float);
        return ok;
    }

    bool
    tuning(TuneParams& p)
    {
        p.permute = u32() == 0 ? LoopPermutation::kCoCiHW : LoopPermutation::kCoHWCi;
        p.tile_oh = i64();
        p.gemm_kc = i64();
        p.gemm_nc = i64();
        return ok;
    }
};

void
putConvDesc(std::vector<uint8_t>& out, const ConvDesc& d)
{
    putU32(out, static_cast<uint32_t>(d.name.size()));
    out.insert(out.end(), d.name.begin(), d.name.end());
    for (int64_t v : {d.cin, d.cout, d.kh, d.kw, d.h, d.w, d.stride, d.pad,
                      d.dilation, d.groups})
        putI64(out, v);
}

bool
readConvDesc(Reader& r, ConvDesc& d)
{
    uint32_t len = r.u32();
    if (!r.ok || len > 4096 || !r.need(len))
        return false;
    d.name.assign(reinterpret_cast<const char*>(r.data + r.pos), len);
    r.pos += len;
    d.cin = r.i64();
    d.cout = r.i64();
    d.kh = r.i64();
    d.kw = r.i64();
    d.h = r.i64();
    d.w = r.i64();
    d.stride = r.i64();
    d.pad = r.i64();
    d.dilation = r.i64();
    d.groups = r.i64();
    return r.ok;
}

/** Byte consumer for the streaming payload serializer. */
using Emit = std::function<void(const uint8_t*, size_t)>;

/**
 * Serialize the payload through `emit`, reading each node's record in
 * place. Framing fields collect in a small buffer (at most one record's
 * worth, FKW index arrays included); tensor and FKW float data go to
 * `emit` straight from the records. Both the in-memory serializer and
 * the streaming file writer share this.
 */
void
emitPayload(const CompiledModel& model, const Emit& emit)
{
    std::vector<uint8_t> buf;
    auto flush = [&] {
        if (!buf.empty())
            emit(buf.data(), buf.size());
        buf.clear();
    };
    auto floats = [&](const float* p, size_t n) {
        flush();
        if (n > 0)
            emit(reinterpret_cast<const uint8_t*>(p), n * sizeof(float));
    };
    auto tensor = [&](const Tensor& t) {
        putTensorDims(buf, t);
        if (t.shape().rank() > 0)
            floats(t.data(), static_cast<size_t>(t.numel()));
    };

    putU32(buf, static_cast<uint32_t>(model.kind()));
    putU32(buf, static_cast<uint32_t>(model.tunedIsa()));
    // Device fingerprint: what the artifact was compiled against.
    const DeviceSpec& dev = model.device();
    putU32(buf, static_cast<uint32_t>(dev.threads));
    buf.push_back(dev.gpu_like ? 1 : 0);
    putI64(buf, dev.tile_budget_kb);
    // Compile-option record (provenance; per-layer tuning is stored
    // with each layer, so default_tuning is not repeated here).
    const CompileOptions& co = model.compileOptions();
    putU32(buf, static_cast<uint32_t>(co.pattern_count));
    putF64(buf, co.connectivity_rate);
    putF64(buf, co.first_layer_rate);
    buf.push_back(co.opts.reorder ? 1 : 0);
    buf.push_back(co.opts.lre ? 1 : 0);
    putU64(buf, co.seed);
    // Quantization provenance: the precision knob and the calibration
    // settings the activation scales came from.
    buf.push_back(static_cast<uint8_t>(co.precision));
    buf.push_back(static_cast<uint8_t>(co.calibration.method));
    putF64(buf, co.calibration.percentile);
    putU32(buf, static_cast<uint32_t>(co.calibration.samples));
    putU64(buf, co.calibration.seed);
    putU32(buf, static_cast<uint32_t>(model.outputNode()));
    putU32(buf, static_cast<uint32_t>(model.nodeCount()));

    for (size_t id = 0; id < model.nodeCount(); ++id) {
        const CompiledLayerState* rec = model.layerState(id);
        buf.push_back(rec != nullptr ? 1 : 0);
        if (rec == nullptr)
            continue;
        const CompiledLayerState& st = *rec;
        putU32(buf, static_cast<uint32_t>(st.kind));
        putConvDesc(buf, st.conv);
        putU32(buf, static_cast<uint32_t>(st.inputs.size()));
        for (int in : st.inputs)
            putU32(buf, static_cast<uint32_t>(in));
        buf.push_back(st.fused_relu ? 1 : 0);
        putI64(buf, st.pool_k);
        putI64(buf, st.pool_stride);
        putI64(buf, st.in_features);
        putI64(buf, st.out_features);
        putTuning(buf, st.tuning);
        buf.push_back(st.opts.reorder ? 1 : 0);
        buf.push_back(st.opts.lre ? 1 : 0);
        // Quant record: scales only. The weight tensor below stays f32
        // and is re-quantized deterministically on load.
        buf.push_back(st.quantized ? 1 : 0);
        if (st.quantized) {
            putF64(buf, st.act_scale);
            putU32(buf, static_cast<uint32_t>(st.weight_scales.size()));
            for (float s : st.weight_scales)
                putF64(buf, s);
        }
        tensor(st.weight);
        tensor(st.bias);
        buf.push_back(st.fkw ? 1 : 0);
        if (st.fkw) {
            serializeFkwPrefix(*st.fkw, buf);
            floats(st.fkw->weights.data(), st.fkw->weights.size());
        }
    }
    flush();
}

void
warn(ArtifactInfo* info, const std::string& msg)
{
    logMessage(LogLevel::kWarn, msg);
    info->warnings.push_back(msg);
}

Status
malformed(std::string msg)
{
    return Status(ErrorCode::kDataLoss, std::move(msg),
                  artifact_detail::kMalformedPayload);
}

Status
badQuantRecord(std::string msg)
{
    return Status(ErrorCode::kDataLoss, std::move(msg),
                  artifact_detail::kBadQuantRecord);
}

/**
 * The quant record drives the load-time re-quantization, so a
 * corrupted-but-well-framed one is refused: only a conv of `kind` that
 * denseQuantEligible() admits can carry one (the engines of every other
 * conv would silently ignore it), the scale count must match the
 * layer's output channels, and every scale must be finite and positive.
 */
Status
readQuantRecord(Reader& r, FrameworkKind kind, CompiledLayerState& st)
{
    st.quantized = r.u8() != 0;
    if (!st.quantized)
        return Status::OK();
    // Scales are stored as f64; one outside (0, FLT_MAX] (NaN included)
    // has no float value, and one that underflows to 0 cannot divide.
    auto scale = [&r](float* out) {
        double d = r.f64();
        if (!(d > 0.0 && d <= std::numeric_limits<float>::max()))
            return false;
        *out = static_cast<float>(d);
        return *out > 0.0f;
    };
    bool act_ok = scale(&st.act_scale);
    uint32_t n_scales = r.u32();
    if (!r.ok || n_scales > r.left() / sizeof(double))
        return badQuantRecord("artifact: truncated quant record");
    st.weight_scales.resize(n_scales);
    bool weights_ok = true;
    for (float& s : st.weight_scales)
        weights_ok = scale(&s) && weights_ok;
    if (st.kind != OpKind::kConv || !denseQuantEligible(kind, st.conv))
        return badQuantRecord("artifact: quant record on a layer no int8 engine runs");
    if (static_cast<int64_t>(n_scales) != st.conv.cout)
        return badQuantRecord(
            "artifact: quant record scale count disagrees with layer output "
            "channels");
    if (!act_ok)
        return badQuantRecord(
            "artifact: quant record activation scale is not finite and positive");
    if (!weights_ok)
        return badQuantRecord(
            "artifact: quant record weight scale is not finite and positive");
    return Status::OK();
}

/** Parse one live layer record (after its live byte) of a `kind`
 * payload. */
Status
readLayer(Reader& r, uint32_t id, FrameworkKind kind, CompiledLayerState& st)
{
    uint32_t kind_raw = r.u32();
    if (!r.ok || kind_raw > static_cast<uint32_t>(OpKind::kFlatten))
        return malformed("artifact: unknown op kind");
    st.kind = static_cast<OpKind>(kind_raw);
    if (!readConvDesc(r, st.conv))
        return malformed("artifact: truncated conv descriptor");
    uint32_t n_inputs = r.u32();
    if (!r.ok || n_inputs > 2)
        return malformed("artifact: bad input list");
    st.inputs.resize(n_inputs);
    for (int& in : st.inputs) {
        in = static_cast<int>(r.u32());
        if (in >= static_cast<int>(id))
            return malformed("artifact: forward edge in layer inputs");
    }
    st.fused_relu = r.u8() != 0;
    st.pool_k = r.i64();
    st.pool_stride = r.i64();
    st.in_features = r.i64();
    st.out_features = r.i64();
    if (!r.tuning(st.tuning))
        return malformed("artifact: truncated tuning block");
    st.opts.reorder = r.u8() != 0;
    st.opts.lre = r.u8() != 0;
    PATDNN_RETURN_IF_ERROR(readQuantRecord(r, kind, st));
    if (!r.tensor(st.weight) || !r.tensor(st.bias))
        return malformed("artifact: truncated tensor");
    if (r.u8() != 0) {
        FkwLayer fkw;
        size_t consumed = 0;
        Status fkw_status = deserializeFkw(r.data + r.pos, r.left(), &consumed, &fkw);
        if (!fkw_status.ok())
            return malformed("artifact: " + fkw_status.message());
        r.pos += consumed;
        // Re-check the structural invariants so a corrupted-but-
        // well-framed record cannot reach an executor.
        Status invariants = validateFkw(fkw);
        if (!invariants.ok())
            return malformed("artifact: invalid FKW layer: " + invariants.message());
        st.fkw = std::move(fkw);
    }
    if (st.quantized && st.fkw)
        return badQuantRecord("artifact: quant record on an FKW (pattern) layer");
    if (st.quantized && st.weight.shape().rank() == 0)
        return badQuantRecord(
            "artifact: quant record without a dense weight tensor to re-quantize");
    if (!r.ok)
        return malformed("artifact: truncated layer record");
    return Status::OK();
}

/**
 * Check the device fingerprint against the host. A scheduling-model
 * mismatch is always an error; pool width and tile budget warn unless
 * strict loading was asked for.
 */
Status
checkFingerprint(const DeviceSpec& device, const ArtifactLoadOptions& opts,
                 ArtifactInfo* info)
{
    if (info->gpu_like != device.gpu_like)
        return Status(ErrorCode::kDeviceMismatch,
                      std::string("artifact: device fingerprint mismatch: "
                                  "compiled for a ") +
                          (info->gpu_like ? "GPU-like (block-scheduled)" : "CPU") +
                          " device but this host device is " +
                          (device.gpu_like ? "GPU-like (block-scheduled)" : "a CPU") +
                          "; the tuned execution plan does not transfer across "
                          "scheduling models",
                      artifact_detail::kFingerprintMismatch);
    if (info->pool_width != device.threads ||
        info->tile_budget_kb != device.tile_budget_kb) {
        std::string msg =
            "artifact: device fingerprint mismatch: compiled for pool width " +
            std::to_string(info->pool_width) + ", tile budget " +
            std::to_string(info->tile_budget_kb) + " KB but this host runs pool width " +
            std::to_string(device.threads) + ", tile budget " +
            std::to_string(device.tile_budget_kb) +
            " KB; execution is exact, tuned parameters may be off-width";
        if (opts.require_matching_fingerprint)
            return Status(ErrorCode::kDeviceMismatch,
                          msg + " (rejected: matching fingerprint required)",
                          artifact_detail::kFingerprintMismatch);
        warn(info, msg);
    }
    return Status::OK();
}

/**
 * Parse + validate a payload and rebuild the model for `device`. The
 * caller has already verified framing and checksum, so parse failures
 * here mean a corrupted-but-well-framed payload (kDataLoss) or a
 * provenance record the host cannot satisfy (kDeviceMismatch).
 */
Result<std::shared_ptr<CompiledModel>>
deserializePayload(const uint8_t* payload, size_t payload_size,
                   const DeviceSpec& device, const ArtifactLoadOptions& opts,
                   ArtifactInfo* info)
{
    ArtifactInfo local_info;
    if (info == nullptr)
        info = &local_info;
    info->version = kModelArtifactVersion;

    Reader r{{payload, payload_size}};
    uint32_t kind_raw = r.u32();
    if (kind_raw > static_cast<uint32_t>(FrameworkKind::kPatDnn))
        return malformed("artifact: unknown framework kind");
    info->kind = static_cast<FrameworkKind>(kind_raw);
    uint32_t isa_raw = r.u32();
    if (isa_raw > static_cast<uint32_t>(SimdIsa::kNeon))
        return malformed("artifact: unknown kernel ISA");
    info->tuned_isa = static_cast<SimdIsa>(isa_raw);

    info->pool_width = static_cast<int>(r.u32());
    info->gpu_like = r.u8() != 0;
    info->tile_budget_kb = r.i64();
    CompileOptions& co = info->compile_opts;
    co.pattern_count = static_cast<int>(r.u32());
    co.connectivity_rate = r.f64();
    co.first_layer_rate = r.f64();
    co.opts.reorder = r.u8() != 0;
    co.opts.lre = r.u8() != 0;
    co.seed = r.u64();
    uint8_t precision_raw = r.u8();
    uint8_t calib_method_raw = r.u8();
    co.calibration.percentile = r.f64();
    co.calibration.samples = static_cast<int>(r.u32());
    co.calibration.seed = r.u64();
    if (!r.ok)
        return malformed("artifact: truncated provenance record");
    if (info->pool_width < 1 || info->pool_width > 4096 || co.pattern_count < 0 ||
        co.pattern_count > (1 << 16))
        return malformed("artifact: implausible provenance record");
    if (precision_raw > static_cast<uint8_t>(Precision::kInt8) ||
        calib_method_raw > static_cast<uint8_t>(CalibrationMethod::kPercentile) ||
        !(co.calibration.percentile > 0.0 && co.calibration.percentile <= 100.0) ||
        co.calibration.samples < 1)
        return malformed("artifact: implausible quantization options");
    co.precision = static_cast<Precision>(precision_raw);
    co.calibration.method = static_cast<CalibrationMethod>(calib_method_raw);
    PATDNN_RETURN_IF_ERROR(checkFingerprint(device, opts, info));

    SimdIsa host_isa = resolveSimdOps(device.simd_isa).isa;
    if (info->tuned_isa != host_isa)
        warn(info, std::string("artifact: tuned parameters were searched on ") +
                       isaName(info->tuned_isa) + " kernels but this host runs " +
                       isaName(host_isa) +
                       "; execution is exact, tuning may be off-width");

    // Every layer record takes at least its one live byte, so the count
    // is bounded by the bytes left before the table is allocated.
    int output_node = static_cast<int>(r.u32());
    uint32_t n_layers = r.u32();
    if (!r.ok || n_layers > std::min<size_t>(r.left(), 1u << 20) || output_node < 0 ||
        output_node >= static_cast<int>(n_layers))
        return malformed("artifact: bad layer table");

    std::vector<CompiledLayerState> layers(n_layers);
    for (uint32_t id = 0; id < n_layers; ++id) {
        CompiledLayerState& st = layers[id];
        st.live = r.u8() != 0;
        if (!r.ok)
            return malformed("artifact: truncated layer table");
        if (st.live)
            PATDNN_RETURN_IF_ERROR(readLayer(r, id, info->kind, st));
    }
    if (r.pos != r.size)
        return malformed("artifact: trailing bytes in payload");
    // Layer records must agree with their descriptors and producers
    // before any engine is built from them.
    Status graph = CompiledModel::checkGraph(layers, output_node);
    if (!graph.ok())
        return malformed("artifact: " + graph.message());

    // The restored model derives its memory plan from these records.
    return std::make_shared<CompiledModel>(info->kind, device, std::move(layers),
                                           output_node, info->tuned_isa, co);
}

Status
truncatedStream(const std::string& what)
{
    return Status(ErrorCode::kDataLoss, "artifact: truncated stream (" + what + ")",
                  artifact_detail::kTruncatedStream);
}

void
putHeader(std::vector<uint8_t>& out, uint64_t payload_size)
{
    for (char c : kMagic)
        out.push_back(static_cast<uint8_t>(c));
    putU32(out, kModelArtifactVersion);
    putU64(out, payload_size);
}

}  // namespace

std::vector<uint8_t>
serializeModel(const CompiledModel& model)
{
    // A counting pass sizes the buffer exactly (it builds the framing
    // bytes but only counts the float data), so the one allocation is
    // never regrown.
    uint64_t payload_size = 0;
    emitPayload(model, [&](const uint8_t*, size_t n) { payload_size += n; });
    std::vector<uint8_t> out;
    out.reserve(kHeaderSize + static_cast<size_t>(payload_size) + 8);
    putHeader(out, payload_size);
    PayloadHasher hasher;
    emitPayload(model, [&](const uint8_t* p, size_t n) {
        hasher.update(p, n);
        out.insert(out.end(), p, p + n);
    });
    putU64(out, hasher.digest());
    PATDNN_CHECK_EQ(out.size(), kHeaderSize + payload_size + 8,
                    "artifact payload size changed between passes");
    return out;
}

namespace {

/** deserializeModel() over `size` artifact bytes at `bytes`: the one
 * core both the in-memory and the file loader run. */
Result<std::shared_ptr<CompiledModel>>
deserializeBytes(const uint8_t* bytes, size_t size, const DeviceSpec& device,
                 const ArtifactLoadOptions& opts, ArtifactInfo* info)
{
    // Size before magic: a truncated-but-valid prefix must diagnose as
    // truncation, not as a bad magic.
    if (size < kHeaderSize + 8)
        return truncatedStream(std::to_string(size) +
                               " bytes is smaller than the fixed header");
    if (std::memcmp(bytes, kMagic, 4) != 0)
        return Status(ErrorCode::kDataLoss, "artifact: bad magic",
                      artifact_detail::kBadMagic);
    Reader hdr{{bytes + 4, kHeaderSize - 4}};
    uint32_t version = hdr.u32();
    if (version != kModelArtifactVersion)
        return Status(ErrorCode::kInvalidArgument,
                      "artifact: unsupported version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kModelArtifactVersion) + " only)",
                      artifact_detail::kUnsupportedVersion);
    uint64_t payload_size = hdr.u64();
    uint64_t held = size - kHeaderSize - 8;
    if (payload_size != held)
        return truncatedStream("header claims " + std::to_string(payload_size) +
                               " payload bytes, artifact holds " +
                               std::to_string(held));
    const uint8_t* payload = bytes + kHeaderSize;
    Reader tail{{payload + held, 8}};
    PayloadHasher hasher;
    hasher.update(payload, static_cast<size_t>(held));
    if (hasher.digest() != tail.u64())
        return Status(ErrorCode::kDataLoss, "artifact: checksum mismatch",
                      artifact_detail::kChecksumMismatch);
    return deserializePayload(payload, static_cast<size_t>(held), device, opts,
                              info);
}

}  // namespace

Result<std::shared_ptr<CompiledModel>>
deserializeModel(const std::vector<uint8_t>& bytes, const DeviceSpec& device,
                 const ArtifactLoadOptions& opts, ArtifactInfo* info)
{
    return deserializeBytes(bytes.data(), bytes.size(), device, opts, info);
}

Status
saveModel(const CompiledModel& model, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return Status(ErrorCode::kUnavailable,
                      "cannot open " + path + " for writing");
    std::vector<uint8_t> header;
    putHeader(header, 0);  // Payload size backpatched below.
    bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
    // Stream the payload record by record: the checksum and size are
    // accumulated as bytes pass through, never materializing the whole
    // serialized model (or a copy of its records) in memory.
    PayloadHasher hasher;
    uint64_t payload_size = 0;
    emitPayload(model, [&](const uint8_t* p, size_t n) {
        if (!ok)
            return;
        hasher.update(p, n);
        payload_size += n;
        ok = std::fwrite(p, 1, n, f) == n;
    });
    std::vector<uint8_t> trailer;
    putU64(trailer, hasher.digest());
    ok = ok && std::fwrite(trailer.data(), 1, trailer.size(), f) == trailer.size();
    // Backpatch the payload size in the fixed header.
    ok = ok && std::fseek(f, 4 + 4, SEEK_SET) == 0;
    std::vector<uint8_t> size_bytes;
    putU64(size_bytes, payload_size);
    ok = ok &&
         std::fwrite(size_bytes.data(), 1, size_bytes.size(), f) == size_bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return Status(ErrorCode::kUnavailable, "short write to " + path);
    return Status::OK();
}

Result<std::shared_ptr<CompiledModel>>
loadModel(const std::string& path, const DeviceSpec& device,
          const ArtifactLoadOptions& opts, ArtifactInfo* info)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status(ErrorCode::kNotFound, "cannot open " + path);
    // file_size() refuses non-regular files (a directory opens fine but
    // reports a bogus size), so the buffer is never sized off garbage.
    std::error_code ec;
    uintmax_t len = std::filesystem::file_size(path, ec);
    // Uninitialized on purpose: fread overwrites every byte.
    std::unique_ptr<uint8_t[]> bytes;
    bool ok = !ec;
    if (ok) {
        bytes.reset(new uint8_t[static_cast<size_t>(len)]);
        ok = std::fread(bytes.get(), 1, static_cast<size_t>(len), f) == len;
    }
    std::fclose(f);
    if (!ok)
        return Status(ErrorCode::kUnavailable, "cannot read " + path);
    return deserializeBytes(bytes.get(), static_cast<size_t>(len), device, opts,
                            info);
}

}  // namespace patdnn
