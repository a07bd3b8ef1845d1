/**
 * @file
 * Binary model artifacts: the distribution format for compiled models.
 *
 * PatDNN's deployment story (Fig. 5) ends at execution code
 * generation; an artifact captures that stage's entire output — every
 * layer's FKW-packed weights, ConvDesc, tuned parameters and graph
 * wiring — so a model can be compiled (pruned, reordered, tuned) once
 * and then distributed to serving hosts that only deserialize and run.
 *
 * There is one format, kModelArtifactVersion. On-disk layout
 * (little-endian):
 *
 *   [magic "PDNN"] [u32 version] [u64 payload_size] [payload bytes]
 *   [u64 checksum of payload]
 *
 * The checksum (since v10) is FNV-1a-64 (offset basis
 * 0xcbf29ce484222325, prime 0x100000001b3) taken over the payload as
 * little-endian 8-byte words rather than bytes: for each word w,
 * h = (h ^ w) * prime, the last word zero-padded when the payload size
 * is not a multiple of 8. A changed word always changes the hash, and
 * the header's payload size catches a changed length.
 *
 * The payload holds, in order:
 *  - the framework kind and the kernel ISA the embedded TuneParams were
 *    searched on;
 *  - the provenance record: the device fingerprint (pool width,
 *    GPU-like flag, tile budget) and the compile options (pattern
 *    count, connectivity rates, the FKR-reorder and LRE switches, seed,
 *    precision and calibration settings);
 *  - the output-node id and one record per graph-node slot: op kind,
 *    ConvDesc, producer ids, fused ReLU, pool / FC geometry, tuned
 *    parameters (loop order, row tile with 0 for the whole plane, and
 *    the dense GEMM blocking gemm_kc / gemm_nc),
 *    an optional quant record (activation scale + per-output-channel
 *    weight scales), the dense weight and bias tensors, and the FKW
 *    storage of pattern-compiled convs (sparse/fkw.h's serializer),
 *    which carry no dense weight: FKW is their only weight storage.
 *
 * Nothing derivable is stored: the activation MemoryPlan (rt/memplan.h)
 * is a function of the graph, so the restored CompiledModel derives it
 * from the layer records, exactly as the compile did.
 *
 * Quantized weights are stored as f32 and re-quantized
 * deterministically from tensor + scales on load.
 *
 * Artifact bytes are untrusted input. Every count is bounded by the
 * bytes left before anything is allocated, and the restored layer
 * records must pass CompiledModel::checkGraph() (each record agrees
 * with its ConvDesc and its producers) before any engine is built. A
 * record that fails is kDataLoss with a detail slug; loading never
 * aborts.
 *
 * The device fingerprint lets a serving host reject or warn about a
 * mismatched artifact with a diagnostic ("compiled for pool width 8,
 * this host runs 1") instead of failing an invariant deep inside an
 * executor. Execution is exact on any ISA, so a cross-ISA load only
 * warns that the tuned widths were searched elsewhere. A GPU-like/CPU
 * scheduling mismatch is always an error; pool-width and tile-budget
 * differences warn unless ArtifactLoadOptions asks for strictness.
 *
 * Both writers read the compiled records in place
 * (CompiledModel::layerState) and pass tensor and FKW float data
 * through without staging it. saveModel() streams the payload straight
 * into the file (checksum computed incrementally, the payload size
 * backpatched), holding one record's framing bytes at a time and never
 * a copy of the model's records or a whole-model byte buffer;
 * serializeModel() sizes its buffer exactly before writing it.
 * loadModel() reads the file and runs the same validation as
 * deserializeModel().
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/framework.h"
#include "util/status.h"

namespace patdnn {

/**
 * Stable machine-readable failure slugs the artifact loaders attach
 * via Status::detail(), so failure modes that share an ErrorCode are
 * distinguishable without matching message text: a truncated stream
 * and a flipped checksum are both kDataLoss, but carry different
 * slugs. These strings are part of the API contract.
 */
namespace artifact_detail {
inline constexpr char kBadMagic[] = "artifact/bad-magic";
inline constexpr char kUnsupportedVersion[] = "artifact/unsupported-version";
inline constexpr char kTruncatedStream[] = "artifact/truncated-stream";
inline constexpr char kChecksumMismatch[] = "artifact/checksum-mismatch";
inline constexpr char kMalformedPayload[] = "artifact/malformed-payload";
inline constexpr char kFingerprintMismatch[] = "artifact/fingerprint-mismatch";
inline constexpr char kBadQuantRecord[] = "artifact/bad-quant-record";
}  // namespace artifact_detail

/** The artifact format version: the only one written and the only one
 * loaded. Any layout change must bump it. */
constexpr uint32_t kModelArtifactVersion = 13;

/** Load-time strictness knobs. */
struct ArtifactLoadOptions
{
    /// Treat a pool-width / tile-budget fingerprint difference as an
    /// error instead of a warning. (A GPU-like vs CPU scheduling
    /// mismatch is always an error: the tuned plan is wrong for the
    /// other scheduling model, not just off-width.)
    bool require_matching_fingerprint = false;
};

/** Header provenance surfaced by the loaders. */
struct ArtifactInfo
{
    uint32_t version = 0;
    FrameworkKind kind = FrameworkKind::kPatDnn;
    SimdIsa tuned_isa = SimdIsa::kScalar;
    int pool_width = 0;  ///< DeviceSpec.threads at compile time.
    bool gpu_like = false;
    int64_t tile_budget_kb = 0;
    CompileOptions compile_opts;
    /// Non-fatal diagnostics emitted during load (also logged at WARN):
    /// cross-ISA tuning, fingerprint differences.
    std::vector<std::string> warnings;
};

/** Serialize a compiled model into the artifact byte format. */
std::vector<uint8_t> serializeModel(const CompiledModel& model);

/**
 * Reconstruct a compiled model for `device` from artifact bytes.
 * Validates magic, version, framing and checksum, the provenance
 * record against `device`, then every layer record (see the file
 * comment). Failure codes: kDataLoss for corrupted / truncated bytes
 * (detail() carries the artifact_detail slug), kInvalidArgument for any
 * version other than kModelArtifactVersion, kDeviceMismatch for a
 * fingerprint the host cannot satisfy. `info`, when non-null, receives
 * the header provenance + any non-fatal warnings even for successfully
 * loaded artifacts.
 */
Result<std::shared_ptr<CompiledModel>> deserializeModel(
    const std::vector<uint8_t>& bytes, const DeviceSpec& device,
    const ArtifactLoadOptions& opts = {}, ArtifactInfo* info = nullptr);

/**
 * Freeze a compiled model into an artifact at `path` (compile once,
 * distribute everywhere), one layer record in memory at a time.
 * kUnavailable on I/O failure.
 */
Status saveModel(const CompiledModel& model, const std::string& path);

/**
 * Load an artifact for `device`. The result is immutable and intended
 * to be shared: hand it to any number of InferenceSession /
 * InferenceServer instances. kNotFound when the file cannot be opened;
 * otherwise the deserializeModel() codes.
 */
Result<std::shared_ptr<CompiledModel>> loadModel(
    const std::string& path, const DeviceSpec& device,
    const ArtifactLoadOptions& opts = {}, ArtifactInfo* info = nullptr);

}  // namespace patdnn
