/**
 * @file
 * The interface every conv executor implements. A compiled conv layer
 * holds one ConvEngine and never asks which concrete engine it is; the
 * choice is made in exactly one place, selectConvEngine()
 * (rt/framework.cc), which states the whole selection table.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "rt/conv_ref.h"
#include "rt/lr.h"

namespace patdnn {

/** Numeric precision of a conv engine. */
enum class Precision : uint32_t
{
    kF32 = 0,   ///< f32 arithmetic (the default).
    kInt8 = 1,  ///< i8×i8→i32 packed GEMM with f32 requant epilogue.
};

/** Display name ("f32" / "i8"), as shown in RunProfile tables. */
inline const char*
precisionName(Precision p)
{
    return p == Precision::kInt8 ? "i8" : "f32";
}

/** One conv layer's executor. Immutable after construction: run() is
 * const and safe to call from many threads at once. */
class ConvEngine
{
  public:
    ConvEngine() = default;
    ConvEngine(const ConvEngine&) = delete;
    ConvEngine(ConvEngine&&) = delete;
    ConvEngine& operator=(const ConvEngine&) = delete;
    ConvEngine& operator=(ConvEngine&&) = delete;
    virtual ~ConvEngine() = default;

    /** Convolve NCHW `in` into `out` ([n, cout, oh, ow], contents
     * unspecified on entry), applying the bias / fused-ReLU epilogue;
     * writes every element of `out`. */
    virtual void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const = 0;

    /** Engine name: the RunProfile kind column ("pattern", "im2col", ...). */
    virtual const char* name() const = 0;

    /** True when the engine dispatches through a SIMD kernel table, so
     * the RunProfile ISA column applies; false for engine-internal
     * scalar code. */
    virtual bool usesSimdTable() const { return true; }

    /** Numeric path the engine runs. */
    virtual Precision precision() const { return Precision::kF32; }

    /**
     * Every TuneParams this engine can tell apart, the one it was built
     * with first: the whole space the tuner times (Section 5.5). Each
     * entry differs from the others in a field this engine reads; the
     * fields it ignores are copied from its own tuning. Empty for an
     * engine that reads no tuning.
     */
    virtual std::vector<TuneParams> tuneCandidates() const { return {}; }
};

}  // namespace patdnn
