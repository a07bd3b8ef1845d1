/**
 * @file
 * CSR sparse convolution: the conventional sparse baseline the paper
 * implements to show that non-structured sparsity does not translate
 * into speedups ("almost the same speed to PatDNN's dense version",
 * Section 6.2). Every inner-loop step performs an indirect index
 * decode, exactly the irregular-memory-access behaviour Section 2.3
 * describes.
 */
#pragma once

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "sparse/csr.h"

namespace patdnn {

/** Direct sparse convolution over CSR weights. */
class CsrConv : public ConvEngine
{
  public:
    CsrConv(ConvDesc desc, CsrWeights csr, DeviceSpec device)
        : desc_(std::move(desc)), csr_(std::move(csr)),
          device_(std::move(device)), ops_(&resolveSimdOps(device_.simd_isa))
    {
    }

    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "csr"; }

    const CsrWeights& weights() const { return csr_; }

  private:
    ConvDesc desc_;
    CsrWeights csr_;
    DeviceSpec device_;
    const SimdOps* ops_;  ///< Resolved once from device_.simd_isa.
};

}  // namespace patdnn
