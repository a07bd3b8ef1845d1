/**
 * @file
 * Naive threaded direct convolution: the untuned dense baseline
 * (TFLite-like facade). Parallel over output channels, no tiling, no
 * register blocking, no auto-tuning.
 */
#pragma once

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"

namespace patdnn {

/** Untuned dense direct convolution on a device. */
class NaiveConv : public ConvEngine
{
  public:
    NaiveConv(ConvDesc desc, const Tensor* weight, DeviceSpec device)
        : desc_(std::move(desc)), weight_(weight), device_(std::move(device))
    {
    }

    /** Run for a batch-1 (or batch-N) NCHW input. */
    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "naive"; }
    bool usesSimdTable() const override { return false; }

  private:
    ConvDesc desc_;
    const Tensor* weight_;
    DeviceSpec device_;
};

}  // namespace patdnn
