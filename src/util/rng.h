/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic components (weight init, dataset synthesis, ADMM SGD
 * shuffling) draw from a seeded Rng so every experiment in
 * EXPERIMENTS.md is exactly reproducible.
 */
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace patdnn {

/** A seeded wrapper around std::mt19937_64 with convenience samplers. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

    /** Uniform float in [lo, hi). */
    float uniform(float lo = 0.0f, float hi = 1.0f);

    /** Standard normal (mean 0, std 1) scaled by std. */
    float normal(float mean = 0.0f, float stddev = 1.0f);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0, static_cast<int64_t>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Access the underlying engine for std distributions. */
    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

}  // namespace patdnn
