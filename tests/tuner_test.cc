/** @file Auto-tuner (GA + performance estimator) tests. */
#include <gtest/gtest.h>

#include <cmath>

#include "rt/tuner.h"

namespace patdnn {
namespace {

/** Synthetic cost surface with a known optimum inside the space. */
double
syntheticCost(const TuneParams& p)
{
    double cost = 1.0;
    cost += std::fabs(std::log2(static_cast<double>(p.tile_oh)) - 3.0);   // Best 8.
    cost += p.permute == LoopPermutation::kCoHWCi ? 0.0 : 1.0;
    cost += p.blocked ? 0.0 : 0.7;
    return cost;
}

TEST(Tuner, ReturnsLegalConfiguration)
{
    TuneSpace space;
    TunerConfig cfg;
    cfg.population = 8;
    cfg.generations = 3;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, space, cfg);
    auto contains = [](const auto& v, auto x) {
        for (const auto& e : v)
            if (e == x)
                return true;
        return false;
    };
    EXPECT_TRUE(contains(space.tile_oh, r.best.tile_oh));
    EXPECT_TRUE(contains(space.permutations, r.best.permute));
    EXPECT_TRUE(contains(space.gemm_kc, r.best.gemm_kc));
    EXPECT_TRUE(contains(space.gemm_nc, r.best.gemm_nc));
}

TEST(Tuner, FindsNearOptimalOnSyntheticSurface)
{
    TunerConfig cfg;
    cfg.population = 12;
    cfg.generations = 6;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    EXPECT_EQ(r.best.tile_oh, 8);
    EXPECT_EQ(r.best.permute, LoopPermutation::kCoHWCi);
    EXPECT_TRUE(r.best.blocked);
    EXPECT_LT(r.best_ms, 1.6);
}

TEST(Tuner, BestNeverWorseThanFirstGeneration)
{
    TunerConfig cfg;
    cfg.population = 6;
    cfg.generations = 4;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    double first_gen_best = 1e30;
    for (int i = 0; i < cfg.population && i < static_cast<int>(r.history.size()); ++i)
        first_gen_best = std::min(first_gen_best, r.history[static_cast<size_t>(i)].time_ms);
    EXPECT_LE(r.best_ms, first_gen_best);
}

TEST(Tuner, HistoryRecordsEveryEvaluation)
{
    TunerConfig cfg;
    cfg.population = 5;
    cfg.generations = 2;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    EXPECT_EQ(static_cast<int>(r.history.size()), r.evaluations);
    EXPECT_GE(r.evaluations, cfg.population);
}

TEST(Tuner, DeterministicGivenSeed)
{
    TunerConfig cfg;
    cfg.population = 6;
    cfg.generations = 3;
    cfg.measure_reps = 1;
    cfg.seed = 41;
    TuneResult a = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    TuneResult b = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    EXPECT_EQ(a.best_ms, b.best_ms);
    EXPECT_EQ(a.best.tile_oh, b.best.tile_oh);
}

TEST(PerfEstimator, LearnsTheSurfaceShape)
{
    // Train on GA history, then check the model ranks a good config
    // ahead of a bad one.
    TunerConfig cfg;
    cfg.population = 16;
    cfg.generations = 5;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    PerfEstimator est;
    est.fit(r.history);
    ASSERT_TRUE(est.trained());
    TuneParams good = r.best;
    TuneParams bad;
    bad.tile_oh = 32;
    bad.permute = LoopPermutation::kCoCiHW;
    bad.blocked = false;
    EXPECT_LT(est.predict(good), est.predict(bad));
}

TEST(PerfEstimator, ArgminPicksLowPredictedCost)
{
    TunerConfig cfg;
    cfg.population = 16;
    cfg.generations = 5;
    cfg.measure_reps = 1;
    TuneResult r = tuneLayer(syntheticCost, TuneSpace{}, cfg);
    PerfEstimator est;
    est.fit(r.history);
    TuneSpace space;
    TuneParams pick = est.argminOver(space);
    // The linear model approximates a non-convex surface; its pick
    // must still land in the cheap region (worst corner costs > 5).
    EXPECT_LT(syntheticCost(pick), 3.0);
}

TEST(PerfEstimator, UntrainedOnTinyHistory)
{
    PerfEstimator est;
    est.fit({});
    EXPECT_FALSE(est.trained());
}

}  // namespace
}  // namespace patdnn
