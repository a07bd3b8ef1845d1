/**
 * @file
 * Build-graph sanity guard: the public umbrella header must compile
 * standalone (this TU includes nothing before it) and everything it
 * re-exports must link. Catches include-graph rot — a subsystem header
 * that stops being self-contained, or a facade symbol that loses its
 * definition — before any behavioural suite runs.
 */
#include "core/patdnn.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace patdnn {
namespace {

TEST(BuildSanity, UmbrellaHeaderExposesPipelineTypes)
{
    // Stage 1 (compress), stage 2 (compile), and execution types must
    // all be visible from the single public include.
    static_assert(std::is_default_constructible_v<AdmmConfig>);
    static_assert(std::is_default_constructible_v<DeviceSpec>);
    static_assert(std::is_move_constructible_v<Result<std::shared_ptr<CompiledModel>>>,
                  "compile results must at least be movable");
    SUCCEED();
}

TEST(BuildSanity, FacadeSymbolsLink)
{
    // Odr-use the facade entry points so a missing definition in
    // src/core/compiler.cc becomes a link error in this suite.
    auto compress_fn = &Compiler::compress;
    auto tune_fn = &Compiler::tuneLayer;
    auto compile_fn = &Compiler::compile;
    EXPECT_NE(compress_fn, nullptr);
    EXPECT_NE(tune_fn, nullptr);
    EXPECT_NE(compile_fn, nullptr);
}

TEST(BuildSanity, SubsystemLibrariesAreUsable)
{
    // Touch one symbol per subsystem library reachable from the
    // umbrella header, so every static library participates in the
    // link of this binary.
    DeviceSpec dev;                                     // rt
    (void)dev;
    PatternSet set = canonicalPatternSet(4);            // prune
    EXPECT_EQ(set.size(), 4);
}

}  // namespace
}  // namespace patdnn
