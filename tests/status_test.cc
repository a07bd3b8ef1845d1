/** @file Error-model tests: ErrorCode exhaustiveness, Status/Result
 * semantics, and the stable artifact detail slugs. */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "serve/artifact.h"
#include "util/status.h"

namespace patdnn {
namespace {

TEST(ErrorCode, EveryCodeHasAStableUniqueName)
{
    // Exhaustive over the enum: each code maps to a non-empty,
    // distinct snake_case name. kErrorCodeCount pins the enum size so
    // adding a code without a name fails here.
    std::set<std::string> names;
    for (int i = 0; i < kErrorCodeCount; ++i) {
        const char* name = errorCodeName(static_cast<ErrorCode>(i));
        ASSERT_NE(name, nullptr) << i;
        EXPECT_STRNE(name, "") << i;
        EXPECT_STRNE(name, "unknown") << i;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate errorCodeName: " << name;
    }
    // The names are a stable API surface: spot-pin the full mapping.
    EXPECT_STREQ(errorCodeName(ErrorCode::kOk), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInvalidArgument),
                 "invalid_argument");
    EXPECT_STREQ(errorCodeName(ErrorCode::kNotFound), "not_found");
    EXPECT_STREQ(errorCodeName(ErrorCode::kDataLoss), "data_loss");
    EXPECT_STREQ(errorCodeName(ErrorCode::kDeviceMismatch), "device_mismatch");
    EXPECT_STREQ(errorCodeName(ErrorCode::kDeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::kCancelled), "cancelled");
    EXPECT_STREQ(errorCodeName(ErrorCode::kResourceExhausted),
                 "resource_exhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::kUnavailable), "unavailable");
    EXPECT_STREQ(errorCodeName(ErrorCode::kInternal), "internal");
    // Out-of-range casts degrade to "unknown" rather than crashing.
    EXPECT_STREQ(errorCodeName(static_cast<ErrorCode>(kErrorCodeCount + 7)),
                 "unknown");
}

TEST(Status, DefaultIsOkErrorCarriesCodeMessageDetail)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), ErrorCode::kOk);
    EXPECT_EQ(ok.toString(), "ok");
    EXPECT_STREQ(ok.detail(), "");
    EXPECT_TRUE(Status::OK().ok());

    Status err(ErrorCode::kNotFound, "no such model", "registry/miss");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::kNotFound);
    EXPECT_EQ(err.message(), "no such model");
    EXPECT_STREQ(err.detail(), "registry/miss");
    EXPECT_EQ(err.toString(), "not_found: no such model");
}

TEST(Result, HoldsValueOrStatusIncludingMoveOnlyTypes)
{
    Result<int> value(42);
    ASSERT_TRUE(value.ok());
    EXPECT_TRUE(static_cast<bool>(value));
    EXPECT_EQ(value.value(), 42);
    EXPECT_EQ(*value, 42);
    EXPECT_EQ(value.valueOr(-1), 42);
    EXPECT_TRUE(value.status().ok());

    Result<int> error(Status(ErrorCode::kResourceExhausted, "queue full"));
    ASSERT_FALSE(error.ok());
    EXPECT_EQ(error.code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(error.status().message(), "queue full");
    EXPECT_EQ(error.valueOr(-1), -1);

    // Move-only payloads.
    Result<std::unique_ptr<int>> boxed(std::make_unique<int>(7));
    ASSERT_TRUE(boxed.ok());
    EXPECT_EQ(*boxed.value(), 7);
    std::unique_ptr<int> taken = std::move(boxed).value();
    EXPECT_EQ(*taken, 7);
}

TEST(Result, StatusReturningFunctionsCompose)
{
    // The Result(T) / Result(Status) implicit constructors make both
    // `return value;` and `return status;` work in one function.
    auto parse = [](int x) -> Result<int> {
        if (x < 0)
            return Status(ErrorCode::kInvalidArgument, "negative");
        return x * 2;
    };
    EXPECT_EQ(parse(4).value(), 8);
    EXPECT_EQ(parse(-1).code(), ErrorCode::kInvalidArgument);
}

TEST(ArtifactDetail, SlugsAreDistinctStableStrings)
{
    // The slugs distinguish kDataLoss failure modes without message
    // matching; pin them as API.
    EXPECT_STREQ(artifact_detail::kBadMagic, "artifact/bad-magic");
    EXPECT_STREQ(artifact_detail::kUnsupportedVersion,
                 "artifact/unsupported-version");
    EXPECT_STREQ(artifact_detail::kTruncatedStream,
                 "artifact/truncated-stream");
    EXPECT_STREQ(artifact_detail::kChecksumMismatch,
                 "artifact/checksum-mismatch");
    EXPECT_STREQ(artifact_detail::kMalformedPayload,
                 "artifact/malformed-payload");
    EXPECT_STREQ(artifact_detail::kFingerprintMismatch,
                 "artifact/fingerprint-mismatch");
}

}  // namespace
}  // namespace patdnn
