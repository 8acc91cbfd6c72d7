// Tests for the tenant-side verifier: the §4.8 claim that a hostile NIC OS
// "improperly setting up" a function (dropped pages, altered configuration,
// swapped rules) is always caught by attestation.

#include <gtest/gtest.h>

#include "src/mgmt/verifier.h"
#include "src/net/parser.h"

namespace snic::mgmt {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : rng_(80), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  static FunctionImage Image() {
    FunctionImage image;
    image.name = "tenant-fn";
    image.code_and_data.assign(5000, 0x61);
    image.code_and_data[4000] = 0x7f;  // non-uniform content
    image.memory_bytes = 6ull << 20;
    net::SwitchRule rule;
    rule.dst_port = 443;
    image.switch_rules.push_back(rule);
    return image;
  }

  core::AttestationQuote QuoteFor(uint64_t nf_id,
                                  const std::vector<uint8_t>& nonce,
                                  const crypto::DhParticipant& dh) {
    core::AttestationRequest request;
    request.group = crypto::SmallTestGroup();
    request.nonce = nonce;
    request.g_x = dh.public_value();
    auto quote = device_.NfAttest(nf_id, request);
    SNIC_CHECK(quote.ok());
    return quote.value();
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  NicOs nic_os_;
};

TEST_F(VerifierTest, ExpectedMeasurementMatchesHardware) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(ExpectedMeasurement(image, device_.config().page_bytes),
            device_.MeasurementOf(id.value()).value());
}

// ---- nf_launch against the memo-less ExpectedMeasurement oracle ----------

// Launches `image` twice, first without a zero-run memo, then with one,
// and checks both measurements against the memo-less recomputation (the
// oracle) and against the memoised one. Tears both launches down.
void ExpectLaunchMatchesOracle(core::SnicDevice& device, NicOs& nic_os,
                               const FunctionImage& image) {
  const uint64_t page_bytes = device.config().page_bytes;
  const crypto::Sha256Digest oracle = ExpectedMeasurement(image, page_bytes);
  crypto::Sha256ZeroMemo memo;
  crypto::Sha256ZeroMemo* const device_memos[] = {nullptr, &memo};
  for (crypto::Sha256ZeroMemo* device_memo : device_memos) {
    device.SetMeasurementMemo(device_memo);
    const auto id = nic_os.NfCreate(image);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(device.MeasurementOf(id.value()).value(), oracle);
    ASSERT_TRUE(nic_os.NfDestroy(id.value()).ok());
  }
  EXPECT_EQ(ExpectedMeasurement(image, page_bytes, &memo), oracle);
  device.SetMeasurementMemo(nullptr);
}

TEST_F(VerifierTest, LaunchDiffImageEndingMidPage) {
  ExpectLaunchMatchesOracle(device_, nic_os_, Image());
}

TEST_F(VerifierTest, LaunchDiffImageEndingOnPageBoundary) {
  FunctionImage image = Image();
  image.code_and_data.assign(2 * device_.config().page_bytes, 0x3c);
  image.code_and_data.back() = 0x01;
  image.memory_bytes = 8ull << 20;
  ExpectLaunchMatchesOracle(device_, nic_os_, image);
}

TEST_F(VerifierTest, LaunchDiffImageWithInteriorZeroRuns) {
  // Page 0 is zero in the middle, page 1 starts with a zero run, and the
  // image ends with zeros before its last page is padded.
  const uint64_t page_bytes = device_.config().page_bytes;
  FunctionImage image = Image();
  image.code_and_data.assign(page_bytes + 70000, 0);
  for (size_t i = 0; i < 4096; ++i) {
    image.code_and_data[i] = static_cast<uint8_t>(i * 31 + 5);
    image.code_and_data[page_bytes - 4096 + i] = static_cast<uint8_t>(i + 1);
    image.code_and_data[page_bytes + 60000 + i] = static_cast<uint8_t>(~i);
  }
  image.memory_bytes = 8ull << 20;
  ExpectLaunchMatchesOracle(device_, nic_os_, image);
}

TEST_F(VerifierTest, LaunchDiffPageRewrittenShorterAfterScrub) {
  // The long image's teardown scrubs its pages; the short image is staged
  // into the same first free page and must not measure the old bytes.
  FunctionImage long_image = Image();
  long_image.code_and_data.assign(900000, 0x77);
  ExpectLaunchMatchesOracle(device_, nic_os_, long_image);
  FunctionImage short_image = Image();
  short_image.code_and_data.assign(100, 0x11);
  ExpectLaunchMatchesOracle(device_, nic_os_, short_image);
}

TEST_F(VerifierTest, HonestLaunchVerifiesAndKeysChannel) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      image.name, ExpectedMeasurement(image, device_.config().page_bytes));

  crypto::DhParticipant function_dh(crypto::SmallTestGroup(), rng_);
  crypto::DhParticipant verifier_dh(crypto::SmallTestGroup(), rng_);
  const std::vector<uint8_t> nonce = {5, 5, 5, 5};
  const auto quote = QuoteFor(id.value(), nonce, function_dh);

  const auto channel =
      verifier.VerifyAndKey(image.name, quote, nonce, verifier_dh);
  ASSERT_TRUE(channel.ok());
  // Both sides hold the same key.
  EXPECT_EQ(channel.value().key(),
            function_dh.DeriveChannelKey(verifier_dh.public_value()));
}

TEST_F(VerifierTest, HostileOsTruncatingCodeDetected) {
  // The NIC OS launches a truncated image (omitting the tail page, §4.8).
  FunctionImage truncated = Image();
  truncated.code_and_data.resize(1000);
  const auto id = nic_os_.NfCreate(truncated);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      "tenant-fn", ExpectedMeasurement(Image(), device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {1}, dh);
  const auto channel = verifier.VerifyAndKey("tenant-fn", quote, {1}, dh);
  EXPECT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(channel.status().message().find("measurement mismatch"),
            std::string::npos);
}

TEST_F(VerifierTest, HostileOsAlteringRulesDetected) {
  // The OS swaps the tenant's switch rule for one steering traffic away.
  FunctionImage tampered = Image();
  tampered.switch_rules.clear();
  net::SwitchRule hostile;
  hostile.dst_port = 1;  // not what the tenant asked for
  tampered.switch_rules.push_back(hostile);
  const auto id = nic_os_.NfCreate(tampered);
  ASSERT_TRUE(id.ok());

  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      "tenant-fn", ExpectedMeasurement(Image(), device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {2}, dh);
  EXPECT_FALSE(verifier.VerifyAndKey("tenant-fn", quote, {2}, dh).ok());
}

TEST_F(VerifierTest, FlippedImageByteDetected) {
  FunctionImage flipped = Image();
  flipped.code_and_data[123] ^= 1;
  const auto id = nic_os_.NfCreate(flipped);
  ASSERT_TRUE(id.ok());
  EXPECT_NE(ExpectedMeasurement(Image(), device_.config().page_bytes),
            device_.MeasurementOf(id.value()).value());
}

TEST_F(VerifierTest, UnknownFunctionRejected) {
  Verifier verifier(vendor_.public_key());
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto id = nic_os_.NfCreate(Image());
  ASSERT_TRUE(id.ok());
  const auto quote = QuoteFor(id.value(), {3}, dh);
  EXPECT_EQ(verifier.VerifyAndKey("never-registered", quote, {3}, dh)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(VerifierTest, StaleNonceRejected) {
  const FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  Verifier verifier(vendor_.public_key());
  verifier.ExpectFunction(
      image.name, ExpectedMeasurement(image, device_.config().page_bytes));
  crypto::DhParticipant dh(crypto::SmallTestGroup(), rng_);
  const auto quote = QuoteFor(id.value(), {7, 7}, dh);
  // The verifier expected a different nonce (replay scenario).
  EXPECT_EQ(verifier.VerifyAndKey(image.name, quote, {8, 8}, dh)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
}

}  // namespace
}  // namespace snic::mgmt
