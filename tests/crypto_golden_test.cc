// Byte-identity goldens for the crypto layer. Each value was recorded
// before the faster paths that must reproduce it existed: the vendor moduli,
// quote signature and launch measurement with the portable SHA-256
// compression and the square-and-multiply PowMod over DivMod; the device
// boot with the 32-bit Montgomery kernel and the textbook Miller-Rabin test.
// Every faster path (SHA-NI block function, Montgomery PowMod, CRT signing,
// the 64-bit Montgomery context and the small-factor witness rejection in
// Miller-Rabin) must reproduce them exactly. They cover RSA key generation
// (which drives Miller-Rabin and therefore the RNG stream), the whole device
// boot (EK, AK, the AK endorsement and the boot RNG state left behind, which
// every scenario digest depends on), an nf_attest quote signature, and the
// nf_launch measurement of a padded image together with the tenant-side
// recomputation of it.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/snic_device.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"
#include "src/scenario/crypto_memo.h"

namespace snic {
namespace {

constexpr uint64_t kVendorSeed = 0x5eed0c0de;

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

TEST(CryptoGoldenTest, VendorModulus512) {
  Rng rng(kVendorSeed);
  const crypto::VendorAuthority vendor(512, rng);
  EXPECT_EQ(vendor.public_key().n.ToHex(),
            "70f93d0c2b2e465d3e35cdf3e6c48e2776ff1f73b32f4bb75c5d5a85e76faa72"
            "4bb30f310985face8d4ff498c3f0c6e4673f344a674a38dda69afb475a8aeb01");
}

TEST(CryptoGoldenTest, VendorModulus768) {
  Rng rng(kVendorSeed);
  const crypto::VendorAuthority vendor(768, rng);
  EXPECT_EQ(vendor.public_key().n.ToHex(),
            "883d0f1eaaf01f6c9ef54f445ba9b352336d37df1ca332fdec9a2dc21e628a98"
            "0afc1dce2b1bc316e6122536a90fe9ce1033b7ac799e1e791f5c06d8c5c9a106"
            "346f60a603cf2e4718cfc3be5cb436f21d39322978c89d87658644b8407459f7");
}

struct BootGolden {
  size_t bits;
  const char* ek_modulus;
  const char* ak_modulus;
  const char* ak_endorsement;
  uint64_t next_boot_u64;
};

constexpr BootGolden kBootGoldens[] = {
    {512,
     "830b547a9488026e28ce6ec18fdbff57381782856aafd421e9105ef50643a068"
     "0a379edea0ed68aeb3e3ac288ee27662f1b48cdf5da86b037d9c9e365cab6003",
     "9c201100853edbf10e2d285d4d9e77e28486aa473cad4293c3cd61cc2de75084"
     "8c611d4401c86d7724822de5c0bcfac9e41998438b7758633bea87c850e28a6b",
     "2e26dda007366ba06e626740d335d726ceee38a5c8820faed33bab95ac3b1693"
     "1a836a24e080c39c04d3d3e0721eb737699a87509b5e86b4c6deff8b5aba86c4",
     0x12576f72fa089ba2ULL},
    {768,
     "c418e5536f95fa6fc3875664706cbcc9cf7657031983bf71d6780c4120dbc9c4"
     "b3db6fa55aa441623c014b3fd335ccec28ff74fbaeb30b35d3db6bda640c0057"
     "208e719a17537dc059317ad7ef70e042768b0e952cadc665091cac6fea441fcd",
     "c705edb3a05c6b6e3b7682d52f6df6272f764aa72660ef1a794e5e09e5a9d863"
     "2bde8aedaefc7010ce50f243a7c967ed1c9eb7d748e1e8cc82c38bb64a541307"
     "52aef10f8a1cc9af54b6dde76af4d04e27874b131b8588f793112f01c946c4a9",
     "74e4ca468931afb7dd6f965a87bb75f98c027b85696ce1f2b380755210614936"
     "d6d5b964bd4e3ad45e16e921eda68a75301cc75f9ca83d09918933583e3bae8f"
     "ce54ca25a65b46668803ce1a3dfabd54505df0123a4e32943aba5ae88b44af86",
     0xaae7252fa7830b57ULL},
};

// The device boot at the default boot seed: SnicDevice seeds its boot RNG
// with config.boot_seed and hands it to NicRootOfTrust, which draws the EK
// and AK primes. The same construction on a local Rng exposes the stream
// position the device is left at.
TEST(CryptoGoldenTest, RootOfTrustBoot) {
  // One memo across both sizes: its single boot entry holds the 512-bit
  // keys when the 768-bit boot is asked for, which must miss.
  scenario::CryptoMemo memo;
  uint64_t expected_misses = 0;
  for (const BootGolden& golden : kBootGoldens) {
    SCOPED_TRACE(golden.bits);
    Rng vendor_rng(kVendorSeed);
    const crypto::VendorAuthority vendor(golden.bits, vendor_rng);
    core::SnicConfig config;
    config.num_cores = 4;
    config.dram_bytes = 32ull << 20;
    config.rsa_modulus_bits = golden.bits;

    Rng boot_rng(config.boot_seed);
    const crypto::NicRootOfTrust root(vendor, golden.bits, boot_rng);
    EXPECT_EQ(root.ek_certificate().subject_key.n.ToHex(), golden.ek_modulus);
    EXPECT_EQ(root.ak_public().n.ToHex(), golden.ak_modulus);
    EXPECT_EQ(Hex(root.ak_endorsement()), golden.ak_endorsement);
    EXPECT_EQ(boot_rng.NextU64(), golden.next_boot_u64);

    const core::SnicDevice device(config, vendor);
    EXPECT_EQ(device.root_of_trust().ek_certificate().subject_key.n.ToHex(),
              golden.ek_modulus);
    EXPECT_EQ(device.root_of_trust().ak_public().n.ToHex(), golden.ak_modulus);
    EXPECT_EQ(Hex(device.root_of_trust().ak_endorsement()),
              golden.ak_endorsement);

    // The memoised boot: keys from a CryptoMemo (a miss, then a hit), the
    // device rebuilt from them with the EK certificate re-issued. Keys,
    // certificate, endorsement and the boot RNG left behind must all equal
    // the uncached boot's.
    ++expected_misses;
    for (int lookup = 0; lookup < 2; ++lookup) {
      SCOPED_TRACE(lookup == 0 ? "miss" : "hit");
      core::BootKeys boot = memo.Boot(config.boot_seed, golden.bits);
      Rng boot_rng_after = boot.rng;
      EXPECT_EQ(boot_rng_after.NextU64(), golden.next_boot_u64);
      const core::SnicDevice memoised(config, vendor, std::move(boot));
      const crypto::NicRootOfTrust& got = memoised.root_of_trust();
      const crypto::NicRootOfTrust& want = device.root_of_trust();
      EXPECT_EQ(got.ek_certificate().subject_key.n.ToHex(), golden.ek_modulus);
      EXPECT_EQ(got.ek_certificate().subject, want.ek_certificate().subject);
      EXPECT_EQ(got.ek_certificate().issuer_signature,
                want.ek_certificate().issuer_signature);
      EXPECT_EQ(got.ak_public().n.ToHex(), golden.ak_modulus);
      EXPECT_EQ(Hex(got.ak_endorsement()), golden.ak_endorsement);
      const std::vector<uint8_t> payload = {1, 2, 3, 4};
      EXPECT_EQ(got.SignWithAk(payload), want.SignWithAk(payload));
    }
    EXPECT_EQ(memo.boot_misses(), expected_misses);
  }
}

// A device with 1 MiB pages running one fixed 3000-byte image: the image
// fills part of one page, so the measurement covers a long zero tail.
class LaunchGoldenTest : public ::testing::Test {
 protected:
  LaunchGoldenTest()
      : rng_(kVendorSeed), vendor_(512, rng_), device_(Config(), vendor_),
        nic_os_(&device_) {}

  static core::SnicConfig Config() {
    core::SnicConfig config;
    config.num_cores = 4;
    config.dram_bytes = 32ull << 20;
    config.page_bytes = 1ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  static mgmt::FunctionImage Image() {
    mgmt::FunctionImage image;
    image.name = "golden-fn";
    image.code_and_data.resize(3000);
    for (size_t i = 0; i < image.code_and_data.size(); ++i) {
      image.code_and_data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    image.memory_bytes = 4ull << 20;
    return image;
  }

  Rng rng_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
};

TEST_F(LaunchGoldenTest, MeasurementMatchesGoldenAndVerifier) {
  const mgmt::FunctionImage image = Image();
  const auto id = nic_os_.NfCreate(image);
  ASSERT_TRUE(id.ok());
  const crypto::Sha256Digest measured =
      device_.MeasurementOf(id.value()).value();
  EXPECT_EQ(crypto::DigestToHex(measured),
            "1245bbec512115905f0c5ed2e3559ab6f871f8376aff26ac0e106e1439e6dee5");
  EXPECT_EQ(mgmt::ExpectedMeasurement(image, device_.config().page_bytes),
            measured);
}

TEST_F(LaunchGoldenTest, QuoteSignature) {
  const auto id = nic_os_.NfCreate(Image());
  ASSERT_TRUE(id.ok());
  Rng dh_rng(77);
  const crypto::DhParticipant dh(crypto::SmallTestGroup(), dh_rng);
  EXPECT_EQ(dh.public_value().ToHex(),
            "2e14ddd8ac90adcbb044b93a0765acd50e336f4babc03f8023fc1fbfd4e7c353");

  core::AttestationRequest request;
  request.group = crypto::SmallTestGroup();
  request.nonce = {0xa5, 0x5a, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  request.g_x = dh.public_value();
  const auto quote = device_.NfAttest(id.value(), request);
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(Hex(quote.value().signature),
            "67c13fc7a6a56596d7bb66a0ea336e3e3a0fb8062d8d6bcafd89912b1fb01bd8"
            "4cba6bb2f51b372b61cf8c171e3d98877d6bb8e76018951f2002159813a04972");
  EXPECT_TRUE(core::VerifyQuote(vendor_.public_key(), quote.value(),
                                request.nonce)
                  .Ok());
}

}  // namespace
}  // namespace snic
