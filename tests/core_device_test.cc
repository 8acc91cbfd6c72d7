// Tests for SnicDevice: the trusted-instruction lifecycle (§4.1, §4.6),
// single-owner RAM semantics (§4.2), accelerator binding (§4.3), packet
// steering (§4.4), and the commodity-mode contrast.

#include <gtest/gtest.h>

#include "src/core/snic_device.h"
#include "src/net/parser.h"

namespace snic::core {
namespace {

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : vendor_(MakeVendor()), device_(SmallConfig(), vendor_) {}

  static crypto::VendorAuthority MakeVendor() {
    Rng rng(1234);
    return crypto::VendorAuthority(512, rng);
  }

  static SnicConfig SmallConfig() {
    SnicConfig config;
    config.mode = SecurityMode::kSnic;
    config.num_cores = 8;
    config.dram_bytes = 64ull << 20;
    config.page_bytes = 2ull << 20;
    config.rsa_modulus_bits = 512;
    return config;
  }

  // Stages a 1-page image owned by the NIC OS and returns launch args.
  NfLaunchArgs StageFunction(uint8_t fill, uint64_t core_mask = 0b10) {
    auto pages = device_.memory().AllocatePages(1, kPageNicOs);
    SNIC_CHECK(pages.ok());
    std::vector<uint8_t> image(device_.memory().page_bytes(), fill);
    device_.memory().Write(pages.value()[0] * device_.memory().page_bytes(),
                           std::span<const uint8_t>(image.data(), image.size()));
    NfLaunchArgs args;
    args.core_mask = core_mask;
    args.image_pages = pages.value();
    args.heap_pages = 2;
    args.config_blob = {1, 2, 3};
    net::SwitchRule rule;
    rule.dst_port = static_cast<uint16_t>(8000 + fill);
    args.vpp.rules.push_back(rule);
    return args;
  }

  crypto::VendorAuthority vendor_;
  SnicDevice device_;
};

TEST_F(DeviceTest, LaunchTeardownLifecycle) {
  const auto id = device_.NfLaunch(StageFunction(0xaa));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(device_.IsLive(id.value()));
  EXPECT_EQ(device_.LiveNfIds().size(), 1u);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  EXPECT_FALSE(device_.IsLive(id.value()));
  EXPECT_EQ(device_.FreeCores(), 7u);
}

TEST_F(DeviceTest, LaunchRejectsCoreZero) {
  NfLaunchArgs args = StageFunction(1, 0b1);
  const auto id = device_.NfLaunch(args);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(DeviceTest, LaunchRejectsTakenCores) {
  ASSERT_TRUE(device_.NfLaunch(StageFunction(1, 0b10)).ok());
  const auto second = device_.NfLaunch(StageFunction(2, 0b10));
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyOwned);
}

TEST_F(DeviceTest, LaunchRejectsOwnedPages) {
  NfLaunchArgs args1 = StageFunction(1, 0b10);
  ASSERT_TRUE(device_.NfLaunch(args1).ok());
  // Replay the same image pages for a second function.
  NfLaunchArgs args2 = StageFunction(2, 0b100);
  args2.image_pages = args1.image_pages;
  const auto second = device_.NfLaunch(args2);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyOwned);
}

TEST_F(DeviceTest, LaunchRejectsNonexistentCores) {
  NfLaunchArgs args = StageFunction(1, 1ull << 20);  // core 20 of 8
  EXPECT_EQ(device_.NfLaunch(args).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(DeviceTest, NfMemoryIsolatedFromMgmt) {
  const auto id = device_.NfLaunch(StageFunction(0x5a));
  ASSERT_TRUE(id.ok());
  // The function reads its own image through its TLB.
  const auto byte = device_.NfRead(id.value(), 0);
  ASSERT_TRUE(byte.ok());
  EXPECT_EQ(byte.value(), 0x5a);
  // The management core is locked out of every owned page.
  const auto pages = device_.memory().PagesOwnedBy(id.value());
  ASSERT_FALSE(pages.empty());
  for (uint64_t page : pages) {
    const auto denied =
        device_.MgmtReadPhys(page * device_.memory().page_bytes());
    EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);
    EXPECT_EQ(device_.MgmtWritePhys(page * device_.memory().page_bytes(), 0)
                  .code(),
              ErrorCode::kPermissionDenied);
  }
  // Non-owned pages remain reachable to the NIC OS.
  EXPECT_TRUE(device_.MgmtReadPhys(device_.memory().total_bytes() - 1).ok());
}

TEST_F(DeviceTest, NfCannotReachBeyondItsMapping) {
  const auto id = device_.NfLaunch(StageFunction(1));
  ASSERT_TRUE(id.ok());
  // 1 image page + 2 heap pages mapped: vaddr beyond 3 pages faults.
  const uint64_t limit = 3 * device_.memory().page_bytes();
  EXPECT_TRUE(device_.NfRead(id.value(), limit - 1).ok());
  EXPECT_EQ(device_.NfRead(id.value(), limit).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(device_.NfWrite(id.value(), limit, 1).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DeviceTest, HeapPagesZeroFilledAndWritable) {
  const auto id = device_.NfLaunch(StageFunction(0x77));
  ASSERT_TRUE(id.ok());
  const uint64_t heap_vaddr = device_.memory().page_bytes();  // second page
  EXPECT_EQ(device_.NfRead(id.value(), heap_vaddr).value(), 0);
  ASSERT_TRUE(device_.NfWrite(id.value(), heap_vaddr, 0x42).ok());
  EXPECT_EQ(device_.NfRead(id.value(), heap_vaddr).value(), 0x42);
}

TEST_F(DeviceTest, TeardownScrubsPages) {
  const auto id = device_.NfLaunch(StageFunction(0xee));
  ASSERT_TRUE(id.ok());
  const auto pages = device_.memory().PagesOwnedBy(id.value());
  ASSERT_FALSE(pages.empty());
  const uint64_t paddr = pages[0] * device_.memory().page_bytes();
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  // The page is free again and reads zero — no residue for the next owner.
  EXPECT_EQ(device_.memory().OwnerOf(pages[0]), kPageFree);
  EXPECT_EQ(device_.memory().ReadByte(paddr), 0);
  EXPECT_TRUE(device_.MgmtReadPhys(paddr).ok());  // denylist entry removed
}

TEST_F(DeviceTest, MeasurementDiffersByImage) {
  const auto id1 = device_.NfLaunch(StageFunction(0x01, 0b10));
  const auto id2 = device_.NfLaunch(StageFunction(0x02, 0b100));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(device_.MeasurementOf(id1.value()).value(),
            device_.MeasurementOf(id2.value()).value());
}

TEST_F(DeviceTest, MeasurementDiffersByConfig) {
  NfLaunchArgs a = StageFunction(0x03, 0b10);
  NfLaunchArgs b = StageFunction(0x03, 0b100);
  b.config_blob = {9, 9, 9};
  // Same image bytes, different config: measurements must differ (the hash
  // covers switching rules and resource requests, §4.6).
  const auto id1 = device_.NfLaunch(a);
  const auto id2 = device_.NfLaunch(b);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(device_.MeasurementOf(id1.value()).value(),
            device_.MeasurementOf(id2.value()).value());
}

// The written extent is a high-water mark of writes since the last zeroing,
// per page, whatever order the writes come in.
TEST(PhysicalMemoryTest, WrittenExtentIsHighWaterMarkUntilZeroed) {
  constexpr uint64_t kPage = 4096;
  PhysicalMemory memory(8 * kPage, kPage);
  const std::vector<uint8_t> bytes(16, 0x5e);
  EXPECT_TRUE(memory.WrittenPrefix(1).empty());
  memory.Write(kPage + 1000, std::span<const uint8_t>(bytes.data(), 10));
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 1010u);
  memory.Write(kPage, std::span<const uint8_t>(bytes.data(), 5));  // lower
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 1010u);
  EXPECT_EQ(memory.WrittenPrefix(1)[1000], 0x5e);
  // A write across a page boundary extends both pages.
  memory.Write(3 * kPage - 4, std::span<const uint8_t>(bytes.data(), 8));
  EXPECT_EQ(memory.WrittenPrefix(2).size(), kPage);
  EXPECT_EQ(memory.WrittenPrefix(3).size(), 4u);
  // Zeroing resets the extent; a shorter rewrite sets it afresh.
  memory.ZeroPage(1);
  EXPECT_TRUE(memory.WrittenPrefix(1).empty());
  memory.Write(kPage, std::span<const uint8_t>(bytes.data(), 3));
  EXPECT_EQ(memory.WrittenPrefix(1).size(), 3u);
  EXPECT_EQ(memory.ReadByte(kPage + 1000), 0);
}

// nf_launch hashes each image page as its written prefix plus a zero run;
// the digest must equal SHA-256 over the whole pages read back, then the
// configuration blob. Writes land out of order and leave interior zeros.
TEST_F(DeviceTest, LaunchMeasurementMatchesWholePageHash) {
  crypto::Sha256ZeroMemo memo;
  crypto::Sha256ZeroMemo* const memos[] = {nullptr, &memo};
  std::vector<double> sha_ms;
  for (crypto::Sha256ZeroMemo* m : memos) {
    device_.SetMeasurementMemo(m);
    const uint64_t page_bytes = device_.memory().page_bytes();
    auto pages = device_.memory().AllocatePages(2, kPageNicOs);
    ASSERT_TRUE(pages.ok());
    const std::vector<uint8_t> high(300, 0xc3);
    const std::vector<uint8_t> low(20, 0x3c);
    for (uint64_t page : pages.value()) {
      device_.memory().Write(page * page_bytes + 5000, high);
      device_.memory().Write(page * page_bytes + 7, low);
    }
    NfLaunchArgs args;
    args.core_mask = 0b10;
    args.image_pages = pages.value();
    args.config_blob = {4, 5, 6};

    crypto::Sha256 oracle;
    std::vector<uint8_t> page_copy(page_bytes);
    for (uint64_t page : pages.value()) {
      device_.memory().Read(page * page_bytes, page_copy);
      oracle.Update(page_copy);
    }
    oracle.Update(args.config_blob);
    const crypto::Sha256Digest want = oracle.Finalize();

    const auto id = device_.NfLaunch(args);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(device_.MeasurementOf(id.value()).value(), want);
    sha_ms.push_back(device_.last_launch_latency().sha_digest_ms);
    ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  }
  // The modeled digest time covers both whole pages, memo or not (the
  // window also spans the denylist update).
  const accel::CryptoCoprocRates& rates = device_.coproc().rates();
  for (const double ms : sha_ms) {
    EXPECT_NEAR(ms,
                static_cast<double>(2 * device_.memory().page_bytes() + 3) /
                        rates.sha_bytes_per_ms +
                    rates.denylist_ms,
                1e-9);
  }
}

TEST_F(DeviceTest, AcceleratorClustersBoundAndReleased) {
  NfLaunchArgs args = StageFunction(0x04);
  args.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kDpi)] = 3;
  const auto id = device_.NfLaunch(args);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kDpi),
            13u);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kDpi),
            16u);
}

TEST_F(DeviceTest, LaunchFailsAtomicallyOnAccelExhaustion) {
  NfLaunchArgs args = StageFunction(0x05);
  args.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] = 99;
  const auto id = device_.NfLaunch(args);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kResourceExhausted);
  // Nothing leaked: cores free, pages staged back to the NIC OS pool, no
  // clusters held.
  EXPECT_EQ(device_.FreeCores(), 7u);
  EXPECT_EQ(device_.accel_pool().FreeClusters(accel::AcceleratorType::kZip),
            16u);
  EXPECT_TRUE(device_.LiveNfIds().empty());
}

TEST_F(DeviceTest, PacketSteeringToMatchingVpp) {
  NfLaunchArgs args = StageFunction(0x06);  // rule: dst_port 8006
  const auto id = device_.NfLaunch(args);
  ASSERT_TRUE(id.ok());

  net::FiveTuple t;
  t.src_ip = net::Ipv4FromString("1.1.1.1");
  t.dst_ip = net::Ipv4FromString("2.2.2.2");
  t.src_port = 1;
  t.dst_port = 8006;
  t.protocol = 6;
  ASSERT_TRUE(
      device_.DeliverFromWire(net::PacketBuilder().SetTuple(t).Build()).ok());
  const auto received = device_.NfReceive(id.value());
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(net::Parse(received.value().bytes()).value().Tuple(), t);

  // Unmatched traffic is dropped and counted.
  t.dst_port = 9999;
  EXPECT_FALSE(
      device_.DeliverFromWire(net::PacketBuilder().SetTuple(t).Build()).ok());
  EXPECT_EQ(device_.unmatched_rx_drops(), 1u);
}

TEST_F(DeviceTest, TxRoundRobinAcrossVpps) {
  const auto id1 = device_.NfLaunch(StageFunction(0x07, 0b10));
  const auto id2 = device_.NfLaunch(StageFunction(0x08, 0b100));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(device_.NfSend(id1.value(),
                             net::PacketBuilder().SetFrameLen(100).Build())
                  .ok());
  ASSERT_TRUE(device_.NfSend(id2.value(),
                             net::PacketBuilder().SetFrameLen(200).Build())
                  .ok());
  const auto first = device_.TransmitToWire();
  const auto second = device_.TransmitToWire();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().size(), second.value().size());
  EXPECT_FALSE(device_.TransmitToWire().ok());
}

TEST_F(DeviceTest, CommodityModeAllowsPhysicalAccess) {
  SnicConfig config = SmallConfig();
  config.mode = SecurityMode::kCommodity;
  Rng rng(99);
  crypto::VendorAuthority vendor(512, rng);
  SnicDevice commodity(config, vendor);
  EXPECT_TRUE(commodity.CoreWritePhys(2, 12345, 0xcd).ok());
  EXPECT_EQ(commodity.CoreReadPhys(3, 12345).value(), 0xcd);
  // Trusted instructions require S-NIC mode.
  NfLaunchArgs args;
  args.core_mask = 0b10;
  args.image_pages = {0};
  EXPECT_EQ(commodity.NfLaunch(args).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(DeviceTest, SnicModeDeniesCorePhysicalAccess) {
  EXPECT_EQ(device_.CoreReadPhys(2, 0).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(device_.CoreWritePhys(2, 0, 1).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DeviceTest, LaunchLatencyAccounted) {
  const auto id = device_.NfLaunch(StageFunction(0x09));
  ASSERT_TRUE(id.ok());
  const LaunchLatency& launch = device_.last_launch_latency();
  EXPECT_GT(launch.sha_digest_ms, 0.0);
  EXPECT_NEAR(launch.tlb_setup_ms, 0.0196, 1e-6);
  EXPECT_NEAR(launch.denylist_ms, 0.0044, 1e-6);
  ASSERT_TRUE(device_.NfTeardown(id.value()).ok());
  const TeardownLatency& teardown = device_.last_teardown_latency();
  EXPECT_GT(teardown.scrub_ms, 0.0);
  // Scrubbing dominates teardown (99.99% per Appendix C).
  EXPECT_GT(teardown.scrub_ms, teardown.allowlist_ms * 100);
}

TEST_F(DeviceTest, UnknownNfIdRejected) {
  EXPECT_EQ(device_.NfTeardown(999).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(device_.NfRead(999, 0).ok());
  EXPECT_FALSE(device_.MeasurementOf(999).ok());
  EXPECT_FALSE(device_.NfReceive(999).ok());
}

}  // namespace
}  // namespace snic::core
