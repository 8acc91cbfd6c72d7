// datapath_mix: the per-packet device path, one 32-frame burst per
// operation.
//
// Six tenants, one per NF kind at §5.1 sizes (nf::MakeNf(kind, false)), are
// launched through NicOs::NfCreate on a device with a 768-bit root of trust
// and steered by dst-port switch rules. FW, DPI and NAT sit behind vNIC VFs
// whose descriptor rings the driver refills every burst; a credit-mode
// chain link carries FW's output to LB; the DPI tenant sends each frame
// through an AccelDispatchGate on its own DPI cluster; a bounded TraceRing
// is attached to the device, the front-end, the chain and the gate. Frames
// follow the CAIDA-like preset, with the dst port rewritten to a tenant's
// port (by flow rank, so a flow stays with one tenant); LB is fed only by
// the chain.
//
// One burst: AdvanceClockTo; vNIC refill (PostDescriptors, RingDoorbell);
// DeliverFromWire for each frame; every tenant drains its RX queue
// (NfReceive, NetworkFunction::Process, NfSend); Harvest of the VF
// completions; ChainManager::TickAll; TransmitToWire until the device is
// empty.
//
// Oracle: fresh NF instances process the same frames in the same order
// outside the device. The frames TransmitToWire returns are kept (moved,
// not copied) and, outside the timed region, digested per sending tenant,
// which the frame's flow rank names (FW's frames leave through LB, over the
// chain); each tenant's digest must match burst for burst. After a final
// drain every delivered frame must be accounted for: delivered = TX + NF
// drops + counted queue drops.

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "e2e_bench/workload.h"
#include "src/accel/accelerator.h"
#include "src/common/rng.h"
#include "src/core/chaining.h"
#include "src/core/overload.h"
#include "src/core/snic_device.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/pf_vf.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"
#include "src/nf/nf_factory.h"
#include "src/obs/trace_ring.h"
#include "src/trace/trace_gen.h"

namespace snic::e2e {
namespace {

constexpr size_t kTenants = nf::kNumNfKinds;
// Tenant index = position in nf::AllNfKinds().
constexpr size_t kFw = 0, kDpi = 1, kNat = 2, kLb = 3;
constexpr const char* kShortName[kTenants] = {"fw", "dpi", "nat",
                                              "lb", "lpm", "mon"};
constexpr size_t kWireTenants[] = {0, 1, 2, 4, 5};
constexpr size_t kBurstFrames = 32;
constexpr double kChunkFrames = 256 * kBurstFrames;  // throughput chunks
constexpr uint16_t kPortBase = 7001;
constexpr uint32_t kRingSlots = 64;
constexpr uint16_t kBufferBytes = 2048;
constexpr uint64_t kCyclesPerBurst = 32'000;
constexpr size_t kTraceRingRecords = 4096;
constexpr auto kDpiType = accel::AcceleratorType::kDpi;

bool HasVf(size_t tenant) {
  return tenant == kFw || tenant == kDpi || tenant == kNat;
}

// The tenant a wire frame's flow is steered to (by its dst port).
size_t WireTenant(const net::Packet& frame) {
  return kWireTenants[frame.flow_rank() % 5];
}

// The tenant whose TX queue a transmitted frame left through: FW's
// forwarded frames reach the wire through LB, over the chain.
size_t SenderOf(const net::Packet& frame) {
  const size_t tenant = WireTenant(frame);
  return tenant == kFw ? kLb : tenant;
}

// A multiply-xorshift hash over each transmitted frame's length and bytes,
// eight bytes at a time (a byte-wise hash made the checks cost as much as
// the NFs).
class Digest {
 public:
  void Add(std::span<const uint8_t> bytes) {
    Mix(bytes.size());
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, bytes.data() + i, 8);
      Mix(word);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    Mix(tail);
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t word) {
    h_ = (h_ ^ word) * 0x9e3779b97f4a7c15ULL;
    h_ ^= h_ >> 29;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

using BurstDigests = std::array<uint64_t, kTenants>;

struct DatapathState {
  std::unique_ptr<crypto::VendorAuthority> vendor;
  std::unique_ptr<obs::TraceRing> ring;
  std::unique_ptr<core::SnicDevice> device;
  std::unique_ptr<core::vnic::PfVfManager> front_end;
  std::unique_ptr<mgmt::NicOs> nic_os;
  std::unique_ptr<core::ChainManager> chains;
  std::unique_ptr<core::AccelDispatchGate> gate;
  std::array<uint64_t, kTenants> nf_id{};
  std::array<uint32_t, kTenants> vf{};
  std::array<uint64_t, kTenants> posted{};
  uint32_t dpi_cluster = 0;
  std::array<std::unique_ptr<nf::NetworkFunction>, kTenants> nfs;
  std::vector<net::Packet> frames;
  std::vector<uint8_t> frame_tenant;
};

// In-order RX descriptors for two laps of the ring, encoded once: a refill
// of `count` descriptors continuing at ring position p is the byte range of
// descriptors [p, p + count).
std::vector<uint8_t> EncodeTwoLaps() {
  std::vector<core::vnic::RxDescriptor> batch(2 * kRingSlots);
  for (uint32_t i = 0; i < 2 * kRingSlots; ++i) {
    const uint32_t index = i % kRingSlots;
    batch[i].ring_index = static_cast<uint16_t>(index);
    batch[i].buffer_len = kBufferBytes;
    batch[i].buffer_addr = core::vnic::kBufferAlign * (index + 1);
  }
  return core::vnic::EncodeDescriptors(batch);
}

std::unique_ptr<DatapathState> Setup(const Options& options,
                                     Tracer& setup_spans) {
  auto state = std::make_unique<DatapathState>();
  DatapathState& s = *state;
  {
    SpanScope span(&setup_spans, setup_spans.Intern("crypto.boot"));
    Rng key_rng(kRootOfTrustSeed);
    s.vendor = std::make_unique<crypto::VendorAuthority>(768, key_rng);
    core::SnicConfig config;
    config.dram_bytes = 256ull << 20;
    config.boot_seed = key_rng.NextU64();
    s.device = std::make_unique<core::SnicDevice>(config, *s.vendor);
  }
  Rng rng(options.seed);
  s.ring = std::make_unique<obs::TraceRing>(kTraceRingRecords);
  s.device->AttachTraceRing(s.ring.get());
  s.front_end = std::make_unique<core::vnic::PfVfManager>();
  s.front_end->AttachTraceRing(s.ring.get());
  s.device->AttachVnicFrontEnd(s.front_end.get());
  s.nic_os = std::make_unique<mgmt::NicOs>(s.device.get());

  const auto kinds = nf::AllNfKinds();
  {
    SpanScope span(&setup_spans, setup_spans.Intern("mgmt.nf_create"));
    for (size_t t = 0; t < kTenants; ++t) {
      mgmt::FunctionImage image;
      image.name = kShortName[t];
      image.code_and_data.resize(64 * 1024);
      for (uint8_t& byte : image.code_and_data) {
        byte = static_cast<uint8_t>(rng.NextU64());
      }
      image.memory_bytes = 8ull << 20;
      net::SwitchRule rule;
      rule.dst_port = static_cast<uint16_t>(kPortBase + t);
      image.switch_rules.push_back(rule);
      if (t == kDpi) {
        image.accel_clusters[static_cast<size_t>(kDpiType)] = 1;
      }
      const auto id = s.nic_os->NfCreate(image);
      SNIC_CHECK(id.ok());
      s.nf_id[t] = id.value();
      if (HasVf(t)) {
        core::vnic::VfQuota quota;
        quota.ring_slots = kRingSlots;
        quota.cq_slots = kRingSlots;
        const auto vf = s.front_end->CreateVf(s.nf_id[t],
                                              s.device->Vpp(s.nf_id[t]), quota);
        SNIC_CHECK(vf.ok());
        s.vf[t] = vf.value();
      }
    }
  }
  s.chains = std::make_unique<core::ChainManager>(s.device.get());
  s.chains->AttachTraceRing(s.ring.get());
  core::ChainLinkConfig link;
  link.producer_nf = s.nf_id[kFw];
  link.consumer_nf = s.nf_id[kLb];
  link.frames_per_tick = 2 * kBurstFrames;
  link.flow_control = core::ChainFlowControl::kCredit;
  SNIC_CHECK(s.chains->CreateLink(link).ok());
  accel::VirtualAcceleratorPool& pool = s.device->accel_pool();
  for (uint32_t i = 0; i < pool.NumClusters(kDpiType); ++i) {
    if (pool.Owner(kDpiType, i) == std::optional<uint64_t>(s.nf_id[kDpi])) {
      s.dpi_cluster = i;
    }
  }
  s.gate = std::make_unique<core::AccelDispatchGate>(
      &pool, s.nf_id[kDpi], core::CircuitBreakerConfig{});
  s.gate->AttachTraceRing(s.ring.get());

  {
    SpanScope span(&setup_spans, setup_spans.Intern("nf.construct"));
    for (size_t t = 0; t < kTenants; ++t) {
      s.nfs[t] = nf::MakeNf(kinds[t], false);
    }
  }

  SpanScope span(&setup_spans, setup_spans.Intern("trace.generate"));
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(options.seed));
  s.frames = stream.Generate(options.tiny ? 2048 : 32768);
  s.frame_tenant.resize(s.frames.size());
  for (size_t i = 0; i < s.frames.size(); ++i) {
    net::Packet& frame = s.frames[i];
    const size_t tenant = WireTenant(frame);
    s.frame_tenant[i] = static_cast<uint8_t>(tenant);
    const auto parsed = net::Parse(frame.bytes());
    SNIC_CHECK(parsed.ok());
    const uint16_t port = static_cast<uint16_t>(kPortBase + tenant);
    frame.mutable_bytes()[parsed.value().l4_offset + 2] =
        static_cast<uint8_t>(port >> 8);
    frame.mutable_bytes()[parsed.value().l4_offset + 3] =
        static_cast<uint8_t>(port);
  }
  return state;
}

// The oracle: the same frames, in the same order, through fresh NFs. FW's
// forwarded frames go on to LB one burst later, as the chain moves them, so
// FW's own slot stays the digest of no frames, as on the wire.
std::vector<BurstDigests> OracleDigests(const DatapathState& s,
                                        size_t bursts) {
  const auto kinds = nf::AllNfKinds();
  std::array<std::unique_ptr<nf::NetworkFunction>, kTenants> nfs;
  for (size_t t = 0; t < kTenants; ++t) {
    nfs[t] = nf::MakeNf(kinds[t], false);
  }
  std::vector<BurstDigests> digests(bursts + 1);  // + the final drain
  std::vector<net::Packet> carry, next_carry;
  for (size_t b = 0; b <= bursts; ++b) {
    std::array<Digest, kTenants> d;
    if (b < bursts) {
      for (size_t i = 0; i < kBurstFrames; ++i) {
        const size_t f = (b * kBurstFrames + i) % s.frames.size();
        const size_t t = s.frame_tenant[f];
        net::Packet packet = s.frames[f];
        if (nfs[t]->Process(packet) == nf::Verdict::kForward) {
          if (t == kFw) {
            next_carry.push_back(std::move(packet));
          } else {
            d[t].Add(packet.bytes());
          }
        }
      }
    }
    // LB drains what the chain moved at the previous burst's tick.
    for (net::Packet& packet : carry) {
      if (nfs[kLb]->Process(packet) == nf::Verdict::kForward) {
        d[kLb].Add(packet.bytes());
      }
    }
    carry.swap(next_carry);
    next_carry.clear();
    for (size_t t = 0; t < kTenants; ++t) {
      digests[b][t] = d[t].value();
    }
  }
  return digests;
}

}  // namespace

WorkloadReport RunDatapathMix(const Options& options) {
  WorkloadReport report;
  const std::unique_ptr<DatapathState> state = TimedSetups(
      report, kSetupReps, [&] { return Setup(options, report.setup); });
  DatapathState& s = *state;
  core::SnicDevice& device = *s.device;
  core::vnic::PfVfManager& front_end = *s.front_end;

  Tracer& spans = report.ops;
  const uint16_t kOp = spans.Intern("op.burst");
  const uint16_t kAdvance = spans.Intern("core.advance_clock");
  const uint16_t kPost = spans.Intern("core.vnic_post");
  const uint16_t kDoorbell = spans.Intern("core.vnic_doorbell");
  const uint16_t kDeliver = spans.Intern("core.deliver");
  const uint16_t kReceive = spans.Intern("core.receive");
  const uint16_t kSend = spans.Intern("core.send");
  const uint16_t kHarvest = spans.Intern("core.vnic_harvest");
  const uint16_t kTick = spans.Intern("core.chain_tick");
  const uint16_t kTransmit = spans.Intern("core.transmit");
  const uint16_t kDispatch = spans.Intern("accel.dispatch");
  std::array<uint16_t, kTenants> kProcess{};
  for (size_t t = 0; t < kTenants; ++t) {
    kProcess[t] = spans.Intern(std::string("nf.process.") + kShortName[t]);
  }

  const std::vector<uint8_t> descriptors = EncodeTwoLaps();
  std::vector<BurstDigests> digests;
  std::vector<net::Packet> transmitted;
  transmitted.reserve(4 * kBurstFrames);
  uint64_t delivered = 0, wire_rejected = 0, nf_drops = 0, processed = 0;
  uint64_t nf_forwards = 0, tx = 0, now = 0;
  int64_t measured_ns = 0;
  uint64_t traced_bursts = 0;
  ChunkedRate untraced_rate(kChunkFrames), traced_rate(kChunkFrames);
  std::vector<net::Packet> burst;

  // One burst; `wire` false is the final drain after the measured loop.
  const auto run_burst = [&](uint64_t b, bool wire, Tracer* t) {
    burst.clear();
    if (wire) {
      for (size_t i = 0; i < kBurstFrames; ++i) {
        burst.push_back(s.frames[(b * kBurstFrames + i) % s.frames.size()]);
      }
    }
    now += kCyclesPerBurst;
    const int64_t op_start = NowNs();
    int64_t burst_start = 0;
    {
      SpanScope op_span(t, kOp);
      {
        SpanScope span(t, kAdvance);
        device.AdvanceClockTo(now);
      }
      for (size_t v = 0; v < kTenants; ++v) {
        if (!HasVf(v)) {
          continue;
        }
        const uint32_t refill = kRingSlots - front_end.RingOccupancy(s.vf[v]);
        if (refill > 0) {
          const size_t bytes = descriptors.size() / (2 * kRingSlots);
          const std::span<const uint8_t> block(
              descriptors.data() + (s.posted[v] % kRingSlots) * bytes,
              refill * bytes);
          SpanScope span(t, kPost);
          SNIC_CHECK_OK(front_end.PostDescriptors(s.vf[v], block));
        }
        s.posted[v] += refill;
        SpanScope span(t, kDoorbell);
        SNIC_CHECK(front_end.RingDoorbell(s.vf[v]));
      }
      burst_start = NowNs();
      for (net::Packet& frame : burst) {
        SpanScope span(t, kDeliver);
        if (!device.DeliverFromWire(std::move(frame)).ok()) {
          ++wire_rejected;
        }
      }
      for (size_t v = 0; v < kTenants; ++v) {
        for (;;) {
          Result<net::Packet> received = [&] {
            SpanScope span(t, kReceive);
            return device.NfReceive(s.nf_id[v]);
          }();
          if (!received.ok()) {
            break;
          }
          net::Packet packet = std::move(received).value();
          if (v == kDpi) {
            SpanScope span(t, kDispatch);
            (void)s.gate->Dispatch(kDpiType, s.dpi_cluster, 0x1000, false,
                                   now);
          }
          const nf::Verdict verdict = [&] {
            SpanScope span(t, kProcess[v]);
            return s.nfs[v]->Process(packet);
          }();
          ++processed;
          if (verdict != nf::Verdict::kForward) {
            ++nf_drops;
            continue;
          }
          ++nf_forwards;
          SpanScope span(t, kSend);
          (void)device.NfSend(s.nf_id[v], std::move(packet));
        }
      }
      for (size_t v = 0; v < kTenants; ++v) {
        if (!HasVf(v)) {
          continue;
        }
        for (;;) {
          SpanScope span(t, kHarvest);
          if (!front_end.Harvest(s.vf[v]).ok()) {
            break;
          }
        }
      }
      {
        SpanScope span(t, kTick);
        s.chains->TickAll();
      }
      for (;;) {
        Result<net::Packet> frame = [&] {
          SpanScope span(t, kTransmit);
          return device.TransmitToWire();
        }();
        if (!frame.ok()) {
          break;
        }
        transmitted.push_back(std::move(frame).value());
      }
    }
    const int64_t end = NowNs();
    delivered += burst.size();

    // Digest of each tenant's transmitted bytes, outside the timed region.
    std::array<Digest, kTenants> digest;
    for (const net::Packet& frame : transmitted) {
      digest[SenderOf(frame)].Add(frame.bytes());
    }
    tx += transmitted.size();
    transmitted.clear();
    BurstDigests d{};
    for (size_t v = 0; v < kTenants; ++v) {
      d[v] = digest[v].value();
    }
    digests.push_back(d);
    return std::pair<int64_t, int64_t>(end - op_start, end - burst_start);
  };

  const uint64_t min_bursts = options.tiny ? 16 : 2000;
  uint64_t b = 0;
  for (; !Done(measured_ns, options.seconds, b, min_bursts); ++b) {
    const bool traced = options.trace && b % 2 == 1;
    spans.SetOp(static_cast<uint32_t>(b + 1));
    const auto [op_ns, burst_ns] =
        run_burst(b, true, traced ? &spans : nullptr);
    measured_ns += op_ns;
    if (traced) {
      traced_rate.Add(kBurstFrames, op_ns);
      ++traced_bursts;
    } else {
      untraced_rate.Add(kBurstFrames, op_ns);
      report.op_ms.push_back(static_cast<double>(burst_ns) * 1e-6);
    }
  }
  const uint64_t bursts = b;
  (void)run_burst(bursts, false, nullptr);  // drain what the chain holds

  // Oracle, outside the timed region. The measured NFs go first, so the
  // oracle's fresh instances do not raise the peak resident memory.
  for (auto& fn : s.nfs) {
    fn.reset();
  }
  std::vector<BurstDigests> expected = OracleDigests(s, bursts);
  if (options.corrupt_oracle) {
    expected[0][kDpi] ^= 1;
  }
  // Frames DeliverFromWire refused (unmatched, vNIC or VPP admission) count
  // once, in wire_rejected; the rest are drops of frames already queued.
  uint64_t counted_drops = wire_rejected;
  for (size_t v = 0; v < kTenants; ++v) {
    const core::VppStats& q = device.Vpp(s.nf_id[v])->stats();
    counted_drops += q.rx_dropped_early + q.rx_shed_deadline +
                     q.tx_dropped_full + q.tx_shed_deadline;
  }
  const core::ChainLinkStats& chain = s.chains->link(0).stats();
  counted_drops += chain.frames_dropped;
  const bool conserved = delivered == tx + nf_drops + counted_drops;
  for (size_t i = 0; i <= bursts; ++i) {
    ++report.attempted;
    report.failed += digests[i] == expected[i] ? 0 : 1;
  }
  if (!conserved && report.failed < report.attempted) {
    ++report.failed;
  }

  const double frames_per_s = untraced_rate.Median();
  report.tail_quantile = 0.99;
  report.throughput_per_s = frames_per_s;
  std::vector<double> burst_us;
  for (double ms : report.op_ms) {
    burst_us.push_back(ms * 1e3);
  }
  report.metrics = {
      {"packets_per_s", frames_per_s, "frames/s"},
      {"burst_us_p50", Percentile(burst_us, 0.5), "us"},
      {"burst_us_p99", Percentile(burst_us, 0.99), "us"},
  };
  if (options.trace) {
    report.traced_ops = traced_bursts;
    report.traced_throughput_per_s = traced_rate.Median();
    const auto ns_per_call = [&](const std::string& name) {
      const SpanTotals t = spans.NameTotals(name);
      return t.calls == 0 ? 0.0
                          : t.total_ns /
                                static_cast<double>(t.calls);
    };
    auto& m = report.layer_metrics;
    for (const char* name :
         {"deliver", "receive", "send", "transmit", "advance_clock",
          "vnic_post", "vnic_doorbell", "vnic_harvest", "chain_tick"}) {
      m.push_back({std::string("core.") + name + "_ns",
                   ns_per_call(std::string("core.") + name), "ns"});
    }
    for (size_t t = 0; t < kTenants; ++t) {
      m.push_back({std::string("nf.process_ns.") + kShortName[t],
                   ns_per_call(std::string("nf.process.") + kShortName[t]),
                   "ns"});
    }
    m.push_back({"nf.forward_ratio",
                 static_cast<double>(nf_forwards) /
                     static_cast<double>(processed),
                 "ratio"});
    m.push_back({"accel.dispatch_ns", ns_per_call("accel.dispatch"), "ns"});
    m.push_back({"accel.fallbacks",
                 static_cast<double>(s.gate->stats().software_fallbacks),
                 "count"});
    m.push_back({"obs.ring_records_per_packet",
                 static_cast<double>(s.ring->size() + s.ring->evicted()) /
                     static_cast<double>(delivered),
                 "count"});
    uint64_t full = 0, admission = 0, early = 0, deadline = 0;
    for (size_t v = 0; v < kTenants; ++v) {
      const core::VppStats& q = device.Vpp(s.nf_id[v])->stats();
      full += q.rx_dropped_full;
      admission += q.rx_dropped_admission;
      early += q.rx_dropped_early;
      deadline += q.rx_shed_deadline;
    }
    uint64_t no_descriptor = 0, cq_full = 0;
    for (size_t v = 0; v < kTenants; ++v) {
      if (HasVf(v)) {
        no_descriptor += front_end.StatsOf(s.vf[v]).dropped_no_descriptor;
        cq_full += front_end.StatsOf(s.vf[v]).dropped_cq_full;
      }
    }
    m.push_back({"core.rx_drops.queue_full", static_cast<double>(full),
                 "count"});
    m.push_back({"core.rx_drops.admission", static_cast<double>(admission),
                 "count"});
    m.push_back({"core.rx_drops.early", static_cast<double>(early), "count"});
    m.push_back({"core.rx_drops.deadline", static_cast<double>(deadline),
                 "count"});
    m.push_back({"core.rx_drops.no_descriptor",
                 static_cast<double>(no_descriptor), "count"});
    m.push_back({"core.rx_drops.cq_full", static_cast<double>(cq_full),
                 "count"});
    m.push_back({"core.rx_drops.unmatched",
                 static_cast<double>(device.unmatched_rx_drops()), "count"});
    m.push_back({"core.chain_stalls", static_cast<double>(chain.frames_stalled),
                 "count"});
  }
  return report;
}

}  // namespace snic::e2e
