#include "src/scenario/runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/chaining.h"
#include "src/core/overload.h"
#include "src/core/vnic/descriptor.h"
#include "src/core/vnic/pf_vf.h"
#include "src/crypto/keys.h"
#include "src/fault/fault.h"
#include "src/mgmt/autoscaler.h"
#include "src/mgmt/dma.h"
#include "src/mgmt/nic_os.h"
#include "src/net/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/sweep.h"
#include "src/scenario/digest.h"
#include "src/sim/bus.h"

namespace snic::scenario {

namespace {

constexpr uint16_t kVfBufferBytes = 2048;
constexpr uint16_t kAttackerBufferBytes = 1024;
// overload.chain_to: the link's per-tick credit and the consumer's fixed
// per-step drain (slower than the link, so sustained load stalls it).
constexpr uint32_t kChainFramesPerTick = 6;
constexpr uint64_t kChainConsumePerStep = 3;
// overload.elastic_pool: capacity so high that only sustained backpressure
// (never the load estimate) scales the pool, sampled every 8 steps.
constexpr uint16_t kElasticPort = 4000;
constexpr double kElasticCapacity = 100.0;
constexpr uint32_t kElasticMaxInstances = 4;
constexpr uint32_t kElasticPressureSteps = 3;
constexpr uint64_t kElasticSampleSteps = 8;
constexpr double kElasticRxHighWater = 0.9;

// Appends printf-style output at its full length: tenant names, which
// start every report line, have no length limit.
void AppendF(std::string& out, const char* fmt, ...) {
  va_list args, sizing;
  va_start(args, fmt);
  va_copy(sizing, args);
  const int len = std::vsnprintf(nullptr, 0, fmt, sizing);
  SNIC_CHECK(len >= 0);
  const size_t at = out.size();
  out.resize(at + static_cast<size_t>(len));  // vsnprintf's NUL fits after
  std::vsnprintf(out.data() + at, static_cast<size_t>(len) + 1, fmt, args);
  va_end(sizing);
  va_end(args);
}

mgmt::FunctionImage MakeImage(const TenantSpec& tenant) {
  mgmt::FunctionImage image;
  image.name = tenant.name;
  image.code_and_data.assign(3000, 0xab);
  image.cores = 1;
  image.memory_bytes = 8ull << 20;
  image.accel_clusters[static_cast<size_t>(accel::AcceleratorType::kZip)] =
      tenant.zip_clusters;
  if (tenant.has_policy) {
    const OverloadPolicySpec& p = tenant.policy;
    image.overload.rx_queue_capacity_frames = p.rx_queue_capacity_frames;
    image.overload.tx_queue_capacity_frames = p.tx_queue_capacity_frames;
    image.overload.drop_policy = p.priority_early_drop
                                     ? core::DropPolicy::kPriorityEarlyDrop
                                     : core::DropPolicy::kTailDrop;
    image.overload.admission_burst_frames = p.admission_burst_frames;
    image.overload.admission_frames_per_refill = p.admission_frames_per_refill;
    image.overload.admission_refill_cycles = p.admission_refill_cycles;
    image.overload.deadline_cycles = p.deadline_cycles;
  }
  net::SwitchRule rule;
  rule.dst_port = tenant.port;
  image.switch_rules.push_back(rule);
  return image;
}

// Encodes a block of in-order RX descriptors continuing at `posted_total`.
std::vector<uint8_t> RefillBlock(uint64_t posted_total, uint32_t count,
                                 uint32_t ring_slots, uint16_t buffer_len) {
  std::vector<core::vnic::RxDescriptor> batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    core::vnic::RxDescriptor descriptor;
    const uint64_t index = (posted_total + i) % ring_slots;
    descriptor.ring_index = static_cast<uint16_t>(index);
    descriptor.buffer_len = buffer_len;
    descriptor.buffer_addr = core::vnic::kBufferAlign * (index + 1);
    batch.push_back(descriptor);
  }
  return core::vnic::EncodeDescriptors(batch);
}

net::Packet MakePacket(Rng& rng, uint16_t port) {
  net::FiveTuple tuple;
  tuple.src_ip = (10u << 24) | 9u;                  // 10.0.0.9
  tuple.dst_ip = (203u << 24) | (113u << 8) | 7u;  // 203.0.113.7
  tuple.src_port = static_cast<uint16_t>(10000 + rng.NextBounded(100));
  tuple.dst_port = port;
  tuple.protocol = 6;
  // Mixed frame sizes (the kMaxFrameBytes geometry) so priority-aware
  // early drop has real choices.
  std::vector<uint8_t> payload(32 + rng.NextBounded(4) * 64);
  for (size_t k = 0; k < payload.size(); ++k) {
    payload[k] = static_cast<uint8_t>(rng.NextU64());
  }
  return net::PacketBuilder().SetTuple(tuple).SetPayload(payload).Build();
}

size_t TenantIndex(const ScenarioSpec& spec, const std::string& name) {
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    if (spec.tenants[i].name == name) {
      return i;
    }
  }
  return spec.tenants.size();
}

// Vendor and root-of-trust key size of every run.
constexpr size_t kRsaModulusBits = 512;

// The vendor key every run of the scenario seeded `seed` draws.
crypto::VendorAuthority ScenarioVendor(uint64_t seed) {
  Rng rng(runtime::DeriveTaskSeed(seed, 2));
  return crypto::VendorAuthority(kRsaModulusBits, rng);
}

// Every run's device: 8 cores and 256 MiB, its root of trust booted from
// the default boot seed through `memo`.
core::SnicDevice BootDevice(const crypto::VendorAuthority& vendor,
                            CryptoMemo& memo) {
  const core::SnicConfig config{.num_cores = 8,
                                .dram_bytes = 256ull << 20,
                                .rsa_modulus_bits = kRsaModulusBits};
  return core::SnicDevice(
      config, vendor, memo.Boot(config.boot_seed, config.rsa_modulus_bits));
}

mgmt::SupervisorConfig SupervisorConfigFor(const ScenarioSpec& spec,
                                           uint64_t seed) {
  const SupervisorSpec& s = spec.supervisor;
  const uint64_t cps = spec.cycles_per_step;
  return {.seed = runtime::DeriveTaskSeed(seed, 3),
          .watchdog_timeout_cycles = s.watchdog_timeout_steps * cps,
          .backoff_base_cycles = s.backoff_base_steps * cps,
          .backoff_max_cycles = s.backoff_max_steps * cps,
          .backoff_jitter_pct = s.backoff_jitter_pct,
          .quarantine_after = s.quarantine_after,
          .stable_cycles = s.stable_steps * cps,
          .verify_attestation = s.verify_attestation,
          .max_concurrent_restarts = s.max_concurrent_restarts};
}

// Per-tenant live state the step loop carries.
struct TenantState {
  uint64_t nf_id = 0;
  uint32_t vf = 0;
  Rng traffic{0};
  Fnv rx_digest;
  Fnv wire_digest;
  Fnv bus_digest;
  Fnv cpl_digest;
  uint64_t wire_packets = 0;
  uint64_t bus_grants = 0;
  uint64_t completions = 0;
  uint64_t posted_total = 0;
  uint64_t resets_seen = 0;
  obs::Counter* rx_counter = nullptr;
  obs::Counter* tx_counter = nullptr;
  uint64_t crash_step = 0;  // when the open recovery window opened
  bool crash_open = false;
};

// One constellation run: set-up in the constructor, then Step() per step,
// then Finish(). The front-end and Supervisor callbacks hold `this`.
// `vendor` is ScenarioVendor(seed); the root of trust and zero-run hashes
// come from `memo`, which must outlive the run.
class Constellation {
 public:
  Constellation(const ScenarioSpec& spec, uint64_t seed,
                obs::TraceRing* trace_ring,
                const crypto::VendorAuthority& vendor, CryptoMemo& memo)
      : spec_(spec),
        n_(spec.tenants.size()),
        cps_(spec.cycles_per_step),
        target_index_(spec.has_overload
                          ? TenantIndex(spec, spec.overload.target)
                          : n_),
        chain_index_(spec.has_overload && !spec.overload.chain_to.empty()
                         ? TenantIndex(spec, spec.overload.chain_to)
                         : n_),
        scoped_registry_(&registry_),
        ring_(trace_ring != nullptr ? *trace_ring : local_ring_),
        plane_(runtime::DeriveTaskSeed(seed, 1)),
        scoped_plane_(&plane_),
        vendor_(vendor),
        device_(BootDevice(vendor_, memo)),
        nic_os_(&device_),
        supervisor_(&nic_os_, vendor_.public_key(),
                    SupervisorConfigFor(spec, seed)),
        state_(n_),
        host_(64 * 1024),
        dma_(&device_, &host_),
        chains_(&device_) {
    result_.tenants.resize(n_);
    device_.SetMeasurementMemo(memo.sha());
    // The plane has no rules until the schedule below, so it can miss
    // nothing by being wired after the device boots.
    plane_.AttachObs(&registry_);
    plane_.AttachTraceRing(&ring_);
    device_.AttachTraceRing(&ring_);
    if (std::any_of(spec.tenants.begin(), spec.tenants.end(),
                    [](const TenantSpec& t) { return t.has_vf; })) {
      front_end_.AttachObs(&registry_);
      front_end_.AttachTraceRing(&ring_);
      device_.AttachVnicFrontEnd(&front_end_);
    }
    supervisor_.AttachObs(&registry_);
    supervisor_.AttachTraceRing(&ring_);
    for (size_t i = 0; i < n_; ++i) {
      const std::string& name = spec.tenants[i].name;
      const auto id = supervisor_.Adopt(MakeImage(spec.tenants[i]));
      SNIC_CHECK(id.ok());
      state_[i].nf_id = id.value();
      state_[i].traffic = Rng(runtime::DeriveTaskSeed(seed, 16 + i));
      state_[i].rx_counter =
          &registry_.GetCounter("scenario.rx", {{"nf", name}});
      state_[i].tx_counter =
          &registry_.GetCounter("scenario.tx", {{"nf", name}});
    }
    for (size_t i = 0; i < n_; ++i) {  // VF numbering is part of the replay
      if (spec.tenants[i].dma) {
        BindDma(i);
      }
      if (spec.tenants[i].has_vf) {
        CreateVf(i);
      }
    }
    front_end_.SetAbuseCallback(
        [this](uint32_t vf, core::vnic::VfAbuse kind) { OnAbuse(vf, kind); });
    supervisor_.SetRestartCallback(
        [this](const std::string& name, uint64_t old_id, uint64_t new_id) {
          OnRestart(name, old_id, new_id);
        });
    // The fault schedule goes in after set-up (skip/count windows start
    // from here, so adoption never consumes a rule's hits).
    for (const FaultRuleSpec& r : spec.faults) {
      const size_t owner = TenantIndex(spec, r.nf);
      const uint64_t nf_id = r.has_raw_id   ? r.raw_id
                             : r.nf.empty() ? fault::kAnyNf
                                            : state_.at(owner).nf_id;
      plane_.AddRule({.site = r.site, .nf_id = nf_id, .skip = r.skip,
                      .count = r.count, .period = r.period,
                      .probability = r.probability,
                      .stall_cycles = r.stall_cycles,
                      .on_attempt = r.on_attempt});
    }
    if (chain_index_ < n_) {
      chains_.AttachTraceRing(&ring_);
      RelinkChain(target_index_, state_[target_index_].nf_id);
    }
    if (spec.has_overload && spec.overload.elastic_pool) {
      TenantSpec unit;
      unit.name = "elastic";
      unit.port = kElasticPort;
      mgmt::FunctionImage image = MakeImage(unit);
      image.memory_bytes = 4ull << 20;
      pool_ = std::make_unique<mgmt::Autoscaler>(
          &nic_os_,
          mgmt::AutoscalerConfig{.image = std::move(image),
                                 .capacity_per_instance = kElasticCapacity,
                                 .min_instances = 1,
                                 .max_instances = kElasticMaxInstances,
                                 .pressure_scale_up_after =
                                     kElasticPressureSteps});
    }
    if (spec.bus_domains > 0) {
      bus_ = std::make_unique<sim::TemporalPartitionArbiter>(
          sim::TemporalPartitionArbiter::Config{
              .transfer_cycles = 4, .num_domains = spec.bus_domains,
              .epoch_cycles = 64, .dead_time_cycles = 8});
    }
  }

  Constellation(const Constellation&) = delete;
  Constellation& operator=(const Constellation&) = delete;

  // Each phase runs over every tenant before the next begins. Step() is the
  // attach point for a per-step invariant auditor.
  void Step(uint64_t step) {
    const uint64_t now = (step + 1) * cps_;
    plane_.AdvanceClockTo(now);
    device_.AdvanceClockTo(now);
    for (size_t i = 0; i < n_; ++i) {
      if (spec_.tenants[i].has_vf) {
        ServeVf(i);
      }
    }
    for (size_t i = 0; i < n_; ++i) {
      OfferTraffic(i);
    }
    for (uint32_t d = 0; bus_ != nullptr && d < spec_.bus_domains; ++d) {
      const uint64_t grant = bus_->Grant(now, d);
      for (size_t i = 0; i < n_; ++i) {
        if (spec_.tenants[i].bus_domain == static_cast<int32_t>(d)) {
          state_[i].bus_digest.Mix64(grant);
          ++state_[i].bus_grants;
        }
      }
    }
    for (size_t i = 0; i < n_; ++i) {
      switch (spec_.tenants[i].role) {
        case TenantRole::kBystander:
          ServeBystander(i);
          break;
        case TenantRole::kAttacker:
          ServeAttacker(i);
          break;
        case TenantRole::kWorkload:
          ServeWorkload(i, now);
          break;
      }
    }
    ServeChainConsumer();
    if (pool_ != nullptr &&
        step % kElasticSampleSteps == kElasticSampleSteps - 1) {
      const uint64_t target_id = state_[target_index_].nf_id;
      const core::VirtualPacketPipeline* vpp = device_.Vpp(target_id);
      // A launch the device cannot fit is the pool's failure, absorbed or
      // counted in its stats; it never aborts the run.
      (void)pool_->Step(1.0, chains_.AnyBackpressure(target_id) ||
                                 (vpp != nullptr && vpp->RxFillFraction() >
                                                        kElasticRxHighWater));
    }
    supervisor_.Tick(now);
    for (size_t i = 0; i < n_; ++i) {
      TenantState& ts = state_[i];
      const mgmt::NfHealth health = supervisor_.HealthOf(spec_.tenants[i].name);
      // A Supervisor quarantine moves to the device edge: from here on the
      // tenant's frames drop at its VF, not in the switch.
      if (spec_.tenants[i].has_vf && health == mgmt::NfHealth::kQuarantined &&
          !front_end_.IsQuarantined(ts.vf)) {
        SNIC_CHECK_OK(front_end_.QuarantineVf(ts.vf));
      }
      // A crash opens a recovery window that closes when the tenant is
      // Running again or quarantined.
      const bool restarting = health == mgmt::NfHealth::kRestarting;
      if (!ts.crash_open && restarting) {
        ts.crash_open = true;
        ts.crash_step = step;
      } else if (ts.crash_open && !restarting) {
        uint64_t& worst = result_.tenants[i].worst_recovery_steps;
        worst = std::max(worst, step - ts.crash_step);
        ts.crash_open = false;
      }
    }
    DrainWire();
  }

  RunResult Finish() {
    for (size_t i = 0; i < n_; ++i) {
      ReportTenant(i);
    }
    if (target_index_ < n_) {
      result_.target_goodput =
          chain_index_ < n_ ? chain_consumed_
                            : result_.tenants[target_index_].wire_packets;
      const core::VirtualPacketPipeline* vpp =
          device_.Vpp(state_[target_index_].nf_id);
      if (vpp != nullptr) {
        result_.queue_peak_frames = vpp->stats().rx_peak_frames;
        result_.queue_peak_bytes = vpp->stats().rx_peak_bytes;
      }
    }
    RetireGate();
    if (pool_ != nullptr) {
      result_.pressure_scale_ups = pool_->stats().pressure_scale_ups;
    }
    result_.supervisor = supervisor_.stats();
    result_.faults_injected = plane_.injected_total();
    return std::move(result_);
  }

 private:
  void CreateVf(size_t i) {
    const VfSpec& v = spec_.tenants[i].vf;
    const uint64_t nf_id = state_[i].nf_id;
    const auto vf = front_end_.CreateVf(
        nf_id, device_.Vpp(nf_id),
        {.ring_slots = v.ring_slots, .cq_slots = v.cq_slots,
         .posted_bytes_limit = v.posted_bytes_limit, .doorbell = {},
         .abuse_threshold = v.abuse_threshold});
    SNIC_CHECK(vf.ok());
    state_[i].vf = vf.value();
  }

  // The DMA layout: tenant i's bank (channel i + 1) is the i-th 4 KiB page
  // past each window base, disjoint from every other tenant's.
  mgmt::DmaBankConfig DmaBank(size_t i) const {
    return {.nf_id = state_[i].nf_id,
            .host_window_base = 4096 * i,
            .host_window_bytes = 4096,
            .nic_window_vbase = 0x10000 + 4096 * i,
            .nic_window_bytes = 4096};
  }
  void BindDma(size_t i) {
    SNIC_CHECK_OK(
        dma_.ConfigureBank(static_cast<uint32_t>(i + 1), DmaBank(i)));
  }

  // Attacker VFs feed containment (crash with kVnicAbuse); a verdict on
  // anyone else's VF is a detector false positive, counted.
  void OnAbuse(uint32_t vf, core::vnic::VfAbuse kind) {
    for (size_t i = 0; i < n_; ++i) {
      const TenantSpec& t = spec_.tenants[i];
      if (!t.has_vf || state_[i].vf != vf) {
        continue;
      }
      if (t.role != TenantRole::kAttacker) {
        ++result_.false_abuse_flags;
      } else {
        ++result_.abuse_reports[static_cast<int>(kind)];
        if (Running(i)) {
          supervisor_.ReportCrash(t.name, mgmt::CrashCause::kVnicAbuse);
        }
      }
      return;
    }
  }

  // Re-points a relaunched tenant's rules, DMA bank, VF and chain link.
  void OnRestart(const std::string& name, uint64_t old_id, uint64_t new_id) {
    const size_t i = TenantIndex(spec_, name);
    SNIC_CHECK(i < n_);
    plane_.RetargetRules(old_id, new_id);
    state_[i].nf_id = new_id;
    ++result_.tenants[i].restarts;
    if (spec_.tenants[i].dma) {
      BindDma(i);
    }
    if (spec_.tenants[i].has_vf) {
      SNIC_CHECK_OK(
          front_end_.RebindVf(state_[i].vf, new_id, device_.Vpp(new_id)));
    }
    RelinkChain(i, old_id);
  }

  // The overload target's credit chain to its downstream consumer,
  // re-created whenever either endpoint relaunches under a new id.
  void RelinkChain(size_t i, uint64_t old_id) {
    if (chain_index_ == n_ || (i != target_index_ && i != chain_index_)) {
      return;
    }
    chains_.RemoveLinksFor(old_id);
    const core::ChainLinkConfig link{
        .producer_nf = state_[target_index_].nf_id,
        .consumer_nf = state_[chain_index_].nf_id,
        .frames_per_tick = kChainFramesPerTick,
        .flow_control = core::ChainFlowControl::kCredit};
    SNIC_CHECK(chains_.CreateLink(link).ok());
  }

  // A well-behaved VF keeps its ring full and rings once, inside the policer
  // budget; a running attacker refills, floods and squats as specified.
  void ServeVf(size_t i) {
    TenantState& ts = state_[i];
    const TenantSpec& t = spec_.tenants[i];
    if (t.role != TenantRole::kAttacker) {
      SNIC_CHECK_OK(RefillRing(i));
      SNIC_CHECK(front_end_.RingDoorbell(ts.vf));
      return;
    }
    if (!Running(i) || front_end_.IsQuarantined(ts.vf)) {
      return;
    }
    const uint64_t resets = front_end_.StatsOf(ts.vf).resets;
    if (resets != ts.resets_seen) {
      ts.resets_seen = resets;
      ts.posted_total = 0;  // VF reset rewound the expected ring index
    }
    (void)RefillRing(i);
    const bool targeted = spec_.has_attack && spec_.attack.target == t.name;
    const uint64_t flood = targeted ? spec_.attack.flood_rings : 0;
    for (uint64_t k = 0; k < 1 + flood; ++k) {
      (void)front_end_.RingDoorbell(ts.vf);
    }
    if (!(targeted && spec_.attack.squat)) {
      while (front_end_.Harvest(ts.vf).ok()) {
      }
    }
  }

  // Tops tenant i's RX ring back up to its slot count.
  Status RefillRing(size_t i) {
    TenantState& ts = state_[i];
    const TenantSpec& t = spec_.tenants[i];
    const uint32_t occupancy = front_end_.RingOccupancy(ts.vf);
    if (occupancy >= t.vf.ring_slots) {
      return OkStatus();
    }
    const uint32_t refill = t.vf.ring_slots - occupancy;
    const uint16_t buffer_len = t.role == TenantRole::kAttacker
                                    ? kAttackerBufferBytes
                                    : kVfBufferBytes;
    Status posted = front_end_.PostDescriptors(
        ts.vf,
        RefillBlock(ts.posted_total, refill, t.vf.ring_slots, buffer_len));
    if (posted.ok()) {
      ts.posted_total += refill;
    }
    return posted;
  }

  // The overload target gets load_pct% of its service budget through an
  // integer accumulator (deterministic); the rest send frames_per_step.
  void OfferTraffic(size_t i) {
    const TenantSpec& t = spec_.tenants[i];
    uint64_t frames = t.frames_per_step;
    if (i == target_index_) {
      offered_acc_ += spec_.overload.load_pct * spec_.overload.service_per_step;
      frames = offered_acc_ / 100;
      offered_acc_ %= 100;
    }
    for (uint64_t k = 0; k < frames; ++k) {
      (void)device_.DeliverFromWire(MakePacket(state_[i].traffic, t.port));
    }
  }

  // Poll, digest, echo: everything the bystander observes joins its record.
  void ServeBystander(size_t i) {
    TenantState& ts = state_[i];
    Drain(i, [this, i](net::Packet packet) {
      TenantState& s = state_[i];
      s.rx_digest.Mix(packet.bytes().data(), packet.size());
      s.rx_counter->Inc();
      if (device_.NfSend(s.nf_id, std::move(packet)).ok()) {
        s.tx_counter->Inc();
      }
    });
    while (spec_.tenants[i].has_vf) {
      const auto completion = front_end_.Harvest(ts.vf);
      if (!completion.ok()) {
        break;
      }
      const auto& c = completion.value();
      ts.cpl_digest.Mix64(c.ring_index);
      ts.cpl_digest.Mix64(c.bytes);
      ts.cpl_digest.Mix64(c.cycle);
      ts.cpl_digest.Mix64(c.wait_cycles);
      ++ts.completions;
    }
    supervisor_.Heartbeat(spec_.tenants[i].name);
  }

  // The attacker drains its own pipeline so squatting (not a full VPP) is
  // what fills the completion queue.
  void ServeAttacker(size_t i) {
    if (Running(i)) {
      Drain(i, [this, i](net::Packet p) { Forward(i, std::move(p)); });
      supervisor_.Heartbeat(spec_.tenants[i].name);
    }
  }

  // Forward, DMA copy, accelerator touch; an unavailable endpoint or cluster
  // is reported as a crash. A hang skips service and heartbeat alike (the
  // watchdog's job). The chain consumer is served after the hop.
  void ServeWorkload(size_t i, uint64_t now) {
    const TenantSpec& t = spec_.tenants[i];
    const uint64_t nf_id = state_[i].nf_id;
    if (!Running(i) || i == chain_index_ ||
        SNIC_FAULT_FIRES(fault::sites::kNfHang, nf_id)) {
      return;
    }
    if (i == target_index_) {
      ServeTarget(now);
    } else {
      Drain(i, [this, i](net::Packet p) { Forward(i, std::move(p)); });
    }
    if (t.dma) {
      const uint32_t channel = static_cast<uint32_t>(i + 1);
      const mgmt::DmaBankConfig w = DmaBank(i);
      const Status h2n = dma_.HostToNic(channel, w.host_window_base,
                                        w.nic_window_vbase, 256);
      const Status n2h =
          !h2n.ok() ? OkStatus()
                    : dma_.NicToHost(channel, w.nic_window_vbase,
                                     w.host_window_base + 1024, 256);
      if (h2n.code() == ErrorCode::kUnavailable ||
          n2h.code() == ErrorCode::kUnavailable) {
        supervisor_.ReportCrash(t.name, mgmt::CrashCause::kDmaFault);
        return;
      }
    }
    const int cluster = t.zip_clusters > 0 && i != target_index_ &&
                                !supervisor_.IsDegraded(t.name)
                            ? ClusterOf(nf_id)
                            : -1;
    if (cluster >= 0) {
      const auto access = device_.accel_pool().ThreadAccess(
          accel::AcceleratorType::kZip, static_cast<uint32_t>(cluster),
          0x1000, false);
      if (!access.ok() &&
          access.status().code() == ErrorCode::kUnavailable) {
        supervisor_.ReportCrash(t.name, mgmt::CrashCause::kAccelFault);
        return;
      }
    }
    supervisor_.Heartbeat(t.name);
  }

  // Budgeted service through the breaker-gated accelerator: an open breaker
  // sends the frame down the software path, degraded but never dropped.
  void ServeTarget(uint64_t now) {
    const size_t i = target_index_;
    EnsureGate();
    const int cluster =
        spec_.tenants[i].zip_clusters > 0 ? ClusterOf(state_[i].nf_id) : -1;
    const auto serve = [this, i, cluster, now](net::Packet packet) {
      if (gate_ != nullptr && cluster >= 0) {
        (void)gate_->Dispatch(accel::AcceleratorType::kZip,
                              static_cast<uint32_t>(cluster), 0x1000, false,
                              now);
      }
      Forward(i, std::move(packet));
    };
    Drain(i, serve, spec_.overload.service_per_step);
  }

  // The chain hop, then the downstream consumer's fixed drain.
  void ServeChainConsumer() {
    if (chain_index_ == n_) {
      return;
    }
    chains_.TickAll();
    if (Running(chain_index_)) {
      chain_consumed_ +=
          Drain(chain_index_, [](net::Packet) {}, kChainConsumePerStep);
      supervisor_.Heartbeat(spec_.tenants[chain_index_].name);
    }
  }

  // Attributes wire frames by destination port. A chain owns the target's
  // TX, so the wire then drains every other tenant's pipeline instead.
  void DrainWire() {
    for (;;) {
      auto out = chain_index_ == n_ ? device_.TransmitToWire() : NextChainTx();
      if (!out.ok()) {
        break;
      }
      const auto parsed = net::Parse(out.value().bytes());
      if (!parsed.ok()) {
        continue;
      }
      const uint16_t port = parsed.value().Tuple().dst_port;
      for (size_t i = 0; i < n_; ++i) {
        if (spec_.tenants[i].port == port) {
          state_[i].wire_digest.Mix(out.value().bytes().data(),
                                    out.value().size());
          ++state_[i].wire_packets;
          break;
        }
      }
    }
  }
  Result<net::Packet> NextChainTx() {
    for (size_t i = 0; i < n_; ++i) {
      core::VirtualPacketPipeline* vpp = device_.Vpp(state_[i].nf_id);
      if (i != target_index_ && vpp != nullptr && vpp->PeekTx() != nullptr) {
        return vpp->DequeueTx();
      }
    }
    return NotFound("no pending TX");
  }

  // Hands up to `limit` frames of tenant i to `on_frame`; returns the count.
  template <typename OnFrame>
  uint64_t Drain(size_t i, OnFrame on_frame,
                 uint64_t limit = std::numeric_limits<uint64_t>::max()) {
    uint64_t received = 0;
    for (; received < limit; ++received) {
      auto frame = device_.NfReceive(state_[i].nf_id);
      if (!frame.ok()) {
        break;
      }
      on_frame(std::move(frame).value());
    }
    return received;
  }

  // Echoes a frame onto tenant i's own TX; a full TX queue drops it.
  void Forward(size_t i, net::Packet packet) {
    (void)device_.NfSend(state_[i].nf_id, std::move(packet));
  }

  bool Running(size_t i) const {
    return supervisor_.HealthOf(spec_.tenants[i].name) ==
           mgmt::NfHealth::kRunning;
  }

  int ClusterOf(uint64_t nf_id) {
    const auto zip = accel::AcceleratorType::kZip;
    const accel::VirtualAcceleratorPool& pool = device_.accel_pool();
    for (uint32_t c = 0; c < pool.NumClusters(zip); ++c) {
      if (pool.Owner(zip, c) == std::optional<uint64_t>(nf_id)) {
        return static_cast<int>(c);
      }
    }
    return -1;
  }

  // A fresh breaker-gated dispatch per target incarnation (with zip).
  void EnsureGate() {
    const size_t i = target_index_;
    if (spec_.tenants[i].zip_clusters == 0 ||
        (gate_ != nullptr && gate_generation_ == result_.tenants[i].restarts)) {
      return;
    }
    RetireGate();
    gate_ = std::make_unique<core::AccelDispatchGate>(
        &device_.accel_pool(), state_[i].nf_id,
        core::CircuitBreakerConfig{.failures_to_open = 3,
                                   .open_cycles = 10 * cps_,
                                   .half_open_successes = 2});
    gate_generation_ = result_.tenants[i].restarts;
  }

  // Folds the current gate's breaker transitions into the result.
  void RetireGate() {
    if (gate_ != nullptr) {
      const core::CircuitBreakerStats& b = gate_->breaker().stats();
      result_.breaker_opens += b.opens;
      result_.breaker_reopens += b.reopens;
      result_.breaker_closes += b.closes;
    }
  }

  // Tenant i's report (its full observable record) and outcome.
  void ReportTenant(size_t i) {
    const TenantState& ts = state_[i];
    const TenantSpec& t = spec_.tenants[i];
    const char* name = t.name.c_str();
    TenantOutcome& outcome = result_.tenants[i];
    std::string& report = outcome.report;
    AppendF(report, "%s.role: %s\n", name,
            std::string(TenantRoleName(t.role)).c_str());
    AppendF(report, "%s.rx: %" PRIu64 " digest: %016" PRIx64 "\n", name,
            ts.rx_counter->value(), ts.rx_digest.h);
    AppendF(report, "%s.wire: %" PRIu64 " digest: %016" PRIx64 "\n", name,
            ts.wire_packets, ts.wire_digest.h);
    if (const core::VirtualPacketPipeline* vpp = device_.Vpp(ts.nf_id)) {
      const core::VppStats& s = vpp->stats();
      AppendF(report,
              "%s.vpp: rx=%" PRIu64 " drop_full=%" PRIu64
              " drop_fault=%" PRIu64 " corrupt_fault=%" PRIu64
              " drop_admission=%" PRIu64 " drop_early=%" PRIu64
              " shed_rx=%" PRIu64 " shed_tx=%" PRIu64 " tx=%" PRIu64
              " rx_bytes=%" PRIu64 " tx_bytes=%" PRIu64 "\n",
              name, s.rx_packets, s.rx_dropped_full, s.rx_dropped_fault,
              s.rx_corrupt_fault, s.rx_dropped_admission, s.rx_dropped_early,
              s.rx_shed_deadline, s.tx_shed_deadline, s.tx_packets,
              s.rx_bytes, s.tx_bytes);
    }
    if (t.bus_domain >= 0) {
      AppendF(report, "%s.bus: %" PRIu64 " digest: %016" PRIx64 "\n", name,
              ts.bus_grants, ts.bus_digest.h);
    }
    if (t.has_vf) {
      const core::vnic::VfStats& vfs = front_end_.StatsOf(ts.vf);
      AppendF(report, "%s.completions: %" PRIu64 " digest: %016" PRIx64 "\n",
              name, ts.completions, ts.cpl_digest.h);
      AppendF(report,
              "%s.vf: posted=%" PRIu64 " delivered=%" PRIu64
              " harvested=%" PRIu64 " rings=%" PRIu64
              " ring_rejected=%" PRIu64 " drops=%" PRIu64 "/%" PRIu64
              "/%" PRIu64 "/%" PRIu64 " abuse=%" PRIu64 " max_wait=%" PRIu64
              "\n",
              name, vfs.posts_accepted, vfs.delivered, vfs.harvested,
              vfs.doorbell_rings, vfs.doorbell_rejected,
              vfs.dropped_no_descriptor, vfs.dropped_cq_full,
              vfs.dropped_vpp, vfs.dropped_quarantined, vfs.abuse_flags,
              vfs.max_delivery_wait_cycles);
      outcome.vf_max_wait_cycles = vfs.max_delivery_wait_cycles;
    }
    AppendF(report, "%s.metrics: tx=%" PRIu64 "\n", name,
            ts.tx_counter->value());
    const LaneDigest lane =
        DigestRingLane(ring_, static_cast<uint32_t>(ts.nf_id));
    AppendF(report, "%s.ring: %" PRIu64 " digest: %016" PRIx64 "\n", name,
            lane.count, lane.digest);

    outcome.final_health = supervisor_.HealthOf(t.name);
    outcome.edge_quarantined = t.has_vf && front_end_.IsQuarantined(ts.vf);
    outcome.wire_packets = ts.wire_packets;
    if (ts.crash_open) {  // still unresolved: measured to the final step
      outcome.worst_recovery_steps =
          std::max(outcome.worst_recovery_steps, spec_.steps - ts.crash_step);
    }
  }

  const ScenarioSpec& spec_;
  const size_t n_;
  const uint64_t cps_;
  // The overload target and its chain consumer; n_ when absent.
  const size_t target_index_;
  const size_t chain_index_;
  RunResult result_;
  // Declaration order is construction order, and part of the replay.
  obs::MetricRegistry registry_;
  obs::ScopedDefaultRegistry scoped_registry_;
  obs::TraceRing local_ring_;
  obs::TraceRing& ring_;
  fault::FaultPlane plane_;
  fault::ScopedFaultPlane scoped_plane_;
  crypto::VendorAuthority vendor_;
  core::SnicDevice device_;
  mgmt::NicOs nic_os_;
  core::vnic::PfVfManager front_end_;
  mgmt::Supervisor supervisor_;
  std::vector<TenantState> state_;
  mgmt::HostMemory host_;
  mgmt::DmaController dma_;
  core::ChainManager chains_;
  std::unique_ptr<mgmt::Autoscaler> pool_;
  std::unique_ptr<sim::TemporalPartitionArbiter> bus_;
  std::unique_ptr<core::AccelDispatchGate> gate_;
  uint64_t gate_generation_ = 0;  // target restarts when gate_ was made
  uint64_t offered_acc_ = 0;
  uint64_t chain_consumed_ = 0;
};

RunResult Run(const ScenarioSpec& spec, uint64_t seed,
              obs::TraceRing* trace_ring,
              const crypto::VendorAuthority& vendor, CryptoMemo& memo) {
  Constellation run(spec, seed, trace_ring, vendor, memo);
  for (uint64_t step = 0; step < spec.steps; ++step) {
    run.Step(step);
  }
  return run.Finish();
}

}  // namespace

RunResult RunConstellation(const ScenarioSpec& spec, uint64_t seed,
                           obs::TraceRing* trace_ring, CryptoMemo* memo) {
  CryptoMemo local_memo;
  return Run(spec, seed, trace_ring, ScenarioVendor(seed),
             memo != nullptr ? *memo : local_memo);
}

namespace {

// One evaluated predicate, rendered as name=ok or name=FAIL(why).
struct Check {
  std::string name;
  bool ok = true;
  std::string why;
};

// The predicates one subject run must satisfy (at every ladder point), in
// verdict-detail order.
std::vector<Check> PointChecks(const ScenarioSpec& spec,
                               const RunResult& subject,
                               const RunResult& baseline) {
  const VerdictSpec& v = spec.verdicts;
  std::vector<Check> checks;
  if (v.bystander_identical) {
    Check c{"bystander_identical", true, ""};
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      if (spec.tenants[i].role == TenantRole::kBystander &&
          subject.tenants[i].report != baseline.tenants[i].report) {
        c.ok = false;
        c.why = spec.tenants[i].name;
      }
    }
    checks.push_back(c);
  }
  for (const std::string& name : v.containment) {
    const size_t i = TenantIndex(spec, name);
    const TenantOutcome& o = subject.tenants[i];
    checks.push_back({"containment:" + name,
                      o.final_health == mgmt::NfHealth::kQuarantined &&
                          (!spec.tenants[i].has_vf || o.edge_quarantined),
                      std::string(mgmt::NfHealthName(o.final_health))});
  }
  for (const std::string& name : v.must_recover) {
    const TenantOutcome& o = subject.tenants[TenantIndex(spec, name)];
    checks.push_back(
        {"must_recover:" + name,
         o.final_health == mgmt::NfHealth::kRunning && o.restarts >= 1,
         "health=" + std::string(mgmt::NfHealthName(o.final_health)) +
             ",restarts=" + std::to_string(o.restarts)});
  }
  if (v.recovery_deadline_steps > 0) {
    Check c{"recovery_deadline", true, ""};
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      const TenantOutcome& o = subject.tenants[i];
      if (o.worst_recovery_steps > v.recovery_deadline_steps) {
        c.ok = false;
        c.why = spec.tenants[i].name + "=" +
                std::to_string(o.worst_recovery_steps);
      }
    }
    checks.push_back(c);
  }
  if (v.goodput_floor_pct > 0) {
    checks.push_back({"goodput_floor",
                      subject.target_goodput * 100 >=
                          baseline.target_goodput * v.goodput_floor_pct,
                      std::to_string(subject.target_goodput) + "/" +
                          std::to_string(baseline.target_goodput)});
  }
  if (v.queue_bound) {
    const uint64_t cap = spec.tenants[TenantIndex(spec, spec.overload.target)]
                             .policy.rx_queue_capacity_frames;
    checks.push_back({"queue_bound",
                      subject.queue_peak_frames <= cap &&
                          subject.queue_peak_bytes <= cap * kMaxFrameBytes,
                      "peak=" + std::to_string(subject.queue_peak_frames) +
                          "/" + std::to_string(cap)});
  }
  if (!v.detect_abuse.empty()) {
    // Detection only counts when the twin's well-behaved attacker was left
    // alone: nothing flagged, nothing crashed, its frames on the wire.
    uint64_t baseline_flags = baseline.false_abuse_flags;
    for (const uint64_t reports : baseline.abuse_reports) {
      baseline_flags += reports;
    }
    const uint64_t attacker_wire =
        baseline.tenants[TenantIndex(spec, spec.attack.target)].wire_packets;
    const bool baseline_clean = baseline_flags == 0 &&
                                baseline.supervisor.crashes == 0 &&
                                attacker_wire > 0;
    const std::string baseline_why =
        "baseline:flags=" + std::to_string(baseline_flags) +
        ",crashes=" + std::to_string(baseline.supervisor.crashes) +
        ",wire=" + std::to_string(attacker_wire);
    for (const std::string& kind : v.detect_abuse) {
      const int ordinal = kind == "flood"   ? 0
                          : kind == "squat" ? 1
                          : kind == "desc"  ? 2
                                            : 3;
      const bool flagged = subject.abuse_reports[ordinal] > 0;
      checks.push_back({"detect_abuse:" + kind, flagged && baseline_clean,
                        flagged ? baseline_why : "unflagged"});
    }
  }
  if (v.vf_wait_bound_steps > 0) {
    Check c{"vf_wait_bound", true, ""};
    const uint64_t bound = v.vf_wait_bound_steps * spec.cycles_per_step;
    for (size_t i = 0; i < spec.tenants.size(); ++i) {
      const uint64_t wait = subject.tenants[i].vf_max_wait_cycles;
      if (spec.tenants[i].role == TenantRole::kBystander && wait > bound) {
        c.ok = false;
        c.why = spec.tenants[i].name + "=" + std::to_string(wait) + "/" +
                std::to_string(bound);
      }
    }
    if (subject.false_abuse_flags != 0) {
      c.ok = false;
      c.why = "false_flags=" + std::to_string(subject.false_abuse_flags);
    }
    checks.push_back(c);
  }
  return checks;
}

}  // namespace

ScenarioVerdict EvaluateScenario(const ScenarioSpec& spec, uint64_t seed,
                                 CryptoMemo* memo) {
  CryptoMemo local_memo;
  if (memo == nullptr) {
    memo = &local_memo;
  }
  const VerdictSpec& v = spec.verdicts;
  const std::vector<uint64_t>& ladder = spec.overload.ladder_pct;

  const std::vector<uint64_t> loads =
      ladder.empty() ? std::vector<uint64_t>{spec.overload.load_pct} : ladder;
  const crypto::VendorAuthority vendor = ScenarioVendor(seed);
  std::vector<RunResult> points;
  for (const uint64_t pct : loads) {
    ScenarioSpec point = spec;
    point.overload.load_pct = pct;
    points.push_back(Run(point, seed, nullptr, vendor, *memo));
  }
  const bool needs_baseline = v.bystander_identical ||
                              v.goodput_floor_pct > 0 ||
                              !v.detect_abuse.empty();
  const RunResult baseline =
      needs_baseline ? Run(BaselineTwin(spec), seed, nullptr, vendor, *memo)
                     : RunResult{};

  // Per-run predicates: the first failing point's reason wins.
  std::vector<Check> checks;
  for (size_t k = 0; k < points.size(); ++k) {
    std::vector<Check> at = PointChecks(spec, points[k], baseline);
    checks.resize(at.size());
    for (size_t j = 0; j < at.size(); ++j) {
      if (!ladder.empty()) {
        at[j].why = "load=" + std::to_string(loads[k]) +
                    (at[j].why.empty() ? "" : ":" + at[j].why);
      }
      if (k == 0 || (checks[j].ok && !at[j].ok)) {
        checks[j] = std::move(at[j]);
      }
    }
  }

  // Cross-point predicates over the ladder (the top point is the last run).
  const RunResult& top = points.back();
  if (v.goodput_non_collapsing_pct > 0) {
    Check c{"goodput_non_collapsing", true, ""};
    uint64_t best = 0;
    for (size_t k = 0; k < points.size(); ++k) {
      const uint64_t goodput = points[k].target_goodput;
      if (c.ok && goodput * 100 < best * v.goodput_non_collapsing_pct) {
        c.ok = false;
        c.why = "load=" + std::to_string(loads[k]) + ":" +
                std::to_string(goodput) + "/" + std::to_string(best);
      }
      best = std::max(best, goodput);
    }
    checks.push_back(c);
  }
  if (v.pressure_scale_out) {
    const uint64_t low = points.front().pressure_scale_ups;
    checks.push_back({"pressure_scale_out",
                      top.pressure_scale_ups >= 1 && low == 0,
                      "low=" + std::to_string(low) +
                          ",top=" + std::to_string(top.pressure_scale_ups)});
  }
  if (v.breaker_cycle) {
    checks.push_back({"breaker_cycle",
                      top.breaker_opens >= 1 && top.breaker_reopens >= 1 &&
                          top.breaker_closes >= 1,
                      "opens=" + std::to_string(top.breaker_opens) +
                          ",reopens=" + std::to_string(top.breaker_reopens) +
                          ",closes=" + std::to_string(top.breaker_closes)});
  }

  ScenarioVerdict verdict{true, ""};
  std::string& detail = verdict.detail;
  for (const Check& c : checks) {
    verdict.pass = verdict.pass && c.ok;
    detail += (detail.empty() ? "" : " ") + c.name +
              (c.ok               ? "=ok"
               : c.why.empty()    ? "=FAIL"
                                  : "=FAIL(" + c.why + ")");
  }
  if (detail.empty()) {
    detail = "no-predicates";
  }
  return verdict;
}

}  // namespace snic::scenario
