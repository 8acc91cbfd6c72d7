// Scenario runner: lowers a declarative ScenarioSpec onto the existing
// harness pieces — SnicDevice, Supervisor, FaultPlane, the vNIC front-end,
// the overload plane and the temporal-partition bus — and evaluates the
// spec's verdict predicates.
//
// RunConstellation is the one robustness harness. A file-local
// Constellation runs in three phases: its constructor boots the device and
// adopts, wires and schedules every tenant; Step() advances one step, each
// phase across all tenants (VF moves, wire traffic, bus grants, per-role
// service, chain hop, Supervisor tick, wire drain); Finish() reduces the
// run to a RunResult. Service is one switch on the tenant's role: workload
// (chaos victim with DMA/accel crash reporting; the overload target gets
// budgeted, breaker-gated service), bystander (poll/digest/echo with the
// full observable record) or attacker (hostile VF moves). Step() is the
// attach point for a per-step invariant auditor. Everything is seeded
// through runtime::DeriveTaskSeed lanes, so a (spec, seed) pair replays
// bit-for-bit at any --jobs count.
//
// EvaluateScenario runs the subject spec once per load point ({load_pct}
// or the ladder), runs the stripped BaselineTwin when a differential
// predicate needs it, and reduces them to a one-line pass/fail verdict.
// Every spec gets a verdict; there is no silent skip. Its runs share one
// vendor key and one CryptoMemo (src/scenario/crypto_memo.h), so the
// vendor key, the root of trust and the launch zero run are computed once
// per scenario; the last two once per sweep when the caller passes its own
// memo.

#ifndef SNIC_SCENARIO_RUNNER_H_
#define SNIC_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mgmt/supervisor.h"
#include "src/obs/trace_ring.h"
#include "src/scenario/crypto_memo.h"
#include "src/scenario/spec.h"

namespace snic::scenario {

// Per-tenant outcome of one constellation run. `report` is the tenant's
// full observable record (the byte-identity artifact); the rest feed the
// containment/recovery predicates.
struct TenantOutcome {
  std::string report;
  mgmt::NfHealth final_health = mgmt::NfHealth::kRunning;
  bool edge_quarantined = false;   // vNIC front-end verdict (VF tenants)
  uint64_t restarts = 0;           // successful relaunches of this tenant
  // Recovery-deadline SLO input: the worst crash -> (Running|Quarantined)
  // gap in steps (a crash still open at the end counts to the final step).
  uint64_t worst_recovery_steps = 0;
  uint64_t wire_packets = 0;       // frames this tenant put on the wire
  uint64_t vf_max_wait_cycles = 0;  // worst RX descriptor wait (VF tenants)
};

struct RunResult {
  std::vector<TenantOutcome> tenants;  // spec declaration order
  mgmt::SupervisorStats supervisor;
  uint64_t faults_injected = 0;
  // Overload-target accounting (zero when the spec has no overload section).
  // The target's wire egress, or with a chain what the downstream consumed.
  uint64_t target_goodput = 0;
  uint64_t queue_peak_frames = 0;
  uint64_t queue_peak_bytes = 0;
  // The target's accelerator breaker transitions, summed over its gates.
  uint64_t breaker_opens = 0;
  uint64_t breaker_reopens = 0;
  uint64_t breaker_closes = 0;
  // Elastic-pool launches forced by sustained backpressure.
  uint64_t pressure_scale_ups = 0;
  // Abuse verdicts routed by the front-end: per-kind counts on attacker
  // VFs, plus false flags on anyone else's VF.
  uint64_t abuse_reports[4] = {0, 0, 0, 0};
  uint64_t false_abuse_flags = 0;
};

// Runs `spec` to completion from `seed`, at overload.load_pct (a ladder is
// EvaluateScenario's business). Deterministic: same (spec, seed) always
// produces the same RunResult, on any thread, with any memo. Spans go to
// `ring` when the caller passes one (forensics), to a run-local ring
// otherwise; the root of trust and zero-run hashes come from `memo`, or a
// run-local one.
RunResult RunConstellation(const ScenarioSpec& spec, uint64_t seed,
                           obs::TraceRing* ring = nullptr,
                           CryptoMemo* memo = nullptr);

// One scenario's verdict. `detail` lists every evaluated predicate as
// name=ok or name=FAIL(reason), space-separated — a spec with no predicates
// evaluates to detail "no-predicates" and passes vacuously (the generator
// never mints such specs; curated ones always assert something).
struct ScenarioVerdict {
  bool pass = false;
  std::string detail;
};

// Runs the subject spec, once per ladder point when it has one (and the
// BaselineTwin when bystander_identical, goodput_floor_pct or detect_abuse
// needs a differential), then checks every predicate in spec.verdicts.
// Per-run predicates must hold at every point; a FAIL names the point as
// load=PCT. All runs share one vendor key, generated here from `seed`, and
// `memo`, or a memo local to this call.
ScenarioVerdict EvaluateScenario(const ScenarioSpec& spec, uint64_t seed,
                                 CryptoMemo* memo = nullptr);

// The frame geometry the runner's traffic generator uses: 54-byte headers
// plus payload 32 + NextBounded(4)*64. Byte-form queue bounds derive from
// this.
inline constexpr uint64_t kMaxFrameBytes = 54 + 32 + 3 * 64;

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_RUNNER_H_
