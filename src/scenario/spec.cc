#include "src/scenario/spec.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <span>
#include <type_traits>

#include "src/fault/fault.h"
#include "src/obs/json.h"

namespace snic::scenario {

namespace {

using obs::json::Value;

// --- Field tables ---------------------------------------------------------
//
// One table per JSON object of the schema, one row per key. Decode walks
// the rows in table order, so `bus_domains` is known before the tenants
// that check against it, and the tenants before every reference to them;
// the canonical form writes the rows in the same order.

// What a row accepts beyond its member's type. A kPlain row decodes by
// type: an integer up to hi (and positive when nonzero), a bool, a
// non-empty string, a role, a load ladder (1 to 16 strictly increasing
// points, each up to hi), a nested object or an array of objects.
enum class Kind : uint8_t {
  kPlain,
  kCount,      // an integer as kPlain, or "forever" (FaultRule::kForever)
  kBusDomain,  // an integer as kPlain, below the declared bus_domains
  kSite,       // a registered fault site (fault::sites::kAll)
  kTenant,     // a declared tenant; for a list, each element
  kAnyTenant,  // a declared tenant, or "any" (kept empty)
  kAttacker,   // an attacker-role tenant
  kChainTo,    // a workload-role tenant other than the overload target
  kAbuse,      // a list of abuse kinds
};

// When the canonical form writes a row.
enum class Emit : uint8_t {
  kAlways,
  kIfSet,      // the row's presence flag is set
  kIfChanged,  // the member differs from its default
  kIfAlone,    // no other row of its exclusive group is written
};

using enum Kind;
using enum Emit;

constexpr size_t kNoIndex = ~size_t{0};

// A key path, rendered only when a message needs it: "tenants[2].vf". The
// root renders as "top level"; its children render without it.
struct Path {
  const Path* parent;
  std::string_view key;
  size_t index = kNoIndex;

  std::string str() const {
    std::string out(key);
    if (parent != nullptr && parent->parent != nullptr) {
      out = parent->str() + "." + out;
    }
    if (index != kNoIndex) {
      out += "[" + std::to_string(index) + "]";
    }
    return out;
  }
};

template <typename S>
struct Field;

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

template <typename S, typename T>
Status DecodeValue(const Value& v, const Path& at, const Field<S>& f,
                   const ScenarioSpec& spec, T* out);
template <typename S, typename T>
void EmitValue(const T& v, const Field<S>& f, std::string& out);

// A row's struct member, bound to the decode and emit of its type.
template <typename S>
struct Accessor {
  Status (*decode)(const Value& v, const Path& at, const Field<S>& f,
                   const ScenarioSpec& spec, S* out);
  void (*emit)(const S& s, const Field<S>& f, std::string& out);
  bool (*is_default)(const S& s);  // the member holds its default value
  bool is_array;                   // the member is a std::vector
};

template <typename P>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*> {
  using Struct = S;
  using Type = T;
};

// kMember<&S::m>: the Accessor of member m of S.
template <auto P>
constexpr Accessor<typename MemberOf<decltype(P)>::Struct> kMember = {
    .decode =
        [](const Value& v, const Path& at, const auto& f,
           const ScenarioSpec& spec, auto* out) {
          return DecodeValue(v, at, f, spec, &(out->*P));
        },
    .emit = [](const auto& s, const auto& f,
               std::string& out) { EmitValue(s.*P, f, out); },
    .is_default =
        [](const auto& s) {
          static const std::decay_t<decltype(s)> kDefault{};
          return s.*P == kDefault.*P;
        },
    .is_array = kIsVector<typename MemberOf<decltype(P)>::Type>,
};

template <typename S>
struct Field {
  std::string_view key;
  Accessor<S> member;
  uint64_t hi = 0;        // largest integer (or ladder point) accepted
  bool nonzero = false;   // an integer must be positive, an array non-empty
  Kind kind = kPlain;
  bool required = false;
  Emit emit = kAlways;
  bool S::*has = nullptr;  // set when the key is present; read by kIfSet
  uint8_t group = 0;       // present rows of one group exclude each other
};

constexpr uint64_t kMillion = 1000000;
constexpr uint64_t k2To30 = uint64_t{1} << 30;
constexpr size_t kMaxLadderPoints = 16;
constexpr std::string_view kForever = "forever";
constexpr std::string_view kAbuseKinds[] = {"flood", "squat", "desc", "churn"};
// Indexed by TenantRole.
constexpr std::string_view kRoleNames[] = {"workload", "bystander",
                                           "attacker"};

template <typename S>
std::span<const Field<S>> Fields();

template <>
std::span<const Field<ScenarioSpec>> Fields() {
  using S = ScenarioSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "name", .member = kMember<&S::name>, .required = true},
      {.key = "steps", .member = kMember<&S::steps>, .hi = 10 * kMillion,
       .nonzero = true},
      {.key = "cycles_per_step", .member = kMember<&S::cycles_per_step>,
       .hi = kMillion, .nonzero = true},
      {.key = "bus_domains", .member = kMember<&S::bus_domains>, .hi = 64},
      {.key = "supervisor", .member = kMember<&S::supervisor>},
      {.key = "tenants", .member = kMember<&S::tenants>, .nonzero = true,
       .required = true},
      {.key = "faults", .member = kMember<&S::faults>, .emit = kIfChanged},
      {.key = "overload", .member = kMember<&S::overload>, .emit = kIfSet,
       .has = &S::has_overload},
      {.key = "attack", .member = kMember<&S::attack>, .emit = kIfSet,
       .has = &S::has_attack},
      {.key = "verdicts", .member = kMember<&S::verdicts>},
  };
  return kFields;
}

template <>
std::span<const Field<SupervisorSpec>> Fields() {
  using S = SupervisorSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "watchdog_timeout_steps",
       .member = kMember<&S::watchdog_timeout_steps>, .hi = kMillion},
      {.key = "backoff_base_steps",
       .member = kMember<&S::backoff_base_steps>, .hi = kMillion},
      {.key = "backoff_max_steps", .member = kMember<&S::backoff_max_steps>,
       .hi = kMillion},
      {.key = "backoff_jitter_pct",
       .member = kMember<&S::backoff_jitter_pct>, .hi = 100},
      {.key = "quarantine_after", .member = kMember<&S::quarantine_after>,
       .hi = kMillion},
      {.key = "stable_steps", .member = kMember<&S::stable_steps>,
       .hi = kMillion},
      {.key = "max_concurrent_restarts",
       .member = kMember<&S::max_concurrent_restarts>, .hi = kMillion},
      {.key = "verify_attestation",
       .member = kMember<&S::verify_attestation>},
  };
  return kFields;
}

template <>
std::span<const Field<TenantSpec>> Fields() {
  using S = TenantSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "name", .member = kMember<&S::name>, .required = true},
      {.key = "port", .member = kMember<&S::port>, .hi = 65535,
       .nonzero = true, .required = true},
      {.key = "role", .member = kMember<&S::role>},
      {.key = "zip_clusters", .member = kMember<&S::zip_clusters>, .hi = 8},
      {.key = "bus_domain", .member = kMember<&S::bus_domain>, .hi = 255,
       .kind = kBusDomain, .emit = kIfChanged},
      {.key = "frames_per_step", .member = kMember<&S::frames_per_step>,
       .hi = 1024},
      {.key = "dma", .member = kMember<&S::dma>, .emit = kIfChanged},
      {.key = "vf", .member = kMember<&S::vf>, .emit = kIfSet,
       .has = &S::has_vf},
      {.key = "policy", .member = kMember<&S::policy>, .emit = kIfSet,
       .has = &S::has_policy},
  };
  return kFields;
}

template <>
std::span<const Field<VfSpec>> Fields() {
  using S = VfSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "ring_slots", .member = kMember<&S::ring_slots>, .hi = k2To30,
       .nonzero = true},
      {.key = "cq_slots", .member = kMember<&S::cq_slots>, .hi = k2To30,
       .nonzero = true},
      {.key = "posted_bytes_limit",
       .member = kMember<&S::posted_bytes_limit>, .hi = k2To30},
      {.key = "abuse_threshold", .member = kMember<&S::abuse_threshold>,
       .hi = k2To30},
  };
  return kFields;
}

template <>
std::span<const Field<OverloadPolicySpec>> Fields() {
  using S = OverloadPolicySpec;
  static constexpr Field<S> kFields[] = {
      {.key = "rx_queue_capacity_frames",
       .member = kMember<&S::rx_queue_capacity_frames>, .hi = k2To30},
      {.key = "tx_queue_capacity_frames",
       .member = kMember<&S::tx_queue_capacity_frames>, .hi = k2To30},
      {.key = "priority_early_drop",
       .member = kMember<&S::priority_early_drop>},
      {.key = "admission_burst_frames",
       .member = kMember<&S::admission_burst_frames>, .hi = k2To30},
      {.key = "admission_frames_per_refill",
       .member = kMember<&S::admission_frames_per_refill>, .hi = k2To30},
      {.key = "admission_refill_cycles",
       .member = kMember<&S::admission_refill_cycles>, .hi = k2To30},
      {.key = "deadline_cycles", .member = kMember<&S::deadline_cycles>,
       .hi = k2To30},
  };
  return kFields;
}

template <>
std::span<const Field<FaultRuleSpec>> Fields() {
  using S = FaultRuleSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "site", .member = kMember<&S::site>, .kind = kSite,
       .required = true},
      {.key = "nf", .member = kMember<&S::nf>, .kind = kAnyTenant,
       .emit = kIfChanged, .group = 1},
      {.key = "raw_id", .member = kMember<&S::raw_id>,
       .hi = ~uint64_t{0} >> 1, .emit = kIfSet, .has = &S::has_raw_id,
       .group = 1},
      {.key = "skip", .member = kMember<&S::skip>, .hi = k2To30},
      {.key = "count", .member = kMember<&S::count>, .hi = k2To30,
       .nonzero = true, .kind = kCount},
      {.key = "period", .member = kMember<&S::period>, .hi = k2To30},
      {.key = "probability", .member = kMember<&S::probability>,
       .emit = kIfChanged},
      {.key = "stall_cycles", .member = kMember<&S::stall_cycles>,
       .hi = k2To30, .emit = kIfChanged},
      {.key = "on_attempt", .member = kMember<&S::on_attempt>, .hi = 1 << 20,
       .emit = kIfChanged},
  };
  return kFields;
}

template <>
std::span<const Field<OverloadSpec>> Fields() {
  using S = OverloadSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "target", .member = kMember<&S::target>, .kind = kTenant,
       .required = true},
      {.key = "load_pct", .member = kMember<&S::load_pct>, .hi = 100000,
       .emit = kIfAlone, .group = 1},
      {.key = "ladder_pct", .member = kMember<&S::ladder_pct>, .hi = 100000,
       .emit = kIfChanged, .group = 1},
      {.key = "baseline_pct", .member = kMember<&S::baseline_pct>,
       .hi = 100000},
      {.key = "service_per_step", .member = kMember<&S::service_per_step>,
       .hi = 100000, .nonzero = true},
      {.key = "chain_to", .member = kMember<&S::chain_to>, .kind = kChainTo,
       .emit = kIfChanged},
      {.key = "elastic_pool", .member = kMember<&S::elastic_pool>,
       .emit = kIfChanged},
  };
  return kFields;
}

template <>
std::span<const Field<AttackSpec>> Fields() {
  using S = AttackSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "target", .member = kMember<&S::target>, .kind = kAttacker,
       .required = true},
      {.key = "flood_rings", .member = kMember<&S::flood_rings>, .hi = 4096},
      {.key = "squat", .member = kMember<&S::squat>},
  };
  return kFields;
}

template <>
std::span<const Field<VerdictSpec>> Fields() {
  using S = VerdictSpec;
  static constexpr Field<S> kFields[] = {
      {.key = "bystander_identical",
       .member = kMember<&S::bystander_identical>},
      {.key = "containment", .member = kMember<&S::containment>,
       .kind = kTenant, .emit = kIfChanged},
      {.key = "must_recover", .member = kMember<&S::must_recover>,
       .kind = kTenant, .emit = kIfChanged},
      {.key = "recovery_deadline_steps",
       .member = kMember<&S::recovery_deadline_steps>, .hi = k2To30,
       .emit = kIfChanged},
      {.key = "goodput_floor_pct", .member = kMember<&S::goodput_floor_pct>,
       .hi = 1000, .emit = kIfChanged},
      {.key = "queue_bound", .member = kMember<&S::queue_bound>},
      {.key = "detect_abuse", .member = kMember<&S::detect_abuse>,
       .kind = kAbuse, .emit = kIfChanged},
      {.key = "vf_wait_bound_steps",
       .member = kMember<&S::vf_wait_bound_steps>, .hi = k2To30,
       .emit = kIfChanged},
      {.key = "goodput_non_collapsing_pct",
       .member = kMember<&S::goodput_non_collapsing_pct>, .hi = 100,
       .emit = kIfChanged},
      {.key = "pressure_scale_out",
       .member = kMember<&S::pressure_scale_out>, .emit = kIfChanged},
      {.key = "breaker_cycle", .member = kMember<&S::breaker_cycle>,
       .emit = kIfChanged},
  };
  return kFields;
}

// --- Decode ---------------------------------------------------------------

// "<path>: <what>", for a value found at the path.
Status Bad(const Path& at, const std::string& what) {
  return InvalidArgument("scenario spec: " + at.str() + ": " + what);
}

// "<path> <what>", for a constraint on the path itself.
Status Must(const Path& at, const std::string& what) {
  return InvalidArgument("scenario spec: " + at.str() + " " + what);
}

std::string Quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }

Status ArrayError(const Path& at, bool nonzero) {
  return Must(at, nonzero ? "must be a non-empty array" : "must be an array");
}

// Strict integer extraction: a JSON number that is non-negative, integral
// and within `max`. Anything else rejects.
Result<uint64_t> U64(const Value& v, const Path& at, uint64_t max) {
  if (!v.is_number()) {
    return Bad(at, "expected an integer");
  }
  const double d = v.AsNumber();
  if (d < 0.0 || d != std::floor(d)) {
    return Bad(at, "expected a non-negative integer");
  }
  if (d > static_cast<double>(max)) {
    return Bad(at, "value out of range");
  }
  return static_cast<uint64_t>(d);
}

const TenantSpec* FindTenant(const ScenarioSpec& spec, std::string_view name) {
  for (const TenantSpec& t : spec.tenants) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

// What a string (or list element) of `kind` must name.
Status CheckString(Kind kind, const std::string& s, const Path& at,
                   const ScenarioSpec& spec) {
  const auto role_is = [&](TenantRole role) {
    const TenantSpec* tenant = FindTenant(spec, s);
    return tenant != nullptr && tenant->role == role;
  };
  switch (kind) {
    case kSite:
      return std::find(fault::sites::kAll.begin(), fault::sites::kAll.end(),
                       s) != fault::sites::kAll.end()
                 ? OkStatus()
                 : Bad(at, Quoted(s) + " is not a registered fault site");
    case kTenant:
    case kAnyTenant:
      return FindTenant(spec, s) != nullptr
                 ? OkStatus()
                 : Bad(at, Quoted(s) + " is not a declared tenant");
    case kAttacker:
      return role_is(TenantRole::kAttacker)
                 ? OkStatus()
                 : Bad(at, Quoted(s) + " is not an attacker-role tenant");
    case kChainTo:
      return role_is(TenantRole::kWorkload) && s != spec.overload.target
                 ? OkStatus()
                 : Bad(at, Quoted(s) + " is not a workload-role tenant other "
                                       "than the target");
    case kAbuse:
      return std::find(std::begin(kAbuseKinds), std::end(kAbuseKinds), s) !=
                     std::end(kAbuseKinds)
                 ? OkStatus()
                 : Bad(at, "unknown abuse kind " + Quoted(s));
    default:  // kPlain
      return s.empty() ? Must(at, "must be non-empty") : OkStatus();
  }
}

// The checks on a just-decoded tenant (the last in `spec`) that no single
// row can make: an attacker sits behind a VF; names and ports are unique.
Status CheckTenant(const Path& at, const ScenarioSpec& spec) {
  const TenantSpec& t = spec.tenants.back();
  if (t.role == TenantRole::kAttacker && !t.has_vf) {
    return Bad(at, "attacker-role tenants require a vf");
  }
  const auto earlier =
      std::span(spec.tenants).first(spec.tenants.size() - 1);
  if (std::any_of(earlier.begin(), earlier.end(),
                  [&](const TenantSpec& o) { return o.name == t.name; })) {
    return InvalidArgument("scenario spec: duplicate tenant name " +
                           Quoted(t.name));
  }
  if (std::any_of(earlier.begin(), earlier.end(),
                  [&](const TenantSpec& o) { return o.port == t.port; })) {
    return InvalidArgument("scenario spec: duplicate tenant port " +
                           std::to_string(t.port));
  }
  return OkStatus();
}

template <typename S>
Status DecodeObject(const Value& v, const Path& at, const ScenarioSpec& spec,
                    S* out);

// Decodes `v` into `*out` as row `f` prescribes. `spec` is the spec being
// decoded: the rows before this one are already in it.
template <typename S, typename T>
Status DecodeValue(const Value& v, const Path& at, const Field<S>& f,
                   const ScenarioSpec& spec, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) {
      return Bad(at, "expected true or false");
    }
    *out = v.AsBool();
  } else if constexpr (std::is_integral_v<T>) {
    if (f.kind == kCount && v.is_string()) {
      if (v.AsString() != kForever) {
        return Bad(at, "expected an integer or " + Quoted(kForever));
      }
      *out = static_cast<T>(fault::FaultRule::kForever);
      return OkStatus();
    }
    auto n = U64(v, at, f.hi);
    if (!n.ok()) {
      return n.status();
    }
    if (f.nonzero && n.value() == 0) {
      return Must(at, "must be positive");
    }
    if (f.kind == kBusDomain && n.value() >= spec.bus_domains) {
      return Bad(at, "domain exceeds declared bus_domains (" +
                         std::to_string(spec.bus_domains) + ")");
    }
    *out = static_cast<T>(n.value());
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) {
      return Bad(at, "expected a number");
    }
    if (v.AsNumber() < 0.0 || v.AsNumber() > 1.0) {
      return Bad(at, "must be in [0, 1]");
    }
    *out = v.AsNumber();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) {
      return Bad(at, "expected a string");
    }
    if (f.kind == kAnyTenant && v.AsString() == "any") {
      return OkStatus();
    }
    if (Status s = CheckString(f.kind, v.AsString(), at, spec); !s.ok()) {
      return s;
    }
    *out = v.AsString();
  } else if constexpr (std::is_same_v<T, TenantRole>) {
    if (!v.is_string()) {
      return Bad(at, "expected a string");
    }
    const auto* role = std::find(std::begin(kRoleNames), std::end(kRoleNames),
                                 v.AsString());
    if (role == std::end(kRoleNames)) {
      return Bad(at, "unknown role " + Quoted(v.AsString()));
    }
    *out = static_cast<TenantRole>(role - std::begin(kRoleNames));
  } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
    if (!v.is_array() || v.AsArray().empty() ||
        v.AsArray().size() > kMaxLadderPoints) {
      return Bad(at, "expected an array of 1 to " +
                         std::to_string(kMaxLadderPoints) +
                         " load percentages");
    }
    for (const Value& item : v.AsArray()) {
      auto n = U64(item, at, f.hi);
      if (!n.ok()) {
        return n.status();
      }
      if (!out->empty() && n.value() <= out->back()) {
        return Bad(at, "points must be strictly increasing");
      }
      out->push_back(n.value());
    }
  } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    if (!v.is_array()) {
      return Bad(at, "expected an array");
    }
    for (const Value& item : v.AsArray()) {
      if (!item.is_string()) {
        return Bad(at, "expected a string");
      }
      if (Status s = CheckString(f.kind, item.AsString(), at, spec);
          !s.ok()) {
        return s;
      }
      out->push_back(item.AsString());
    }
  } else if constexpr (kIsVector<T>) {
    if (!v.is_array() || (f.nonzero && v.AsArray().empty())) {
      return ArrayError(at, f.nonzero);
    }
    for (size_t i = 0; i < v.AsArray().size(); ++i) {
      const Path element{at.parent, at.key, i};
      if (Status s =
              DecodeObject(v.AsArray()[i], element, spec, &out->emplace_back());
          !s.ok()) {
        return s;
      }
      if constexpr (std::is_same_v<T, std::vector<TenantSpec>>) {
        if (Status s = CheckTenant(element, spec); !s.ok()) {
          return s;
        }
      }
    }
  } else {
    return DecodeObject(v, at, spec, out);
  }
  return OkStatus();
}

// The generic pass over one JSON object: reject unknown and repeated keys,
// then decode the rows in table order.
template <typename S>
Status DecodeObject(const Value& v, const Path& at, const ScenarioSpec& spec,
                    S* out) {
  if (!v.is_object()) {
    return Must(at, "must be an object");
  }
  const std::span<const Field<S>> fields = Fields<S>();
  std::array<const Value*, 16> found{};  // by row
  SNIC_CHECK(fields.size() <= found.size());
  for (const auto& [key, value] : v.AsObject()) {
    const auto row =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field<S>& f) { return f.key == key; });
    if (row == fields.end()) {
      return Bad(at, "unknown key " + Quoted(key));
    }
    const Value*& slot = found[row - fields.begin()];
    if (slot != nullptr) {
      return Bad(at, "repeated key " + Quoted(key));
    }
    slot = &value;
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    const Field<S>& f = fields[i];
    const Path here{&at, f.key};
    if (found[i] == nullptr) {
      if (!f.required) {
        continue;
      }
      return f.member.is_array ? ArrayError(here, f.nonzero)
                               : Must(here, "is required");
    }
    for (size_t j = 0; j < i && f.group != 0; ++j) {
      if (fields[j].group == f.group && found[j] != nullptr) {
        return Bad(here, std::string(f.key) + " and " +
                             std::string(fields[j].key) +
                             " are mutually exclusive");
      }
    }
    if (f.has != nullptr) {
      out->*f.has = true;
    }
    if (Status s = f.member.decode(*found[i], here, f, spec, out); !s.ok()) {
      return s;
    }
  }
  return OkStatus();
}

// --- Emit -----------------------------------------------------------------

template <typename S>
void EmitObject(const S& s, std::string& out);

template <typename S>
bool Emitted(const Field<S>& f, const S& s) {
  switch (f.emit) {
    case kIfSet:
      return s.*f.has;
    case kIfChanged:
      return !f.member.is_default(s);
    case kIfAlone:
      for (const Field<S>& other : Fields<S>()) {
        if (&other != &f && other.group == f.group && Emitted(other, s)) {
          return false;
        }
      }
      return true;
    case kAlways:
      break;
  }
  return true;
}

template <typename S, typename T>
void EmitValue(const T& v, const Field<S>& f, std::string& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    if (f.kind == kCount &&
        static_cast<uint64_t>(v) == fault::FaultRule::kForever) {
      out += obs::json::Quote(kForever);
    } else {
      out += std::to_string(v);
    }
  } else if constexpr (std::is_same_v<T, double>) {
    // The shortest form that parses back to the same double.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += obs::json::Quote(v);
  } else if constexpr (std::is_same_v<T, TenantRole>) {
    out += obs::json::Quote(TenantRoleName(v));
  } else if constexpr (kIsVector<T>) {
    out += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      EmitValue(v[i], f, out);
    }
    out += ']';
  } else {
    EmitObject(v, out);
  }
}

template <typename S>
void EmitObject(const S& s, std::string& out) {
  out += '{';
  bool first = true;
  for (const Field<S>& f : Fields<S>()) {
    if (!Emitted(f, s)) {
      continue;
    }
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    out += f.key;
    out += "\":";
    f.member.emit(s, f, out);
  }
  out += '}';
}

}  // namespace

std::string_view TenantRoleName(TenantRole role) {
  const auto i = static_cast<size_t>(role);
  return i < std::size(kRoleNames) ? kRoleNames[i] : "unknown";
}

Result<ScenarioSpec> ParseScenarioSpec(std::string_view json_text) {
  auto parsed = Value::Parse(json_text);
  if (!parsed.ok()) {
    return InvalidArgument("scenario spec: " + parsed.status().message());
  }
  ScenarioSpec spec;
  const Path root{nullptr, "top level"};
  if (Status s = DecodeObject(parsed.value(), root, spec, &spec); !s.ok()) {
    return s;
  }

  // Cross-cutting semantic checks that need the whole spec.
  if (spec.verdicts.bystander_identical) {
    bool has_bystander = false;
    for (const TenantSpec& t : spec.tenants) {
      has_bystander |= t.role == TenantRole::kBystander;
    }
    if (!has_bystander) {
      return InvalidArgument(
          "scenario spec: verdicts.bystander_identical requires a "
          "bystander-role tenant");
    }
  }
  if (spec.verdicts.queue_bound) {
    if (!spec.has_overload) {
      return InvalidArgument(
          "scenario spec: verdicts.queue_bound requires an overload section");
    }
    for (const TenantSpec& t : spec.tenants) {
      if (t.name == spec.overload.target &&
          (!t.has_policy || t.policy.rx_queue_capacity_frames == 0)) {
        return InvalidArgument(
            "scenario spec: verdicts.queue_bound requires the overload "
            "target to declare policy.rx_queue_capacity_frames");
      }
    }
  }
  if (spec.verdicts.goodput_floor_pct > 0 && !spec.has_overload) {
    return InvalidArgument(
        "scenario spec: verdicts.goodput_floor_pct requires an overload "
        "section");
  }
  if (!spec.verdicts.detect_abuse.empty() && !spec.has_attack) {
    return InvalidArgument(
        "scenario spec: verdicts.detect_abuse requires an attack section");
  }
  if (spec.verdicts.vf_wait_bound_steps > 0) {
    bool has_bystander_vf = false;
    for (const TenantSpec& t : spec.tenants) {
      has_bystander_vf |= t.role == TenantRole::kBystander && t.has_vf;
    }
    if (!has_bystander_vf) {
      return InvalidArgument(
          "scenario spec: verdicts.vf_wait_bound_steps requires a "
          "bystander-role tenant with a vf");
    }
  }
  const bool has_ladder =
      spec.has_overload && !spec.overload.ladder_pct.empty();
  if (spec.verdicts.goodput_non_collapsing_pct > 0 && !has_ladder) {
    return InvalidArgument(
        "scenario spec: verdicts.goodput_non_collapsing_pct requires "
        "overload.ladder_pct");
  }
  if (spec.verdicts.pressure_scale_out &&
      (!has_ladder || !spec.overload.elastic_pool)) {
    return InvalidArgument(
        "scenario spec: verdicts.pressure_scale_out requires "
        "overload.ladder_pct and overload.elastic_pool");
  }
  if (spec.verdicts.breaker_cycle) {
    bool target_has_accel = false;
    for (const TenantSpec& t : spec.tenants) {
      target_has_accel |= spec.has_overload && t.name == spec.overload.target &&
                          t.zip_clusters > 0;
    }
    if (!target_has_accel) {
      return InvalidArgument(
          "scenario spec: verdicts.breaker_cycle requires an overload target "
          "with zip_clusters");
    }
  }
  for (const FaultRuleSpec& rule : spec.faults) {
    if (rule.on_attempt > 0 && rule.site != fault::sites::kSupervisorReattest) {
      return InvalidArgument(
          "scenario spec: on_attempt is only meaningful at the "
          "supervisor.reattest site");
    }
  }
  return spec;
}

std::string SerializeScenarioSpec(const ScenarioSpec& spec) {
  std::string out;
  EmitObject(spec, out);
  return out;
}

ScenarioSpec BaselineTwin(const ScenarioSpec& spec) {
  ScenarioSpec twin = spec;
  twin.faults.clear();
  if (twin.has_attack) {
    twin.attack.flood_rings = 0;
    twin.attack.squat = false;
  }
  if (twin.has_overload) {
    twin.overload.load_pct = twin.overload.baseline_pct;
  }
  return twin;
}

}  // namespace snic::scenario
