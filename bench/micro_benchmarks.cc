// Google-benchmark micro-benchmarks for the hot paths of every substrate:
// crypto (SHA-256, RSA, HMAC), the DPI automaton, NF data structures
// (Maglev, DIR-24-8, flow map), the ZIP/RAID accelerators, the cache/bus
// timing models, and packet parsing.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/accel/aho_corasick.h"
#include "src/accel/aho_corasick_reference.h"
#include "src/accel/raid.h"
#include "src/accel/zip.h"
#include "src/common/rng.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"
#include "src/net/parser.h"
#include "src/nf/flow_hash_map.h"
#include "src/nf/lpm.h"
#include "src/nf/maglev_lb.h"
#include "src/sim/bus.h"
#include "src/sim/cache.h"
#include "src/trace/trace_gen.h"

namespace {

using namespace snic;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  return out;
}

// SHA-256 with this host's block function (SHA-NI when the CPU has it) and
// with the portable reference; 1 MiB is one launch page.
void Sha256With(benchmark::State& state, crypto::Sha256BlockFn block_fn) {
  const auto data = RandomBytes(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    crypto::Sha256 h(block_fn);
    h.Update(data.data(), data.size());
    benchmark::DoNotOptimize(h.Finalize());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
void BM_Sha256(benchmark::State& state) {
  Sha256With(state, crypto::Sha256DefaultBlockFn());
}
void BM_Sha256Reference(benchmark::State& state) {
  Sha256With(state, &crypto::Sha256BlocksReference);
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1514)->Arg(64 * 1024)->Arg(1 << 20);
BENCHMARK(BM_Sha256Reference)->Arg(64)->Arg(1514)->Arg(64 * 1024)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const auto key = RandomBytes(32, 2);
  const auto msg = RandomBytes(256, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::HmacSha256(std::span<const uint8_t>(key.data(), key.size()),
                           std::span<const uint8_t>(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(4);
  const auto kp =
      crypto::GenerateRsaKeyPair(static_cast<size_t>(state.range(0)), rng);
  const auto msg = RandomBytes(64, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::RsaSign(
        kp.private_key, std::span<const uint8_t>(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

// A full-length private-exponent PowMod (the cost of one plain RSA
// signature) at range(0) bits: Montgomery against the DivMod reference.
using PowModFn = crypto::BigUint (*)(const crypto::BigUint&,
                                     const crypto::BigUint&,
                                     const crypto::BigUint&);
void PowModWith(benchmark::State& state, PowModFn pow_mod) {
  Rng rng(6);
  const auto bits = static_cast<size_t>(state.range(0));
  const crypto::BigUint m = crypto::BigUint::Add(
      crypto::BigUint::RandomWithBits(bits, rng).ShiftRight(1).ShiftLeft(1),
      crypto::BigUint(1));
  const crypto::BigUint base = crypto::BigUint::RandomWithBits(bits - 1, rng);
  const crypto::BigUint exp = crypto::BigUint::RandomWithBits(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pow_mod(base, exp, m));
  }
}
void BM_PowModMontgomery(benchmark::State& state) {
  PowModWith(state, &crypto::BigUint::PowModMontgomery);
}
void BM_PowModReference(benchmark::State& state) {
  PowModWith(state, &crypto::BigUint::PowModReference);
}
BENCHMARK(BM_PowModMontgomery)
    ->Arg(512)
    ->Arg(768)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PowModReference)->Arg(512)->Arg(768)->Unit(benchmark::kMillisecond);

// One prime search at range(0) bits from the same seed every iteration, so
// each iteration tests the same candidates: GeneratePrime (Montgomery-context
// Miller-Rabin with witness shortcuts) against its loop over the reference
// test.
void BM_GeneratePrime(benchmark::State& state) {
  const auto bits = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(8);
    benchmark::DoNotOptimize(crypto::BigUint::GeneratePrime(bits, rng));
  }
}
void BM_GeneratePrimeReference(benchmark::State& state) {
  const auto bits = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(8);
    crypto::BigUint candidate;
    do {
      candidate = crypto::BigUint::RandomWithBits(bits, rng);
      if (!candidate.IsOdd()) {
        candidate = crypto::BigUint::Add(candidate, crypto::BigUint(1));
      }
    } while (!crypto::BigUint::IsProbablePrimeReference(candidate, 20, rng));
    benchmark::DoNotOptimize(candidate);
  }
}
BENCHMARK(BM_GeneratePrime)->Arg(256)->Arg(384)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneratePrimeReference)
    ->Arg(256)
    ->Arg(384)
    ->Unit(benchmark::kMillisecond);

// The flat automaton and its pointer-per-node reference, built once per
// (engine, ruleset size).
template <typename Engine, size_t kPatterns>
const Engine& Automaton() {
  static const Engine* automaton =
      new Engine(accel::GenerateDpiRuleset(kPatterns, 11));
  return *automaton;
}

template <typename Engine>
void AhoCorasickScanWith(benchmark::State& state, const Engine& automaton,
                         const std::vector<uint8_t>& payload) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(automaton.Scan(
        std::span<const uint8_t>(payload.data(), payload.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}

// Random bytes over a 4,096-pattern graph: mostly root transitions, and the
// whole graph fits in cache.
template <typename Engine>
void AhoCorasickScanSmall(benchmark::State& state) {
  AhoCorasickScanWith(state, Automaton<Engine, 4096>(),
                      RandomBytes(static_cast<size_t>(state.range(0)), 6));
}
void BM_AhoCorasickScan(benchmark::State& state) {
  AhoCorasickScanSmall<accel::AhoCorasick>(state);
}
void BM_AhoCorasickScanReference(benchmark::State& state) {
  AhoCorasickScanSmall<accel::ReferenceAhoCorasick>(state);
}
BENCHMARK(BM_AhoCorasickScan)->Arg(64)->Arg(1514)->Arg(9000);
BENCHMARK(BM_AhoCorasickScanReference)->Arg(64)->Arg(1514)->Arg(9000);

// The paper's 33,471-pattern graph (tens of MB) walked deep: the payload
// strings rule bodies together without their "#<id>" tails, so every byte
// follows a trie edge or a fail link and nothing matches.
template <typename Engine>
void AhoCorasickScanFull(benchmark::State& state) {
  const auto patterns = accel::GenerateDpiRuleset(33'471, 11);
  Rng rng(6);
  std::vector<uint8_t> payload;
  while (payload.size() < static_cast<size_t>(state.range(0))) {
    const std::string& p = patterns[rng.NextBounded(patterns.size())];
    payload.insert(payload.end(), p.begin(), p.begin() + p.find('#'));
  }
  payload.resize(static_cast<size_t>(state.range(0)));
  AhoCorasickScanWith(state, Automaton<Engine, 33'471>(), payload);
}
void BM_AhoCorasickScanFull(benchmark::State& state) {
  AhoCorasickScanFull<accel::AhoCorasick>(state);
}
void BM_AhoCorasickScanFullReference(benchmark::State& state) {
  AhoCorasickScanFull<accel::ReferenceAhoCorasick>(state);
}
BENCHMARK(BM_AhoCorasickScanFull)->Arg(64)->Arg(1514)->Arg(9000);
BENCHMARK(BM_AhoCorasickScanFullReference)->Arg(64)->Arg(1514)->Arg(9000);

template <typename Engine>
void AhoCorasickBuild(benchmark::State& state) {
  const auto patterns =
      accel::GenerateDpiRuleset(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    const Engine automaton(patterns);
    benchmark::DoNotOptimize(automaton.node_count());
  }
}
void BM_AhoCorasickBuild(benchmark::State& state) {
  AhoCorasickBuild<accel::AhoCorasick>(state);
}
void BM_AhoCorasickBuildReference(benchmark::State& state) {
  AhoCorasickBuild<accel::ReferenceAhoCorasick>(state);
}
BENCHMARK(BM_AhoCorasickBuild)
    ->Arg(4096)
    ->Arg(33'471)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AhoCorasickBuildReference)
    ->Arg(4096)
    ->Arg(33'471)
    ->Unit(benchmark::kMillisecond);

void BM_ZipCompress(benchmark::State& state) {
  // Half-compressible payload (trace generator's default entropy).
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  static constexpr char kText[] = "GET /index.html HTTP/1.1 ";
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = rng.NextDouble() < 0.5
                  ? static_cast<uint8_t>(rng.NextU32())
                  : static_cast<uint8_t>(kText[i % (sizeof(kText) - 1)]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        accel::ZipCompress(std::span<const uint8_t>(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ZipCompress)->Arg(1514)->Arg(64 * 1024);

void BM_RaidParity(benchmark::State& state) {
  const auto a = RandomBytes(static_cast<size_t>(state.range(0)), 8);
  const auto b = RandomBytes(static_cast<size_t>(state.range(0)), 9);
  const auto c = RandomBytes(static_cast<size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        accel::RaidParity({std::span<const uint8_t>(a.data(), a.size()),
                           std::span<const uint8_t>(b.data(), b.size()),
                           std::span<const uint8_t>(c.data(), c.size())}));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_RaidParity)->Arg(4096)->Arg(64 * 1024);

void BM_MaglevLookup(benchmark::State& state) {
  nf::MaglevConfig config;
  config.num_backends = 100;
  config.table_size = 65'537;
  // Shared across benchmark repetitions: Maglev table fill dominates setup.
  // snic-lint: allow(no-mutable-file-static)
  static nf::MaglevLb* lb = new nf::MaglevLb(config);
  trace::FlowTable flows(10'000, 12);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lb->BackendForTuple(flows.TupleForRank(i++ % flows.size())));
  }
}
BENCHMARK(BM_MaglevLookup);

void BM_LpmLookup(benchmark::State& state) {
  // Shared across benchmark repetitions: route-table build dominates setup.
  // snic-lint: allow(no-mutable-file-static)
  static nf::Lpm* lpm = new nf::Lpm(nf::LpmConfig{.num_routes = 16'000});
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpm->Lookup(rng.NextU32()));
  }
}
BENCHMARK(BM_LpmLookup);

void BM_FlowHashMapFind(benchmark::State& state) {
  // Shared across benchmark repetitions: the 40k-flow fill dominates setup.
  // snic-lint: allow(no-mutable-file-static)
  static nf::NfArena* arena = new nf::NfArena("bench");
  // snic-lint: allow(no-mutable-file-static)
  static nf::MemoryRecorder* recorder = new nf::MemoryRecorder;
  // snic-lint: allow(no-mutable-file-static)
  static auto* map = [] {
    auto* m = new nf::FlowHashMap<uint64_t>(arena, recorder, 1 << 16, 0, "b");
    trace::FlowTable flows(40'000, 14);
    for (uint64_t r = 0; r < flows.size(); ++r) {
      m->Insert(flows.TupleForRank(r), r);
    }
    return m;
  }();
  trace::FlowTable flows(40'000, 14);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->Find(flows.TupleForRank(i++ % 40'000)));
  }
}
BENCHMARK(BM_FlowHashMapFind);

void BM_PacketParse(benchmark::State& state) {
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(15));
  const auto packets = stream.Generate(256);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Parse(packets[i++ % packets.size()].bytes()));
  }
}
BENCHMARK(BM_PacketParse);

void BM_PacketBuild(benchmark::State& state) {
  net::FiveTuple t;
  t.src_ip = 0x0a000001;
  t.dst_ip = 0xc0a80001;
  t.src_port = 1234;
  t.dst_port = 80;
  t.protocol = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::PacketBuilder().SetTuple(t).SetFrameLen(
            static_cast<size_t>(state.range(0))).Build());
  }
}
BENCHMARK(BM_PacketBuild)->Arg(64)->Arg(1514);

void BM_CacheAccess(benchmark::State& state) {
  sim::CacheConfig config;
  config.size_bytes = 4u << 20;
  config.associativity = 16;
  config.policy = state.range(0) != 0 ? sim::PartitionPolicy::kStaticEqual
                                      : sim::PartitionPolicy::kShared;
  config.num_domains = 4;
  sim::Cache cache(config);
  Rng rng(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(rng.NextU64() % (64u << 20), rng.NextU32() % 4));
  }
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

void BM_BusGrant(benchmark::State& state) {
  auto bus = sim::MakeArbiter(
      static_cast<sim::BusPolicy>(state.range(0)), 8, 4, 96, 12);
  uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus->Grant(t, static_cast<uint32_t>(t % 4)));
    t += 13;
  }
}
BENCHMARK(BM_BusGrant)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
