// replay_colocation: the Fig. 5 colocation sweep on the replay engine.
//
// Set-up records one full-size instruction trace per NF kind (120k events,
// Zipf 1.1 over 100k flows, as in fig5a) and encodes it. One sweep runs
// PreparedTrace::Prepare on the six traces, then replays every mix cell
// under the baseline and the S-NIC machine configuration with a
// MetricRegistry attached. Cells: every NF pair at L2 sizes of 32 KiB,
// 512 KiB and 4 MiB, plus 4-way and 8-way mixes at 4 MiB (below). One
// operation is one cell; sweeps repeat until the measuring time is spent.
//
// Oracle: sim::ReferenceReplay on a seed-sampled subset of cells must give
// bit-identical per-core results, and every later sweep must reproduce the
// first sweep's results cell for cell.

#include <array>
#include <utility>
#include <vector>

#include "e2e_bench/workload.h"
#include "src/common/rng.h"
#include "src/nf/nf_factory.h"
#include "src/obs/metrics.h"
#include "src/sim/mem_access.h"
#include "src/sim/reference.h"
#include "src/sim/replay.h"
#include "src/trace/trace_gen.h"

namespace snic::e2e {
namespace {

constexpr size_t kNumNfs = nf::kNumNfKinds;
constexpr double kWarmupFraction = 0.3;  // as in every Fig. 5 replay
constexpr size_t kPacketsPerChunk = 1024;
constexpr int kOracleCells = 4;

struct Cell {
  std::vector<size_t> kinds;
  uint64_t l2_bytes = 0;
};

struct CellResult {
  sim::ReplayResult baseline;
  sim::ReplayResult snic;
};

struct ReplayInputs {
  std::array<sim::InstructionTrace, kNumNfs> traces;  // for the oracle
  std::array<sim::EncodedTrace, kNumNfs> encoded;
  std::vector<Cell> cells;
};

ReplayInputs Setup(const Options& options, Tracer& setup_spans) {
  const uint16_t kConstruct = setup_spans.Intern("nf.construct");
  const uint16_t kGenerate = setup_spans.Intern("trace.generate");
  const uint16_t kRecord = setup_spans.Intern("nf.record");
  const uint16_t kEncode = setup_spans.Intern("sim.encode");
  const size_t events_per_nf = options.tiny ? 20'000 : 120'000;

  ReplayInputs inputs;
  const auto nf_kinds = nf::AllNfKinds();
  for (size_t k = 0; k < kNumNfs; ++k) {
    std::unique_ptr<nf::NetworkFunction> fn;
    {
      SpanScope span(&setup_spans, kConstruct);
      fn = nf::MakeNf(nf_kinds[k]);
    }
    trace::TraceConfig config = trace::TraceConfig::IctfLike(options.seed + k);
    config.num_flows = 100'000;
    config.zipf_skew = 1.1;
    std::unique_ptr<trace::PacketStream> stream;
    {
      SpanScope span(&setup_spans, kGenerate);
      stream = std::make_unique<trace::PacketStream>(config);
    }
    fn->recorder().Attach(&inputs.traces[k]);
    while (inputs.traces[k].size() < events_per_nf) {
      std::vector<net::Packet> chunk;
      {
        SpanScope span(&setup_spans, kGenerate);
        chunk = stream->Generate(kPacketsPerChunk);
      }
      SpanScope span(&setup_spans, kRecord);
      for (net::Packet& packet : chunk) {
        if (inputs.traces[k].size() >= events_per_nf) {
          break;
        }
        fn->Process(packet);
      }
    }
    fn->recorder().Detach();
    SpanScope span(&setup_spans, kEncode);
    inputs.encoded[k] = sim::EncodedTrace::Encode(inputs.traces[k]);
  }

  for (uint64_t l2 : {32ull << 10, 512ull << 10, 4ull << 20}) {
    for (size_t i = 0; i < kNumNfs; ++i) {
      for (size_t j = i; j < kNumNfs; ++j) {
        inputs.cells.push_back(Cell{{i, j}, l2});
      }
    }
  }
  // Seed-drawn wide mixes at 4 MiB, drawn so the seed changes the mixes but
  // hardly the work they carry (the p90 cell sits among them): every 4-way
  // subset of distinct kinds, and six 8-way mixes of all six kinds plus two
  // extras dealt from a shuffled deck holding every kind twice; each mix in
  // seed-shuffled core order.
  Rng rng(options.seed ^ 0x3c0cca7e5ULL);
  const auto shuffle = [&rng](std::vector<size_t>& kinds) {
    for (size_t i = kinds.size() - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng.NextBounded(i + 1)]);
    }
  };
  for (uint32_t subset = 0; subset < (1u << kNumNfs); ++subset) {
    if (__builtin_popcount(subset) != 4) {
      continue;
    }
    std::vector<size_t> kinds;
    for (size_t k = 0; k < kNumNfs; ++k) {
      if (subset & (1u << k)) {
        kinds.push_back(k);
      }
    }
    shuffle(kinds);
    inputs.cells.push_back(Cell{kinds, 4ull << 20});
  }
  std::vector<size_t> extras = {0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5};
  shuffle(extras);
  for (size_t m = 0; m < kNumNfs; ++m) {
    std::vector<size_t> kinds = {0, 1, 2, 3, 4, 5, extras[2 * m],
                                 extras[2 * m + 1]};
    shuffle(kinds);
    inputs.cells.push_back(Cell{kinds, 4ull << 20});
  }
  return inputs;
}

bool SameCores(const sim::ReplayResult& a, const sim::ReplayResult& b) {
  if (a.cores.size() != b.cores.size()) {
    return false;
  }
  for (size_t c = 0; c < a.cores.size(); ++c) {
    const sim::CoreResult& x = a.cores[c];
    const sim::CoreResult& y = b.cores[c];
    if (x.instructions != y.instructions || x.cycles != y.cycles ||
        x.mem_accesses != y.mem_accesses || x.l1_misses != y.l1_misses ||
        x.l2_misses != y.l2_misses) {
      return false;
    }
  }
  return true;
}

bool SameCell(const CellResult& a, const CellResult& b) {
  return SameCores(a.baseline, b.baseline) && SameCores(a.snic, b.snic);
}

}  // namespace

WorkloadReport RunReplayColocation(const Options& options) {
  WorkloadReport report;
  const ReplayInputs inputs = TimedSetups(
      report, kSetupReps, [&] { return Setup(options, report.setup); });

  Tracer& spans = report.ops;
  const uint16_t kOpPrepare = spans.Intern("op.prepare");
  const uint16_t kOpMix = spans.Intern("op.mix");
  const uint16_t kPrepare = spans.Intern("sim.prepare");
  const uint16_t kReplayBaseline = spans.Intern("sim.replay_baseline");
  const uint16_t kReplaySnic = spans.Intern("sim.replay_snic");

  obs::MetricRegistry registry;
  sim::ReplayObs baseline_obs;
  baseline_obs.metrics = &registry;
  baseline_obs.labels.emplace_back("config", "baseline");
  sim::ReplayObs snic_obs;
  snic_obs.metrics = &registry;
  snic_obs.labels.emplace_back("config", "snic");
  const sim::CacheConfig l1 =
      sim::MachineConfig::MarvellLike(2, 4u << 20, false).l1;

  const size_t num_cells = inputs.cells.size();
  std::vector<CellResult> expected(num_cells);
  std::vector<bool> have_expected(num_cells, false);
  // The seed-sampled oracle cells, checked against ReferenceReplay once.
  Rng oracle_rng(options.seed ^ 0x0bac1eULL);
  for (int i = 0; i < kOracleCells; ++i) {
    const size_t c = oracle_rng.NextBounded(num_cells);
    if (have_expected[c]) {
      continue;
    }
    std::vector<const sim::InstructionTrace*> mix;
    for (size_t kind : inputs.cells[c].kinds) {
      mix.push_back(&inputs.traces[kind]);
    }
    const auto cores = static_cast<uint32_t>(mix.size());
    const uint64_t l2 = inputs.cells[c].l2_bytes;
    expected[c].baseline = sim::ReferenceReplay(
        sim::MachineConfig::MarvellLike(cores, l2, false), mix,
        kWarmupFraction);
    expected[c].snic = sim::ReferenceReplay(
        sim::MachineConfig::MarvellLike(cores, l2, true), mix,
        kWarmupFraction);
    if (options.corrupt_oracle && i == 0) {
      ++expected[c].snic.cores[0].cycles;
    }
    have_expected[c] = true;
  }

  int64_t measured_ns = 0;
  ChunkedRate untraced_rate(1.0), traced_rate(1.0);  // one chunk per sweep
  double traced_global_events = 0.0;
  uint64_t traced_cells = 0, ops = 0;
  uint32_t op_id = 0;
  double l2_misses = 0.0, l2_accesses = 0.0, bus_wait = 0.0;
  uint64_t event_count = 0, global_event_count = 0;
  const uint64_t min_sweeps = options.tiny ? 1 : 4;
  for (uint64_t sweep = 0;
       !Done(measured_ns, options.seconds, sweep, min_sweeps);
       ++sweep) {
    const bool traced = options.trace && sweep % 2 == 1;
    Tracer* t = traced ? &spans : nullptr;
    spans.SetOp(++op_id);
    std::array<sim::PreparedTrace, kNumNfs> prepared;
    int64_t sweep_ns = 0;
    {
      const int64_t start = NowNs();
      SpanScope op_span(t, kOpPrepare);
      SpanScope span(t, kPrepare);
      for (size_t k = 0; k < kNumNfs; ++k) {
        prepared[k] =
            sim::PreparedTrace::Prepare(inputs.encoded[k], l1, kWarmupFraction);
      }
      sweep_ns += NowNs() - start;
    }
    if (sweep == 0) {
      for (const sim::PreparedTrace& p : prepared) {
        event_count += p.event_count();
        global_event_count += p.global_event_count();
      }
    }
    double sweep_events = 0.0, sweep_global_events = 0.0;
    for (size_t c = 0; c < num_cells; ++c) {
      const Cell& cell = inputs.cells[c];
      std::vector<const sim::PreparedTrace*> mix;
      for (size_t kind : cell.kinds) {
        mix.push_back(&prepared[kind]);
        sweep_events += 2.0 * static_cast<double>(prepared[kind].event_count());
        sweep_global_events +=
            2.0 * static_cast<double>(prepared[kind].global_event_count());
      }
      const auto cores = static_cast<uint32_t>(mix.size());
      spans.SetOp(++op_id);
      CellResult result;
      const int64_t start = NowNs();
      {
        SpanScope op_span(t, kOpMix);
        {
          SpanScope span(t, kReplayBaseline);
          result.baseline = sim::Replay(
              sim::MachineConfig::MarvellLike(cores, cell.l2_bytes, false), mix,
              &baseline_obs);
        }
        SpanScope span(t, kReplaySnic);
        result.snic = sim::Replay(
            sim::MachineConfig::MarvellLike(cores, cell.l2_bytes, true), mix,
            &snic_obs);
      }
      const int64_t elapsed = NowNs() - start;
      sweep_ns += elapsed;
      if (!traced) {
        report.op_ms.push_back(static_cast<double>(elapsed) * 1e-6);
      } else {
        ++traced_cells;
      }

      // Oracle, outside the timed region.
      if (!have_expected[c]) {
        expected[c] = result;
        have_expected[c] = true;
      }
      ++ops;
      report.failed += SameCell(result, expected[c]) ? 0 : 1;
      if (sweep == 0) {
        for (const sim::ReplayResult* r : {&result.baseline, &result.snic}) {
          l2_misses += static_cast<double>(r->l2_stats.misses);
          l2_accesses +=
              static_cast<double>(r->l2_stats.hits + r->l2_stats.misses);
          bus_wait += static_cast<double>(r->bus_stats.total_wait_cycles);
        }
      }
    }
    measured_ns += sweep_ns;
    if (traced) {
      traced_rate.Add(sweep_events, sweep_ns);
      traced_global_events += sweep_global_events;
    } else {
      untraced_rate.Add(sweep_events, sweep_ns);
    }
  }
  report.attempted = ops;

  report.tail_quantile = 0.9;
  report.throughput_per_s = untraced_rate.Median();
  report.metrics = {
      {"sim_events_per_s", report.throughput_per_s, "events/s"},
      {"mix_ms_p50", Percentile(report.op_ms, 0.5), "ms"},
      {"mix_ms_p90", Percentile(report.op_ms, 0.9), "ms"},
  };
  if (options.trace) {
    report.traced_ops = traced_cells;
    report.traced_throughput_per_s = traced_rate.Median();
    const SpanTotals prepare = spans.NameTotals("sim.prepare");
    const SpanTotals base = spans.NameTotals("sim.replay_baseline");
    const SpanTotals snic = spans.NameTotals("sim.replay_snic");
    const double replay_ns = base.total_ns + snic.total_ns;
    report.layer_metrics = {
        {"sim.prepare_ms",
         prepare.total_ns * 1e-6 /
             static_cast<double>(prepare.calls),
         "ms"},
        {"sim.replay_us_per_mix",
         replay_ns * 1e-3 / static_cast<double>(traced_cells), "us"},
        {"sim.ns_per_global_event", replay_ns / traced_global_events, "ns"},
        {"sim.global_event_ratio",
         static_cast<double>(global_event_count) /
             static_cast<double>(event_count),
         "ratio"},
        {"sim.l2_miss_ratio", l2_misses / l2_accesses, "ratio"},
        {"sim.bus_wait_cycles", bus_wait, "cycles"},
    };
  }
  return report;
}

}  // namespace snic::e2e
