// tenant_churn: one tenant lifecycle per operation on a booted device with
// a 768-bit root of trust — NicOs::NfCreate, mgmt::ExpectedMeasurement,
// SnicDevice::NfAttest, core::VerifyQuote against the expected measurement,
// NicOs::NfDestroy. Each lifecycle's image is one of the six NFs' Table 6
// images, drawn by seed, so the number of hashed pages varies. The verifier's
// fresh DH share and nonce are inputs of the lifecycle, made before it
// starts, outside the timed region.

#include <memory>
#include <utility>
#include <vector>

#include "e2e_bench/workload.h"
#include "src/common/rng.h"
#include "src/core/attestation.h"
#include "src/core/snic_device.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"
#include "src/nf/nf_factory.h"

namespace snic::e2e {
namespace {

constexpr size_t kRootOfTrustBits = 768;
constexpr uint64_t kHeapBytes = 8ull << 20;

struct ChurnState {
  std::unique_ptr<crypto::VendorAuthority> vendor;
  std::unique_ptr<core::SnicDevice> device;
  std::unique_ptr<mgmt::NicOs> nic_os;
  std::vector<mgmt::FunctionImage> images;  // one per NF kind
  std::vector<uint8_t> schedule;            // image index per lifecycle
};

// Boots the device and builds the six images and the lifecycle schedule.
ChurnState Setup(const Options& options, Tracer& setup_spans) {
  ChurnState state;
  {
    SpanScope span(&setup_spans, setup_spans.Intern("crypto.boot"));
    Rng key_rng(kRootOfTrustSeed);
    state.vendor =
        std::make_unique<crypto::VendorAuthority>(kRootOfTrustBits, key_rng);
    core::SnicConfig config;
    config.dram_bytes = 256ull << 20;
    config.rsa_modulus_bits = kRootOfTrustBits;
    config.boot_seed = key_rng.NextU64();
    state.device = std::make_unique<core::SnicDevice>(config, *state.vendor);
  }
  Rng rng(options.seed);
  state.nic_os = std::make_unique<mgmt::NicOs>(state.device.get());
  for (nf::NfKind kind : nf::AllNfKinds()) {
    const nf::NfMemoryProfile profile = nf::MakeNf(kind, true)->Profile();
    const double image_mib = profile.image.text_mib +
                             profile.image.data_mib + profile.image.code_mib;
    mgmt::FunctionImage image;
    image.name = std::string(nf::NfKindName(kind));
    image.code_and_data.resize(static_cast<size_t>(image_mib * (1 << 20)));
    for (uint8_t& byte : image.code_and_data) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    image.memory_bytes = image.code_and_data.size() + kHeapBytes;
    state.images.push_back(std::move(image));
  }
  // Blocks of six lifecycles, each a seed-shuffled permutation of the six
  // images, so every run hashes the same mix of page counts.
  const size_t blocks = options.tiny ? 8 : 512;
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t block[nf::kNumNfKinds] = {0, 1, 2, 3, 4, 5};
    for (size_t i = nf::kNumNfKinds - 1; i > 0; --i) {
      std::swap(block[i], block[rng.NextBounded(i + 1)]);
    }
    state.schedule.insert(state.schedule.end(), block,
                          block + nf::kNumNfKinds);
  }
  return state;
}

}  // namespace

WorkloadReport RunTenantChurn(const Options& options) {
  WorkloadReport report;
  ChurnState state = TimedSetups(
      report, kSetupReps, [&] { return Setup(options, report.setup); });

  Tracer& spans = report.ops;
  const uint16_t kOp = spans.Intern("op.lifecycle");
  const uint16_t kCreate = spans.Intern("mgmt.nf_create");
  const uint16_t kMeasure = spans.Intern("mgmt.expected_measurement");
  const uint16_t kAttest = spans.Intern("core.nf_attest");
  const uint16_t kVerify = spans.Intern("core.verify_quote");
  const uint16_t kDestroy = spans.Intern("mgmt.nf_destroy");

  core::SnicDevice& device = *state.device;
  const uint64_t page_bytes = device.memory().page_bytes();
  const crypto::DhGroup group = crypto::SmallTestGroup();
  Rng session_rng(options.seed ^ 0x5e55107ULL);
  const uint32_t free_cores = device.FreeCores();

  int64_t measured_ns = 0;
  uint64_t traced_ops = 0;
  // Chunks of one schedule block: every chunk hashes the same six images.
  ChunkedRate untraced_rate(nf::kNumNfKinds), traced_rate(nf::kNumNfKinds);
  double hashed_bytes = 0.0;
  const uint64_t min_ops = options.tiny ? 4 : 200;
  for (uint64_t op = 0;
       !Done(measured_ns, options.seconds, op, min_ops); ++op) {
    const bool traced = options.trace && op % 2 == 1;
    Tracer* t = traced ? &spans : nullptr;
    spans.SetOp(static_cast<uint32_t>(op + 1));
    const mgmt::FunctionImage& image =
        state.images[state.schedule[op % state.schedule.size()]];

    // Inputs of this lifecycle that are not part of the system under test.
    core::AttestationRequest request;
    request.group = group;
    request.nonce.resize(16);
    for (uint8_t& b : request.nonce) {
      b = static_cast<uint8_t>(session_rng.NextU64());
    }
    request.g_x = crypto::DhParticipant(group, session_rng).public_value();

    const int64_t start = NowNs();
    uint64_t nf_id = 0;
    crypto::Sha256Digest expected{};
    Result<core::AttestationQuote> quote = NotFound("not attested");
    core::QuoteVerification verdict;
    bool created = false, destroyed = false;
    {
      SpanScope op_span(t, kOp);
      {
        SpanScope span(t, kCreate);
        auto id = state.nic_os->NfCreate(image);
        created = id.ok();
        nf_id = created ? id.value() : 0;
      }
      {
        SpanScope span(t, kMeasure);
        expected = mgmt::ExpectedMeasurement(image, page_bytes);
      }
      if (created) {
        {
          SpanScope span(t, kAttest);
          quote = device.NfAttest(nf_id, request);
        }
        if (options.corrupt_oracle && op == 0) {
          expected[0] ^= 1;  // the test hook: a wrong expectation
        }
        if (quote.ok()) {
          SpanScope span(t, kVerify);
          verdict = core::VerifyQuote(state.vendor->public_key(),
                                      quote.value(), request.nonce, &expected);
        }
        SpanScope span(t, kDestroy);
        destroyed = state.nic_os->NfDestroy(nf_id).ok();
      }
    }
    const int64_t elapsed = NowNs() - start;
    measured_ns += elapsed;
    if (traced) {
      traced_rate.Add(1.0, elapsed);
      ++traced_ops;
    } else {
      untraced_rate.Add(1.0, elapsed);
      report.op_ms.push_back(static_cast<double>(elapsed) * 1e-6);
    }

    // Oracle, outside the timed region.
    bool ok = created && destroyed && quote.ok() && verdict.chain_ok &&
              verdict.signature_ok && verdict.nonce_ok &&
              verdict.measurement_ok;
    ok = ok && device.FreeCores() == free_cores &&
         device.memory().PagesOwnedBy(nf_id).empty();
    ++report.attempted;
    report.failed += ok ? 0 : 1;
    hashed_bytes += 2.0 * static_cast<double>(
        ((image.code_and_data.size() + page_bytes - 1) / page_bytes) *
            page_bytes + image.SerializeConfig().size());
  }

  report.tail_quantile = 0.95;
  report.throughput_per_s = untraced_rate.Median();
  report.metrics = {
      {"lifecycles_per_s", report.throughput_per_s, "1/s"},
      {"lifecycle_ms_p50", Percentile(report.op_ms, 0.5), "ms"},
      {"lifecycle_ms_p95", Percentile(report.op_ms, 0.95), "ms"},
  };
  if (options.trace) {
    report.traced_ops = traced_ops;
    report.traced_throughput_per_s = traced_rate.Median();
    const auto per_call_ms = [&](const char* name) {
      const SpanTotals s = spans.NameTotals(name);
      return s.calls == 0 ? 0.0
                          : s.total_ns * 1e-6 /
                                static_cast<double>(s.calls);
    };
    report.layer_metrics = {
        {"mgmt.nf_create_ms", per_call_ms("mgmt.nf_create"), "ms"},
        {"mgmt.expected_measurement_ms",
         per_call_ms("mgmt.expected_measurement"), "ms"},
        {"core.nf_attest_ms", per_call_ms("core.nf_attest"), "ms"},
        {"core.verify_quote_ms", per_call_ms("core.verify_quote"), "ms"},
        {"mgmt.nf_destroy_ms", per_call_ms("mgmt.nf_destroy"), "ms"},
        {"crypto.sha256_bytes_per_lifecycle",
         hashed_bytes / static_cast<double>(report.attempted), "count"},
    };
  }
  return report;
}

}  // namespace snic::e2e
