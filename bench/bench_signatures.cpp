// The paper's related-work claim, measured: "public-key operations still
// dominate the latency of reliable multicast" (Reiter, quoted in §5).
//
// Compares the RITAS matrix echo broadcast (vectors of keyed hashes,
// §2.3) against the baseline it replaced — Reiter's signed echo multicast
// with real RSA — on the same simulated testbed, plus wall-clock
// microbenchmarks of the primitive operations on the host running it.
//
// BENCH_signatures.json holds the three simulated latencies as rows
// (virtual time, tracked exactly) and the wall-clock figures in an
// untracked "host" section. Gates: the baseline is more than twice as slow
// as the matrix primitive, signatures are more than half its latency, and
// one RSA sign costs more than a full keyed-hash vector.
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/signed_echo_broadcast.h"
#include "paper_harness.h"

namespace {

using namespace ritas;
using namespace ritas::bench;

std::vector<std::shared_ptr<const RsaDirectory>> make_dirs(std::uint32_t n,
                                                           std::size_t bits) {
  Rng rng(2024);
  std::vector<RsaKeyPair> keys;
  std::vector<RsaPublicKey> pubs;
  for (std::uint32_t p = 0; p < n; ++p) {
    keys.push_back(RsaKeyPair::generate(rng, bits));
    pubs.push_back(keys.back().pub);
  }
  std::vector<std::shared_ptr<const RsaDirectory>> dirs;
  for (std::uint32_t p = 0; p < n; ++p) {
    auto d = std::make_shared<RsaDirectory>();
    d->pubs = pubs;
    d->self = keys[p];
    dirs.push_back(std::move(d));
  }
  return dirs;
}

double signed_eb_latency_us(int iters, const SignatureCosts& costs,
                            const std::vector<std::shared_ptr<const RsaDirectory>>& dirs) {
  ClusterOptions o;
  o.n = 4;
  o.seed = 1;
  o.lan = paper_lan(true);
  Cluster c(o);
  Sample lat;
  for (int it = 0; it < iters; ++it) {
    const InstanceId id =
        InstanceId::root(ProtocolType::kEchoBroadcast, static_cast<std::uint64_t>(it) + 1);
    bool done = false;
    std::vector<SignedEchoBroadcast*> eb(4, nullptr);
    for (ProcessId p : c.live()) {
      SignedEchoBroadcast::DeliverFn cb;
      if (p == 0) cb = [&done](Slice) { done = true; };
      eb[p] = &c.create_root<SignedEchoBroadcast>(
          p, id, 0, Attribution::kPayload, dirs[p], costs, std::move(cb));
    }
    const sim::Time t0 = c.now();
    c.call(0, [&] { eb[0]->bcast(Bytes(10, 0x61)); });
    c.run_until([&] { return done; }, c.now() + kDeadline);
    lat.add(static_cast<double>(c.now() - t0) / 1e3);
    c.run_all();
    for (ProcessId p : c.live()) c.destroy_roots(p);
  }
  return lat.mean();
}

}  // namespace

int main() {
  constexpr int kIters = 20;
  constexpr std::size_t kRsaBits = 300;
  BenchReport report("signatures");
  report.config("iters", kIters);
  report.config("seed", 1);
  report.config("rsa_bits", static_cast<std::uint64_t>(kRsaBits));
  report.config("payload_bytes", 10);
  report.compare(
      R"({"key":["broadcast"],"fields":{"latency_us":{"exact":true}}})");

  print_header(
      "Baseline comparison: matrix echo broadcast (RITAS, §2.3) vs Reiter's\n"
      "signed echo multicast (Rampart) on the simulated 500 MHz testbed");

  std::printf("generating 300-bit RSA keys for the baseline...\n");
  const auto dirs = make_dirs(4, kRsaBits);

  // Wall-clock microbenchmark of the primitives on THIS host.
  {
    const Bytes m(1024, 0x42);
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kSigns = 5;
    Bytes sig;
    for (int i = 0; i < kSigns; ++i) sig = rsa_sign(dirs[0]->self, m);
    const auto t1 = std::chrono::steady_clock::now();
    constexpr int kVerifies = 20;
    for (int i = 0; i < kVerifies; ++i) (void)rsa_verify(dirs[0]->pubs[0], m, sig);
    const auto t2 = std::chrono::steady_clock::now();
    constexpr int kHashVectors = 2000;
    const auto keys = KeyChain::deal(to_bytes("k"), 4, 0);
    for (int i = 0; i < kHashVectors; ++i) {
      for (ProcessId j = 0; j < 4; ++j) {
        Sha1 h;
        h.update(m);
        h.update(keys.key(j));
        (void)h.finish();
      }
    }
    const auto t3 = std::chrono::steady_clock::now();
    const double sign_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kSigns;
    const double verify_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() / kVerifies;
    const double hashvec_us =
        std::chrono::duration<double, std::micro>(t3 - t2).count() / kHashVectors;
    std::printf("\nthis host, wall clock (1 KB message):\n");
    std::printf("  RSA-300 sign                : %10.1f us\n", sign_us);
    std::printf("  RSA-300 verify              : %10.1f us\n", verify_us);
    std::printf("  full n=4 keyed-hash vector  : %10.1f us  (%.0fx cheaper than one sign)\n",
                hashvec_us, sign_us / hashvec_us);
    report.add_section_row("host", [&](JsonWriter& w) {
      w.field("sign_us", sign_us);
      w.field("verify_us", verify_us);
      w.field("hashvec_us", hashvec_us);
    });
    report.gate("host_sign_us_gt_hashvec_us", sign_us, ">", hashvec_us);
  }

  // Simulated-era latencies.
  sim::oracle::Report oracles;
  const double matrix_us = isolated_latency_us(sim::Workload::kEchoBroadcast,
                                               true, kIters, 1, oracles);
  const double signed_era_us = signed_eb_latency_us(kIters, SignatureCosts{}, dirs);
  const double signed_free_us =
      signed_eb_latency_us(kIters, SignatureCosts{0, 0}, dirs);

  std::printf("\nsimulated testbed, isolated broadcast latency (10-byte payload):\n");
  std::printf("  matrix echo broadcast (RITAS)       : %8.0f us\n", matrix_us);
  std::printf("  signed echo multicast, era RSA cost : %8.0f us\n", signed_era_us);
  std::printf("  signed echo multicast, free crypto  : %8.0f us\n", signed_free_us);
  std::printf("  => signatures account for %.0f%% of the baseline's latency\n",
              (signed_era_us - signed_free_us) / signed_era_us * 100);
  std::printf("  => RITAS's primitive is %.1fx faster than the baseline\n",
              signed_era_us / matrix_us);

  for (const auto& [name, us] :
       {std::pair{"matrix_eb", matrix_us}, std::pair{"signed_eb_era", signed_era_us},
        std::pair{"signed_eb_free_crypto", signed_free_us}}) {
    report.add_row([&](JsonWriter& w) {
      w.field("broadcast", name);
      w.field("latency_us", us);
    });
  }
  const bool faster = report.gate("signed_era_us_gt_2x_matrix", signed_era_us,
                                  ">", 2 * matrix_us);
  const bool dominate =
      report.gate("signature_us_gt_half_signed_era", signed_era_us - signed_free_us,
                  ">", 0.5 * signed_era_us);
  report.oracles(oracles);
  std::printf("\nshape check:\n");
  std::printf("  \"public-key operations dominate the latency\" : %s\n",
              faster && dominate ? "PASS" : "FAIL");
  if (!report.write()) {
    std::fprintf(stderr, "failed to write %s\n", report.path().c_str());
    return 1;
  }
  return report.exit_code();
}
