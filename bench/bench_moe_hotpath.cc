// MoE decode hot-path microbenchmark (§3.2 / §3.3 substrate).
//
// Forward latency on the decode-shaped fixture (64 experts, hidden 256,
// inter 192, top_k 8, bf16, 4 worker threads): median wall time of
// CpuMoe::Forward at decode batch sizes 1/2/4/8 on the chained
// zero-allocation path.
//
// Results are printed and also written to BENCH_moe_hotpath.json in the
// current working directory (run from the repo root).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/cpu/moe_cpu.h"

namespace {

double MedianUs(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  using namespace ktx;
  const int num_experts = 64;
  const std::int64_t hidden = 256;
  const std::int64_t inter = 192;
  const int top_k = 8;
  constexpr int kWarmup = 20;
  constexpr int kIters = 300;

  Rng rng(42);
  std::vector<Tensor> gate, up, down;
  for (int e = 0; e < num_experts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    gate.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    up.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    down.push_back(Tensor::Randn({hidden, inter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(gate, up, down, DType::kBF16);
  if (!packed.ok()) {
    std::fprintf(stderr, "pack failed\n");
    return 1;
  }
  auto pe = std::make_shared<const PackedExperts>(std::move(*packed));
  ThreadPool pool(4);
  MoeOptions opts;
  opts.schedule = ScheduleKind::kDynamic;
  CpuMoe moe(pe, &pool, opts);
  moe.Reserve(/*max_tokens=*/8, /*max_slots=*/top_k);

  std::printf("=== MoE decode hot path (64 experts, h=256, i=192, top_k=8, bf16, 4 threads) ===\n");
  std::vector<std::pair<std::int64_t, double>> forward_rows;
  for (std::int64_t tokens : {1, 2, 4, 8}) {
    MoeRouting routing;
    routing.tokens = tokens;
    routing.top_k = top_k;
    for (std::int64_t t = 0; t < tokens; ++t) {
      for (int s = 0; s < top_k; ++s) {
        routing.expert_ids.push_back(static_cast<int>((t * top_k + s * 7) % num_experts));
        routing.weights.push_back(1.0f / top_k);
      }
    }
    Tensor x = Tensor::Randn({tokens, hidden}, rng, 0.5f);
    Tensor y({tokens, hidden}, DType::kF32);
    for (int w = 0; w < kWarmup; ++w) {
      moe.Forward(x.f32(), tokens, routing, y.f32());
    }
    std::vector<double> us;
    us.reserve(kIters);
    for (int it = 0; it < kIters; ++it) {
      const auto t0 = std::chrono::steady_clock::now();
      moe.Forward(x.f32(), tokens, routing, y.f32());
      const auto t1 = std::chrono::steady_clock::now();
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const double med = MedianUs(us);
    forward_rows.emplace_back(tokens, med);
    std::printf("forward tokens=%lld median_us=%.2f\n", static_cast<long long>(tokens), med);
  }

  std::FILE* f = std::fopen("BENCH_moe_hotpath.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"fixture\": {\"experts\": %d, \"hidden\": %lld, \"inter\": %lld, "
                    "\"top_k\": %d, \"dtype\": \"bf16\", \"threads\": 4},\n",
                 num_experts, static_cast<long long>(hidden), static_cast<long long>(inter),
                 top_k);
    std::fprintf(f, "  \"forward_median_us\": {");
    for (std::size_t i = 0; i < forward_rows.size(); ++i) {
      std::fprintf(f, "%s\"%lld\": %.2f", i ? ", " : "",
                   static_cast<long long>(forward_rows[i].first), forward_rows[i].second);
    }
    std::fprintf(f, "}\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_moe_hotpath.json\n");
  }
  return 0;
}
