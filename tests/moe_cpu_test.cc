#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/cpu/kernel_calibrate.h"
#include "src/cpu/kernel_registry.h"
#include "src/cpu/moe_cpu.h"

namespace ktx {
namespace {

// The kernel counter a MoeStats call lands on for `kind`.
std::int64_t CallsFor(const MoeStats& stats, KernelKind kind) {
  switch (kind) {
    case KernelKind::kAmx:
      return stats.amx_calls;
    case KernelKind::kAvx512:
      return stats.avx512_calls;
    case KernelKind::kAvx2:
      return stats.avx2_calls;
    case KernelKind::kScalar:
      return stats.scalar_calls;
  }
  return 0;
}

// What CpuMoe resolves a (kind-choice, impl) to for bf16 experts on this
// host, after the KTX_FORCE_KERNEL env override the constructor applies.
KernelKind EffectiveKind(std::optional<KernelKind> force_kind, KernelImpl impl,
                         std::int64_t tokens_per_expert, std::int64_t threshold) {
  if (const std::optional<ForcedKernel> env = ForcedKernelFromEnv()) {
    force_kind = env->kind;
    impl = env->impl;
  }
  const KernelKind kind =
      force_kind.value_or(SelectKernel(tokens_per_expert, threshold));
  return ResolveKernelVariant(kind, impl, DType::kBF16).kind;
}

struct MoeFixtureData {
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  std::shared_ptr<const PackedExperts> packed;
  MoeRouting routing;
  Tensor x;
};

MoeFixtureData MakeFixture(int num_experts, std::int64_t hidden, std::int64_t inter,
                           std::int64_t tokens, int top_k, DType dtype, std::uint64_t seed) {
  MoeFixtureData d;
  Rng rng(seed);
  for (int e = 0; e < num_experts; ++e) {
    Rng er = rng.Split(static_cast<std::uint64_t>(e));
    d.gate.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    d.up.push_back(Tensor::Randn({inter, hidden}, er, 0.3f));
    d.down.push_back(Tensor::Randn({hidden, inter}, er, 0.3f));
  }
  auto packed = PackedExperts::Pack(d.gate, d.up, d.down, dtype);
  EXPECT_TRUE(packed.ok());
  d.packed = std::make_shared<const PackedExperts>(std::move(*packed));
  d.x = Tensor::Randn({tokens, hidden}, rng, 0.5f);
  d.routing.tokens = tokens;
  d.routing.top_k = top_k;
  for (std::int64_t t = 0; t < tokens; ++t) {
    // Distinct experts per token; weights sum to 1.
    std::vector<int> ids;
    while (static_cast<int>(ids.size()) < top_k) {
      const int e = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(num_experts)));
      bool dup = false;
      for (int v : ids) {
        dup |= v == e;
      }
      if (!dup) {
        ids.push_back(e);
      }
    }
    float total = 0.0f;
    std::vector<float> wts;
    for (int i = 0; i < top_k; ++i) {
      wts.push_back(rng.NextFloat() + 0.1f);
      total += wts.back();
    }
    for (int i = 0; i < top_k; ++i) {
      d.routing.expert_ids.push_back(ids[static_cast<std::size_t>(i)]);
      d.routing.weights.push_back(wts[static_cast<std::size_t>(i)] / total);
    }
  }
  return d;
}

float MoeTol(DType dtype) {
  return dtype == DType::kBF16 ? 0.03f : dtype == DType::kI8 ? 0.05f : 0.35f;
}

class MoeSweep : public ::testing::TestWithParam<std::tuple<DType, ScheduleKind, int>> {};

TEST_P(MoeSweep, MatchesReference) {
  const auto [dtype, schedule, threads] = GetParam();
  auto d = MakeFixture(/*num_experts=*/8, /*hidden=*/96, /*inter=*/80, /*tokens=*/12,
                       /*top_k=*/3, dtype, 42);
  ThreadPool pool(static_cast<std::size_t>(threads));
  MoeOptions opts;
  opts.schedule = schedule;
  opts.impl = KernelImpl::kAuto;
  CpuMoe moe(d.packed, &pool, opts);

  Tensor out({12, 96}, DType::kF32);
  moe.Forward(d.x.f32(), 12, d.routing, out.f32());

  Tensor ref({12, 96}, DType::kF32);
  RefMoeForward(d.gate, d.up, d.down, d.x.f32(), 12, d.routing, 0, d.routing.top_k,
                ref.f32());
  EXPECT_LT(RelativeError(out, ref), MoeTol(dtype));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MoeSweep,
    ::testing::Combine(::testing::Values(DType::kBF16, DType::kI8, DType::kI4),
                       ::testing::Values(ScheduleKind::kStatic, ScheduleKind::kDynamic),
                       ::testing::Values(1, 4)));

TEST(CpuMoeTest, SlotWindowsPartitionTheFullResult) {
  // Immediate [0, 2) + deferred [2, 4) must equal all-slots [0, 4):
  // the invariant Expert Deferral relies on.
  auto d = MakeFixture(10, 64, 48, 9, 4, DType::kBF16, 7);
  ThreadPool pool(2);
  CpuMoe moe(d.packed, &pool, MoeOptions{});

  Tensor all({9, 64}, DType::kF32);
  moe.Forward(d.x.f32(), 9, d.routing, 0, 4, all.f32());

  Tensor split({9, 64}, DType::kF32);
  moe.Forward(d.x.f32(), 9, d.routing, 0, 2, split.f32());
  moe.Forward(d.x.f32(), 9, d.routing, 2, 4, split.f32());

  EXPECT_LT(MaxAbsDiff(split, all), 1e-4f);
}

TEST(CpuMoeTest, EmptySlotWindowIsNoOp) {
  auto d = MakeFixture(4, 32, 32, 3, 2, DType::kBF16, 8);
  ThreadPool pool(1);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  Tensor out = Tensor::Full({3, 32}, 1.5f);
  moe.Forward(d.x.f32(), 3, d.routing, 1, 1, out.f32());
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out.f32()[i], 1.5f);
  }
}

TEST(CpuMoeTest, AccumulatesIntoExistingOutput) {
  auto d = MakeFixture(4, 32, 32, 3, 2, DType::kBF16, 9);
  ThreadPool pool(2);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  Tensor zero_based({3, 32}, DType::kF32);
  moe.Forward(d.x.f32(), 3, d.routing, zero_based.f32());
  Tensor offset_based = Tensor::Full({3, 32}, 2.0f);
  moe.Forward(d.x.f32(), 3, d.routing, offset_based.f32());
  for (std::int64_t i = 0; i < zero_based.numel(); ++i) {
    EXPECT_NEAR(offset_based.f32()[i], zero_based.f32()[i] + 2.0f, 1e-5f);
  }
}

TEST(CpuMoeTest, StatsReflectRoutingShape) {
  auto d = MakeFixture(6, 32, 32, 8, 2, DType::kBF16, 10);
  ThreadPool pool(2);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  Tensor out({8, 32}, DType::kF32);
  MoeStats stats;
  moe.Forward(d.x.f32(), 8, d.routing, 0, 2, out.f32(), &stats);
  EXPECT_EQ(stats.tokens, 8);
  EXPECT_GE(stats.activated_experts, 1);
  EXPECT_LE(stats.activated_experts, 6);
  EXPECT_GE(stats.max_tokens_per_expert, 1);
  EXPECT_GT(stats.subtasks, 0);
  EXPECT_GT(stats.useful_flops, 0.0);
  // subtasks counts the tasks dispatched. At this shape (8 tokens < one
  // reduce band, one n-band per matrix) there is exactly 1 reduce task; every
  // other task is one expert's Gate/Up with its Down run inline (3 GEMM calls).
  EXPECT_EQ(stats.gemm_calls(), 3 * (stats.subtasks - 1));
}

TEST(CpuMoeTest, AriDispatchUsesRowKernelForDecodeSizedBatches) {
  auto d = MakeFixture(6, 32, 32, 2, 2, DType::kBF16, 11);
  ThreadPool pool(1);
  MoeOptions opts;
  opts.ari_threshold = 4;
  CpuMoe moe(d.packed, &pool, opts);
  Tensor out({2, 32}, DType::kF32);
  MoeStats stats;
  moe.Forward(d.x.f32(), 2, d.routing, 0, 2, out.f32(), &stats);
  // <= 4 tokens per expert everywhere -> every call lands on the kind the
  // availability-aware heuristic resolves for this host (AVX-512 when the
  // host has it; never AMX unless AMX is the only native tier).
  const KernelKind expected = EffectiveKind(std::nullopt, opts.impl, 2, opts.ari_threshold);
  EXPECT_GT(CallsFor(stats, expected), 0);
  EXPECT_EQ(CallsFor(stats, expected), stats.gemm_calls());
  if (KernelAvailability::Host().avx512 && !ForcedKernelFromEnv().has_value()) {
    EXPECT_EQ(expected, KernelKind::kAvx512);
    EXPECT_EQ(stats.amx_calls, 0);
  }
}

TEST(CpuMoeTest, ForceKindOverridesAri) {
  auto d = MakeFixture(6, 32, 32, 2, 2, DType::kBF16, 12);
  ThreadPool pool(1);
  MoeOptions opts;
  opts.force_kind = KernelKind::kAmx;
  CpuMoe moe(d.packed, &pool, opts);
  Tensor out({2, 32}, DType::kF32);
  MoeStats stats;
  moe.Forward(d.x.f32(), 2, d.routing, 0, 2, out.f32(), &stats);
  // The forced kind resolves through the registry (down-tiering on hosts
  // without native AMX), so assert against the resolved kind.
  const KernelKind expected =
      EffectiveKind(KernelKind::kAmx, opts.impl, 2, opts.ari_threshold);
  EXPECT_GT(CallsFor(stats, expected), 0);
  EXPECT_EQ(CallsFor(stats, expected), stats.gemm_calls());
  if (KernelAvailability::Host().amx && !ForcedKernelFromEnv().has_value()) {
    EXPECT_EQ(expected, KernelKind::kAmx);
    EXPECT_EQ(stats.avx512_calls, 0);
  }
}

TEST(CpuMoeTest, CalibratedDispatchTableDrivesKernelChoiceBitIdentically) {
  auto d = MakeFixture(6, 32, 32, 8, 2, DType::kBF16, 14);
  ThreadPool pool(2);

  Tensor baseline({8, 32}, DType::kF32);
  {
    CpuMoe moe(d.packed, &pool, MoeOptions{});
    moe.Forward(d.x.f32(), 8, d.routing, 0, 2, baseline.f32());
  }

  // A synthetic table that forces the *opposite* decision everywhere the
  // heuristic would pick a row kernel: every group size dispatches to AMX
  // (resolved availability-aware). The output must not change by a single
  // bit — dispatch is a performance decision only.
  KernelDispatchTable table;
  table.bf16.push_back({1, KernelKind::kAmx});
  MoeOptions opts;
  opts.dispatch = &table;
  CpuMoe moe(d.packed, &pool, opts);
  Tensor out({8, 32}, DType::kF32);
  MoeStats stats;
  moe.Forward(d.x.f32(), 8, d.routing, 0, 2, out.f32(), &stats);
  EXPECT_EQ(MaxAbsDiff(out, baseline), 0.0f);

  // Every group dispatched through the table's kAmx choice (resolved for
  // this host; the KTX_FORCE_KERNEL env override beats the table).
  const KernelKind resolved = EffectiveKind(KernelKind::kAmx, opts.impl, 1, 0);
  EXPECT_EQ(CallsFor(stats, resolved), stats.gemm_calls());
  EXPECT_GT(stats.gemm_calls(), 0);
}

TEST(CpuMoeTest, SharedExpertRoutingWeightOne) {
  // A "shared expert" is just an expert every token routes to with weight 1.
  auto d = MakeFixture(1, 32, 48, 4, 1, DType::kBF16, 13);
  for (auto& w : d.routing.weights) {
    w = 1.0f;
  }
  for (auto& e : d.routing.expert_ids) {
    e = 0;
  }
  ThreadPool pool(2);
  CpuMoe moe(d.packed, &pool, MoeOptions{});
  Tensor out({4, 32}, DType::kF32);
  moe.Forward(d.x.f32(), 4, d.routing, out.f32());
  Tensor ref({4, 32}, DType::kF32);
  RefMoeForward(d.gate, d.up, d.down, d.x.f32(), 4, d.routing, 0, 1, ref.f32());
  EXPECT_LT(RelativeError(out, ref), 0.03f);
}

TEST(PackedExpertsTest, RejectsMismatchedShapes) {
  Rng rng(1);
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  gate.push_back(Tensor::Randn({16, 32}, rng));
  up.push_back(Tensor::Randn({16, 32}, rng));
  down.push_back(Tensor::Randn({32, 24}, rng));  // wrong inter
  EXPECT_FALSE(PackedExperts::Pack(gate, up, down, DType::kBF16).ok());
}

TEST(PackedExpertsTest, TotalBytesScalesWithDtype) {
  Rng rng(2);
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  for (int e = 0; e < 2; ++e) {
    gate.push_back(Tensor::Randn({64, 64}, rng));
    up.push_back(Tensor::Randn({64, 64}, rng));
    down.push_back(Tensor::Randn({64, 64}, rng));
  }
  auto bf16 = PackedExperts::Pack(gate, up, down, DType::kBF16);
  auto i8 = PackedExperts::Pack(gate, up, down, DType::kI8);
  auto i4 = PackedExperts::Pack(gate, up, down, DType::kI4);
  ASSERT_TRUE(bf16.ok() && i8.ok() && i4.ok());
  // bf16 tiles cover K=32; int8 tiles cover K=64 at the same byte size, so
  // int8 payloads are half of bf16 and int4 a quarter.
  EXPECT_EQ(i8->total_bytes() * 2, bf16->total_bytes());
  EXPECT_EQ(i4->total_bytes() * 4, bf16->total_bytes());
}

}  // namespace
}  // namespace ktx
