#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/numa/tensor_parallel.h"
#include "src/numa/topology.h"

namespace ktx {
namespace {

TEST(TopologyTest, FromCpuSpecHasTwoNodes) {
  const NumaTopology topo = NumaTopology::FromCpuSpec(Xeon8452Y());
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.node(0).local_bw_gbs, 220.0);
  EXPECT_EQ(topo.remote_bw_gbs(), 125.0);
}

TEST(TopologyTest, EffectiveBandwidthDelegation) {
  const NumaTopology topo = NumaTopology::FromCpuSpec(Xeon8452Y());
  EXPECT_GT(topo.EffectiveBandwidthGbs(NumaMode::kTensorParallel, 8),
            topo.EffectiveBandwidthGbs(NumaMode::kNaiveInterleaved, 8));
}

TEST(EpPlacementTest, RoundRobinBalancesStatically) {
  const EpPlacement p = EpPlacement::RoundRobin(8, 2);
  int node0 = 0;
  for (int e = 0; e < 8; ++e) {
    node0 += p.node_of(e) == 0 ? 1 : 0;
  }
  EXPECT_EQ(node0, 4);
}

TEST(EpPlacementTest, MaxLoadDetectsSkew) {
  const EpPlacement p = EpPlacement::RoundRobin(8, 2);
  EXPECT_EQ(p.MaxLoad({0, 1, 2, 3}), 2);        // perfectly split
  EXPECT_EQ(p.MaxLoad({0, 2, 4, 6}), 4);        // all on node 0
}

TEST(NumaArenaTest, ImbalanceRatio) {
  NumaArena arena(2);
  arena.Charge(0, 100);
  arena.Charge(1, 100);
  EXPECT_DOUBLE_EQ(arena.ImbalanceRatio(), 1.0);
  arena.Charge(0, 200);
  EXPECT_NEAR(arena.ImbalanceRatio(), 300.0 / 200.0, 1e-12);
  EXPECT_EQ(arena.total_bytes(), 400u);
}

class TpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    for (int e = 0; e < kExperts; ++e) {
      Rng er = rng.Split(static_cast<std::uint64_t>(e));
      gate_.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
      up_.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
      down_.push_back(Tensor::Randn({kHidden, kInter}, er, 0.3f));
    }
    x_ = Tensor::Randn({kTokens, kHidden}, rng, 0.5f);
    routing_.tokens = kTokens;
    routing_.top_k = 2;
    for (std::int64_t t = 0; t < kTokens; ++t) {
      routing_.expert_ids.push_back(static_cast<int>(t) % kExperts);
      routing_.expert_ids.push_back(static_cast<int>(t + 1) % kExperts);
      routing_.weights.push_back(0.6f);
      routing_.weights.push_back(0.4f);
    }
  }

  static constexpr int kExperts = 4;
  static constexpr std::int64_t kHidden = 64;
  static constexpr std::int64_t kInter = 64;  // 2 shards x 32? must be 16-aligned: 32 each
  static constexpr std::int64_t kTokens = 6;
  std::vector<Tensor> gate_, up_, down_;
  Tensor x_;
  MoeRouting routing_;
};

TEST_F(TpFixture, ShardingPreservesResults) {
  auto tp = TpExperts::Build(gate_, up_, down_, DType::kBF16, 2);
  ASSERT_TRUE(tp.ok());
  EXPECT_EQ(tp->shards(), 2);
  EXPECT_EQ(tp->inter_per_shard(), kInter / 2);

  ThreadPool pool(2);
  NumaMoe::Options opts;
  opts.mode = NumaMode::kTensorParallel;
  NumaMoe moe(nullptr, std::make_shared<const TpExperts>(std::move(*tp)), &pool, opts);

  Tensor out({kTokens, kHidden}, DType::kF32);
  moe.Forward(x_.f32(), kTokens, routing_, 0, 2, out.f32());

  Tensor ref({kTokens, kHidden}, DType::kF32);
  RefMoeForward(gate_, up_, down_, x_.f32(), kTokens, routing_, 0, 2, ref.f32());
  EXPECT_LT(RelativeError(out, ref), 0.03f);
}

TEST_F(TpFixture, TpMatchesFlatExecution) {
  auto tp = TpExperts::Build(gate_, up_, down_, DType::kBF16, 2);
  auto flat = PackedExperts::Pack(gate_, up_, down_, DType::kBF16);
  ASSERT_TRUE(tp.ok() && flat.ok());
  ThreadPool pool(2);

  NumaMoe::Options tp_opts;
  tp_opts.mode = NumaMode::kTensorParallel;
  NumaMoe tp_moe(nullptr, std::make_shared<const TpExperts>(std::move(*tp)), &pool, tp_opts);

  NumaMoe::Options flat_opts;
  flat_opts.mode = NumaMode::kNaiveInterleaved;
  NumaMoe flat_moe(std::make_shared<const PackedExperts>(std::move(*flat)), nullptr, &pool,
                   flat_opts);

  Tensor a({kTokens, kHidden}, DType::kF32);
  Tensor b({kTokens, kHidden}, DType::kF32);
  tp_moe.Forward(x_.f32(), kTokens, routing_, 0, 2, a.f32());
  flat_moe.Forward(x_.f32(), kTokens, routing_, 0, 2, b.f32());
  // Same math, different partitioning/accumulation order (and per-shard
  // bf16 tiles), so near-equal.
  EXPECT_LT(RelativeError(a, b), 5e-3f);
}

TEST_F(TpFixture, ChargeArenaIsBalanced) {
  auto tp = TpExperts::Build(gate_, up_, down_, DType::kBF16, 2);
  ASSERT_TRUE(tp.ok());
  NumaArena arena(2);
  tp->ChargeArena(&arena);
  EXPECT_NEAR(arena.ImbalanceRatio(), 1.0, 1e-9);
  EXPECT_GT(arena.total_bytes(), 0u);
}

TEST_F(TpFixture, RejectsUnalignedShardSlices) {
  // inter=64 over 3 shards does not divide; over 4 shards the slice (16) is
  // fine; over 8 the slice (8) breaks 16-alignment.
  EXPECT_FALSE(TpExperts::Build(gate_, up_, down_, DType::kBF16, 3).ok());
  EXPECT_TRUE(TpExperts::Build(gate_, up_, down_, DType::kBF16, 4).ok());
  EXPECT_FALSE(TpExperts::Build(gate_, up_, down_, DType::kBF16, 8).ok());
}

TEST_F(TpFixture, QuantizedShardsStayAccurate) {
  auto tp = TpExperts::Build(gate_, up_, down_, DType::kI8, 2);
  ASSERT_TRUE(tp.ok());
  ThreadPool pool(1);
  NumaMoe::Options opts;
  opts.mode = NumaMode::kTensorParallel;
  NumaMoe moe(nullptr, std::make_shared<const TpExperts>(std::move(*tp)), &pool, opts);
  Tensor out({kTokens, kHidden}, DType::kF32);
  moe.Forward(x_.f32(), kTokens, routing_, 0, 2, out.f32());
  Tensor ref({kTokens, kHidden}, DType::kF32);
  RefMoeForward(gate_, up_, down_, x_.f32(), kTokens, routing_, 0, 2, ref.f32());
  EXPECT_LT(RelativeError(out, ref), 0.06f);
}

// The fused tensor-parallel forward against the per-shard algorithm it
// replaces: one single-shard CpuMoe per shard, run one after the other into
// the same y. Both must add shard 0's slot-ordered contributions first, then
// shard 1's, ..., so the outputs match bit for bit.
class FusedTpTest : public ::testing::Test {
 protected:
  static constexpr int kExperts = 8;
  static constexpr int kTopK = 4;
  static constexpr std::int64_t kHidden = 48;
  static constexpr std::int64_t kInter = 128;  // 4 shards x 32

  void SetUp() override {
    Rng rng(33);
    for (int e = 0; e < kExperts; ++e) {
      Rng er = rng.Split(static_cast<std::uint64_t>(e));
      gate_.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
      up_.push_back(Tensor::Randn({kInter, kHidden}, er, 0.3f));
      down_.push_back(Tensor::Randn({kHidden, kInter}, er, 0.3f));
    }
  }

  static MoeRouting RandomRouting(std::int64_t tokens, Rng& rng) {
    MoeRouting routing;
    routing.tokens = tokens;
    routing.top_k = kTopK;
    for (std::int64_t t = 0; t < tokens; ++t) {
      int used = 0;  // distinct experts per token
      for (int s = 0; s < kTopK; ++s) {
        int e = static_cast<int>(rng.NextBounded(kExperts));
        while ((used >> e) & 1) {
          e = (e + 1) % kExperts;
        }
        used |= 1 << e;
        routing.expert_ids.push_back(e);
        routing.weights.push_back(0.1f + 0.2f * static_cast<float>(rng.NextBounded(4)));
      }
    }
    return routing;
  }

  std::vector<Tensor> gate_, up_, down_;
};

TEST_F(FusedTpTest, FusedShardsMatchSerialPerShardForwardBitForBit) {
  ThreadPool pool(2);
  for (const int shards : {2, 4}) {
    auto tp = TpExperts::Build(gate_, up_, down_, DType::kBF16, shards);
    ASSERT_TRUE(tp.ok());
    auto tp_ptr = std::make_shared<const TpExperts>(std::move(*tp));
    for (const ScheduleKind schedule : {ScheduleKind::kDynamic, ScheduleKind::kStatic}) {
      NumaMoe::Options opts;
      opts.mode = NumaMode::kTensorParallel;
      opts.moe.schedule = schedule;
      const NumaMoe fused(nullptr, tp_ptr, &pool, opts);
      std::vector<CpuMoe> per_shard;
      for (int s = 0; s < shards; ++s) {
        per_shard.emplace_back(tp_ptr->shard_ptr(s), &pool, opts.moe);
      }
      for (const std::int64_t tokens : {1, 4, 33, 256}) {
        Rng rng(static_cast<std::uint64_t>(tokens * 7 + shards));
        const MoeRouting routing = RandomRouting(tokens, rng);
        const Tensor x = Tensor::Randn({tokens, kHidden}, rng, 0.5f);
        const std::int64_t plane = tokens * kTopK * kHidden;
        std::vector<std::uint8_t> served(static_cast<std::size_t>(tokens * kTopK));
        for (std::uint8_t& f : served) {
          f = rng.NextBounded(4) == 0 ? 1 : 0;
        }
        const Tensor hot_rows = Tensor::Randn({shards * tokens * kTopK, kHidden}, rng, 0.2f);
        for (const bool with_hot : {false, true}) {
          const HotSlots hot{served.data(), hot_rows.f32(), plane};
          const HotSlots* hp = with_hot ? &hot : nullptr;
          // Immediate window [0, 2) and deferred window [2, top_k).
          for (const auto& [begin, end] : {std::pair{0, 2}, std::pair{2, kTopK}}) {
            const Tensor y0 = Tensor::Randn({tokens, kHidden}, rng, 0.1f);
            Tensor ref = y0.Clone();
            for (int s = 0; s < shards; ++s) {
              const HotSlots shard_hot{served.data(), hot_rows.f32() + s * plane, 0};
              per_shard[static_cast<std::size_t>(s)].Forward(x.f32(), tokens, routing, begin,
                                                             end, ref.f32(), nullptr,
                                                             with_hot ? &shard_hot : nullptr);
            }
            Tensor out = y0.Clone();
            MoeStats stats;
            fused.Forward(x.f32(), tokens, routing, begin, end, out.f32(), &stats, hp);
            EXPECT_EQ(std::memcmp(out.f32(), ref.f32(), ref.byte_size()), 0)
                << "shards=" << shards << " static=" << (schedule == ScheduleKind::kStatic)
                << " tokens=" << tokens << " hot=" << with_hot << " window=[" << begin << ","
                << end << ")";

            // The request's logical counts appear once, not once per shard.
            std::int64_t hot_slots = 0;
            int distinct = 0;
            std::vector<bool> seen(kExperts, false);
            for (std::int64_t t = 0; t < tokens; ++t) {
              for (int s = begin; s < end; ++s) {
                if (with_hot && served[static_cast<std::size_t>(t * kTopK + s)] != 0) {
                  ++hot_slots;
                } else if (!seen[static_cast<std::size_t>(routing.id(t, s))]) {
                  seen[static_cast<std::size_t>(routing.id(t, s))] = true;
                  ++distinct;
                }
              }
            }
            EXPECT_EQ(stats.tokens, tokens);
            EXPECT_EQ(stats.activated_experts, distinct);
            EXPECT_EQ(stats.hot_rows, hot_slots);
            EXPECT_EQ(stats.cold_rows, tokens * (end - begin) - hot_slots);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ktx
