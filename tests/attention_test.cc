// Property tests for the attention reference implementations (GQA + MLA).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/gemm.h"
#include "src/model/attention.h"
#include "src/model/kv_block_pool.h"
#include "src/model/packed_weights.h"
#include "src/model/weights.h"

namespace ktx {
namespace {

AttentionWeights MakeWeights(const MoeModelConfig& config, std::uint64_t seed) {
  // Reuse the model generator so shapes always match the config.
  return ModelWeights::Generate(config, seed).layers[0].attn;
}

TEST(RopeTest, PositionZeroIsIdentity) {
  float v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  float expect[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ApplyRope(v, 8, 0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(v[i], expect[i]);
  }
}

TEST(RopeTest, PreservesPairNorms) {
  Rng rng(1);
  float v[16];
  for (float& f : v) {
    f = rng.NextGaussian();
  }
  float norms[8];
  for (int i = 0; i < 8; ++i) {
    norms[i] = v[2 * i] * v[2 * i] + v[2 * i + 1] * v[2 * i + 1];
  }
  ApplyRope(v, 16, 1234);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(v[2 * i] * v[2 * i] + v[2 * i + 1] * v[2 * i + 1], norms[i], 1e-3f);
  }
}

TEST(RopeTest, RelativePositionProperty) {
  // The rotation angle is linear in position: rotating by p then q equals
  // rotating by p+q.
  float a[4] = {0.3f, -1.2f, 2.0f, 0.7f};
  float b[4] = {0.3f, -1.2f, 2.0f, 0.7f};
  ApplyRope(a, 4, 5);
  ApplyRope(a, 4, 7);
  ApplyRope(b, 4, 12);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-4f);
  }
}

// A rotation reused across positions, as the engine reuses one across rows
// and layers, skips the recompute when the position repeats; every Set must
// still leave exactly the cos/sin a fresh rotation computes.
TEST(RopeTest, ReusedRotationMatchesFreshRopeBitForBit) {
  Rng rng(2);
  RopeRotation rotation;
  const std::int64_t positions[] = {5, 5, 6, 5, 5, 0, 511, 511, 6};
  for (const std::int64_t dim : {16, 8}) {
    for (const std::int64_t pos : positions) {
      float reused[16];
      for (float& f : reused) {
        f = rng.NextGaussian();
      }
      float fresh[16];
      std::memcpy(fresh, reused, sizeof(fresh));
      rotation.Set(dim, pos);
      rotation.Apply(reused);
      ApplyRope(fresh, dim, pos);
      EXPECT_EQ(std::memcmp(reused, fresh, sizeof(fresh)), 0) << "dim=" << dim << " pos=" << pos;
    }
  }
}

class AttentionKindTest : public ::testing::TestWithParam<AttentionKind> {
 protected:
  MoeModelConfig Config() const {
    return GetParam() == AttentionKind::kMla ? TinyMlaConfig() : TinyMoeConfig();
  }
};

TEST_P(AttentionKindTest, SinglePositionIsValueProjection) {
  // With one cached position the softmax is a single 1.0 weight, so the
  // output must equal wo * v(pos0) exactly (per head).
  const MoeModelConfig config = Config();
  const AttentionWeights w = MakeWeights(config, 3);
  Rng rng(4);
  Tensor x = Tensor::Randn({1, config.hidden}, rng, 0.5f);
  KvCache cache(config);
  Tensor out({1, config.hidden}, DType::kF32);
  ASSERT_TRUE(AttentionForward(config, w, x.f32(), 1, 0, cache.layer(0), out.f32()).ok());

  // Recompute v for position 0 and project.
  const std::int64_t v_dim = config.attention == AttentionKind::kMla
                                 ? config.num_heads * config.v_head_dim
                                 : config.num_kv_heads * config.head_dim;
  std::vector<float> v(static_cast<std::size_t>(v_dim));
  if (config.attention == AttentionKind::kMla) {
    std::vector<float> latent(static_cast<std::size_t>(config.kv_lora_rank + config.rope_dim));
    RefGemm(x.f32(), 1, config.hidden, w.w_dkv, latent.data(),
            config.kv_lora_rank + config.rope_dim);
    RefGemm(latent.data(), 1, config.kv_lora_rank, w.w_uv, v.data(), v_dim);
  } else {
    RefGemm(x.f32(), 1, config.hidden, w.wv, v.data(), v_dim);
  }
  Tensor expect({1, config.hidden}, DType::kF32);
  if (config.attention == AttentionKind::kMla) {
    RefGemm(v.data(), 1, v_dim, w.wo, expect.f32(), config.hidden);
  } else {
    // GQA: each query head h reads kv head h/group; with kv v duplicated per
    // group the attended value vector is v expanded to q_dim.
    const int group = config.num_heads / config.num_kv_heads;
    std::vector<float> expanded(
        static_cast<std::size_t>(config.num_heads * config.head_dim));
    for (int h = 0; h < config.num_heads; ++h) {
      std::memcpy(expanded.data() + h * config.head_dim,
                  v.data() + (h / group) * config.head_dim,
                  static_cast<std::size_t>(config.head_dim) * sizeof(float));
    }
    RefGemm(expanded.data(), 1, config.num_heads * config.head_dim, w.wo, expect.f32(),
            config.hidden);
  }
  EXPECT_LT(MaxAbsDiff(out, expect), 1e-4f);
}

TEST_P(AttentionKindTest, CausalityFutureTokensDoNotAffectPast) {
  const MoeModelConfig config = Config();
  const AttentionWeights w = MakeWeights(config, 5);
  Rng rng(6);
  Tensor x = Tensor::Randn({4, config.hidden}, rng, 0.5f);

  KvCache c1(config);
  Tensor out1({4, config.hidden}, DType::kF32);
  ASSERT_TRUE(AttentionForward(config, w, x.f32(), 4, 0, c1.layer(0), out1.f32()).ok());

  // Perturb the last token only.
  Tensor x2 = x.Clone();
  for (std::int64_t i = 0; i < config.hidden; ++i) {
    x2.f32()[3 * config.hidden + i] += 1.0f;
  }
  KvCache c2(config);
  Tensor out2({4, config.hidden}, DType::kF32);
  ASSERT_TRUE(AttentionForward(config, w, x2.f32(), 4, 0, c2.layer(0), out2.f32()).ok());

  // Rows 0..2 identical; row 3 changed.
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t i = 0; i < config.hidden; ++i) {
      EXPECT_EQ(out1.f32()[t * config.hidden + i], out2.f32()[t * config.hidden + i])
          << "t=" << t;
    }
  }
  float diff = 0.0f;
  for (std::int64_t i = 0; i < config.hidden; ++i) {
    diff = std::max(diff, std::fabs(out1.f32()[3 * config.hidden + i] -
                                    out2.f32()[3 * config.hidden + i]));
  }
  EXPECT_GT(diff, 1e-6f);
}

TEST_P(AttentionKindTest, IncrementalMatchesBatched) {
  const MoeModelConfig config = Config();
  const AttentionWeights w = MakeWeights(config, 7);
  Rng rng(8);
  Tensor x = Tensor::Randn({5, config.hidden}, rng, 0.5f);

  KvCache batched(config);
  Tensor out_b({5, config.hidden}, DType::kF32);
  ASSERT_TRUE(AttentionForward(config, w, x.f32(), 5, 0, batched.layer(0), out_b.f32()).ok());

  KvCache inc(config);
  Tensor out_i({5, config.hidden}, DType::kF32);
  for (std::int64_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(AttentionForward(config, w, x.f32() + t * config.hidden, 1, t,
                                 inc.layer(0), out_i.f32() + t * config.hidden)
                    .ok());
  }
  EXPECT_LT(MaxAbsDiff(out_b, out_i), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AttentionKindTest,
                         ::testing::Values(AttentionKind::kGqa, AttentionKind::kMla));

// Packed f32 projections (the engine's GemmPacked path) against the RefGemm
// projections RefModel uses: the same attention math, so only the GEMMs'
// accumulation differs (f32 fma chains vs double sums) and the outputs agree
// to f32 rounding. One multi-token chunk, then single-token steps.
enum class ParityConfig { kGqa, kMla, kGqaOddWidth };

MoeModelConfig ParityModel(ParityConfig which) {
  switch (which) {
    case ParityConfig::kGqa:
      return TinyMoeConfig();
    case ParityConfig::kMla:
      return TinyMlaConfig();  // w_dkv is 40 wide: a padded last n-block
    case ParityConfig::kGqaOddWidth: {
      MoeModelConfig c = TinyMoeConfig();
      c.head_dim = 10;  // q 40 / kv 20 wide: padded n-blocks, and wo's k = 40
      return c;
    }
  }
  return TinyMoeConfig();
}

class PackedParityTest : public ::testing::TestWithParam<std::tuple<ParityConfig, bool>> {};

TEST_P(PackedParityTest, PackedMatchesRefGemmProjections) {
  const MoeModelConfig config = ParityModel(std::get<0>(GetParam()));
  const bool paged = std::get<1>(GetParam());
  const ModelWeights weights = ModelWeights::Generate(config, 41);
  const PackedModelWeights packed(config, weights, ResolveProjectionVariant());
  const AttentionWeights& ref = weights.layers[0].attn;

  constexpr std::int64_t kChunk = 6;
  constexpr std::int64_t kSteps = 3;
  KvPoolOptions pool_options;
  pool_options.block_size = 4;  // the chunk spans blocks; steps cross an edge
  pool_options.num_blocks = 8;
  KvBlockPool ref_pool(config, pool_options);
  KvBlockPool packed_pool(config, pool_options);
  KvCache ref_cache = paged ? KvCache(config, &ref_pool) : KvCache(config);
  KvCache packed_cache = paged ? KvCache(config, &packed_pool) : KvCache(config);
  ASSERT_TRUE(ref_cache.PrepareAppend(kChunk + kSteps).ok());
  ASSERT_TRUE(packed_cache.PrepareAppend(kChunk + kSteps).ok());

  Rng rng(42);
  const Tensor x = Tensor::Randn({kChunk + kSteps, config.hidden}, rng, 0.5f);
  AttentionScratch scratch;
  std::int64_t pos = 0;
  for (const std::int64_t m : {kChunk, std::int64_t{1}, std::int64_t{1}, std::int64_t{1}}) {
    const float* rows = x.f32() + pos * config.hidden;
    Tensor ref_out({m, config.hidden}, DType::kF32);
    Tensor packed_out({m, config.hidden}, DType::kF32);
    ASSERT_TRUE(
        AttentionForward(config, ref, rows, m, pos, ref_cache.layer(0), ref_out.f32()).ok());
    ASSERT_TRUE(AttentionForward(config, packed.layer(0).attn, rows, m, pos,
                                 packed_cache.layer(0), &scratch, packed_out.f32())
                    .ok());
    EXPECT_LE(RelativeError(packed_out, ref_out), 1e-5f) << "m=" << m << " pos=" << pos;
    pos += m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PackedParityTest,
    ::testing::Combine(::testing::Values(ParityConfig::kGqa, ParityConfig::kMla,
                                         ParityConfig::kGqaOddWidth),
                       ::testing::Bool()));

// Every GQA core spelling this host can execute, the scalar reference first.
struct GqaCoreSpelling {
  const char* name;
  void (*run)(const GqaGroup&);
};
std::vector<GqaCoreSpelling> RunnableGqaCores() {
  std::vector<GqaCoreSpelling> cores = {{"scalar", &AttendGqaGroupScalar}};
  if (NativeAvx2Available()) {
    cores.push_back({"avx2", &AttendGqaGroupAvx2});
  }
  return cores;
}

// Bitwise equality, except that any NaN matches any NaN: a NaN's payload may
// depend on which operand the compiler put first.
bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0 || (std::isnan(a) && std::isnan(b));
}

// Random K/V rows of `kv_heads` heads and queries for `group` query heads per
// KV head.
struct GqaCase {
  GqaCase(std::int64_t head_dim, std::int64_t window, int kv_heads, int group, float magnitude,
          std::uint64_t seed)
      : hd(head_dim), len(window), kv_dim(kv_heads * head_dim) {
    Rng rng(seed);
    k.resize(static_cast<std::size_t>(len * kv_dim));
    v.resize(k.size());
    q.resize(static_cast<std::size_t>(kv_heads * group * hd));
    for (float& f : k) {
      f = rng.NextGaussian() * magnitude;
    }
    for (float& f : v) {
      f = rng.NextGaussian();
    }
    for (float& f : q) {
      f = rng.NextGaussian();
    }
    for (std::int64_t j = 0; j < len; ++j) {
      k_rows.push_back(k.data() + j * kv_dim);
      v_rows.push_back(v.data() + j * kv_dim);
    }
  }
  // The core call for KV head kh, writing into `scores` / `out`.
  GqaGroup Group(int kh, int group, std::vector<float>* scores, std::vector<float>* out) const {
    scores->assign(static_cast<std::size_t>(group * len), -1.0f);
    out->assign(static_cast<std::size_t>(group * hd), -1.0f);
    return GqaGroup{q.data() + kh * group * hd, k_rows.data(), v_rows.data(), kh * hd, len, hd,
                    group, 1.0f / std::sqrt(static_cast<float>(hd)), scores->data(),
                    out->data()};
  }

  std::int64_t hd, len, kv_dim;
  std::vector<float> k, v, q;
  std::vector<const float*> k_rows, v_rows;
};

TEST(GqaCoreTest, EverySpellingMatchesTheScalarReferenceBitForBit) {
  constexpr int kKvHeads = 2;
  for (const std::int64_t hd : {8, 16, 24}) {
    for (const std::int64_t len : {1, 7, 8, 9, 129, 224, 512}) {
      for (const int group : {1, 2}) {
        // Key magnitudes per case: unit scale; large scores (the softmax
        // saturates); and a spread wide enough that most exps underflow
        // (score - max < -87).
        for (const float magnitude : {1.0f, 30.0f, 400.0f}) {
          const GqaCase c(hd, len, kKvHeads, group, magnitude,
                          static_cast<std::uint64_t>(hd * 100000 + len * 10 + group) ^
                              static_cast<std::uint64_t>(magnitude));
          for (int kh = 0; kh < kKvHeads; ++kh) {
            std::vector<float> ref_scores;
            std::vector<float> ref_out;
            AttendGqaGroupScalar(c.Group(kh, group, &ref_scores, &ref_out));
            if (magnitude == 400.0f && len > 8) {
              EXPECT_NE(std::count(ref_scores.begin(), ref_scores.end(), 0.0f), 0)
                  << "case does not reach the exp clamp";
            }
            for (const GqaCoreSpelling& core : RunnableGqaCores()) {
              std::vector<float> scores;
              std::vector<float> out;
              core.run(c.Group(kh, group, &scores, &out));
              EXPECT_EQ(std::memcmp(scores.data(), ref_scores.data(), scores.size() * 4), 0)
                  << core.name << " hd=" << hd << " len=" << len << " group=" << group
                  << " magnitude=" << magnitude << " kv head=" << kh;
              EXPECT_EQ(std::memcmp(out.data(), ref_out.data(), out.size() * 4), 0)
                  << core.name << " hd=" << hd << " len=" << len << " group=" << group
                  << " magnitude=" << magnitude << " kv head=" << kh;
            }
          }
        }
      }
    }
  }
}

TEST(GqaCoreTest, NanScoresPropagateInEverySpelling) {
  GqaCase c(/*hd=*/16, /*len=*/19, /*kv_heads=*/1, /*group=*/2, 1.0f, 5);
  c.k[static_cast<std::size_t>(11 * c.kv_dim + 3)] = std::nanf("");
  std::vector<float> ref_scores;
  std::vector<float> ref_out;
  AttendGqaGroupScalar(c.Group(0, 2, &ref_scores, &ref_out));
  EXPECT_TRUE(std::isnan(ref_scores[11]));
  EXPECT_TRUE(std::isnan(ref_out[0]));
  for (const GqaCoreSpelling& core : RunnableGqaCores()) {
    std::vector<float> scores;
    std::vector<float> out;
    core.run(c.Group(0, 2, &scores, &out));
    for (std::size_t j = 0; j < scores.size(); ++j) {
      EXPECT_TRUE(SameBits(scores[j], ref_scores[j])) << core.name << " score " << j;
    }
    for (std::size_t d = 0; d < out.size(); ++d) {
      EXPECT_TRUE(SameBits(out[d], ref_out[d])) << core.name << " out " << d;
    }
  }
}

// The AVX2 core keeps its running max lane-wise over 8-wide blocks and folds
// it once; the scalar core takes it serially. They must agree on windows that
// are one block, a block plus a 7-row tail, and two blocks, including when
// every score ties (q = 0 makes every score +0 or -0), and when one key is
// +inf (that score is +inf) or holds a NaN (that score is NaN and the max
// must skip it), at every position of the window.
TEST(GqaCoreTest, LaneWiseMaxMatchesSerialMaxOnTiesInfinitiesAndNans) {
  const auto expect_same = [](const GqaCase& c, int group, const std::string& what) {
    std::vector<float> ref_scores;
    std::vector<float> ref_out;
    AttendGqaGroupScalar(c.Group(0, group, &ref_scores, &ref_out));
    for (const GqaCoreSpelling& core : RunnableGqaCores()) {
      std::vector<float> scores;
      std::vector<float> out;
      core.run(c.Group(0, group, &scores, &out));
      for (std::size_t j = 0; j < scores.size(); ++j) {
        EXPECT_TRUE(SameBits(scores[j], ref_scores[j])) << core.name << " " << what
                                                        << " score " << j;
      }
      for (std::size_t d = 0; d < out.size(); ++d) {
        EXPECT_TRUE(SameBits(out[d], ref_out[d])) << core.name << " " << what << " out " << d;
      }
    }
  };
  for (const std::int64_t len : {8, 15, 16}) {
    for (const int group : {1, 2}) {
      const std::string shape = "len=" + std::to_string(len) + " group=" + std::to_string(group);
      GqaCase zero_q(/*hd=*/16, len, /*kv_heads=*/1, group, 1.0f,
                     static_cast<std::uint64_t>(len * 10 + group));
      std::fill(zero_q.q.begin(), zero_q.q.end(), 0.0f);
      expect_same(zero_q, group, shape + " q=0");
      for (std::int64_t at = 0; at < len; ++at) {
        const auto seed = static_cast<std::uint64_t>(len * 100 + group * 10 + at);
        GqaCase inf_key(/*hd=*/16, len, /*kv_heads=*/1, group, 1.0f, seed);
        for (float& f : inf_key.q) {
          f = std::fabs(f) + 0.25f;
        }
        std::fill_n(inf_key.k.begin() + at * inf_key.kv_dim, inf_key.hd,
                    std::numeric_limits<float>::infinity());
        expect_same(inf_key, group, shape + " +inf key at " + std::to_string(at));
        GqaCase nan_key(/*hd=*/16, len, /*kv_heads=*/1, group, 1.0f, seed);
        nan_key.k[static_cast<std::size_t>(at * nan_key.kv_dim + 5)] = std::nanf("");
        expect_same(nan_key, group, shape + " NaN key at " + std::to_string(at));
      }
    }
  }
}

TEST(AttentionCostTest, MonotoneInTokensAndContext) {
  const MoeModelConfig config = DeepSeekV3Config();
  const AttentionCost a = EstimateAttentionCost(config, 1, 128, 2.0);
  const AttentionCost b = EstimateAttentionCost(config, 1, 4096, 2.0);
  const AttentionCost c = EstimateAttentionCost(config, 16, 4096, 2.0);
  EXPECT_GT(b.flops, a.flops);
  EXPECT_GT(b.bytes, a.bytes);
  EXPECT_GT(c.flops, b.flops);
}

TEST(AttentionCostTest, MlaCacheBytesReflectLatentCompression) {
  // DS-3's MLA cache: (512 + 64) dims/token vs GQA's 2 * kv_heads * head_dim.
  const MoeModelConfig mla = DeepSeekV3Config();
  const MoeModelConfig gqa = Qwen2MoeConfig();
  const KvCache mc(mla);
  const KvCache gc(gqa);
  const double mla_per_layer =
      static_cast<double>(mc.BytesPerPosition()) / mla.num_layers;
  const double gqa_per_layer =
      static_cast<double>(gc.BytesPerPosition()) / gqa.num_layers;
  EXPECT_LT(mla_per_layer, gqa_per_layer);  // latent beats even 4-head GQA
}

}  // namespace
}  // namespace ktx
