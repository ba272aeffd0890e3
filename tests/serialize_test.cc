#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/engine.h"
#include "src/model/reference_model.h"
#include "src/model/serialize.h"

namespace ktx {
namespace {

TEST(SerializeTest, RoundTripPreservesEverything) {
  for (const MoeModelConfig& config : {TinyMoeConfig(), TinyMlaConfig()}) {
    const ModelWeights original = ModelWeights::Generate(config, 42);
    const std::string bytes = SerializeModel(config, original);
    auto loaded = DeserializeModel(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString() << " for " << config.name;

    EXPECT_EQ(loaded->config.name, config.name);
    EXPECT_EQ(loaded->config.hidden, config.hidden);
    EXPECT_EQ(loaded->config.num_experts, config.num_experts);
    EXPECT_EQ(loaded->config.gating, config.gating);
    EXPECT_EQ(loaded->config.attention, config.attention);
    EXPECT_EQ(loaded->config.routed_scaling, config.routed_scaling);

    EXPECT_EQ(MaxAbsDiff(loaded->weights.embedding, original.embedding), 0.0f);
    EXPECT_EQ(MaxAbsDiff(loaded->weights.lm_head, original.lm_head), 0.0f);
    for (int l = 0; l < config.num_layers; ++l) {
      const auto& a = loaded->weights.layers[static_cast<std::size_t>(l)];
      const auto& b = original.layers[static_cast<std::size_t>(l)];
      EXPECT_EQ(MaxAbsDiff(a.attn.wo, b.attn.wo), 0.0f);
      if (config.is_moe_layer(l)) {
        EXPECT_EQ(MaxAbsDiff(a.router, b.router), 0.0f);
        for (int e = 0; e < config.num_experts; ++e) {
          EXPECT_EQ(MaxAbsDiff(a.expert_gate[static_cast<std::size_t>(e)],
                               b.expert_gate[static_cast<std::size_t>(e)]),
                    0.0f);
        }
      }
    }
  }
}

TEST(SerializeTest, LoadedModelComputesIdenticalLogits) {
  const MoeModelConfig config = TinyMlaConfig();
  ModelWeights original = ModelWeights::Generate(config, 7);
  auto loaded = DeserializeModel(SerializeModel(config, original));
  ASSERT_TRUE(loaded.ok());

  const RefModel ref_a(config, std::make_shared<const ModelWeights>(std::move(original)));
  const RefModel ref_b(loaded->config,
                       std::make_shared<const ModelWeights>(std::move(loaded->weights)));
  KvCache ca(config);
  KvCache cb(loaded->config);
  EXPECT_EQ(MaxAbsDiff(ref_a.Forward({1, 2, 3}, &ca), ref_b.Forward({1, 2, 3}, &cb)), 0.0f);
}

TEST(SerializeTest, FileRoundTrip) {
  const MoeModelConfig config = TinyMoeConfig();
  const ModelWeights weights = ModelWeights::Generate(config, 9);
  const std::string path = "/tmp/ktx_serialize_test.ktxc";
  ASSERT_TRUE(SaveModel(path, config, weights).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MaxAbsDiff(loaded->weights.embedding, weights.embedding), 0.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsBadMagicVersionAndTruncation) {
  const MoeModelConfig config = TinyMoeConfig();
  const ModelWeights weights = ModelWeights::Generate(config, 1);
  std::string bytes = SerializeModel(config, weights);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeModel(bad_magic).ok());

  std::string bad_version = bytes;
  bad_version[4] = 99;
  EXPECT_FALSE(DeserializeModel(bad_version).ok());

  for (std::size_t cut : {std::size_t{3}, std::size_t{20}, bytes.size() / 2,
                          bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeModel(bytes.substr(0, cut)).ok()) << "cut=" << cut;
  }
  EXPECT_FALSE(DeserializeModel(bytes + "x").ok());  // trailing garbage
}

TEST(SerializeTest, RejectsCorruptedTensorMetadata) {
  const MoeModelConfig config = TinyMoeConfig();
  const ModelWeights weights = ModelWeights::Generate(config, 1);
  std::string bytes = SerializeModel(config, weights);
  // Flip bytes across the header region; every corruption must be rejected or
  // produce a clean parse, never crash.
  int rejected = 0;
  for (std::size_t pos = 8; pos < 200 && pos < bytes.size(); pos += 7) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5a);
    if (!DeserializeModel(corrupted).ok()) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}


TEST(SerializeTest, EngineFromCheckpointMatchesEngineFromWeights) {
  const MoeModelConfig config = TinyMoeConfig();
  const ModelWeights weights = ModelWeights::Generate(config, 11);
  auto loaded = DeserializeModel(SerializeModel(config, weights));
  ASSERT_TRUE(loaded.ok());

  HybridEngine original(config,
                        std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 11)),
                        EngineOptions{});
  HybridEngine restored(loaded->config,
                        std::make_shared<const ModelWeights>(std::move(loaded->weights)),
                        EngineOptions{});
  const std::vector<int> prompt{4, 8, 15, 16};
  EXPECT_EQ(MaxAbsDiff(original.Prefill(prompt), restored.Prefill(prompt)), 0.0f);
  EXPECT_EQ(MaxAbsDiff(original.DecodeStep(23), restored.DecodeStep(23)), 0.0f);
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto result = LoadModel("/tmp/ktx_does_not_exist.ktxc");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ktx
