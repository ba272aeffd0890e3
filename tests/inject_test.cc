#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/inject/inject.h"
#include "src/inject/yaml_lite.h"

namespace ktx {
namespace {

// Listing 1 from the paper, verbatim structure.
constexpr const char* kListing1 = R"(
- match:
    class: modeling_deepseek_v3.DeepseekV3MoE
  replace:
    class: operators.experts.FusedMoE
    device: "cpu"
    kwargs:
      backend: "hybrid_AMX_AVX512"
      data_type: "Int4"
      n_deferred_experts: 6

- match:
    name: "^model\\.layers\\..*\\.self_attn$"
  replace:
    class: operators.attention.FlashInferMLA
    device: "cuda:0"

- match:
    name: "^(?!lm_head$).*"
    class: torch.nn.Linear
  replace:
    class: operators.linear.MarlinLinear
    device: "cuda:0"
    kwargs:
      data_type: "Int4"
)";

// --- YAML parser ---------------------------------------------------------------

TEST(YamlLiteTest, ParsesScalarsMapsSequences) {
  auto doc = ParseYaml("a: 1\nb: hello\nc:\n  d: \"x y\"\n  e: true\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_map());
  EXPECT_EQ(doc->Find("a")->scalar(), "1");
  EXPECT_EQ(*doc->Find("a")->AsInt(), 1);
  EXPECT_EQ(doc->Find("b")->scalar(), "hello");
  const YamlNode* c = doc->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Find("d")->scalar(), "x y");
  EXPECT_EQ(*c->Find("e")->AsBool(), true);
}

TEST(YamlLiteTest, ParsesSequenceOfMappings) {
  auto doc = ParseYaml("- x: 1\n  y: 2\n- x: 3\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->is_seq());
  ASSERT_EQ(doc->size(), 2u);
  EXPECT_EQ(doc->items()[0].Find("x")->scalar(), "1");
  EXPECT_EQ(doc->items()[0].Find("y")->scalar(), "2");
  EXPECT_EQ(doc->items()[1].Find("x")->scalar(), "3");
}

TEST(YamlLiteTest, StripsCommentsAndBlankLines) {
  auto doc = ParseYaml("# header\na: 1  # trailing\n\nb: \"#notacomment\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("a")->scalar(), "1");
  EXPECT_EQ(doc->Find("b")->scalar(), "#notacomment");
}

TEST(YamlLiteTest, DoubleQuoteEscapes) {
  auto doc = ParseYaml(R"(name: "^model\\.layers\\..*$")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("name")->scalar(), R"(^model\.layers\..*$)");
}

TEST(YamlLiteTest, RejectsTabsAndBadInts) {
  EXPECT_FALSE(ParseYaml("a:\n\tb: 1\n").ok());
  auto doc = ParseYaml("a: 12x\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Find("a")->AsInt().ok());
}

TEST(YamlLiteTest, ParsesListing1) {
  auto doc = ParseYaml(kListing1);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_seq());
  ASSERT_EQ(doc->size(), 3u);
  const YamlNode& rule0 = doc->items()[0];
  EXPECT_EQ(rule0.Find("match")->Find("class")->scalar(),
            "modeling_deepseek_v3.DeepseekV3MoE");
  EXPECT_EQ(rule0.Find("replace")->Find("kwargs")->Find("n_deferred_experts")->scalar(), "6");
  const YamlNode& rule1 = doc->items()[1];
  EXPECT_EQ(rule1.Find("match")->Find("name")->scalar(),
            R"(^model\.layers\..*\.self_attn$)");
}


TEST(YamlLiteTest, MutationFuzzNeverCrashes) {
  // 300 single-byte mutations of Listing 1: the parser and rule loader must
  // either succeed or return a clean Status — never crash or hang.
  const std::string base = kListing1;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int parsed_ok = 0;
  for (int round = 0; round < 300; ++round) {
    std::string mutated = base;
    const std::size_t pos = next() % mutated.size();
    const char replacement = static_cast<char>(next() % 128);
    mutated[pos] = replacement == '\t' ? ' ' : replacement;
    const auto rules = ParseRules(mutated);
    if (rules.ok()) {
      ++parsed_ok;
      // Valid mutations must also apply cleanly.
      auto tree = BuildModuleTree(TinyMoeConfig());
      EXPECT_TRUE(ApplyRules(tree.get(), *rules).ok());
    }
  }
  // Many mutations hit comments/values and still parse.
  EXPECT_GT(parsed_ok, 0);
}

// --- Module tree ----------------------------------------------------------------

TEST(ModuleTreeTest, BuildsHuggingFaceShape) {
  const MoeModelConfig c = TinyMlaConfig();
  auto root = BuildModuleTree(c);
  EXPECT_NE(root->FindByPath("model.embed_tokens"), nullptr);
  EXPECT_NE(root->FindByPath("model.layers.1.self_attn"), nullptr);
  EXPECT_NE(root->FindByPath("lm_head"), nullptr);
  // Layer 0 is dense, layer 1+ are MoE.
  EXPECT_EQ(root->FindByPath("model.layers.0.mlp")->class_name, "KtxMoeMLP");
  EXPECT_EQ(root->FindByPath("model.layers.1.mlp")->class_name, "KtxMoeMoE");
  EXPECT_NE(root->FindByPath("model.layers.1.mlp.experts.0"), nullptr);
  EXPECT_NE(root->FindByPath("model.layers.1.mlp.shared_experts"), nullptr);
  EXPECT_EQ(root->FindByPath("model.layers.9.mlp"), nullptr);
}

TEST(ModuleTreeTest, Ds3TreeUsesFamilyClassNames) {
  auto root = BuildModuleTree(DeepSeekV3Config());
  EXPECT_EQ(root->FindByPath("model.layers.5.mlp")->class_name, "DeepseekV3MoE");
  EXPECT_EQ(root->FindByPath("model.layers.5.self_attn")->class_name, "DeepseekV3Attention");
  EXPECT_GT(root->CountModules(), 61 * 200);  // 256 experts per MoE layer
}

// --- Rules + application ----------------------------------------------------------

TEST(InjectTest, ParsesListing1Rules) {
  auto rules = ParseRules(kListing1);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_EQ((*rules)[0].replace.class_name, "operators.experts.FusedMoE");
  EXPECT_EQ((*rules)[0].replace.device, "cpu");
  EXPECT_EQ((*rules)[0].replace.kwargs.at("data_type"), "Int4");
  EXPECT_EQ((*rules)[2].match.class_name.value(), "torch.nn.Linear");
}

TEST(InjectTest, RejectsMalformedRules) {
  EXPECT_FALSE(ParseRules("- match:\n    class: X\n").ok());  // no replace
  EXPECT_FALSE(ParseRules("- replace:\n    class: X\n").ok());  // no match
  EXPECT_FALSE(ParseRules("- match:\n    foo: X\n  replace:\n    class: Y\n").ok());
  EXPECT_FALSE(
      ParseRules("- match:\n    name: \"[\"\n  replace:\n    class: Y\n").ok());  // bad regex
}

TEST(InjectTest, AppliesListing1ToDs3Tree) {
  auto root = BuildModuleTree(DeepSeekV3Config());
  auto rules = ParseRules(kListing1);
  ASSERT_TRUE(rules.ok());
  auto report = ApplyRules(root.get(), *rules);
  ASSERT_TRUE(report.ok());

  // Every MoE layer's mlp becomes FusedMoE (58 of them).
  EXPECT_EQ(root->FindByPath("model.layers.5.mlp")->class_name, "operators.experts.FusedMoE");
  EXPECT_EQ(root->FindByPath("model.layers.5.mlp")->device, "cpu");
  EXPECT_EQ(root->FindByPath("model.layers.5.mlp")->kwargs.at("backend"),
            "hybrid_AMX_AVX512");
  // Dense layer 0 keeps its MLP.
  EXPECT_EQ(root->FindByPath("model.layers.0.mlp")->class_name, "DeepseekV3MLP");
  // Attention replaced by name regex.
  EXPECT_EQ(root->FindByPath("model.layers.0.self_attn")->class_name,
            "operators.attention.FlashInferMLA");
  EXPECT_EQ(root->FindByPath("model.layers.0.self_attn")->device, "cuda:0");
  // Linears replaced except lm_head.
  EXPECT_EQ(root->FindByPath("model.layers.0.self_attn.o_proj")->class_name,
            "operators.linear.MarlinLinear");
  EXPECT_EQ(root->FindByPath("lm_head")->class_name, "torch.nn.Linear");

  EXPECT_EQ(report->modules_replaced,
            58                      // FusedMoE
                + 61                // attention modules
                + 61 * 5);          // MLA projections (lm_head excluded)
}

TEST(InjectTest, FirstMatchingRuleWins) {
  const char* yaml =
      "- match:\n    class: RMSNorm\n  replace:\n    class: FastNorm\n"
      "- match:\n    name: \".*input_layernorm$\"\n  replace:\n    class: OtherNorm\n";
  auto root = BuildModuleTree(TinyMoeConfig());
  auto rules = ParseRules(yaml);
  ASSERT_TRUE(rules.ok());
  auto report = ApplyRules(root.get(), *rules);
  ASSERT_TRUE(report.ok());
  // Rule order matters: the class rule fires first on every norm.
  EXPECT_EQ(root->FindByPath("model.layers.0.input_layernorm")->class_name, "FastNorm");
}

TEST(InjectTest, ModelSwapNeedsOnlyClassNameEdit) {
  // §5: adapting DeepSeek-V2 means editing line 2 of Listing 1.
  std::string yaml = kListing1;
  const std::string from = "modeling_deepseek_v3.DeepseekV3MoE";
  const std::string to = "DeepseekV2MoE";
  yaml.replace(yaml.find(from), from.size(), to);
  auto root = BuildModuleTree(DeepSeekV2Config());
  auto rules = ParseRules(yaml);
  ASSERT_TRUE(rules.ok());
  auto report = ApplyRules(root.get(), *rules);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(root->FindByPath("model.layers.5.mlp")->class_name, "operators.experts.FusedMoE");
}

// --- Engine bridge ------------------------------------------------------------------

TEST(InjectTest, EngineOptionsFromListing1) {
  auto options = EngineOptionsFromYaml(kListing1);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->cpu_weight_dtype, DType::kI4);
  EXPECT_EQ(options->gpu_weight_dtype, DType::kI4);
  EXPECT_EQ(options->n_deferred, 6);
  EXPECT_FALSE(options->moe.force_kind.has_value());  // hybrid = ARI dispatch
}

// A one-rule file assigning FlashInferMLA to `device`.
std::string AttentionOn(const std::string& device) {
  return "- match:\n    name: \"self_attn$\"\n  replace:\n    class: FlashInferMLA\n"
         "    device: \"" + device + "\"\n";
}

TEST(InjectTest, EngineOptionsAcceptCpuAndCuda0) {
  for (const char* device : {"cpu", "cuda:0"}) {
    auto options = EngineOptionsFromYaml(AttentionOn(device));
    EXPECT_TRUE(options.ok()) << device << ": " << options.status().ToString();
  }
}

TEST(InjectTest, EngineOptionsRejectEveryOtherDevice) {
  // The engine runs one virtual GPU; a rule naming another is an error the
  // caller sees, never an abort.
  for (const char* device : {"cuda:1", "cuda:5", "cuda:", "cuda:0x", "cuda:00", "gpu"}) {
    auto options = EngineOptionsFromYaml(AttentionOn(device));
    ASSERT_FALSE(options.ok()) << device;
    EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument) << device;
    EXPECT_NE(options.status().message().find(std::string("\"") + device + "\""),
              std::string::npos)
        << options.status().ToString();
  }
}

// Every EngineOptions field must match: the shipped rule files configure
// exactly what they name and leave the rest at the defaults.
void ExpectSameOptions(const EngineOptions& got, const EngineOptions& want) {
  EXPECT_EQ(got.cpu_weight_dtype, want.cpu_weight_dtype);
  EXPECT_EQ(got.gpu_weight_dtype, want.gpu_weight_dtype);
  EXPECT_EQ(got.n_deferred, want.n_deferred);
  EXPECT_EQ(got.use_cuda_graph, want.use_cuda_graph);
  EXPECT_EQ(got.numa_mode, want.numa_mode);
  EXPECT_EQ(got.numa_shards, want.numa_shards);
  EXPECT_EQ(got.cpu_threads, want.cpu_threads);
  EXPECT_EQ(got.moe.schedule, want.moe.schedule);
  EXPECT_EQ(got.moe.ari_threshold, want.moe.ari_threshold);
  EXPECT_EQ(got.moe.force_kind, want.moe.force_kind);
  EXPECT_EQ(got.moe.impl, want.moe.impl);
  EXPECT_EQ(got.moe.band_blocks, want.moe.band_blocks);
  EXPECT_EQ(got.moe.dispatch, want.moe.dispatch);
  EXPECT_EQ(got.calibrate_kernels, want.calibrate_kernels);
  EXPECT_EQ(got.kernel_profile_path, want.kernel_profile_path);
  EXPECT_EQ(got.prefill_chunk, want.prefill_chunk);
  EXPECT_EQ(got.kv_pool_blocks, want.kv_pool_blocks);
  EXPECT_EQ(got.kv_block_size, want.kv_block_size);
  EXPECT_EQ(got.enable_prefix_cache, want.enable_prefix_cache);
  EXPECT_EQ(got.max_batch, want.max_batch);
  EXPECT_EQ(got.max_sessions, want.max_sessions);
  EXPECT_EQ(got.async_overlap, want.async_overlap);
  EXPECT_EQ(got.profiler, want.profiler);
}

TEST(InjectTest, ShippedRuleFilesGiveTheirEngineOptions) {
  struct Shipped {
    const char* file;
    DType cpu;
    DType gpu;
    int n_deferred;
    bool calibrated;
  };
  for (const Shipped& c : {
           Shipped{"calibrated_dispatch.yaml", DType::kBF16, DType::kBF16, 3, true},
           Shipped{"deepseek_v2_int8.yaml", DType::kI8, DType::kI8, 4, false},
           Shipped{"deepseek_v3_bf16.yaml", DType::kBF16, DType::kBF16, 3, false},
           Shipped{"deepseek_v3_int4.yaml", DType::kI4, DType::kI4, 6, false},
           Shipped{"qwen2_moe_int8.yaml", DType::kI8, DType::kBF16, 4, false},
       }) {
    SCOPED_TRACE(c.file);
    std::ifstream in(std::string(KTX_CONFIGS_DIR) + "/" + c.file);
    ASSERT_TRUE(in.good());
    std::stringstream yaml;
    yaml << in.rdbuf();
    auto options = EngineOptionsFromYaml(yaml.str());
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    EngineOptions want;
    want.cpu_weight_dtype = c.cpu;
    want.gpu_weight_dtype = c.gpu;
    want.n_deferred = c.n_deferred;
    if (c.calibrated) {
      want.calibrate_kernels = true;
      want.kernel_profile_path = "configs/kernel_profile.json";
    }
    ExpectSameOptions(*options, want);
  }
}

TEST(InjectTest, EngineOptionsBackendOverrides) {
  const char* yaml =
      "- match:\n    class: DeepseekV3MoE\n  replace:\n    class: FusedMoE\n"
      "    kwargs:\n      backend: \"AVX512\"\n      numa: naive\n";
  auto options = EngineOptionsFromYaml(yaml);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->moe.force_kind.value(), KernelKind::kAvx512);
  EXPECT_EQ(options->numa_mode, NumaMode::kNaiveInterleaved);
}

TEST(InjectTest, EngineOptionsCalibratedBackend) {
  const char* yaml =
      "- match:\n    class: DeepseekV3MoE\n  replace:\n    class: FusedMoE\n"
      "    kwargs:\n      backend: \"calibrated\"\n"
      "      kernel_profile: \"configs/kernel_profile.json\"\n";
  auto options = EngineOptionsFromYaml(yaml);
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_FALSE(options->moe.force_kind.has_value());
  EXPECT_TRUE(options->calibrate_kernels);
  EXPECT_EQ(options->kernel_profile_path, "configs/kernel_profile.json");
}

TEST(InjectTest, EngineOptionsRejectUnknownClassAndKwargs) {
  EXPECT_FALSE(EngineOptionsFromYaml(
                   "- match:\n    class: X\n  replace:\n    class: Typo\n")
                   .ok());
  EXPECT_FALSE(EngineOptionsFromYaml("- match:\n    class: X\n  replace:\n    class: "
                                     "FusedMoE\n    kwargs:\n      bogus: 1\n")
                   .ok());
}

TEST(InjectTest, EngineOptionsRejectUnknownMarlinLinearKwargs) {
  const std::string rule =
      "- match:\n    class: torch.nn.Linear\n"
      "  replace:\n    class: operators.linear.MarlinLinear\n    device: \"cuda:0\"\n"
      "    kwargs:\n";
  auto good = EngineOptionsFromYaml(rule + "      data_type: \"Int8\"\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->gpu_weight_dtype, DType::kI8);

  // A misspelled data_type must not silently leave the default in place.
  auto typo = EngineOptionsFromYaml(rule + "      data_tpye: \"Int8\"\n");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("data_tpye"), std::string::npos)
      << typo.status().ToString();
}

TEST(InjectTest, YamlConfiguredEngineRuns) {
  // End-to-end: Listing-1-style YAML -> engine options -> working inference.
  const char* yaml =
      "- match:\n    class: KtxMoeMoE\n  replace:\n    class: FusedMoE\n"
      "    device: \"cpu\"\n    kwargs:\n      backend: \"hybrid_AMX_AVX512\"\n"
      "      data_type: \"Int8\"\n      n_deferred_experts: 1\n";
  auto options = EngineOptionsFromYaml(yaml);
  ASSERT_TRUE(options.ok());
  const MoeModelConfig config = TinyMoeConfig();
  auto weights = std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 5));
  HybridEngine engine(config, weights, *options);
  engine.Prefill({1, 2, 3});
  const Tensor logits = engine.DecodeStep(4);
  EXPECT_EQ(logits.dim(1), config.vocab);
}

}  // namespace
}  // namespace ktx
