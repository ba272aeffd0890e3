// The flexible module injection framework (paper §5).
//
// A model is represented as a tree of named, classed modules mirroring the
// HuggingFace layout (model.layers.N.self_attn, .mlp, ...). A YAML rule file
// contains match clauses — regular-expression name matching, class matching,
// or both — and replace clauses naming the substitute class, its execution
// device and keyword arguments. ApplyRules walks the tree; the first matching
// rule rewrites the module in place and traversal continues through the new
// submodules.
//
// EngineOptionsFromYaml closes the loop: the same rule files that configure
// the real KTransformers (Listing 1) configure this reproduction's
// HybridEngine — FusedMoE kwargs select the CPU backend, quantization dtype
// and Expert Deferral depth; MarlinLinear kwargs select the GPU weight dtype.

#ifndef KTX_SRC_INJECT_INJECT_H_
#define KTX_SRC_INJECT_INJECT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/inject/yaml_lite.h"
#include "src/model/config.h"

namespace ktx {

// --- Module tree --------------------------------------------------------------

struct Module {
  std::string name;        // local name, e.g. "self_attn"
  std::string class_name;  // e.g. "DeepseekV3Attention"
  std::string device = "cpu";
  std::map<std::string, std::string> kwargs;
  std::vector<std::unique_ptr<Module>> children;

  Module* AddChild(std::string child_name, std::string child_class);
  // Depth-first search by full dotted path (relative to this module's
  // children, i.e. pass "model.layers.0.mlp" on the root).
  Module* FindByPath(const std::string& path);
  int CountModules() const;  // this + descendants
};

// Builds the HuggingFace-shaped module tree for a model config, e.g.
//   <root>
//     model          (DeepseekV3Model)
//       embed_tokens (Embedding)
//       layers.<i>   (DeepseekV3DecoderLayer)
//         self_attn  (DeepseekV3Attention)
//         mlp        (DeepseekV3MoE | DeepseekV3MLP)
//         input_layernorm / post_attention_layernorm (RMSNorm)
//       norm         (RMSNorm)
//     lm_head        (Linear)
std::unique_ptr<Module> BuildModuleTree(const MoeModelConfig& config);

// --- Rules ---------------------------------------------------------------------

struct MatchClause {
  std::optional<std::string> name_regex;  // matched against the full path
  std::optional<std::string> class_name;  // exact match, last component
};

struct ReplaceClause {
  std::string class_name;
  std::string device = "cpu";
  std::map<std::string, std::string> kwargs;
};

struct InjectionRule {
  MatchClause match;
  ReplaceClause replace;
};

// Parses a YAML rule file (Listing 1 format).
StatusOr<std::vector<InjectionRule>> ParseRules(const std::string& yaml);

// --- Application ----------------------------------------------------------------

struct InjectionReport {
  int modules_visited = 0;
  int modules_replaced = 0;
  // (full path, old class, new class)
  std::vector<std::tuple<std::string, std::string, std::string>> replacements;
};

// Walks the tree; for each module the FIRST matching rule applies. Replaced
// modules keep their children (traversal continues through them), matching
// the paper's recursive substitution semantics.
StatusOr<InjectionReport> ApplyRules(Module* root, const std::vector<InjectionRule>& rules);

// --- Engine bridge ---------------------------------------------------------------

// Derives HybridEngine options from a rule file. Recognized:
//   every rule:   device: cpu | cuda:0 (the engine runs one virtual GPU next
//                 to the CPU; any other device is kInvalidArgument)
//   FusedMoE:     backend: AMX | AVX512 | AVX2 | scalar (forced kernel kind)
//                          | hybrid_AMX_AVX512 (ARI dispatch)
//                          | calibrated (measured dispatch, calibrate_kernels)
//                 kernel_profile: <path> -> kernel_profile_path
//                 data_type: BF16 | Int8 | Int4 (also bf16, int8, q8_0, int4,
//                            q4_0) -> cpu_weight_dtype
//                 n_deferred_experts: <int>
//                 numa: tensor_parallel | naive | single | expert_parallel
//   MarlinLinear: data_type -> gpu_weight_dtype (its only kwarg)
//   FlashInferMLA, FlashInferAttention: nothing to configure
// Unknown replacement classes and FusedMoE/MarlinLinear kwargs are rejected so
// typos fail loudly.
StatusOr<EngineOptions> EngineOptionsFromYaml(const std::string& yaml);

}  // namespace ktx

#endif  // KTX_SRC_INJECT_INJECT_H_
