#include "src/inject/inject.h"

#include <regex>

#include "src/common/logging.h"

namespace ktx {

namespace {

// Class-name prefix per model family (cosmetic, mirrors HF module names).
std::string FamilyPrefix(const MoeModelConfig& config) {
  if (config.name.rfind("DeepSeek-V3", 0) == 0) {
    return "DeepseekV3";
  }
  if (config.name.rfind("DeepSeek", 0) == 0) {
    return "DeepseekV2";
  }
  if (config.name.rfind("Qwen", 0) == 0) {
    return "Qwen2Moe";
  }
  return "KtxMoe";
}

}  // namespace

Module* Module::AddChild(std::string child_name, std::string child_class) {
  children.push_back(std::make_unique<Module>());
  Module* child = children.back().get();
  child->name = std::move(child_name);
  child->class_name = std::move(child_class);
  return child;
}

Module* Module::FindByPath(const std::string& path) {
  const std::size_t dot = path.find('.');
  const std::string head = path.substr(0, dot);
  for (auto& child : children) {
    if (child->name == head) {
      if (dot == std::string::npos) {
        return child.get();
      }
      return child->FindByPath(path.substr(dot + 1));
    }
  }
  return nullptr;
}

int Module::CountModules() const {
  int count = 1;
  for (const auto& child : children) {
    count += child->CountModules();
  }
  return count;
}

std::unique_ptr<Module> BuildModuleTree(const MoeModelConfig& config) {
  const std::string prefix = FamilyPrefix(config);
  auto root = std::make_unique<Module>();
  root->name = "";
  root->class_name = prefix + "ForCausalLM";
  root->device = "meta";

  Module* model = root->AddChild("model", prefix + "Model");
  model->AddChild("embed_tokens", "Embedding");
  Module* layers = model->AddChild("layers", "ModuleList");
  for (int l = 0; l < config.num_layers; ++l) {
    Module* layer = layers->AddChild(std::to_string(l), prefix + "DecoderLayer");
    layer->AddChild("input_layernorm", "RMSNorm");
    Module* attn = layer->AddChild("self_attn", prefix + "Attention");
    if (config.attention == AttentionKind::kMla) {
      attn->AddChild("q_a_proj", "torch.nn.Linear");
      attn->AddChild("q_b_proj", "torch.nn.Linear");
      attn->AddChild("kv_a_proj_with_mqa", "torch.nn.Linear");
      attn->AddChild("kv_b_proj", "torch.nn.Linear");
      attn->AddChild("o_proj", "torch.nn.Linear");
    } else {
      attn->AddChild("q_proj", "torch.nn.Linear");
      attn->AddChild("k_proj", "torch.nn.Linear");
      attn->AddChild("v_proj", "torch.nn.Linear");
      attn->AddChild("o_proj", "torch.nn.Linear");
    }
    layer->AddChild("post_attention_layernorm", "RMSNorm");
    if (config.is_moe_layer(l)) {
      Module* moe = layer->AddChild("mlp", prefix + "MoE");
      moe->AddChild("gate", prefix + "TopkRouter");
      Module* experts = moe->AddChild("experts", "ModuleList");
      for (int e = 0; e < config.num_experts; ++e) {
        experts->AddChild(std::to_string(e), prefix + "MLP");
      }
      if (config.n_shared_experts > 0) {
        moe->AddChild("shared_experts", prefix + "MLP");
      }
    } else {
      layer->AddChild("mlp", prefix + "MLP");
    }
  }
  model->AddChild("norm", "RMSNorm");
  root->AddChild("lm_head", "torch.nn.Linear");
  return root;
}

StatusOr<std::vector<InjectionRule>> ParseRules(const std::string& yaml) {
  KTX_ASSIGN_OR_RETURN(YamlNode doc, ParseYaml(yaml));
  if (!doc.is_seq()) {
    return InvalidArgumentError("rule file must be a YAML sequence of match/replace entries");
  }
  std::vector<InjectionRule> rules;
  for (const YamlNode& entry : doc.items()) {
    if (!entry.is_map()) {
      return InvalidArgumentError("each rule must be a mapping");
    }
    const YamlNode* match = entry.Find("match");
    const YamlNode* replace = entry.Find("replace");
    if (match == nullptr || replace == nullptr || !match->is_map() || !replace->is_map()) {
      return InvalidArgumentError("rule needs 'match:' and 'replace:' mappings");
    }
    InjectionRule rule;
    if (const YamlNode* name = match->Find("name"); name != nullptr) {
      rule.match.name_regex = name->scalar();
      // Validate the regex eagerly for a good error message.
      try {
        std::regex re(*rule.match.name_regex);
      } catch (const std::regex_error& e) {
        return InvalidArgumentError("bad match regex '" + *rule.match.name_regex +
                                    "': " + e.what());
      }
    }
    if (const YamlNode* cls = match->Find("class"); cls != nullptr) {
      rule.match.class_name = cls->scalar();
    }
    if (!rule.match.name_regex.has_value() && !rule.match.class_name.has_value()) {
      return InvalidArgumentError("match clause needs 'name' and/or 'class'");
    }
    const YamlNode* cls = replace->Find("class");
    if (cls == nullptr || !cls->is_scalar() || cls->scalar().empty()) {
      return InvalidArgumentError("replace clause needs a 'class'");
    }
    rule.replace.class_name = cls->scalar();
    if (const YamlNode* device = replace->Find("device"); device != nullptr) {
      rule.replace.device = device->scalar();
    }
    if (const YamlNode* kwargs = replace->Find("kwargs"); kwargs != nullptr) {
      if (!kwargs->is_map()) {
        return InvalidArgumentError("kwargs must be a mapping");
      }
      for (const auto& [k, v] : kwargs->entries()) {
        if (!v.is_scalar()) {
          return InvalidArgumentError("kwarg '" + k + "' must be scalar");
        }
        rule.replace.kwargs[k] = v.scalar();
      }
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

namespace {

// Matches use the *unqualified* class name (after the last '.'), so rules may
// write either "DeepseekV3MoE" or "modeling_deepseek_v3.DeepseekV3MoE".
std::string Unqualified(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

bool Matches(const MatchClause& match, const std::string& path, const Module& module,
             const std::vector<std::regex>& compiled, std::size_t rule_index) {
  if (match.class_name.has_value() &&
      Unqualified(*match.class_name) != Unqualified(module.class_name)) {
    return false;
  }
  if (match.name_regex.has_value() &&
      !std::regex_search(path, compiled[rule_index])) {
    return false;
  }
  return true;
}

void Walk(Module* module, const std::string& path, const std::vector<InjectionRule>& rules,
          const std::vector<std::regex>& compiled, InjectionReport* report) {
  ++report->modules_visited;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!Matches(rules[i].match, path, *module, compiled, i)) {
      continue;
    }
    report->replacements.emplace_back(path, module->class_name, rules[i].replace.class_name);
    module->class_name = rules[i].replace.class_name;
    module->device = rules[i].replace.device;
    module->kwargs = rules[i].replace.kwargs;
    ++report->modules_replaced;
    break;  // first matching rule wins
  }
  for (auto& child : module->children) {
    const std::string child_path = path.empty() ? child->name : path + "." + child->name;
    Walk(child.get(), child_path, rules, compiled, report);
  }
}

}  // namespace

StatusOr<InjectionReport> ApplyRules(Module* root, const std::vector<InjectionRule>& rules) {
  if (root == nullptr) {
    return InvalidArgumentError("null module tree");
  }
  std::vector<std::regex> compiled(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].match.name_regex.has_value()) {
      compiled[i] = std::regex(*rules[i].match.name_regex);
    }
  }
  InjectionReport report;
  // The root itself is anonymous; walk children with their paths.
  report.modules_visited = 1;
  for (auto& child : root->children) {
    Walk(child.get(), child->name, rules, compiled, &report);
  }
  return report;
}

namespace {

StatusOr<DType> ParseDataType(const std::string& value) {
  if (value == "BF16" || value == "bf16") {
    return DType::kBF16;
  }
  if (value == "Int8" || value == "int8" || value == "q8_0") {
    return DType::kI8;
  }
  if (value == "Int4" || value == "int4" || value == "q4_0") {
    return DType::kI4;
  }
  return InvalidArgumentError("unknown data_type: " + value);
}

Status ApplyFusedMoeKwargs(const ReplaceClause& replace, EngineOptions* options) {
  for (const auto& [key, value] : replace.kwargs) {
    if (key == "backend") {
      if (value == "AMX") {
        options->moe.force_kind = KernelKind::kAmx;
      } else if (value == "AVX512") {
        options->moe.force_kind = KernelKind::kAvx512;
      } else if (value == "AVX2") {
        options->moe.force_kind = KernelKind::kAvx2;
      } else if (value == "scalar") {
        options->moe.force_kind = KernelKind::kScalar;
      } else if (value == "hybrid_AMX_AVX512") {
        options->moe.force_kind.reset();  // ARI-based dispatch
      } else if (value == "calibrated") {
        // Measured dispatch: the engine microbenchmarks every available
        // variant at startup and dispatches through the fitted table.
        options->moe.force_kind.reset();
        options->calibrate_kernels = true;
      } else {
        return InvalidArgumentError("unknown FusedMoE backend: " + value);
      }
    } else if (key == "data_type") {
      KTX_ASSIGN_OR_RETURN(options->cpu_weight_dtype, ParseDataType(value));
    } else if (key == "n_deferred_experts") {
      try {
        options->n_deferred = std::stoi(value);
      } catch (const std::exception&) {
        return InvalidArgumentError("bad n_deferred_experts: " + value);
      }
    } else if (key == "numa") {
      if (value == "tensor_parallel") {
        options->numa_mode = NumaMode::kTensorParallel;
      } else if (value == "naive") {
        options->numa_mode = NumaMode::kNaiveInterleaved;
      } else if (value == "single") {
        options->numa_mode = NumaMode::kSingleSocket;
      } else if (value == "expert_parallel") {
        options->numa_mode = NumaMode::kExpertParallel;
      } else {
        return InvalidArgumentError("unknown numa mode: " + value);
      }
    } else if (key == "kernel_profile") {
      // Cache path for the calibrated dispatch profile (backend: calibrated).
      options->kernel_profile_path = value;
    } else {
      return InvalidArgumentError("unknown FusedMoE kwarg: " + key);
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<EngineOptions> EngineOptionsFromYaml(const std::string& yaml) {
  KTX_ASSIGN_OR_RETURN(std::vector<InjectionRule> rules, ParseRules(yaml));
  EngineOptions options;
  for (const InjectionRule& rule : rules) {
    // The engine runs one virtual GPU next to the CPU, as each of the paper's
    // deployments runs on one GPU.
    if (rule.replace.device != "cpu" && rule.replace.device != "cuda:0") {
      return InvalidArgumentError("unsupported device \"" + rule.replace.device +
                                  "\": the engine runs on cpu and cuda:0 only");
    }
    const std::string cls = Unqualified(rule.replace.class_name);
    if (cls == "FusedMoE") {
      KTX_RETURN_IF_ERROR(ApplyFusedMoeKwargs(rule.replace, &options));
    } else if (cls == "MarlinLinear") {
      for (const auto& [key, value] : rule.replace.kwargs) {
        if (key != "data_type") {
          return InvalidArgumentError("unknown MarlinLinear kwarg: " + key);
        }
        KTX_ASSIGN_OR_RETURN(options.gpu_weight_dtype, ParseDataType(value));
      }
    } else if (cls == "FlashInferMLA" || cls == "FlashInferAttention") {
      // Attention always executes on the (virtual) GPU; nothing to configure.
    } else {
      return InvalidArgumentError("unknown replacement class: " + rule.replace.class_name);
    }
  }
  return options;
}

}  // namespace ktx
