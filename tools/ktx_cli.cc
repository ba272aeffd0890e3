// ktx — command-line driver for the KTransformers reproduction.
//
// Subcommands:
//   info      [--model ds3|ds2|qw2]                 model config + placement
//   simulate  [--model ...] [--system ...] [--phase prefill|decode]
//             [--prompt-len N] [--steps N] [--cpu-dtype bf16|i8|i4]
//             [--deferral N|auto] [--timeline]      paper-scale performance
//   generate  [--prompt TEXT] [--tokens N] [--temperature T] [--seed S]
//             [--deferral N] [--cpu-dtype ...]      functional text generation
//   inject    --rules FILE [--model ...]            apply a YAML rule file
//   eval      [--deferral N] [--skipping] [--corpus-len N] [--seed S]
//             perplexity + behaviour-change of deferral/skipping (proxy)
//   trace     [--tokens N] [--out FILE] [--metrics]
//             run a traced generation, write a Perfetto-loadable Chrome
//             trace, print the per-category event summary, the decode
//             steps' span coverage and the graph-replay span check (and,
//             with --metrics, the process metrics registry as JSON)
//   cpuinfo   [--profile FILE]
//             detected CPU features, every registered kernel variant with
//             its availability/dtype support on this host, and the
//             microbenchmark-calibrated crossover table (loaded from
//             --profile when valid, measured and written there otherwise)
//
// Examples:
//   ktx_cli info --model ds3
//   ktx_cli simulate --model ds3 --system kt --phase decode --deferral auto
//   ktx_cli generate --prompt "hello experts" --temperature 0.3
//   ktx_cli inject --rules rules.yaml --model ds3
//   ktx_cli trace --tokens 24 --out ktx_trace.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/common/flags.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/placement.h"
#include "src/core/strategy_sim.h"
#include "src/cpu/cpu_features.h"
#include "src/cpu/kernel_calibrate.h"
#include "src/cpu/kernel_registry.h"
#include "src/inject/inject.h"
#include "src/model/eval.h"
#include "src/model/sampler.h"
#include "src/model/tokenizer.h"

namespace {

int Usage() {
  std::printf("usage: ktx_cli <info|simulate|generate|inject|eval|trace|cpuinfo> [flags]\n"
              "run with a subcommand; see the header of tools/ktx_cli.cc\n");
  return 2;
}

ktx::StatusOr<ktx::MoeModelConfig> ModelFor(const std::string& name) {
  if (name == "ds3") {
    return ktx::DeepSeekV3Config();
  }
  if (name == "ds2") {
    return ktx::DeepSeekV2Config();
  }
  if (name == "qw2") {
    return ktx::Qwen2MoeConfig();
  }
  if (name == "tiny") {
    return ktx::TinyMoeConfig();
  }
  if (name == "small") {
    return ktx::SmallMoeConfig();
  }
  return ktx::InvalidArgumentError("unknown --model '" + name +
                                   "' (want ds3|ds2|qw2|tiny|small)");
}

ktx::StatusOr<ktx::DType> DtypeFor(const std::string& name) {
  if (name == "bf16") {
    return ktx::DType::kBF16;
  }
  if (name == "i8") {
    return ktx::DType::kI8;
  }
  if (name == "i4") {
    return ktx::DType::kI4;
  }
  return ktx::InvalidArgumentError("unknown dtype '" + name + "' (want bf16|i8|i4)");
}

int CmdInfo(const ktx::FlagParser& flags) {
  auto model = ModelFor(flags.GetString("model", "ds3"));
  if (!model.ok()) {
    std::printf("%s\n", model.status().ToString().c_str());
    return 1;
  }
  const ktx::MoeModelConfig& m = *model;
  std::printf("%s\n", m.name.c_str());
  std::printf("  hidden %lld, %d layers (%d dense), vocab %lld\n",
              static_cast<long long>(m.hidden), m.num_layers, m.first_dense_layers,
              static_cast<long long>(m.vocab));
  std::printf("  %d routed experts (top-%d, inter %lld), %d shared\n", m.num_experts,
              m.top_k, static_cast<long long>(m.moe_inter), m.n_shared_experts);
  std::printf("  params: total %.1fB = GPU %.1fB + CPU %.1fB\n", m.TotalParams() / 1e9,
              m.GpuParams() / 1e9, m.RoutedExpertParams() / 1e9);
  std::printf("  CPU traffic per decoded token (bf16): %.1f GB\n",
              m.CpuBytesPerToken(2.0) / 1e9);
  for (const auto& [gpu, dtype] :
       {std::pair{ktx::A100_40GB(), ktx::DType::kBF16},
        std::pair{ktx::RTX4080_16GB(), ktx::DType::kI4}}) {
    const ktx::PlacementPlan plan = ktx::PlanPlacement(m, dtype, dtype, gpu, 8192);
    std::printf("  on %s at %s: %s\n", gpu.name.c_str(),
                std::string(ktx::DTypeName(dtype)).c_str(), plan.Summary().c_str());
  }
  return 0;
}

int CmdSimulate(const ktx::FlagParser& flags) {
  auto model = ModelFor(flags.GetString("model", "ds3"));
  auto dtype = DtypeFor(flags.GetString("cpu-dtype", "bf16"));
  if (!model.ok() || !dtype.ok()) {
    std::printf("%s\n",
                (!model.ok() ? model.status() : dtype.status()).ToString().c_str());
    return 1;
  }
  ktx::SimWorkload w;
  w.model = *model;
  w.cpu_dtype = *dtype;
  w.prompt_len = flags.GetInt("prompt-len", 512);
  w.decode_steps = static_cast<int>(flags.GetInt("steps", 16));
  if (flags.GetString("gpu", "a100") == "4080") {
    w.gpu = ktx::RTX4080_16GB();
  }

  const std::string system = flags.GetString("system", "kt");
  ktx::StrategySpec strat;
  if (system == "fiddler") {
    strat = ktx::FiddlerStrategy();
  } else if (system == "llamacpp") {
    strat = ktx::LlamaCppStrategy();
  } else if (system == "kt") {
    const std::string deferral = flags.GetString("deferral", "0");
    const int d = deferral == "auto" ? ktx::ChooseDeferredExperts(w)
                                     : static_cast<int>(std::atoi(deferral.c_str()));
    strat = ktx::KTransformersStrategy(d);
    if (deferral == "auto") {
      std::printf("deferral heuristic picked %d\n", d);
    }
  } else {
    std::printf("unknown --system '%s' (want fiddler|llamacpp|kt)\n", system.c_str());
    return 1;
  }

  const std::string phase = flags.GetString("phase", "decode");
  const ktx::SimReport r = phase == "prefill" ? ktx::SimulatePrefill(strat, w)
                                              : ktx::SimulateDecode(strat, w);
  std::printf("%s / %s / %s: %.2f tok/s (cpu %.0f%%, gpu %.0f%%, launch share %.0f%%)\n",
              w.model.name.c_str(), strat.name.c_str(), phase.c_str(), r.tokens_per_second,
              r.cpu_utilization * 100, r.gpu_utilization * 100,
              r.launch_overhead_share * 100);
  if (flags.GetBool("timeline", false)) {
    std::printf("%s", r.sim->AsciiTimeline(100).c_str());
  }
  const std::string trace = flags.GetString("trace", "");
  if (!trace.empty()) {
    std::ofstream out(trace);
    out << r.sim->ToChromeTraceJson();
    std::printf("chrome trace written to %s\n", trace.c_str());
  }
  return 0;
}

int CmdGenerate(const ktx::FlagParser& flags) {
  auto dtype = DtypeFor(flags.GetString("cpu-dtype", "i8"));
  if (!dtype.ok()) {
    std::printf("%s\n", dtype.status().ToString().c_str());
    return 1;
  }
  ktx::MoeModelConfig config = ktx::SmallMoeConfig();
  config.vocab = ktx::ByteTokenizer::kVocabSize;
  auto weights = std::make_shared<const ktx::ModelWeights>(
      ktx::ModelWeights::Generate(config, static_cast<std::uint64_t>(flags.GetInt("seed", 1))));
  ktx::EngineOptions options;
  options.cpu_weight_dtype = *dtype;
  options.n_deferred = static_cast<int>(flags.GetInt("deferral", 2));
  ktx::HybridEngine engine(config, weights, options);

  const ktx::ByteTokenizer tokenizer;
  const std::string prompt = flags.GetString("prompt", "mixture of experts");
  ktx::SamplerOptions sopts;
  sopts.temperature = static_cast<float>(flags.GetDouble("temperature", 0.0));
  sopts.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  ktx::Sampler sampler(sopts);

  ktx::Tensor logits = engine.Prefill(tokenizer.Encode(prompt));
  std::vector<int> generated;
  const int max_tokens = static_cast<int>(flags.GetInt("tokens", 32));
  for (int i = 0; i < max_tokens; ++i) {
    const int next = sampler.Sample(logits);
    if (next == ktx::ByteTokenizer::kEos) {
      break;
    }
    generated.push_back(next);
    logits = engine.DecodeStep(next);
  }
  std::printf("prompt: %s\n", prompt.c_str());
  std::printf("tokens:");
  for (int t : generated) {
    std::printf(" %d", t);
  }
  std::printf("\n(random-seeded weights: ids are byte values without learned structure)\n");
  return 0;
}

int CmdInject(const ktx::FlagParser& flags) {
  const std::string path = flags.GetString("rules", "");
  if (path.empty()) {
    std::printf("inject needs --rules FILE\n");
    return 1;
  }
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot read %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto model = ModelFor(flags.GetString("model", "ds3"));
  if (!model.ok()) {
    std::printf("%s\n", model.status().ToString().c_str());
    return 1;
  }
  auto rules = ktx::ParseRules(buffer.str());
  if (!rules.ok()) {
    std::printf("rule error: %s\n", rules.status().ToString().c_str());
    return 1;
  }
  auto tree = ktx::BuildModuleTree(*model);
  auto report = ktx::ApplyRules(tree.get(), *rules);
  if (!report.ok()) {
    std::printf("apply error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%d rules; visited %d modules, replaced %d\n",
              static_cast<int>(rules->size()), report->modules_visited,
              report->modules_replaced);
  auto options = ktx::EngineOptionsFromYaml(buffer.str());
  if (!options.ok()) {
    std::printf("engine options error: %s\n", options.status().ToString().c_str());
    return 1;
  }
  std::printf("engine: cpu=%s gpu=%s deferral=%d\n",
              std::string(ktx::DTypeName(options->cpu_weight_dtype)).c_str(),
              std::string(ktx::DTypeName(options->gpu_weight_dtype)).c_str(),
              options->n_deferred);
  return 0;
}

int CmdEval(const ktx::FlagParser& flags) {
  ktx::MoeModelConfig config = ktx::SmallMoeConfig();
  auto weights = std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(
      config, static_cast<std::uint64_t>(flags.GetInt("seed", 99))));
  const ktx::RefModel model(config, weights);
  const std::vector<int> corpus = ktx::SyntheticCorpus(
      config.vocab, flags.GetInt("corpus-len", 48), 1.0,
      static_cast<std::uint64_t>(flags.GetInt("seed", 99)) + 1);

  const ktx::EvalResult base = ktx::EvaluatePerplexity(model, corpus);
  std::printf("baseline: ppl %.2f (%.4f nats/token, %lld positions)\n", base.perplexity,
              base.mean_nll, static_cast<long long>(base.positions));

  ktx::ForwardOptions opts;
  opts.n_deferred = static_cast<int>(flags.GetInt("deferral", 3));
  opts.expert_skipping = flags.GetBool("skipping", false);
  const ktx::EvalResult variant = ktx::EvaluatePerplexity(model, corpus, opts);
  const double kl = ktx::ExecutionDivergence(model, corpus, ktx::ForwardOptions{}, opts);
  std::printf("%s %d experts: ppl %.2f (delta %+.4f nats), mean KL %.5f\n",
              opts.expert_skipping ? "skipping" : "deferring", opts.n_deferred,
              variant.perplexity, variant.mean_nll - base.mean_nll, kl);
  return 0;
}

struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

bool Contains(const Interval& outer, const Interval& inner) {
  return inner.begin >= outer.begin && inner.end <= outer.end;
}

// Prints the share of each decode step's wall time that the union of vgpu/*,
// moe/* and handoff/* spans (on any thread) plus engine/finish_step covers:
// the minimum and the median over the graph-replay steps, skipping the step
// that captured the graph. The handoff spans are the enqueue-to-stream-worker
// pickup and the caller's wake-up from Synchronize; finish_step is the tail
// after it, the logits copy included.
void PrintStepCoverage(const ktx::trace::Snapshot& snap) {
  std::vector<Interval> steps;
  std::vector<Interval> captures;
  std::vector<Interval> children;
  for (const auto& ev : snap.events) {
    if (ev.phase != ktx::trace::Phase::kComplete) {
      continue;
    }
    const std::string_view cat(ev.cat);
    const std::string_view name(ev.name);
    const Interval span{ev.ts_ns, ev.ts_ns + ev.dur_ns};
    if (cat == "engine" && name == "decode_batch") {
      steps.push_back(span);
    } else if (cat == "engine" && name == "graph_capture") {
      captures.push_back(span);
    } else if (cat == "vgpu" || cat == "moe" || cat == "handoff" ||
               (cat == "engine" && name == "finish_step")) {
      children.push_back(span);
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<double> shares;
  for (const Interval& step : steps) {
    if (std::any_of(captures.begin(), captures.end(),
                    [&](const Interval& c) { return Contains(step, c); })) {
      continue;
    }
    std::int64_t covered = 0;
    std::int64_t cursor = step.begin;  // end of the union so far
    for (const Interval& c : children) {
      if (c.begin >= step.end) {
        break;
      }
      const std::int64_t lo = std::max(c.begin, cursor);
      const std::int64_t hi = std::min(c.end, step.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    shares.push_back(step.end > step.begin
                         ? static_cast<double>(covered) / static_cast<double>(step.end - step.begin)
                         : 1.0);
  }
  if (shares.empty()) {
    std::printf("decode step coverage: no replay steps traced\n");
    return;
  }
  std::sort(shares.begin(), shares.end());
  std::printf("decode step coverage by vgpu/* + moe/* + handoff/* + engine/finish_step "
              "spans over %zu replay steps: "
              "min %.1f%%, median %.1f%%\n",
              shares.size(), 100.0 * shares.front(), 100.0 * shares[shares.size() / 2]);
}

// Checks that every vgpu/graph_replay span holds, on its own thread, one vgpu
// span per captured node (its "nodes" arg) plus itself. Returns false on a
// mismatch.
bool CheckReplaySpans(const ktx::trace::Snapshot& snap) {
  int replays = 0;
  int matching = 0;
  for (const auto& replay : snap.events) {
    if (replay.phase != ktx::trace::Phase::kComplete || std::string_view(replay.cat) != "vgpu" ||
        std::string_view(replay.name) != "graph_replay") {
      continue;
    }
    ++replays;
    const Interval outer{replay.ts_ns, replay.ts_ns + replay.dur_ns};
    std::int64_t spans = 0;
    for (const auto& ev : snap.events) {
      if (ev.phase == ktx::trace::Phase::kComplete && ev.tid == replay.tid &&
          std::string_view(ev.cat) == "vgpu" &&
          Contains(outer, Interval{ev.ts_ns, ev.ts_ns + ev.dur_ns})) {
        ++spans;
      }
    }
    matching += spans == replay.arg_value + 1 ? 1 : 0;
  }
  std::printf("graph replays: %d, with one vgpu span per captured node: %d\n", replays,
              matching);
  // A wrapped ring loses the oldest replay's first nodes; only a complete
  // trace can be held to the count.
  return snap.dropped > 0 || matching == replays;
}

int CmdTrace(const ktx::FlagParser& flags) {
  const std::string out_path = flags.GetString("out", "ktx_trace.json");
  const int max_tokens = static_cast<int>(flags.GetInt("tokens", 24));

  ktx::trace::SetEnabled(true);
  ktx::trace::SetCurrentThreadName("ktx_cli");

  ktx::MoeModelConfig config = ktx::SmallMoeConfig();
  config.vocab = ktx::ByteTokenizer::kVocabSize;
  auto weights = std::make_shared<const ktx::ModelWeights>(
      ktx::ModelWeights::Generate(config, static_cast<std::uint64_t>(flags.GetInt("seed", 1))));
  ktx::EngineOptions options;
  options.cpu_weight_dtype = ktx::DType::kI8;
  options.kv_pool_blocks = 256;
  options.kv_block_size = 16;
  ktx::Counter* tokens_total = ktx::MetricsRegistry::Global().GetCounter("cli.tokens_total");
  ktx::HistogramMetric* step_latency =
      ktx::MetricsRegistry::Global().GetHistogram("cli.decode_step_seconds");
  {
    ktx::HybridEngine engine(config, weights, options);

    const ktx::ByteTokenizer tokenizer;
    ktx::Tensor logits =
        engine.Prefill(tokenizer.Encode(flags.GetString("prompt", "trace me")));
    ktx::Sampler sampler(ktx::SamplerOptions{});
    for (int i = 0; i < max_tokens; ++i) {
      const int next = sampler.Sample(logits);
      if (next == ktx::ByteTokenizer::kEos) {
        break;
      }
      const auto t0 = std::chrono::steady_clock::now();
      logits = engine.DecodeStep(next);
      step_latency->Record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
      tokens_total->Increment();
    }
  }
  ktx::trace::SetEnabled(false);

  if (!ktx::trace::WriteChromeJson(out_path)) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  const ktx::trace::Snapshot snap = ktx::trace::TakeSnapshot();
  // Per-(cat, name) event counts: a quick shape check without opening the UI.
  std::map<std::pair<std::string, std::string>, int> by_kind;
  for (const auto& ev : snap.events) {
    ++by_kind[{ev.cat, ev.name}];
  }
  std::printf("%zu events (%lld dropped) across %d threads -> %s\n",
              snap.events.size(), static_cast<long long>(snap.dropped), snap.threads,
              out_path.c_str());
  for (const auto& [kind, count] : by_kind) {
    std::printf("  %-14s %-22s %6d\n", kind.first.c_str(), kind.second.c_str(), count);
  }
  PrintStepCoverage(snap);
  const bool replays_ok = CheckReplaySpans(snap);
  std::printf("open the file at https://ui.perfetto.dev\n");
  if (flags.GetBool("metrics", false)) {
    std::printf("%s\n", ktx::MetricsRegistry::Global().ToJson().c_str());
  }
  return replays_ok ? 0 : 1;
}

int CmdCpuinfo(const ktx::FlagParser& flags) {
  std::printf("cpu features: %s\n", ktx::GetCpuFeatures().ToString().c_str());
  std::printf("\nregistered kernel variants:\n");
  std::printf("  %-18s %-10s %-12s %s\n", "variant", "available", "dtypes", "role");
  for (const ktx::KernelVariant& v : ktx::KernelRegistry()) {
    std::string dtypes;
    for (ktx::DType d :
         {ktx::DType::kF32, ktx::DType::kBF16, ktx::DType::kI8, ktx::DType::kI4}) {
      if (v.supports_dtype(d)) {
        if (!dtypes.empty()) {
          dtypes += ",";
        }
        dtypes += std::string(ktx::DTypeName(d));
      }
    }
    std::printf("  %-18s %-10s %-12s %s\n", v.name, v.available() ? "yes" : "no",
                dtypes.c_str(),
                v.impl == ktx::KernelImpl::kNative ? "dispatch candidate"
                                                   : "reference / opt-in");
  }
  if (const auto forced = ktx::ForcedKernelFromEnv()) {
    std::printf("\nKTX_FORCE_KERNEL is set: every expert-group forced to %s/%s\n",
                ktx::KernelKindName(forced->kind), ktx::KernelImplName(forced->impl));
  }

  ktx::KernelCalibrationOptions cal;
  cal.profile_path = flags.GetString("profile", "");
  const ktx::KernelCalibrationResult result = ktx::CalibrateOrLoad(cal);
  std::printf("\ncalibrated crossover table (%s, %lld microbench samples):\n",
              result.from_cache ? "from cached profile" : "freshly measured",
              static_cast<long long>(result.microbench_samples));
  const std::pair<const char*, const std::vector<ktx::KernelDispatchTable::Segment>*>
      classes[] = {{"f32", &result.table.f32},
                   {"bf16", &result.table.bf16},
                   {"quant", &result.table.quant}};
  for (const auto& [name, segs] : classes) {
    std::printf("  %-6s", name);
    if (segs->empty()) {
      std::printf(" (empty: heuristic SelectKernel fallback)\n");
      continue;
    }
    for (const auto& seg : *segs) {
      std::printf(" [m>=%lld -> %s]", static_cast<long long>(seg.min_m),
                  ktx::KernelKindName(seg.kind));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  auto flags = ktx::FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::printf("%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const std::string cmd = argv[1];
  int rc;
  if (cmd == "info") {
    rc = CmdInfo(*flags);
  } else if (cmd == "simulate") {
    rc = CmdSimulate(*flags);
  } else if (cmd == "generate") {
    rc = CmdGenerate(*flags);
  } else if (cmd == "inject") {
    rc = CmdInject(*flags);
  } else if (cmd == "eval") {
    rc = CmdEval(*flags);
  } else if (cmd == "trace") {
    rc = CmdTrace(*flags);
  } else if (cmd == "cpuinfo") {
    rc = CmdCpuinfo(*flags);
  } else {
    return Usage();
  }
  for (const std::string& key : flags->unused()) {
    std::printf("warning: unused flag --%s\n", key.c_str());
  }
  return rc;
}
