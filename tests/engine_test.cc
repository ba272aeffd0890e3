#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/accuracy_common.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/cpu/activation.h"

namespace ktx {
namespace {

struct EngineFixture {
  MoeModelConfig config;
  std::shared_ptr<const ModelWeights> weights;

  explicit EngineFixture(const MoeModelConfig& c, std::uint64_t seed = 17)
      : config(c),
        weights(std::make_shared<const ModelWeights>(ModelWeights::Generate(c, seed))) {}

  std::unique_ptr<HybridEngine> MakeEngine(EngineOptions opts = {}) const {
    return std::make_unique<HybridEngine>(config, weights, opts);
  }
  RefModel MakeRef() const { return RefModel(config, weights); }
};

// Decode logits from the reference model under the given options, after
// prefilling `prompt` WITHOUT deferral (matching the engine's behaviour).
Tensor RefDecode(const RefModel& ref, const std::vector<int>& prompt, int token,
                 const ForwardOptions& decode_opts) {
  KvCache cache(ref.config());
  ref.Forward(prompt, &cache);  // prefill: no deferral
  return ref.Forward({token}, &cache, decode_opts);
}

TEST(HybridEngineTest, PrefillMatchesReference) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{3, 14, 15, 92, 65};
  const Tensor logits = engine->Prefill(prompt);

  RefModel ref = f.MakeRef();
  KvCache cache(f.config);
  const Tensor ref_logits = ref.Forward(prompt, &cache);
  const Tensor ref_last = ref_logits.Slice(4, 1).Clone();

  // CPU experts run in bf16; everything else is f32 — small error expected.
  EXPECT_LT(RelativeError(logits, ref_last), 0.05f);
  EXPECT_EQ(ArgmaxLastToken(logits), ArgmaxLastToken(ref_last));
}

TEST(HybridEngineTest, PrefillMatchesReferenceMla) {
  EngineFixture f(TinyMlaConfig());
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{1, 2, 3, 4, 5, 6};
  const Tensor logits = engine->Prefill(prompt);

  RefModel ref = f.MakeRef();
  KvCache cache(f.config);
  const Tensor ref_logits = ref.Forward(prompt, &cache);
  EXPECT_LT(RelativeError(logits, ref_logits.Slice(5, 1).Clone()), 0.05f);
}

TEST(HybridEngineTest, ChunkedPrefillMatchesSingleShot) {
  EngineFixture f(TinyMoeConfig());
  EngineOptions small_chunks;
  small_chunks.prefill_chunk = 2;
  auto chunked = f.MakeEngine(small_chunks);
  auto whole = f.MakeEngine();
  const std::vector<int> prompt{7, 8, 9, 10, 11};
  const Tensor a = chunked->Prefill(prompt);
  const Tensor b = whole->Prefill(prompt);
  EXPECT_LT(RelativeError(a, b), 1e-4f);
  EXPECT_EQ(chunked->position(), 5);
}

TEST(HybridEngineTest, DecodeMatchesReferenceNoDeferral) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{3, 14, 15};
  engine->Prefill(prompt);
  const Tensor logits = engine->DecodeStep(42);

  const Tensor ref = RefDecode(f.MakeRef(), prompt, 42, ForwardOptions{});
  EXPECT_LT(RelativeError(logits, ref), 0.05f);
  EXPECT_EQ(ArgmaxLastToken(logits), ArgmaxLastToken(ref));
}

TEST(HybridEngineTest, DeferralMatchesReferenceFormula) {
  // The async, parity-buffered, FIFO-ordered engine implementation must
  // compute exactly the §4.1 deferral formula implemented directly in the
  // reference model.
  EngineFixture f(TinyMlaConfig());  // top_k = 4
  for (int deferred : {1, 2}) {
    EngineOptions opts;
    opts.n_deferred = deferred;
    auto engine = f.MakeEngine(opts);
    const std::vector<int> prompt{5, 6, 7};
    engine->Prefill(prompt);
    const Tensor logits = engine->DecodeStep(9);

    ForwardOptions ref_opts;
    ref_opts.n_deferred = deferred;
    const Tensor ref = RefDecode(f.MakeRef(), prompt, 9, ref_opts);
    EXPECT_LT(RelativeError(logits, ref), 0.05f) << "deferred=" << deferred;
    EXPECT_EQ(ArgmaxLastToken(logits), ArgmaxLastToken(ref)) << "deferred=" << deferred;
  }
}

TEST(HybridEngineTest, DeferralDiffersFromStandardExecution) {
  // Sanity: deferral is a real model change, not a no-op.
  EngineFixture f(TinyMlaConfig());
  EngineOptions d0;
  EngineOptions d2;
  d2.n_deferred = 2;
  auto e0 = f.MakeEngine(d0);
  auto e2 = f.MakeEngine(d2);
  const std::vector<int> prompt{5, 6, 7};
  e0->Prefill(prompt);
  e2->Prefill(prompt);
  const Tensor a = e0->DecodeStep(9);
  const Tensor b = e2->DecodeStep(9);
  EXPECT_GT(MaxAbsDiff(a, b), 1e-6f);
}

TEST(HybridEngineTest, GraphAndEagerDecodeIdentical) {
  // With deferral the captured graph must keep the FIFO the sync protocol
  // needs: layer k's deferred experts complete before layer k+1 merges them.
  EngineFixture f(TinyMoeConfig());
  for (int n_deferred : {0, 1}) {
    SCOPED_TRACE("n_deferred " + std::to_string(n_deferred));
    EngineOptions with_graph;
    with_graph.n_deferred = n_deferred;
    with_graph.use_cuda_graph = true;
    EngineOptions no_graph = with_graph;
    no_graph.use_cuda_graph = false;
    auto a = f.MakeEngine(with_graph);
    auto b = f.MakeEngine(no_graph);
    const std::vector<int> prompt{1, 2, 3};
    a->Prefill(prompt);
    b->Prefill(prompt);
    for (int t : {10, 20, 30}) {
      const Tensor la = a->DecodeStep(t);
      const Tensor lb = b->DecodeStep(t);
      EXPECT_EQ(MaxAbsDiff(la, lb), 0.0f) << "token " << t;
    }
  }
}

TEST(HybridEngineTest, GraphReplayedOncePerDecodeStep) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  engine->Prefill({1, 2});
  const std::int64_t launches_after_prefill = engine->device().stats().logical_launches.load();
  EXPECT_GT(launches_after_prefill, 0);

  for (int i = 0; i < 5; ++i) {
    engine->DecodeStep(40 + i);
  }
  // Decode adds only graph replays — zero additional per-kernel launches.
  EXPECT_EQ(engine->device().stats().logical_launches.load(), launches_after_prefill);
  EXPECT_EQ(engine->device().stats().graph_launches.load(), 5);
  EXPECT_GT(engine->device().stats().graph_replayed_nodes.load(), 0);
}

TEST(HybridEngineTest, EagerDecodePaysPerKernelLaunches) {
  EngineFixture f(TinyMoeConfig());
  EngineOptions opts;
  opts.use_cuda_graph = false;
  auto engine = f.MakeEngine(opts);
  engine->Prefill({1, 2});
  const std::int64_t before = engine->device().stats().logical_launches.load();
  engine->DecodeStep(3);
  const std::int64_t per_step = engine->device().stats().logical_launches.load() - before;
  // Every layer contributes several kernels when not captured.
  EXPECT_GE(per_step, static_cast<std::int64_t>(f.config.num_layers) * 4);
  EXPECT_EQ(engine->device().stats().graph_launches.load(), 0);
}

TEST(HybridEngineTest, NumaModesAgreeFunctionally) {
  EngineFixture f(TinyMoeConfig());
  EngineOptions tp;
  tp.numa_mode = NumaMode::kTensorParallel;
  EngineOptions flat;
  flat.numa_mode = NumaMode::kNaiveInterleaved;
  auto a = f.MakeEngine(tp);
  auto b = f.MakeEngine(flat);
  const std::vector<int> prompt{4, 5, 6, 7};
  const Tensor la = a->Prefill(prompt);
  const Tensor lb = b->Prefill(prompt);
  EXPECT_LT(RelativeError(la, lb), 5e-3f);
}

TEST(HybridEngineTest, FlatNumaModesAndOneShardAreBitIdentical) {
  // Single-socket, naive-interleaved and expert-parallel placements run the
  // flat PackedExperts::Pack weights, which is PackShards(1); tensor
  // parallelism over one shard runs PackShards(1) too. So all four are one
  // code path and their logits match bit for bit, eager or graph-replayed.
  EngineFixture f(TinyMoeConfig());
  const std::vector<int> prompt{4, 5, 6, 7};
  const std::vector<int> tokens{11, 22, 33};
  std::vector<Tensor> want;  // prefill logits, then one per decode token
  for (const bool graph : {true, false}) {
    for (const NumaMode mode : {NumaMode::kSingleSocket, NumaMode::kNaiveInterleaved,
                                NumaMode::kExpertParallel, NumaMode::kTensorParallel}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) + " graph " +
                   std::to_string(graph));
      EngineOptions opts;
      opts.numa_mode = mode;
      opts.numa_shards = 1;
      opts.use_cuda_graph = graph;
      auto engine = f.MakeEngine(opts);
      std::vector<Tensor> got{engine->Prefill(prompt)};
      for (const int t : tokens) {
        got.push_back(engine->DecodeStep(t));
      }
      if (want.empty()) {
        want = std::move(got);
        continue;
      }
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].byte_size(), want[i].byte_size());
        EXPECT_EQ(std::memcmp(got[i].f32(), want[i].f32(), want[i].byte_size()), 0)
            << (i == 0 ? "prefill" : "decode step " + std::to_string(i));
      }
    }
  }
}

TEST(HybridEngineTest, QuantizedEnginesTrackReference) {
  EngineFixture f(TinyMoeConfig());
  RefModel ref = f.MakeRef();
  const std::vector<int> prompt{3, 14, 15, 9};
  KvCache cache(f.config);
  const Tensor ref_logits = ref.Forward(prompt, &cache).Slice(3, 1).Clone();

  for (DType dtype : {DType::kI8, DType::kI4}) {
    EngineOptions opts;
    opts.cpu_weight_dtype = dtype;
    auto engine = f.MakeEngine(opts);
    const Tensor logits = engine->Prefill(prompt);
    const float tol = dtype == DType::kI8 ? 0.08f : 0.35f;
    EXPECT_LT(RelativeError(logits, ref_logits), tol) << DTypeName(dtype);
    EXPECT_GT(CosineSimilarity(logits, ref_logits), dtype == DType::kI8 ? 0.999 : 0.97);
  }
}

TEST(HybridEngineTest, GreedyGenerationMatchesReference) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  RefModel ref = f.MakeRef();
  const std::vector<int> prompt{3, 1, 4, 1, 5};
  const std::vector<int> engine_tokens = engine->GenerateGreedy(prompt, 6);
  const std::vector<int> ref_tokens = ref.GenerateGreedy(prompt, 6);
  // bf16 expert weights can flip near-tie argmaxes; require strong agreement.
  int agree = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    agree += engine_tokens[i] == ref_tokens[i] ? 1 : 0;
  }
  EXPECT_GE(agree, 5) << "engine/reference token disagreement too high";
}

TEST(HybridEngineTest, ResetAllowsFreshSession) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{8, 9, 10};
  const Tensor first = engine->Prefill(prompt);
  engine->DecodeStep(11);
  engine->Reset();
  EXPECT_EQ(engine->position(), 0);
  const Tensor second = engine->Prefill(prompt);
  EXPECT_EQ(MaxAbsDiff(first, second), 0.0f);
}

TEST(HybridEngineTest, CountersTrackActivity) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  engine->Prefill({1, 2, 3, 4});
  engine->DecodeStep(5);
  engine->DecodeStep(6);
  EXPECT_EQ(engine->counters().prefill_tokens, 4);
  EXPECT_EQ(engine->counters().decode_steps, 2);
  // 2 MoE layers per pass, 1 request each (no deferral): 3 passes total.
  EXPECT_EQ(engine->counters().moe_requests,
            static_cast<std::int64_t>(f.config.num_moe_layers()) * 3);
  const MoeStats stats = engine->moe_stats();
  EXPECT_GT(stats.useful_flops, 0.0);
}


TEST(HybridEngineTest, SetDeferralRetunesAndRecaptures) {
  EngineFixture f(TinyMlaConfig());
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{5, 6, 7};
  engine->Prefill(prompt);
  engine->DecodeStep(9);  // captures the d=0 graph

  engine->SetDeferral(2);
  const Tensor retuned = engine->DecodeStep(10);

  // The recaptured graph must match eager execution of the identical history
  // (d=0 for step 9, then d=2 for step 10).
  EngineOptions eager;
  eager.use_cuda_graph = false;
  auto witness = f.MakeEngine(eager);
  witness->Prefill(prompt);
  witness->DecodeStep(9);
  witness->SetDeferral(2);
  EXPECT_EQ(MaxAbsDiff(retuned, witness->DecodeStep(10)), 0.0f);
  // Retuning changed the model: step 10 differs from a d=0 continuation.
  auto unchanged = f.MakeEngine();
  unchanged->Prefill(prompt);
  unchanged->DecodeStep(9);
  EXPECT_GT(MaxAbsDiff(retuned, unchanged->DecodeStep(10)), 1e-6f);
  // Graph replays continue after the re-capture.
  engine->DecodeStep(11);
  EXPECT_EQ(engine->device().stats().graph_launches.load(), 3);
}

TEST(HybridEngineTest, RejectsExcessiveDeferral) {
  EngineFixture f(TinyMoeConfig());  // top_k = 3
  EngineOptions opts;
  opts.n_deferred = 2;  // would leave only 1 immediate expert
  EXPECT_DEATH({ auto engine = f.MakeEngine(opts); }, "immediate");
}

TEST(AsyncServiceTest, RequestsCompleteInFifoOrder) {
  // Build a minimal NumaMoe and verify FIFO completion — the property the
  // deferral sync protocol depends on.
  Rng rng(5);
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  for (int e = 0; e < 4; ++e) {
    gate.push_back(Tensor::Randn({32, 32}, rng, 0.3f));
    up.push_back(Tensor::Randn({32, 32}, rng, 0.3f));
    down.push_back(Tensor::Randn({32, 32}, rng, 0.3f));
  }
  auto packed = PackedExperts::Pack(gate, up, down, DType::kBF16);
  ASSERT_TRUE(packed.ok());
  ThreadPool pool(2);
  NumaMoe::Options nopts;
  nopts.mode = NumaMode::kNaiveInterleaved;
  auto moe = std::make_shared<const NumaMoe>(
      std::make_shared<const PackedExperts>(std::move(*packed)), nullptr, &pool, nopts);
  AsyncMoeService service(moe);

  Tensor x = Tensor::Randn({2, 32}, rng);
  MoeRouting routing;
  routing.tokens = 2;
  routing.top_k = 2;
  routing.expert_ids = {0, 1, 2, 3};
  routing.weights = {0.5f, 0.5f, 0.5f, 0.5f};
  Tensor y1({2, 32}, DType::kF32);
  Tensor y2({2, 32}, DType::kF32);

  MoeRequest r1;
  r1.x = x.f32();
  r1.tokens = 2;
  r1.routing = &routing;
  r1.slot_begin = 0;
  r1.slot_end = 1;
  r1.y = y1.f32();
  MoeRequest r2 = {};
  r2.x = x.f32();
  r2.tokens = 2;
  r2.routing = &routing;
  r2.slot_begin = 1;
  r2.slot_end = 2;
  r2.y = y2.f32();

  service.Submit(&r1);
  service.Submit(&r2);
  r2.Wait();
  // FIFO: r2 done implies r1 done.
  EXPECT_TRUE(r1.done.load());
  EXPECT_EQ(service.completed(), 2);

  // Combined result equals a single all-slot forward.
  Tensor both({2, 32}, DType::kF32);
  moe->Forward(x.f32(), 2, routing, 0, 2, both.f32());
  AddInPlace(y1.f32(), y2.f32(), y1.numel());
  EXPECT_LT(MaxAbsDiff(y1, both), 1e-4f);
}

TEST(EngineLifecycleTest, DecodeToExactlyMaxSeqThenOnePast) {
  // The KV cache holds max_seq positions; decoding may fill the very last one
  // but the step after that must come back as a recoverable error, with the
  // session position untouched.
  MoeModelConfig config = TinyMoeConfig();
  config.max_seq = 8;
  EngineFixture f(config);
  auto engine = f.MakeEngine();
  const std::vector<int> prompt{3, 1, 4, 1};
  auto prefill = engine->TryPrefill(0, prompt);
  ASSERT_TRUE(prefill.ok()) << prefill.status().ToString();
  int token = ArgmaxLastToken(*prefill);

  // Positions 4..7: exactly four more decode steps fit.
  for (int step = 0; step < 4; ++step) {
    ASSERT_EQ(engine->KvRemaining(0), 4 - step);
    auto logits = engine->TryDecodeBatch({SessionToken{0, token}});
    ASSERT_TRUE(logits.ok()) << "step " << step << ": " << logits.status().ToString();
    token = ArgmaxLastToken(*logits);
  }
  EXPECT_EQ(engine->position(0), 8);
  EXPECT_EQ(engine->KvRemaining(0), 0);

  // One past: recoverable kResourceExhausted, no state change, engine alive.
  auto over = engine->TryDecodeBatch({SessionToken{0, token}});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->position(0), 8);

  // Reset reclaims the space and the session decodes again.
  engine->Reset(0);
  auto again = engine->TryPrefill(0, prompt);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

TEST(EngineLifecycleTest, TryPrefillValidatesUntrustedInput) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();

  EXPECT_EQ(engine->TryPrefill(5, {1, 2}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->TryPrefill(-1, {1, 2}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->TryPrefill(0, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->TryPrefill(0, {1, static_cast<int>(f.config.vocab)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->TryPrefill(0, {1, -7}).status().code(), StatusCode::kInvalidArgument);

  const std::vector<int> too_long(static_cast<std::size_t>(f.config.max_seq) + 1, 1);
  auto oversize = engine->TryPrefill(0, too_long);
  ASSERT_FALSE(oversize.ok());
  EXPECT_EQ(oversize.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->position(0), 0);  // nothing was admitted into the cache

  auto good = engine->TryPrefill(0, {1, 2, 3});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(engine->position(0), 3);
}

TEST(EngineLifecycleTest, TryDecodeBatchValidatesUntrustedInput) {
  EngineFixture f(TinyMoeConfig());
  EngineOptions opts;
  opts.max_batch = 2;
  auto engine = f.MakeEngine(opts);
  const int s1 = engine->CreateSession();
  ASSERT_TRUE(engine->TryPrefill(0, {1, 2}).ok());
  ASSERT_TRUE(engine->TryPrefill(s1, {3, 4}).ok());

  EXPECT_EQ(engine->TryDecodeBatch({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                ->TryDecodeBatch(
                    {SessionToken{0, 1}, SessionToken{s1, 2}, SessionToken{0, 3}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // wider than max_batch
  EXPECT_EQ(engine->TryDecodeBatch({SessionToken{0, 1}, SessionToken{0, 2}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // duplicate session
  EXPECT_EQ(engine->TryDecodeBatch({SessionToken{9, 1}}).status().code(),
            StatusCode::kInvalidArgument);  // unknown session
  EXPECT_EQ(engine->TryDecodeBatch({SessionToken{0, -3}}).status().code(),
            StatusCode::kInvalidArgument);  // token outside vocab

  // Error paths left every position untouched; a valid batch still works.
  EXPECT_EQ(engine->position(0), 2);
  EXPECT_EQ(engine->position(s1), 2);
  auto ok = engine->TryDecodeBatch({SessionToken{0, 1}, SessionToken{s1, 2}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(engine->position(0), 3);
}

TEST(EngineLifecycleTest, SessionPoolBoundIsRecoverable) {
  EngineFixture f(TinyMoeConfig());
  EngineOptions opts;
  opts.max_sessions = 2;
  auto engine = f.MakeEngine(opts);
  auto s1 = engine->TryCreateSession();
  ASSERT_TRUE(s1.ok());
  auto s2 = engine->TryCreateSession();
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->num_sessions(), 2);
}

TEST(EngineLifecycleTest, BackendFaultHooksPropagateAsStatus) {
  EngineFixture f(TinyMoeConfig());
  auto engine = f.MakeEngine();
  ASSERT_TRUE(engine->TryPrefill(0, {1, 2}).ok());

  // Device-wide fault: the next Try step fails whole, then the hook is clear.
  engine->InjectBackendFault(InternalError("vcuda wedged"));
  auto faulted = engine->TryDecodeBatch({SessionToken{0, 1}});
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine->position(0), 2);  // no state mutated
  auto recovered = engine->TryDecodeBatch({SessionToken{0, 1}});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Thread-pool fault: surfaces through the same TakeBackendFault boundary.
  engine->cpu_pool().InjectFault(InternalError("worker died"));
  auto pool_fault = engine->TryDecodeBatch({SessionToken{0, 2}});
  ASSERT_FALSE(pool_fault.ok());
  EXPECT_EQ(pool_fault.status().code(), StatusCode::kInternal);
  auto after = engine->TryDecodeBatch({SessionToken{0, 2}});
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  // Session-attributed faults only fire for their session, and only once.
  const int other = engine->CreateSession();
  engine->InjectSessionFault(other, InternalError("row fault"));
  EXPECT_TRUE(engine->TakeSessionFault(0).ok());
  auto row = engine->TakeSessionFault(other);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.code(), StatusCode::kInternal);
  EXPECT_TRUE(engine->TakeSessionFault(other).ok());  // consumed
}

TEST(HybridEngineTest, KernelCalibrationProfileRoundTripsAcrossRestarts) {
  // The serving-restart contract: the first engine start with calibration on
  // runs the microbenchmark and writes the profile; the second start loads it
  // with ZERO microbenchmark work; a corrupted profile recalibrates instead of
  // aborting. Because every variant is bit-identical, calibrated dispatch must
  // not change a single logit versus the fixed-threshold engine.
  const std::string path = "engine_kernel_profile_test.json";
  std::remove(path.c_str());
  EngineFixture f(TinyMoeConfig());
  const std::vector<int> prompt{3, 1, 4, 1, 5};

  EngineOptions base;
  auto plain = f.MakeEngine(base);
  plain->Prefill(prompt);
  const Tensor reference = plain->DecodeStep(9);

  EngineOptions cal = base;
  cal.calibrate_kernels = true;
  cal.kernel_profile_path = path;
  auto first = f.MakeEngine(cal);
  EXPECT_FALSE(first->kernel_calibration().from_cache);
  EXPECT_GT(first->kernel_calibration().microbench_samples, 0);
  EXPECT_FALSE(first->kernel_calibration().table.empty());
  first->Prefill(prompt);
  EXPECT_EQ(MaxAbsDiff(first->DecodeStep(9), reference), 0.0f)
      << "calibrated dispatch changed logits";

  // Restart: the cached profile satisfies the request outright.
  auto second = f.MakeEngine(cal);
  EXPECT_TRUE(second->kernel_calibration().from_cache);
  EXPECT_EQ(second->kernel_calibration().microbench_samples, 0);
  second->Prefill(prompt);
  EXPECT_EQ(MaxAbsDiff(second->DecodeStep(9), reference), 0.0f);

  // Corrupt profile: logged warning + recalibration, never an abort.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{ not json";
  }
  auto third = f.MakeEngine(cal);
  EXPECT_FALSE(third->kernel_calibration().from_cache);
  EXPECT_GT(third->kernel_calibration().microbench_samples, 0);
  third->Prefill(prompt);
  EXPECT_EQ(MaxAbsDiff(third->DecodeStep(9), reference), 0.0f);
  std::remove(path.c_str());
}

// Teacher-forced decode with every routed expert packed at 4 bits on the CPU
// stays inside the documented fidelity budget (INTERNALS.md §10) against the
// f32 CPU experts.
TEST(HybridEngineTest, I4CpuExpertLogitErrorBounded) {
  EngineFixture f(TinyMoeConfig(), 91);
  EngineOptions base;
  base.cpu_weight_dtype = DType::kF32;
  EngineOptions quant = base;
  quant.cpu_weight_dtype = DType::kI4;

  auto a = f.MakeEngine(base);
  auto b = f.MakeEngine(quant);
  const std::vector<int> prompt = ktx_bench::RandomPrompt(f.config, 8, 5);
  a->Prefill(prompt);
  b->Prefill(prompt);

  const std::vector<int> forced = ktx_bench::RandomPrompt(f.config, 32, 7);
  const auto steps = static_cast<std::int64_t>(forced.size());
  Tensor la({steps, f.config.vocab}, DType::kF32);
  Tensor lb({steps, f.config.vocab}, DType::kF32);
  for (std::int64_t i = 0; i < steps; ++i) {
    const Tensor ra = a->DecodeStep(forced[static_cast<std::size_t>(i)]);
    const Tensor rb = b->DecodeStep(forced[static_cast<std::size_t>(i)]);
    std::memcpy(la.f32() + i * f.config.vocab, ra.f32(),
                sizeof(float) * static_cast<std::size_t>(f.config.vocab));
    std::memcpy(lb.f32() + i * f.config.vocab, rb.f32(),
                sizeof(float) * static_cast<std::size_t>(f.config.vocab));
  }
  const ktx_bench::Fidelity fid = ktx_bench::Compare(la, lb);
  // Budget: 4-bit symmetric group quantization of the expert weights keeps
  // relative logit error in the few-percent range and leaves confident
  // predictions essentially untouched on the seeded functional model.
  EXPECT_LT(fid.rel_error, 0.15);
  EXPECT_GT(fid.confident_agreement, 70.0);
  EXPECT_LT(fid.mean_kl, 0.5);
}

}  // namespace
}  // namespace ktx
