#include "src/core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/cpu/activation.h"
#include "src/model/attention.h"
#include "src/model/serialize.h"

namespace ktx {

// Working buffers for one in-flight forward pass. Decode keeps one instance
// alive across the whole session (the captured graph's kernels point into
// it); prefill builds a fresh instance per chunk.
struct HybridEngine::DecodeBuffers {
  std::int64_t m = 0;                 // row capacity
  std::vector<int> token_ids;         // slot: set before each replay
  std::atomic<std::int64_t> pos0{0};  // slot: start position, read at exec

  // Batched-decode slots: captured kernels read the live row count and the
  // per-row (cache, position) indirection at exec time, so batch membership
  // changes between replays without recapture.
  std::atomic<std::int64_t> active_m{1};
  std::vector<std::int64_t> row_pos;  // [m] absolute position per row
  std::vector<KvCache*> row_caches;   // [m] KV cache per row

  Tensor x;         // [m, hidden] residual stream
  Tensor normed;    // [m, hidden]
  Tensor attn_out;  // [m, hidden]
  // Parity-indexed buffers: the deferred request of MoE layer k still reads
  // ffn_in[k%2] and writes defer_out[k%2] while the GPU runs layer k+1, so
  // consecutive MoE layers must not share them. The FIFO completion order of
  // the CPU service guarantees parity-2 reuse is safe (see engine.h).
  Tensor ffn_in[2];       // I_k
  Tensor moe_cpu_out[2];  // immediate experts' output
  Tensor defer_out[2];    // deferred experts' output
  Tensor moe_gpu_out;     // shared experts / dense FFN output
  MoeRouting routing[2];
  Tensor logits;  // [m, vocab]

  // Hot-expert cache slots (sized only when placement is enabled): per
  // parity, served flags [m * top_k] and hot rows [planes][m * top_k, hidden]
  // the placement manager fills inside the submit callback. Parity-indexed
  // for the same reason as ffn_in: the deferred request of layer k still
  // reads them while layer k+1's submit refills the other parity.
  std::vector<std::uint8_t> hot_served[2];
  std::vector<float> hot_rows[2];
  HotSlots hot_view[2];

  // One immediate + one deferred request per layer index.
  std::vector<std::unique_ptr<MoeRequest>> imm_requests;
  std::vector<std::unique_ptr<MoeRequest>> def_requests;

  // Working memory of the vGPU kernels (one forward's kernels run one after
  // another, so one set serves every layer and pipeline stage).
  AttentionScratch attn_scratch;
  GatingScratch gating_scratch;
  FfnScratch ffn_scratch;

  // First attention failure of the in-flight step (KV overflow surfaced as a
  // Status instead of an abort). Kernels on different pipeline streams may
  // race to record; checked and cleared after SyncAllStreams, before any
  // position advances — so a failed step mutates no session accounting.
  std::mutex attn_mu;
  Status attn_status;
  void RecordAttnFailure(const Status& status) {
    std::lock_guard<std::mutex> lock(attn_mu);
    if (attn_status.ok()) {
      attn_status = status;
    }
  }
  Status TakeAttnStatus() {
    std::lock_guard<std::mutex> lock(attn_mu);
    Status status = attn_status;
    attn_status = Status();
    return status;
  }

  DecodeBuffers(const MoeModelConfig& config, std::int64_t tokens, int hot_planes = 0)
      : m(tokens) {
    if (hot_planes > 0) {
      const std::int64_t slots = tokens * config.top_k;
      for (int p = 0; p < 2; ++p) {
        hot_served[p].assign(static_cast<std::size_t>(slots), 0);
        hot_rows[p].assign(static_cast<std::size_t>(hot_planes * slots * config.hidden), 0.0f);
        hot_view[p].served = hot_served[p].data();
        hot_view[p].rows = hot_rows[p].data();
        hot_view[p].shard_stride = slots * config.hidden;
      }
    }
    token_ids.resize(static_cast<std::size_t>(tokens), 0);
    row_pos.resize(static_cast<std::size_t>(tokens), 0);
    row_caches.resize(static_cast<std::size_t>(tokens), nullptr);
    x = Tensor({tokens, config.hidden}, DType::kF32);
    normed = Tensor({tokens, config.hidden}, DType::kF32);
    attn_out = Tensor({tokens, config.hidden}, DType::kF32);
    for (int p = 0; p < 2; ++p) {
      ffn_in[p] = Tensor({tokens, config.hidden}, DType::kF32);
      moe_cpu_out[p] = Tensor({tokens, config.hidden}, DType::kF32);
      defer_out[p] = Tensor({tokens, config.hidden}, DType::kF32);
    }
    moe_gpu_out = Tensor({tokens, config.hidden}, DType::kF32);
    logits = Tensor({tokens, config.vocab}, DType::kF32);
    for (int l = 0; l < config.num_layers; ++l) {
      imm_requests.push_back(std::make_unique<MoeRequest>());
      def_requests.push_back(std::make_unique<MoeRequest>());
    }
  }
};

HybridEngine::HybridEngine(MoeModelConfig config, std::shared_ptr<const ModelWeights> weights,
                           EngineOptions options)
    : config_(std::move(config)), weights_(std::move(weights)), options_(options) {
  KTX_CHECK(weights_ != nullptr);
  KTX_CHECK_GE(options_.n_deferred, 0);
  // §4.2: keep at least 2 immediate experts for model stability.
  KTX_CHECK_LE(options_.n_deferred, config_.top_k - 2)
      << "Expert Deferral must leave >= 2 immediate experts";
  KTX_CHECK_GE(options_.pipeline_stages, 1);
  KTX_CHECK_LE(options_.pipeline_stages, config_.num_layers);
  KTX_CHECK_GE(options_.max_batch, 1);
  // Keep the fallback ARI kernel-kind dispatch batch-invariant on the decode
  // path: with top-1 routing a B-row batch can put up to B tokens on one
  // expert, so any threshold below max_batch would flip experts between
  // kernel kinds purely based on who shares the batch. All registered
  // variants are bit-identical (kernel_registry.h), so this flooring is about
  // deterministic dispatch, not numerics.
  options_.moe.ari_threshold =
      std::max(options_.moe.ari_threshold, static_cast<std::int64_t>(options_.max_batch));
  // Calibrated dispatch (§3.2 / Fig. 7, measured instead of assumed): run the
  // one-shot variant microbenchmark — or load its cached profile — and point
  // the MoE layers at the fitted crossover table. Safe to flip on freely:
  // variant choice can never change an output bit.
  if (options_.calibrate_kernels) {
    KernelCalibrationOptions cal;
    cal.profile_path = options_.kernel_profile_path;
    calibration_ = CalibrateOrLoad(cal);
    options_.moe.dispatch = &calibration_.table;
  }
  if (options_.pipeline_stages > 1) {
    // Cross-stream events cannot be captured into a graph (as in real CUDA).
    options_.use_cuda_graph = false;
  }
  if (options_.kv_pool_blocks != 0) {
    KvPoolOptions pool_opts;
    pool_opts.block_size = options_.kv_block_size;
    if (options_.kv_pool_blocks > 0) {
      pool_opts.num_blocks = options_.kv_pool_blocks;
    } else {
      // Auto-size: one full context per potential session — the contiguous
      // worst case in bytes, but committed lazily and shareable.
      const std::int64_t contexts =
          std::max<std::int64_t>(1, options_.max_sessions > 0 ? options_.max_sessions
                                                              : options_.max_batch);
      const std::int64_t per_context =
          (config_.max_seq + pool_opts.block_size - 1) / pool_opts.block_size;
      pool_opts.num_blocks = contexts * per_context;
    }
    kv_pool_ = std::make_unique<KvBlockPool>(config_, pool_opts);
  }
  sessions_.push_back(NewKvCache());
  active_cache_ = sessions_[0].get();
  for (int stage = 0; stage < options_.pipeline_stages; ++stage) {
    devices_.push_back(std::make_unique<VDevice>(options_.device));
    streams_.push_back(std::make_unique<VStream>(devices_.back().get()));
  }
  pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(options_.cpu_threads));
  // The vGPU plane's weights, packed once for the registry's f32 kernel; the
  // kernels run every projection over all live rows in one GEMM.
  packed_ = std::make_unique<const PackedModelWeights>(config_, *weights_,
                                                       ResolveProjectionVariant());
  BuildCpuExperts();
  service_ = std::make_unique<AsyncMoeService>(numa_moe_);
  // Pre-size the MoE forward workspaces at the decode shape so the steady
  // decode loop performs zero heap allocations from the first token.
  service_->Reserve(std::max<std::int64_t>(8, options_.max_batch), /*max_slots=*/config_.top_k);
  if (placement_ != nullptr) {
    placement_->Reserve(std::max<std::int64_t>(8, options_.max_batch), config_.top_k);
  }
}

std::unique_ptr<KvCache> HybridEngine::NewKvCache() const {
  return kv_pool_ != nullptr ? std::make_unique<KvCache>(config_, kv_pool_.get())
                             : std::make_unique<KvCache>(config_);
}

HybridEngine::~HybridEngine() {
  // The service must outlive nothing that still submits; streams first.
  streams_.clear();
  service_.reset();
}

int HybridEngine::StageOf(int layer) const {
  const int stages = static_cast<int>(devices_.size());
  const int per = (config_.num_layers + stages - 1) / stages;
  return layer / per;
}

void HybridEngine::SyncAllStreams() {
  for (auto& st : streams_) {
    st->Synchronize();
  }
}

void HybridEngine::ChainStreams(VStream* from, VStream* to) {
  // The §5 stage hand-off: the upstream device records an event after its
  // slice of the layer stack; the downstream stream's next op waits on it
  // (plus the activation transfer, counted against the downstream device).
  auto event = std::make_shared<VEvent>();
  from->RecordEvent(event.get());
  to->MemcpyAsync([event] { event->Wait(); },
                  static_cast<std::int64_t>(config_.hidden) * 4, MemcpyDir::kDeviceToDevice);
}

void HybridEngine::BuildCpuExperts() {
  // Collect the per-layer routed experts and pack them for the CPU backend.
  // One NumaMoe per layer would duplicate machinery; instead experts of all
  // layers are packed into one table with per-layer id offsets.
  const int experts_per_layer = config_.num_experts;
  std::vector<Tensor> gate;
  std::vector<Tensor> up;
  std::vector<Tensor> down;
  for (int l = config_.first_dense_layers; l < config_.num_layers; ++l) {
    const LayerWeights* lw = &weights_->layers[static_cast<std::size_t>(l)];
    for (int e = 0; e < experts_per_layer; ++e) {
      gate.push_back(lw->expert_gate[static_cast<std::size_t>(e)]);
      up.push_back(lw->expert_up[static_cast<std::size_t>(e)]);
      down.push_back(lw->expert_down[static_cast<std::size_t>(e)]);
    }
  }
  // With placement enabled the CPU table holds the COLD experts' precision
  // (default kI4: the fused dequantize-into-GEMM path streams ~4x fewer
  // weight bytes than f32); hot experts are packed separately below.
  const DType cold_dtype =
      options_.placement.enabled ? options_.placement.cold_dtype : options_.cpu_weight_dtype;
  NumaMoe::Options moe_opts;
  moe_opts.moe = options_.moe;
  moe_opts.mode = options_.numa_mode;
  if (options_.numa_mode == NumaMode::kTensorParallel) {
    auto tp = TpExperts::Build(gate, up, down, cold_dtype, options_.numa_shards);
    KTX_CHECK(tp.ok()) << tp.status().ToString();
    numa_moe_ = std::make_shared<const NumaMoe>(
        nullptr, std::make_shared<const TpExperts>(std::move(*tp)), pool_.get(), moe_opts);
  } else {
    auto flat = PackedExperts::Pack(gate, up, down, cold_dtype);
    KTX_CHECK(flat.ok()) << flat.status().ToString();
    numa_moe_ = std::make_shared<const NumaMoe>(
        std::make_shared<const PackedExperts>(std::move(*flat)), nullptr, pool_.get(),
        moe_opts);
  }
  if (options_.placement.enabled) {
    // Hot staging defaults to cpu_weight_dtype: with cold_dtype matching it,
    // enabling the cache is then bit-identical to the unplaced baseline.
    const DType hot_dtype = options_.placement.hot_dtype.value_or(options_.cpu_weight_dtype);
    placement_ = std::make_unique<ExpertPlacementManager>(
        gate, up, down, hot_dtype, cold_dtype, options_.numa_mode, options_.numa_shards,
        options_.moe, devices_[0].get(), options_.placement);
  }
}

void HybridEngine::EnqueueForward(DecodeBuffers* bufs, std::int64_t m, bool allow_deferral,
                                  bool batched) {
  const std::int64_t hidden = config_.hidden;
  const int n_def = allow_deferral ? options_.n_deferred : 0;
  const int last_layer = config_.num_layers - 1;
  const int first_moe = config_.first_dense_layers;
  VStream* stream = streams_[0].get();

  // In batched mode the row count is a slot, not a capture constant: every
  // kernel reads it at exec time so one captured graph serves any occupancy
  // up to the buffer capacity `m`.
  auto live = [bufs, m, batched] {
    return batched ? bufs->active_m.load(std::memory_order_relaxed) : m;
  };

  // Embedding lookup (stage 0).
  stream->Launch(KernelDesc{
      "embed",
      [this, bufs, live] {
        const std::int64_t rows = live();
        for (std::int64_t t = 0; t < rows; ++t) {
          std::memcpy(bufs->x.f32() + t * config_.hidden,
                      weights_->embedding.f32() +
                          static_cast<std::int64_t>(bufs->token_ids[static_cast<std::size_t>(t)]) *
                              config_.hidden,
                      static_cast<std::size_t>(config_.hidden) * sizeof(float));
        }
      },
      0.0, 0.0, options_.gpu_micro_per_op});

  for (int l = 0; l < config_.num_layers; ++l) {
    const LayerWeights* lw = &weights_->layers[static_cast<std::size_t>(l)];
    const PackedModelWeights::Layer* pw = &packed_->layer(l);
    const bool moe_layer = config_.is_moe_layer(l);
    const int p = moe_layer ? (l - first_moe) % 2 : 0;
    VStream* layer_stream = StreamOf(l);
    if (layer_stream != stream) {
      ChainStreams(stream, layer_stream);
      stream = layer_stream;
    }

    stream->Launch(KernelDesc{
        "attn_norm",
        [this, bufs, lw, live] {
          const std::int64_t rows = live();
          for (std::int64_t t = 0; t < rows; ++t) {
            RmsNorm(bufs->x.f32() + t * config_.hidden, lw->attn_norm.f32(),
                    bufs->normed.f32() + t * config_.hidden, config_.hidden);
          }
        },
        0.0, 0.0, options_.gpu_micro_per_op});
    stream->Launch(KernelDesc{
        "attention",
        [this, bufs, pw, l, live, batched] {
          const std::int64_t rows = live();
          Status status;
          if (batched) {
            // Each row is an independent single-token stream against its own
            // KV cache — exactly the sequential m=1 math per row. The layer
            // views (block-table indirection included) are built inside the
            // call, at exec time, so a growing table never recaptures.
            status = AttentionDecodeBatch(config_, pw->attn, bufs->normed.f32(), rows,
                                          bufs->row_pos.data(), bufs->row_caches.data(), l,
                                          &bufs->attn_scratch, bufs->attn_out.f32());
          } else {
            const std::int64_t pos = bufs->pos0.load(std::memory_order_relaxed);
            status = AttentionForward(config_, pw->attn, bufs->normed.f32(), rows, pos,
                                      active_cache_->layer(l), &bufs->attn_scratch,
                                      bufs->attn_out.f32());
          }
          if (!status.ok()) {
            // KV overflow is recoverable: record it for the post-sync check
            // and let the rest of the (discarded) step run through.
            bufs->RecordAttnFailure(status);
            return;
          }
          AddInPlace(bufs->x.f32(), bufs->attn_out.f32(), rows * config_.hidden);
        },
        0.0, 0.0, options_.gpu_micro_per_op});

    // FFN norm writes I_k into the parity buffer for MoE layers.
    float* ffn_in = moe_layer ? bufs->ffn_in[p].f32() : bufs->normed.f32();
    stream->Launch(KernelDesc{
        "ffn_norm",
        [this, bufs, lw, ffn_in, live] {
          const std::int64_t rows = live();
          for (std::int64_t t = 0; t < rows; ++t) {
            RmsNorm(bufs->x.f32() + t * config_.hidden, lw->ffn_norm.f32(),
                    ffn_in + t * config_.hidden, config_.hidden);
          }
        },
        0.0, 0.0, options_.gpu_micro_per_op});

    if (!moe_layer) {
      stream->Launch(KernelDesc{
          "dense_ffn",
          [this, bufs, pw, ffn_in, live] {
            DenseFfnAdd(pw->ffn_gate, pw->ffn_up, pw->ffn_down, ffn_in, live(), config_.hidden,
                        &bufs->ffn_scratch, bufs->x.f32());
          },
          0.0, 0.0, options_.gpu_micro_per_op});
      continue;
    }

    // --- MoE layer -----------------------------------------------------------
    const bool is_last = l == last_layer;
    const int immediate_end = (n_def > 0 && !is_last) ? config_.top_k - n_def : config_.top_k;
    const int expert_base = (l - first_moe) * config_.num_experts;

    stream->Launch(KernelDesc{
        "gating",
        [this, bufs, lw, pw, p, ffn_in, live] {
          ComputeRouting(config_, pw->router, lw->router_bias, ffn_in, live(),
                         &bufs->gating_scratch, &bufs->routing[p]);
        },
        0.0, 0.0, options_.gpu_micro_per_op});

    // Submit: push immediate (and deferred) routed-expert work to the CPU.
    // One request covers the whole row batch — this is the amortization a
    // batched step buys: submit/sync overhead per iteration, not per row.
    MoeRequest* imm = bufs->imm_requests[static_cast<std::size_t>(l)].get();
    MoeRequest* def = bufs->def_requests[static_cast<std::size_t>(l)].get();
    stream->LaunchHostFunc([this, bufs, p, l, ffn_in, imm, def, immediate_end,
                             expert_base, hidden, live, batched] {
      const std::int64_t rows = live();
      // Routing ids are per-layer; offset them into the packed global table.
      // Routing is recomputed by the gating kernel on every (re)play, so the
      // per-layer ids are always fresh in [0, num_experts) here.
      MoeRouting& routing = bufs->routing[p];
      if (options_.profiler != nullptr) {
        options_.profiler->Record(l - config_.first_dense_layers, routing, 0, routing.top_k);
      }
      for (int& id : routing.expert_ids) {
        id += expert_base;
      }
      // Expert placement: popularity feeds the EMA from every pass; serving
      // from the vGPU-resident cache is decode-only (batched). ServeHot runs
      // per request window so the per-window expert grouping — and the ARI
      // kernel-kind it implies — matches the CPU operator's. All of this
      // happens at exec time behind slot indirection (imm/def->hot), so
      // promotions and demotions never invalidate the captured graph.
      const HotSlots* hot = nullptr;
      if (placement_ != nullptr) {
        placement_->Record(routing);
        if (batched) {
          std::memset(bufs->hot_served[p].data(), 0,
                      static_cast<std::size_t>(rows * routing.top_k));
          placement_->ServeHot(ffn_in, rows, routing, 0, immediate_end,
                               bufs->hot_served[p].data(), bufs->hot_rows[p].data(),
                               bufs->hot_view[p].shard_stride);
          if (immediate_end < config_.top_k) {
            placement_->ServeHot(ffn_in, rows, routing, immediate_end, config_.top_k,
                                 bufs->hot_served[p].data(), bufs->hot_rows[p].data(),
                                 bufs->hot_view[p].shard_stride);
          }
          hot = &bufs->hot_view[p];
        }
      }
      std::memset(bufs->moe_cpu_out[p].f32(), 0,
                  static_cast<std::size_t>(rows * hidden) * sizeof(float));
      imm->Reset();
      imm->x = ffn_in;
      imm->tokens = rows;
      imm->routing = &routing;
      imm->slot_begin = 0;
      imm->slot_end = immediate_end;
      imm->y = bufs->moe_cpu_out[p].f32();
      imm->hot = hot;
      service_->Submit(imm);
      ++counters_.moe_requests;
      if (immediate_end < config_.top_k) {
        std::memset(bufs->defer_out[p].f32(), 0,
                    static_cast<std::size_t>(rows * hidden) * sizeof(float));
        def->Reset();
        def->x = ffn_in;
        def->tokens = rows;
        def->routing = &routing;
        def->slot_begin = immediate_end;
        def->slot_end = config_.top_k;
        def->y = bufs->defer_out[p].f32();
        def->hot = hot;
        service_->Submit(def);
        ++counters_.moe_requests;
      }
    });

    if (!options_.async_overlap) {
      // Baseline semantics: block on the CPU before anything else runs on the
      // GPU — the synchronous round-trip of Fig. 1b-style systems.
      stream->LaunchHostFunc([imm, l] { imm->SyncWait(l); });
    }

    // Shared experts run on the GPU, overlapping the CPU's immediate batch.
    stream->Launch(KernelDesc{
        "shared_experts",
        [this, bufs, pw, ffn_in, live] {
          const std::int64_t rows = live();
          std::memset(bufs->moe_gpu_out.f32(), 0,
                      static_cast<std::size_t>(rows * config_.hidden) * sizeof(float));
          if (config_.n_shared_experts > 0) {
            DenseFfnAdd(pw->ffn_gate, pw->ffn_up, pw->ffn_down, ffn_in, rows, config_.hidden,
                        &bufs->ffn_scratch, bufs->moe_gpu_out.f32());
          }
        },
        0.0, 0.0, options_.gpu_micro_per_op});

    // Sync: wait for the immediate batch. FIFO completion implies the
    // previous layer's deferred batch is also done.
    if (options_.async_overlap) {
      stream->LaunchHostFunc([imm, l] { imm->SyncWait(l); });
    }

    // Merge: O_k = I_k(residual, already in x) + S_k + R_k^imm + R_{k-1}^def.
    const bool has_prev_def = n_def > 0 && l > first_moe;
    stream->Launch(KernelDesc{
        "merge",
        [this, bufs, p, has_prev_def, live] {
          const std::int64_t rows = live();
          AddInPlace(bufs->x.f32(), bufs->moe_gpu_out.f32(), rows * config_.hidden);
          AddInPlace(bufs->x.f32(), bufs->moe_cpu_out[p].f32(), rows * config_.hidden);
          if (has_prev_def) {
            AddInPlace(bufs->x.f32(), bufs->defer_out[1 - p].f32(), rows * config_.hidden);
          }
        },
        0.0, 0.0, options_.gpu_micro_per_op});
  }

  stream->Launch(KernelDesc{
      "final_norm_lm_head",
      [this, bufs, live] {
        const std::int64_t rows = live();
        for (std::int64_t t = 0; t < rows; ++t) {
          RmsNorm(bufs->x.f32() + t * config_.hidden, weights_->final_norm.f32(),
                  bufs->normed.f32() + t * config_.hidden, config_.hidden);
        }
        packed_->lm_head().Apply(bufs->normed.f32(), rows, config_.hidden, bufs->logits.f32(),
                                 config_.vocab);
      },
      0.0, 0.0, options_.gpu_micro_per_op});
}

Tensor HybridEngine::Prefill(int session, const std::vector<int>& tokens) {
  // Single-shot prefill is the cursor loop driven to completion in one call;
  // sharing StartPrefill + PrefillChunk keeps the chunk boundaries (and
  // therefore the bits) identical between the two entry points by
  // construction — and gives the unchecked path prefix-cache reuse too.
  sessions_.at(static_cast<std::size_t>(session));  // unchecked contract: throws
  auto cursor = StartPrefill(session, tokens);
  KTX_CHECK(cursor.ok()) << cursor.status().ToString();
  while (!cursor->done()) {
    auto advanced = PrefillChunk(&*cursor);
    KTX_CHECK(advanced.ok()) << "KV cache overflow: " << advanced.status().ToString();
  }
  return cursor->last_logits_;
}

StatusOr<std::int64_t> HybridEngine::PrefillChunk(PrefillCursor* cursor) {
  KvCache* cache = sessions_.at(static_cast<std::size_t>(cursor->session_)).get();
  active_cache_ = cache;
  const std::int64_t m = std::min<std::int64_t>(options_.prefill_chunk,
                                                cursor->remaining_tokens());
  KTX_CHECK_GE(m, 1);
  KTX_TRACE_SPAN_ARG("engine", "prefill_chunk", "tokens", m);
  // StartPrefill reserved every block the prompt needs; this is a no-op
  // unless the caller decoded this session mid-cursor (then it may COW or
  // allocate — or fail recoverably, leaving the cursor resumable).
  KTX_RETURN_IF_ERROR(cache->PrepareAppend(m).WithContext("prefill chunk"));
  DecodeBuffers bufs(config_, m);
  for (std::int64_t t = 0; t < m; ++t) {
    bufs.token_ids[static_cast<std::size_t>(t)] =
        cursor->tokens_[cursor->offset_ + static_cast<std::size_t>(t)];
  }
  bufs.pos0.store(cache->position());
  // Deferral is disabled in prefill (§4.1: prefill's expert coverage would
  // double the memory footprint).
  EnqueueForward(&bufs, m, /*allow_deferral=*/false, /*batched=*/false);
  SyncAllStreams();
  KTX_RETURN_IF_ERROR(bufs.TakeAttnStatus().WithContext("prefill chunk"));
  cache->Advance(m);
  counters_.prefill_tokens += m;
  cursor->offset_ += static_cast<std::size_t>(m);
  // Publish every newly-completed full prompt block to the pool's prefix
  // cache (hash chain indexes == block-table indexes: hashes are only
  // computed for prompts that started at position 0).
  if (kv_pool_ != nullptr && options_.enable_prefix_cache) {
    const std::int64_t bs = kv_pool_->block_size();
    while (cursor->registered_blocks_ <
               static_cast<std::int64_t>(cursor->block_hashes_.size()) &&
           (cursor->registered_blocks_ + 1) * bs <= cache->position()) {
      const auto b = static_cast<std::size_t>(cursor->registered_blocks_);
      kv_pool_->RegisterPrefix(cursor->block_hashes_[b], cache->block_table()[b]);
      ++cursor->registered_blocks_;
    }
  }
  cursor->last_logits_ = bufs.logits.Slice(m - 1, 1).Clone();
  return m;
}

Tensor HybridEngine::DecodeStep(int session, int token) {
  return DecodeBatch({SessionToken{session, token}});
}

void HybridEngine::EnsureDecodeCapacity(std::int64_t rows) {
  if (decode_bufs_ != nullptr && decode_bufs_->m >= rows) {
    return;
  }
  // The first batch wider than 1 jumps straight to max_batch: growth then
  // recaptures at most once, and later batches of any width up to max_batch
  // replay the same graph. Pure batch-1 decode keeps the minimal buffers.
  const std::int64_t capacity = rows <= 1 ? 1 : options_.max_batch;
  if (decode_bufs_ != nullptr) {
    // The old graph's kernels point into the old buffers; nothing may be in
    // flight when they are released, and the graph must never replay again.
    SyncAllStreams();
    decode_graph_ = VGraph();
    graph_ready_ = false;
  }
  decode_bufs_ = std::make_unique<DecodeBuffers>(
      config_, capacity, placement_ != nullptr ? placement_->planes() : 0);
  // Decode windows grow every step; reserving the longest one keeps the
  // attention kernel allocation-free for the session's whole life.
  decode_bufs_->attn_scratch.Reserve(config_, capacity, config_.max_seq);
}

Tensor HybridEngine::DecodeBatch(const std::vector<SessionToken>& batch) {
  auto logits = RunDecodeBatch(batch);
  KTX_CHECK(logits.ok()) << "KV cache overflow: " << logits.status().ToString();
  return *std::move(logits);
}

StatusOr<Tensor> HybridEngine::RunDecodeBatch(const std::vector<SessionToken>& batch) {
  const auto b = static_cast<std::int64_t>(batch.size());
  KTX_CHECK_GE(b, 1);
  KTX_TRACE_SPAN_ARG("engine", "decode_batch", "batch", b);
  KTX_CHECK_LE(b, options_.max_batch) << "DecodeBatch wider than EngineOptions::max_batch";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      KTX_CHECK(batch[i].session != batch[j].session)
          << "DecodeBatch rows must target distinct sessions";
    }
  }
  // Reserve each row's next KV row up front (paged: may COW a shared tail or
  // allocate a block). Failures are recoverable: no position has advanced and
  // no forward work has run.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    KvCache* cache = sessions_.at(static_cast<std::size_t>(batch[i].session)).get();
    KTX_RETURN_IF_ERROR(cache->PrepareAppend(1).WithContext(
        "decode row " + std::to_string(i) + " (session " +
        std::to_string(batch[i].session) + ")"));
  }
  EnsureDecodeCapacity(b);
  DecodeBuffers* bufs = decode_bufs_.get();
  for (std::int64_t r = 0; r < b; ++r) {
    KvCache* cache = sessions_.at(static_cast<std::size_t>(batch[static_cast<std::size_t>(r)].session)).get();
    bufs->token_ids[static_cast<std::size_t>(r)] = batch[static_cast<std::size_t>(r)].token;
    bufs->row_pos[static_cast<std::size_t>(r)] = cache->position();
    bufs->row_caches[static_cast<std::size_t>(r)] = cache;
  }
  bufs->active_m.store(b, std::memory_order_relaxed);
  active_cache_ = bufs->row_caches[0];

  if (options_.use_cuda_graph) {
    if (!graph_ready_) {
      // Capture once: the whole decode step, submit/sync callbacks included,
      // becomes a single replayable graph. Row count and per-row caches are
      // slots, so later batches of any width <= capacity reuse this graph.
      KTX_TRACE_SPAN_ARG("engine", "graph_capture", "batch", b);
      streams_[0]->BeginCapture();
      EnqueueForward(bufs, bufs->m, /*allow_deferral=*/true, /*batched=*/true);
      decode_graph_ = streams_[0]->EndCapture();
      graph_ready_ = true;
      ++counters_.graph_captures;
    }
    KTX_TRACE_SPAN_ARG("engine", "graph_replay", "batch", b);
    decode_graph_.Launch(streams_[0].get());
  } else {
    EnqueueForward(bufs, b, /*allow_deferral=*/true, /*batched=*/true);
  }
  SyncAllStreams();
  KTX_RETURN_IF_ERROR(bufs->TakeAttnStatus().WithContext("decode"));
  for (std::int64_t r = 0; r < b; ++r) {
    bufs->row_caches[static_cast<std::size_t>(r)]->Advance(1);
  }
  ++counters_.decode_steps;
  counters_.decode_tokens += b;
  counters_.max_decode_batch = std::max(counters_.max_decode_batch, b);
  // Rebalance the expert cache between steps: all streams are synced, so no
  // ServeHot is in flight and residency stays constant within a step.
  // Promotions issued here overlap the NEXT decode steps on the transfer
  // stream; kLoading experts keep falling back to the CPU until then.
  if (placement_ != nullptr) {
    placement_->MaybeRebalance();
  }
  return bufs->logits.Slice(0, b).Clone();
}

Tensor HybridEngine::VerifyStep(int session, const std::vector<int>& tokens) {
  KTX_CHECK(!tokens.empty());
  KvCache* cache = sessions_.at(static_cast<std::size_t>(session)).get();
  active_cache_ = cache;
  const std::int64_t m = static_cast<std::int64_t>(tokens.size());
  const Status prepared = cache->PrepareAppend(m);
  KTX_CHECK(prepared.ok()) << "KV cache overflow: " << prepared.ToString();
  DecodeBuffers bufs(config_, m);
  for (std::int64_t t = 0; t < m; ++t) {
    bufs.token_ids[static_cast<std::size_t>(t)] = tokens[static_cast<std::size_t>(t)];
  }
  bufs.pos0.store(cache->position());
  // Eager multi-token decode: shapes vary per call, so no graph; deferral
  // applies as in single-token decode.
  EnqueueForward(&bufs, m, /*allow_deferral=*/true, /*batched=*/false);
  SyncAllStreams();
  const Status attn = bufs.TakeAttnStatus();
  KTX_CHECK(attn.ok()) << "KV cache overflow: " << attn.ToString();
  cache->Advance(m);
  ++counters_.decode_steps;
  counters_.decode_tokens += m;
  return bufs.logits.Clone();
}

void HybridEngine::SetDeferral(int n_deferred) {
  KTX_CHECK_GE(n_deferred, 0);
  KTX_CHECK_LE(n_deferred, config_.top_k - 2)
      << "Expert Deferral must leave >= 2 immediate experts";
  if (n_deferred == options_.n_deferred) {
    return;
  }
  SyncAllStreams();  // nothing may reference the old graph's split
  options_.n_deferred = n_deferred;
  graph_ready_ = false;
  decode_graph_ = VGraph();
}

int HybridEngine::CreateSession() {
  auto session = TryCreateSession();
  KTX_CHECK(session.ok()) << session.status().ToString();
  return *session;
}

StatusOr<int> HybridEngine::TryCreateSession() {
  if (options_.max_sessions > 0 &&
      static_cast<int>(sessions_.size()) >= options_.max_sessions) {
    return ResourceExhaustedError("session pool exhausted: " +
                                  std::to_string(sessions_.size()) + " sessions at the " +
                                  "max_sessions=" + std::to_string(options_.max_sessions) +
                                  " bound");
  }
  sessions_.push_back(NewKvCache());
  return static_cast<int>(sessions_.size()) - 1;
}

StatusOr<int> HybridEngine::TryForkSession(int parent) {
  KTX_RETURN_IF_ERROR(ValidateSession(parent).WithContext("fork"));
  KTX_ASSIGN_OR_RETURN(const int child, TryCreateSession());
  const Status cloned =
      sessions_[static_cast<std::size_t>(child)]->CloneFrom(
          *sessions_[static_cast<std::size_t>(parent)]);
  KTX_CHECK(cloned.ok()) << cloned.ToString();  // same engine => same mode/pool
  return child;
}

Status HybridEngine::ValidateSession(int session) const {
  if (session < 0 || session >= static_cast<int>(sessions_.size())) {
    return InvalidArgumentError("session " + std::to_string(session) +
                                " out of range [0, " + std::to_string(sessions_.size()) + ")");
  }
  return OkStatus();
}

std::int64_t HybridEngine::KvRemaining(int session) const {
  const KvCache& cache = *sessions_.at(static_cast<std::size_t>(session));
  // No sentinel arithmetic: an unbounded cache simply has no limit to report.
  if (!cache.has_capacity_bound()) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return cache.remaining();
}

std::int64_t HybridEngine::KvBlocksNeeded(int session, std::int64_t tokens) const {
  return sessions_.at(static_cast<std::size_t>(session))->BlocksNeededFor(tokens);
}

StatusOr<std::string> HybridEngine::TrySaveKv(int session) const {
  KTX_RETURN_IF_ERROR(ValidateSession(session).WithContext("save_kv"));
  return SerializeKvState(config_, *sessions_[static_cast<std::size_t>(session)]);
}

std::int64_t HybridEngine::RegisterSessionPrefix(int session, const std::vector<int>& history) {
  if (kv_pool_ == nullptr || !options_.enable_prefix_cache) {
    return 0;
  }
  if (!ValidateSession(session).ok()) {
    return 0;
  }
  const KvCache& cache = *sessions_[static_cast<std::size_t>(session)];
  if (static_cast<std::int64_t>(history.size()) != cache.position()) {
    return 0;  // caller's token history does not describe this session's KV
  }
  const std::int64_t bs = kv_pool_->block_size();
  const std::vector<std::uint64_t> hashes = HashTokenBlocks(history, bs);
  const std::vector<std::int32_t>& table = cache.block_table();
  const auto n = static_cast<std::int64_t>(hashes.size());  // full blocks only
  for (std::int64_t b = 0; b < n; ++b) {
    kv_pool_->RegisterPrefix(hashes[b], table[static_cast<std::size_t>(b)]);
  }
  return n;
}

StatusOr<std::int64_t> HybridEngine::TryRestoreKv(int session, const std::vector<int>& history,
                                                  const std::string& blob) {
  KTX_RETURN_IF_ERROR(ValidateSession(session).WithContext("restore_kv"));
  KvCache& cache = *sessions_[static_cast<std::size_t>(session)];
  if (cache.position() != 0) {
    return FailedPreconditionError("restore_kv: session " + std::to_string(session) +
                                   " is not empty (position " +
                                   std::to_string(cache.position()) + ")");
  }
  // No chunk-grid flooring here (unlike StartPrefill): nothing is recomputed
  // after a restore, so any whole-block run of cached history is adoptable.
  std::int64_t adopted = 0;
  if (kv_pool_ != nullptr && options_.enable_prefix_cache && !history.empty()) {
    const std::vector<std::uint64_t> hashes = HashTokenBlocks(history, kv_pool_->block_size());
    const std::vector<std::int32_t> match = kv_pool_->MatchPrefix(hashes);
    if (!match.empty()) {
      adopted = static_cast<std::int64_t>(match.size()) * kv_pool_->block_size();
      cache.AdoptPrefix(match, adopted);
    }
  }
  const Status restored = DeserializeKvState(blob, config_, &cache, adopted);
  if (!restored.ok()) {
    cache.Reset();  // the session was empty: free the adoption + any partial blocks
    return restored.WithContext("restore_kv");
  }
  return adopted;
}

void HybridEngine::InjectSessionFault(int session, Status fault, int after_polls) {
  devices_[0]->InjectFault("session:" + std::to_string(session), std::move(fault),
                           after_polls);
}

Status HybridEngine::TakeSessionFault(int session) {
  return devices_[0]->TakeFault("session:" + std::to_string(session));
}

void HybridEngine::InjectBackendFault(Status fault, int after_polls) {
  devices_[0]->InjectFault("device", std::move(fault), after_polls);
}

Status HybridEngine::TakeBackendFault() {
  Status device_fault = devices_[0]->TakeFault("device");
  if (!device_fault.ok()) {
    return device_fault;
  }
  return pool_->TakeFault();
}

StatusOr<Tensor> HybridEngine::TryPrefill(int session, const std::vector<int>& tokens) {
  KTX_ASSIGN_OR_RETURN(PrefillCursor cursor, StartPrefill(session, tokens));
  // One fault poll for the whole prompt (the resumable path polls per chunk).
  KTX_RETURN_IF_ERROR(TakeBackendFault().WithContext("prefill"));
  while (!cursor.done()) {
    auto advanced = PrefillChunk(&cursor);
    if (!advanced.ok()) {
      return advanced.status();
    }
  }
  return cursor.logits();
}

StatusOr<PrefillCursor> HybridEngine::StartPrefill(int session, std::vector<int> tokens) {
  KTX_RETURN_IF_ERROR(ValidateSession(session).WithContext("prefill"));
  if (tokens.empty()) {
    return InvalidArgumentError("prefill: empty prompt");
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] < 0 || tokens[i] >= config_.vocab) {
      return InvalidArgumentError("prefill: prompt token " + std::to_string(tokens[i]) +
                                  " at index " + std::to_string(i) + " outside vocab [0, " +
                                  std::to_string(config_.vocab) + ")");
    }
  }
  // KV headroom for the whole prompt, validated once: chunks never re-check
  // (the session is exclusively this prompt's between Start and done).
  KvCache& cache = *sessions_[static_cast<std::size_t>(session)];
  const auto prompt_len = static_cast<std::int64_t>(tokens.size());
  if (cache.has_capacity_bound() && cache.position() + prompt_len > cache.max_seq()) {
    return ResourceExhaustedError("prompt of " + std::to_string(tokens.size()) +
                                  " tokens does not fit the kv cache (position " +
                                  std::to_string(cache.position()) + ", max_seq " +
                                  std::to_string(cache.max_seq()) + ")")
        .WithContext("prefill");
  }
  PrefillCursor cursor;
  cursor.session_ = session;
  cursor.tokens_ = std::move(tokens);

  // Paged + empty session: adopt the longest cached prefix. Reuse length is
  // floored to a multiple of BOTH the block size (only whole blocks are
  // shareable) and the prefill chunk (chunk offsets decide tokens-per-expert
  // and therefore the ARI kernel kind, so the suffix must land on the same
  // chunk grid as a cold prefill — that is what keeps reuse bit-identical),
  // and capped strictly below the prompt length so the final token always
  // runs and produces logits.
  std::int64_t adopted = 0;
  if (kv_pool_ != nullptr && options_.enable_prefix_cache && cache.position() == 0) {
    const std::int64_t bs = kv_pool_->block_size();
    cursor.block_hashes_ = HashTokenBlocks(cursor.tokens_, bs);
    const std::vector<std::int32_t> match = kv_pool_->MatchPrefix(cursor.block_hashes_);
    const std::int64_t g = std::gcd(bs, options_.prefill_chunk);
    const std::int64_t unit = bs / g * options_.prefill_chunk;
    std::int64_t reuse = static_cast<std::int64_t>(match.size()) * bs;
    reuse = reuse / unit * unit;
    reuse = std::min(reuse, (prompt_len - 1) / unit * unit);
    if (reuse > 0) {
      const std::int64_t blocks = reuse / bs;
      cache.AdoptPrefix(
          std::vector<std::int32_t>(match.begin(), match.begin() + blocks), reuse);
      cursor.offset_ = static_cast<std::size_t>(reuse);
      cursor.registered_blocks_ = blocks;
      adopted = reuse;
      ++counters_.prefix_cache_hits;
      counters_.prefix_tokens_reused += reuse;
    }
  }

  // Reserve every remaining row NOW (paged: block allocations, possibly
  // evicting stale prefix-cache entries) so chunks can never fail on
  // allocation mid-prompt. Failure rolls back the adoption; the session is
  // left exactly as it was.
  const Status reserved = cache.PrepareAppend(prompt_len - adopted);
  if (!reserved.ok()) {
    if (adopted > 0 || cache.position() == 0) {
      cache.Reset();  // the session was empty: free adoption + partial reservations
    }
    return reserved.WithContext("prefill");
  }
  return cursor;
}

StatusOr<std::int64_t> HybridEngine::TryPrefillNext(PrefillCursor* cursor) {
  if (cursor == nullptr || !cursor->valid()) {
    return InvalidArgumentError("prefill_next: cursor was not produced by StartPrefill");
  }
  if (cursor->done()) {
    return InvalidArgumentError("prefill_next: cursor already processed all " +
                                std::to_string(cursor->total_tokens()) + " prompt tokens");
  }
  KTX_RETURN_IF_ERROR(ValidateSession(cursor->session_).WithContext("prefill_next"));
  // Defensive re-check: StartPrefill reserved headroom for the whole prompt,
  // but a caller that Reset or decoded this session mid-cursor voids that.
  const std::int64_t m =
      std::min<std::int64_t>(options_.prefill_chunk, cursor->remaining_tokens());
  const KvCache& cache = *sessions_[static_cast<std::size_t>(cursor->session_)];
  if (!cache.CanAdvance(m)) {
    return ResourceExhaustedError("chunk of " + std::to_string(m) +
                                  " tokens does not fit the kv cache (position " +
                                  std::to_string(cache.position()) + ", max_seq " +
                                  std::to_string(cache.max_seq()) + ")")
        .WithContext("prefill_next");
  }
  // Polled before any mutation: a fault leaves the cursor resumable.
  KTX_RETURN_IF_ERROR(TakeBackendFault().WithContext("prefill_next"));
  return PrefillChunk(cursor);
}

StatusOr<Tensor> HybridEngine::TryDecodeBatch(const std::vector<SessionToken>& batch) {
  const auto b = static_cast<std::int64_t>(batch.size());
  if (b < 1) {
    return InvalidArgumentError("decode: empty batch");
  }
  if (b > options_.max_batch) {
    return InvalidArgumentError("decode: batch width " + std::to_string(b) +
                                " exceeds max_batch " + std::to_string(options_.max_batch));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    KTX_RETURN_IF_ERROR(ValidateSession(batch[i].session)
                            .WithContext("decode row " + std::to_string(i)));
    if (batch[i].token < 0 || batch[i].token >= config_.vocab) {
      return InvalidArgumentError("decode row " + std::to_string(i) + ": token " +
                                  std::to_string(batch[i].token) + " outside vocab [0, " +
                                  std::to_string(config_.vocab) + ")");
    }
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      if (batch[i].session == batch[j].session) {
        return InvalidArgumentError("decode rows " + std::to_string(i) + " and " +
                                    std::to_string(j) + " target the same session " +
                                    std::to_string(batch[i].session));
      }
    }
    const KvCache& cache = *sessions_[static_cast<std::size_t>(batch[i].session)];
    if (!cache.CanAdvance(1)) {
      return ResourceExhaustedError("kv cache exhausted for session " +
                                    std::to_string(batch[i].session) + " (position " +
                                    std::to_string(cache.position()) + " of max_seq " +
                                    std::to_string(cache.max_seq()) + ")")
          .WithContext("decode row " + std::to_string(i));
    }
  }
  // Per-row CanAdvance is optimistic when rows share the pool: N rows that
  // each need a block can all pass with < N free blocks. Validate the step's
  // aggregate block demand before any row mutates anything.
  if (kv_paged()) {
    std::int64_t need = 0;
    for (const SessionToken& row : batch) {
      need += sessions_[static_cast<std::size_t>(row.session)]->BlocksNeededFor(1);
    }
    if (need > kv_pool_->available_blocks()) {
      return ResourceExhaustedError(
                 "kv block pool exhausted: step needs " + std::to_string(need) +
                 " blocks, pool has " + std::to_string(kv_pool_->available_blocks()))
          .WithContext("decode");
    }
  }
  KTX_RETURN_IF_ERROR(TakeBackendFault().WithContext("decode"));
  return RunDecodeBatch(batch);
}

std::int64_t HybridEngine::position(int session) const {
  return sessions_.at(static_cast<std::size_t>(session))->position();
}

ExpertCacheStats HybridEngine::expert_cache_stats() const {
  return placement_ != nullptr ? placement_->stats() : ExpertCacheStats{};
}

std::vector<int> HybridEngine::GenerateGreedy(const std::vector<int>& prompt, int max_new) {
  Reset();
  std::vector<int> out;
  Tensor logits = Prefill(prompt);
  int next = ArgmaxLastToken(logits);
  for (int i = 0; i < max_new; ++i) {
    out.push_back(next);
    logits = DecodeStep(next);
    next = ArgmaxLastToken(logits);
  }
  return out;
}

void HybridEngine::Reset(int session) {
  sessions_.at(static_cast<std::size_t>(session))->Reset();
}

}  // namespace ktx
