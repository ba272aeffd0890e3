// The KTransformers hybrid CPU/GPU inference engine (paper §3).
//
// Placement follows Fig. 1b: attention, norms, gating, dense FFNs and the
// shared experts execute as GPU kernels on the vcuda stream; routed experts
// execute on the CPU through the NUMA-aware fused MoE operator, fed by the
// asynchronous submit/sync host functions of async_service.h. The GPU-side
// weights are packed once, at construction, into f32 tiles the engine owns
// (packed_weights.h); every GPU GEMM runs the kernel registry's f32 variant
// over all live rows in one call.
//
// Decode path (§3.3): the entire per-token layer stack — including the
// submit/sync host callbacks — is captured into ONE vcuda graph on the first
// step and replayed afterwards, eliminating per-kernel launch overhead.
// Dynamic state (token id, position) lives in slots the captured kernels read
// at execution time, which is how a fixed graph serves a growing context.
// Each MoE layer's sync host function is where the vGPU stream waits for the
// CPU experts; before it waits, it prefetches into L2 what the next vGPU
// segment reads (the next layer's packs and live rows' KV; after the last
// layer, the lm_head and the next step's layer 0), resolved through the same
// slots.
//
// Batched decode: DecodeBatch() runs one forward pass for B single-token
// rows — one per active session — in the same single graph replay. The
// decode buffers are [capacity, ...]-shaped slot buffers and the captured
// kernels read a per-row (KvCache*, position) indirection table plus a live
// row count at exec time, so batch membership and size can change between
// replays without recapture; only growth past the buffer capacity (bounded
// by EngineOptions::max_batch) triggers one recapture. Each MoE layer
// submits ONE B-token routed-expert request (immediate + deferred split
// unchanged), amortizing submit/sync overhead and raising tokens-per-expert.
// Per-row outputs are bit-identical to sequential DecodeStep calls: the
// attention rows and the MoE reduce order (routing-slot order, see moe_cpu.h)
// are independent of batch composition, and every registered kernel variant
// computes the same canonical op sequence (kernel_registry.h), so even a
// batch-dependent kernel-kind choice cannot change a bit.
//
// Expert Deferral (§4): with n_deferred = D > 0, each decode MoE layer k
// submits its top-(top_k - D) slots as the *immediate* request and its bottom
// D slots as the *deferred* request. The merge at layer k waits only for
// immediate_k — FIFO completion makes that imply deferred_{k-1} — so deferred
// experts overlap the next layer's attention. The last MoE layer defers
// nothing. Functionally this implements exactly the §4.1 formula, which tests
// verify against RefModel.

#ifndef KTX_SRC_CORE_ENGINE_H_
#define KTX_SRC_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/async_service.h"
#include "src/core/profiling.h"
#include "src/cpu/kernel_calibrate.h"
#include "src/gpu/vcuda.h"
#include "src/model/gating.h"
#include "src/model/packed_weights.h"
#include "src/model/reference_model.h"

namespace ktx {

struct EngineOptions {
  // Routed-expert weight precision on the CPU (bf16 full-accuracy path, or
  // Int8/Int4 for the quantized deployments of §6.1).
  DType cpu_weight_dtype = DType::kBF16;
  // GPU-side weight precision (informational for the cost model; the
  // functional GPU kernels compute in f32 regardless, like the paper's
  // Marlin path dequantizes into fp compute).
  DType gpu_weight_dtype = DType::kBF16;
  // Expert Deferral depth D (decode only). Must leave >= 2 immediate experts.
  int n_deferred = 0;
  // Capture the decode step into a single vcuda graph (§3.3); false runs it
  // eagerly, one launch per op.
  bool use_cuda_graph = true;
  // NUMA placement for the routed experts.
  NumaMode numa_mode = NumaMode::kTensorParallel;
  int numa_shards = 2;  // tensor-parallel shards (sockets)
  int cpu_threads = 4;
  MoeOptions moe;  // ARI threshold, schedule kind, kernel impl
  // One-shot startup kernel calibration (kernel_calibrate.h): microbenchmark
  // every available GEMM variant over a tokens-per-expert grid, fit the
  // crossover table, and dispatch each expert-group through it instead of the
  // fixed moe.ari_threshold heuristic. Because all registered variants are
  // bit-identical, turning this on never changes an output bit.
  bool calibrate_kernels = false;
  // Calibration profile cache (JSON; conventionally configs/kernel_profile.json).
  // When set, a valid cached profile makes engine startup skip the
  // microbenchmark entirely; a missing/corrupt/stale file recalibrates and
  // rewrites it. Empty = always calibrate in-process, never touch disk.
  std::string kernel_profile_path;
  // Tokens per prefill chunk.
  std::int64_t prefill_chunk = 256;
  // KV block pool: every session draws fixed-size blocks from one
  // KvBlockPool, handed out as contexts grow and shared across sessions for
  // common prompt prefixes. > 0 = a pool of this many blocks. <= 0 =
  // auto-size: one full max_seq context's worth of blocks per potential
  // session (max_sessions, else max_batch). Past that, the Try* paths return
  // kResourceExhausted. The storage is reserved, not committed: the OS
  // commits a KV page when a row in it is first written (kv_block_pool.h),
  // so resident memory follows the rows written, not this count. Rows once
  // written stay committed until the pool is destroyed.
  std::int64_t kv_pool_blocks = 0;
  // Tokens per KV block. Any block size, max_seq included, gives the same
  // output bits.
  std::int64_t kv_block_size = 16;
  // Register full prompt blocks in the pool's prefix cache so later prompts
  // sharing a prefix skip that much prefill (a ref-count bump instead of
  // forward work). Reused prefixes are bit-identical to recompute because
  // reuse lengths are floored to lcm(kv_block_size, prefill_chunk).
  bool enable_prefix_cache = true;
  // Upper bound on DecodeBatch width (continuous-batching slot count). Also
  // floors moe.ari_threshold so the fallback (uncalibrated) decode dispatch
  // cannot flip kernel kinds with batch occupancy. All registered variants
  // are bit-identical (kernel_registry.h), so this is a determinism-of-
  // dispatch measure, not a numerics requirement.
  int max_batch = 8;
  // Upper bound on sessions (KV caches) this engine will hold; 0 = unbounded.
  // TryCreateSession past the bound is a recoverable kResourceExhausted (the
  // serving loop rejects the request); CreateSession aborts.
  int max_sessions = 0;
  // When false, the engine blocks on the CPU immediately after submitting
  // routed-expert work (the Fiddler/llama.cpp round-trip): no shared-expert
  // overlap, no deferral window. Baseline engines set this.
  bool async_overlap = true;
  // Optional expert-activation profiler (core/profiling.h). When set, every
  // MoE layer's routing decisions are recorded — the offline-profiling hook
  // for popularity-based placement. Must outlive the engine.
  ExpertProfiler* profiler = nullptr;
};

struct EngineCounters {
  std::int64_t prefill_tokens = 0;
  // Decode iterations (forward passes). A B-row DecodeBatch is ONE step.
  std::int64_t decode_steps = 0;
  // Tokens decoded: a B-row DecodeBatch counts B; a VerifyStep counts its
  // draft length.
  std::int64_t decode_tokens = 0;
  // Widest DecodeBatch seen so far.
  std::int64_t max_decode_batch = 0;
  // Decode graph captures (1 + one per capacity growth / deferral retune).
  std::int64_t graph_captures = 0;
  // Routed-expert requests submitted to the CPU service. One per MoE layer
  // per decode step regardless of batch width (two with deferral).
  std::int64_t moe_requests = 0;
  // Prefix-cache reuse: StartPrefill calls that adopted >= 1 cached block,
  // and the total prompt tokens served from the cache instead of prefill
  // compute.
  std::int64_t prefix_cache_hits = 0;
  std::int64_t prefix_tokens_reused = 0;
};

// One row of a batched decode step: advance `session` by one `token`.
struct SessionToken {
  int session = 0;
  int token = 0;
};

// Resumable chunked-prefill state for one session (stall-free serving).
//
// HybridEngine::StartPrefill validates the whole prompt up front and returns
// one of these; each TryPrefillNext call advances exactly ONE engine chunk —
// min(prefill_chunk, tokens left), cut at the same offsets Prefill()'s
// internal loop uses — so a prompt driven to completion through a cursor
// produces logits bit-identical to a single-shot Prefill of the same prompt
// (chunk boundaries decide tokens-per-expert and therefore the ARI kernel
// kind, so they must never depend on the caller's pacing). Deferral stays off
// (§4.1), and other sessions may decode freely between chunks: prefill runs
// eagerly against this cursor's own KV cache while batched decode replays
// read per-row state, so interleaving cannot perturb either side.
class PrefillCursor {
 public:
  PrefillCursor() = default;  // invalid until produced by StartPrefill

  bool valid() const { return session_ >= 0; }
  int session() const { return session_; }
  std::int64_t total_tokens() const { return static_cast<std::int64_t>(tokens_.size()); }
  std::int64_t processed_tokens() const { return static_cast<std::int64_t>(offset_); }
  std::int64_t remaining_tokens() const { return total_tokens() - processed_tokens(); }
  bool done() const { return valid() && offset_ >= tokens_.size(); }

  // Logits of the prompt's final token ([1, vocab]); only meaningful once
  // done() — the serving loop samples the request's first token from these.
  const Tensor& logits() const { return last_logits_; }

 private:
  friend class HybridEngine;

  int session_ = -1;
  std::vector<int> tokens_;
  std::size_t offset_ = 0;
  Tensor last_logits_;
  // Paged prefix sharing: chained hashes of the prompt's full blocks
  // (computed by StartPrefill when the session starts empty) and how many of
  // them have been registered in — or adopted from — the pool's prefix cache.
  std::vector<std::uint64_t> block_hashes_;
  std::int64_t registered_blocks_ = 0;
};

class HybridEngine {
 public:
  HybridEngine(MoeModelConfig config, std::shared_ptr<const ModelWeights> weights,
               EngineOptions options);
  ~HybridEngine();

  // Processes the prompt (chunked); returns logits for the final token
  // ([1, vocab]). Deferral is never applied during prefill (§4.1).
  Tensor Prefill(const std::vector<int>& tokens) { return Prefill(0, tokens); }
  Tensor Prefill(int session, const std::vector<int>& tokens);

  // Decodes one token given the current cache; returns logits [1, vocab].
  // Equivalent to (and implemented as) a batch-1 DecodeBatch.
  Tensor DecodeStep(int token) { return DecodeStep(0, token); }
  Tensor DecodeStep(int session, int token);

  // Decodes one token for each of B distinct sessions in a single forward
  // pass (one graph replay, one MoE request per layer). Returns logits
  // [B, vocab], row r for batch[r]. Per-row results are bit-identical to B
  // sequential DecodeStep calls. B must be in [1, options().max_batch].
  Tensor DecodeBatch(const std::vector<SessionToken>& batch);

  // Multi-token verification step (speculative-decoding style): processes a
  // short run of draft tokens in one pass and returns logits [tokens, vocab]
  // so the caller can accept/reject each draft. Runs eagerly (shapes vary),
  // with deferral, and advances the cache by all tokens; callers that reject
  // a suffix should Reset/rebuild the session.
  Tensor VerifyStep(int session, const std::vector<int>& tokens);

  // Greedy generation end-to-end. Resets session 0 first.
  std::vector<int> GenerateGreedy(const std::vector<int>& prompt, int max_new);

  // --- Recoverable (untrusted-input / capacity) entry points ----------------
  // The Try* variants validate what a caller outside the engine's control can
  // get wrong — bad session ids, out-of-range token ids, over-wide batches,
  // KV-cache exhaustion — plus the injected backend-fault hooks, and return a
  // Status instead of aborting. The unchecked spellings above keep KTX_CHECK
  // semantics for internal callers (programmer-error invariants). Validation
  // happens before any state mutation: an error leaves every session's KV
  // position untouched.
  StatusOr<Tensor> TryPrefill(int session, const std::vector<int>& tokens);
  StatusOr<Tensor> TryDecodeBatch(const std::vector<SessionToken>& batch);
  StatusOr<int> TryCreateSession();

  // --- Resumable prefill (stall-free serving) -------------------------------
  // StartPrefill validates everything TryPrefill would — session id, token
  // range, and KV headroom for the WHOLE prompt, once, up front — but runs no
  // forward work. "Validating headroom" is physical: every
  // block the prompt needs is reserved from the pool here (so chunks can
  // never fail on allocation mid-prompt), and if the session starts empty the
  // pool's prefix cache is consulted first — the longest cached prefix match
  // (floored to a prefill-chunk boundary, and to strictly less than the
  // prompt so the final token's logits are always computed) is adopted as a
  // ref-count bump, the cursor starting past it. On a reservation failure the
  // adoption is rolled back; an abandoned successful cursor holds its blocks
  // until Reset. The returned cursor resumes at the first un-cached token.
  // TryPrefillNext
  // advances one engine chunk (at most prefill_chunk tokens) and returns how
  // many prompt tokens it processed; the caller paces calls against its own
  // token budget and decodes other sessions in between. Backend faults are
  // polled per chunk, BEFORE any state mutation, so a failed call leaves the
  // cursor and the session's KV position untouched (resumable or safely
  // retireable). Calling TryPrefillNext on an invalid or completed cursor is
  // kInvalidArgument.
  StatusOr<PrefillCursor> StartPrefill(int session, std::vector<int> tokens);
  StatusOr<std::int64_t> TryPrefillNext(PrefillCursor* cursor);

  // KV-cache positions left before `session`'s cache runs out (a decode step
  // needs >= 1). This is capped by what the pool can still supply, so it
  // varies with other sessions' occupancy. The serving loop checks this each
  // sweep and retires exhausted requests with finish reason `kv_exhausted`.
  std::int64_t KvRemaining(int session) const;
  // Pool blocks a `tokens`-row append to `session` would consume right now.
  // With kv_pool()->available_blocks() this lets the serving loop budget a
  // whole decode sweep against the pool before issuing it — rows can each
  // pass KvRemaining individually yet not fit together.
  std::int64_t KvBlocksNeeded(int session, std::int64_t tokens) const;

  // The block pool every session draws from (never null).
  const KvBlockPool* kv_pool() const { return kv_pool_.get(); }

  // Session-attributed fault injection (chaos testing): arms a fault on the
  // device fault plan under a per-session key. The serving loop polls
  // TakeSessionFault every sweep and retires only the affected request; rows
  // sharing the DecodeBatch are untouched (per-row outputs are independent of
  // batch composition by the batched-decode bit-identity guarantee).
  void InjectSessionFault(int session, Status fault, int after_polls = 0);
  Status TakeSessionFault(int session);
  // Arms a fault no session can be blamed for (device-wide fault plan key);
  // the next Try step — any session — fails whole.
  void InjectBackendFault(Status fault, int after_polls = 0);
  // Polls the non-attributable backend hooks (device-wide fault plan key
  // "device" + the thread pool's latch); a hit fails the whole step.
  Status TakeBackendFault();
  // The CPU execution substrate (exposed for its fault-injection hook).
  ThreadPool& cpu_pool() { return *pool_; }

  // Retunes the Expert Deferral depth at runtime (e.g. from the §4.2
  // heuristic as load changes). Invalidates the captured decode graph; the
  // next DecodeStep re-captures with the new immediate/deferred split.
  void SetDeferral(int n_deferred);

  // --- Sessions -------------------------------------------------------------
  // Each session is a KV block table in the engine's pool, over the shared
  // weights and captured decode graph; DecodeBatch advances up to max_batch
  // of them per replay. Session 0 always exists.
  int CreateSession();
  void Reset() { Reset(0); }
  void Reset(int session);
  int num_sessions() const { return static_cast<int>(sessions_.size()); }

  const MoeModelConfig& config() const { return config_; }
  const EngineOptions& options() const { return options_; }
  VDevice& device() { return device_; }
  const EngineCounters& counters() const { return counters_; }
  std::int64_t position() const { return position(0); }
  std::int64_t position(int session) const;
  MoeStats moe_stats() const { return service_->stats_snapshot(); }
  // Startup kernel-calibration result. table is empty (and from_cache false)
  // unless options.calibrate_kernels was set.
  const KernelCalibrationResult& kernel_calibration() const { return calibration_; }

 private:
  struct DecodeBuffers;

  void BuildCpuExperts();
  Status ValidateSession(int session) const;
  // Runs the cursor's next chunk (tokens validated and KV rows reserved by
  // StartPrefill). Returns the number of prompt tokens advanced; on error
  // (backend fault surfaced mid-step, KV overflow) the cursor and the
  // session's KV position are untouched.
  StatusOr<std::int64_t> PrefillChunk(PrefillCursor* cursor);
  // DecodeBatch body behind the Try*/unchecked split: prepares each row's KV
  // rows, replays (or captures) the graph, and surfaces any attention-step
  // Status without advancing positions on failure.
  StatusOr<Tensor> RunDecodeBatch(const std::vector<SessionToken>& batch);
  // Enqueues the full layer stack onto the stream. Buffers live in `bufs`.
  // With batched=false, processes `m` tokens of one sequence (active_cache_)
  // starting at bufs->pos0 — the prefill / verify shape. With batched=true,
  // `m` is the buffer capacity and every kernel reads the live row count and
  // the per-row (cache, position) table from `bufs` at exec time — the
  // capturable batched-decode shape.
  void EnqueueForward(DecodeBuffers* bufs, std::int64_t m, bool allow_deferral, bool batched);
  // Prefetches into L2 what a vGPU segment starting at `layer` reads: its
  // packed projections, router and FFN (shared-expert or dense) packs, every
  // live row's cached KV rows of that layer, and with `lm_head` the lm_head.
  // Called by the MoE barrier's host function, so `rows` and the row slots
  // are read at exec time. Allocates nothing.
  void WarmSegment(const DecodeBuffers* bufs, std::int64_t rows, bool batched, int layer,
                   bool lm_head) const;
  // Makes decode_bufs_ hold >= rows rows, invalidating the captured graph on
  // growth (batch-1 stays at capacity 1; any wider batch jumps straight to
  // max_batch so growth recaptures at most once).
  void EnsureDecodeCapacity(std::int64_t rows);

  MoeModelConfig config_;
  std::shared_ptr<const ModelWeights> weights_;
  // f32-packed copies of the vGPU plane's weights (attention, router,
  // shared-expert / dense FFN, lm_head), built at construction and owned
  // here: the kernels' projection handles point into it.
  std::unique_ptr<const PackedModelWeights> packed_;
  EngineOptions options_;
  // Calibrated dispatch table; options_.moe.dispatch points at
  // calibration_.table when calibrate_kernels is on (stable address — the
  // engine is neither copyable nor movable).
  KernelCalibrationResult calibration_;

  // The one virtual GPU: its device (launch stats, fault plan) and the stream
  // every vGPU op runs on.
  VDevice device_;
  std::unique_ptr<VStream> stream_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<const NumaMoe> numa_moe_;
  std::unique_ptr<AsyncMoeService> service_;

  std::unique_ptr<KvBlockPool> kv_pool_;  // every session's KV blocks
  std::vector<std::unique_ptr<KvCache>> sessions_;
  KvCache* active_cache_ = nullptr;  // read by captured kernels at exec time
  EngineCounters counters_;

  // Decode state: persistent slot buffers + captured graph.
  std::unique_ptr<DecodeBuffers> decode_bufs_;
  VGraph decode_graph_;
  bool graph_ready_ = false;
};

}  // namespace ktx

#endif  // KTX_SRC_CORE_ENGINE_H_
