// Virtual CUDA ("vcuda") — a functional model of the CUDA runtime surface
// KTransformers depends on (paper §2.3, §3.3):
//
//   * streams with FIFO, asynchronous execution on a device worker thread;
//   * events (record / wait / host sync);
//   * cudaLaunchHostFunc-style host callbacks executed in stream order — the
//     primitive the asynchronous scheduler hides its submit/sync barriers in;
//   * CUDA graphs: stream capture records the op sequence instead of running
//     it; an instantiated graph replays the whole sequence with a single
//     launch, which is how the entire decode step collapses into one launch;
//   * launch statistics (kernel launches, micro-kernel decomposition, host
//     funcs, graph replays) — the quantities behind Fig. 4.
//
// There is no GPU here: kernels are host functions with cost metadata. What
// this preserves from real CUDA is the *scheduling semantics* — ordering,
// asynchrony, capture legality, host interruptions — which is the layer the
// paper's contribution lives in.

#ifndef KTX_SRC_GPU_VCUDA_H_
#define KTX_SRC_GPU_VCUDA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/sim/hardware.h"

namespace ktx {

// A logical GPU operation. `micro_kernels` models framework decomposition
// granularity: one logical op in a PyTorch-style stack fans out into many
// real kernel launches (Fig. 4: Fiddler issues >7000 launches per token,
// llama.cpp ~3000 after fusion).
struct KernelDesc {
  // A string literal (static storage): launching, capturing and replaying
  // copy only the pointer, so naming an op never allocates.
  const char* name = "";
  std::function<void()> fn;  // functional body; may be empty for timing-only
  double flops = 0.0;
  double bytes = 0.0;
  int micro_kernels = 1;
};

// One executed op, wall-clock timestamped (enable via VDevice::Options).
// The functional analogue of an Nsight Systems timeline (§2.3). Built only
// while record_trace is on.
struct TraceEvent {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int kind = 0;  // 0 kernel, 1 host func, 2 memcpy, 3 graph
};

struct LaunchStats {
  std::atomic<std::int64_t> logical_launches{0};
  std::atomic<std::int64_t> micro_launches{0};
  std::atomic<std::int64_t> host_funcs{0};
  std::atomic<std::int64_t> memcpys{0};
  std::atomic<std::int64_t> memcpy_bytes{0};
  std::atomic<std::int64_t> graph_launches{0};
  std::atomic<std::int64_t> graph_replayed_nodes{0};

  void Reset();
  // Total front-end occupancy implied by the counted launches, given a
  // per-launch latency. Graph launches cost one replay each regardless of
  // node count — the point of the optimization.
  double LaunchOverheadSeconds(double per_launch_us, double graph_replay_us) const;
};

class VEvent {
 public:
  void Signal();
  void Wait();          // blocks until signaled
  bool Query() const;   // non-blocking
  void Reset();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool signaled_ = false;
};

class VStream;

// An instantiated, replayable op sequence (cudaGraphExec analog).
class VGraph {
 public:
  std::size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  // Replays the whole graph on `stream` as a single enqueue.
  void Launch(VStream* stream) const;

 private:
  friend class VStream;
  struct Node {
    enum class Kind { kKernel, kHostFunc, kMemcpy } kind;
    KernelDesc kernel;
    std::function<void()> host_fn;
    std::int64_t bytes = 0;
  };
  std::vector<Node> nodes_;
};

enum class MemcpyDir { kHostToDevice, kDeviceToHost, kDeviceToDevice };

class VDevice {
 public:
  struct Options {
    GpuSpec spec = A100_40GB();
    double launch_latency_us = 5.0;   // per logical launch (Fig. 4)
    double graph_replay_us = 3.0;     // per graph replay
    bool record_trace = false;        // wall-clock-timestamp every op
  };

  VDevice() : VDevice(Options{}) {}
  explicit VDevice(Options options);
  ~VDevice();

  VDevice(const VDevice&) = delete;
  VDevice& operator=(const VDevice&) = delete;

  // "Device" memory (host-backed, allocation-tracked against VRAM capacity).
  void* Malloc(std::size_t bytes);
  void Free(void* ptr);
  std::size_t allocated_bytes() const { return allocated_.load(); }

  const GpuSpec& spec() const { return options_.spec; }
  const Options& options() const { return options_; }
  LaunchStats& stats() { return stats_; }

  // Trace recording (only when options().record_trace). Thread-safe.
  void RecordTrace(TraceEvent event);
  std::vector<TraceEvent> TakeTrace();
  // Chrome trace-event JSON of the recorded ops (view in Perfetto).
  std::string TraceToChromeJson();

  // --- Fault injection -------------------------------------------------------
  // Chaos hooks for exercising recoverable error paths. A test (or operator
  // tooling) arms a fault under a caller-chosen key ("session:3", "device",
  // ...); the owner of the matching recoverable boundary polls TakeFault
  // there and converts a hit into a Status that propagates instead of an
  // abort. `after_polls` delays the hit — the fault fires on the
  // (after_polls+1)-th poll of its key — which is how tests land a failure
  // mid-generation rather than on the first step. Thread-safe.
  void InjectFault(std::string key, Status fault, int after_polls = 0);
  // Polls (and on a hit, disarms) the fault for `key`; OK if none armed.
  Status TakeFault(const std::string& key);
  bool has_armed_faults() const;

 private:
  Options options_;
  LaunchStats stats_;
  std::atomic<std::size_t> allocated_{0};
  std::mutex alloc_mu_;
  // ptr -> size for Free accounting.
  std::vector<std::pair<void*, std::size_t>> allocations_;
  std::mutex trace_mu_;
  std::vector<TraceEvent> trace_;
  struct ArmedFault {
    Status status;
    int polls_left = 0;
  };
  mutable std::mutex fault_mu_;
  std::map<std::string, ArmedFault> faults_;
};

// A FIFO execution stream with its own worker thread.
class VStream {
 public:
  explicit VStream(VDevice* device);
  ~VStream();

  VStream(const VStream&) = delete;
  VStream& operator=(const VStream&) = delete;

  VDevice* device() { return device_; }

  // Asynchronously enqueues a kernel (or records it while capturing).
  void Launch(KernelDesc kernel);
  // cudaLaunchHostFunc analog: `fn` runs on the stream worker, in order.
  void LaunchHostFunc(std::function<void()> fn);
  // Async copy; `copy_fn` performs the actual byte movement.
  void MemcpyAsync(std::function<void()> copy_fn, std::int64_t bytes, MemcpyDir dir);

  void RecordEvent(VEvent* event);
  // Host-side wait for all previously enqueued work.
  void Synchronize();

  // --- graph capture (cudaStreamBeginCapture analog) ------------------------
  // While capturing, enqueues record into the pending graph instead of
  // executing. Synchronize() during capture is a capture violation (it would
  // split the graph) and aborts, mirroring CUDA's error.
  void BeginCapture();
  VGraph EndCapture();
  bool capturing() const { return capturing_; }

 private:
  friend class VGraph;

  struct Op {
    enum class Kind { kKernel, kHostFunc, kMemcpy, kEventRecord, kGraph } kind;
    KernelDesc kernel;
    std::function<void()> fn;
    VEvent* event = nullptr;
    std::int64_t bytes = 0;
    const VGraph* graph = nullptr;
  };

  void Enqueue(Op op);
  void WorkerLoop();
  void ExecuteOp(const Op& op);

  VDevice* device_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Op> queue_;
  bool busy_ = false;
  bool stop_ = false;

  bool capturing_ = false;
  VGraph pending_graph_;
};

}  // namespace ktx

#endif  // KTX_SRC_GPU_VCUDA_H_
