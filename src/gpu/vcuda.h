// Virtual CUDA ("vcuda") — a functional model of the CUDA runtime surface
// KTransformers depends on (paper §2.3, §3.3):
//
//   * streams with FIFO, asynchronous execution on a device worker thread;
//   * cudaLaunchHostFunc-style host callbacks executed in stream order — the
//     primitive the asynchronous scheduler hides its submit/sync barriers in;
//   * CUDA graphs: stream capture records the op sequence instead of running
//     it; an instantiated graph replays the whole sequence with a single
//     launch, which is how the entire decode step collapses into one launch;
//   * launch statistics (logical kernel launches, host funcs, graph replays)
//     — the quantities behind Fig. 4; the micro-kernel fan-out per logical op
//     that Fig. 4's eager baselines pay is modelled only by the DES, in its
//     StrategySpec (src/core/strategy_sim.h).
//
// There is no GPU here: a kernel is a named host function that runs on the
// stream's worker thread. What this preserves from real CUDA is the
// *scheduling semantics* — ordering, asynchrony, capture legality, host
// interruptions — which is the layer the paper's contribution lives in.
//
// Every executed op (kernel, host func, and each node of a replayed graph)
// emits one complete span in the "vgpu" category of the shared trace recorder
// (src/common/trace.h), on the stream worker's track, so the vGPU plane shows
// up on the same timeline as the engine and the CPU MoE — the functional
// analogue of an Nsight Systems timeline (§2.3). The two thread hand-offs
// around them get "handoff" spans: `handoff/stream_pickup`, from an enqueue to
// an idle worker picking the op up (worker track), and `handoff/sync_wakeup`,
// from the worker draining the queue to the Synchronize caller running again
// (caller track).

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

namespace ktx {

// A logical GPU operation: one launch on the stream, or one node of a
// captured graph.
struct KernelDesc {
  // A string literal (static storage): launching, capturing, replaying and
  // tracing copy only the pointer, so naming an op never allocates. It is the
  // op's vgpu span name.
  const char* name = "";
  std::function<void()> fn;  // functional body; may be empty
  int layer = -1;  // model layer, the vgpu span's "layer" arg; -1 = none
};

struct LaunchStats {
  std::atomic<std::int64_t> logical_launches{0};
  std::atomic<std::int64_t> host_funcs{0};
  std::atomic<std::int64_t> graph_launches{0};
  std::atomic<std::int64_t> graph_replayed_nodes{0};
};

class VStream;

// An instantiated, replayable op sequence (cudaGraphExec analog).
class VGraph {
 public:
  std::size_t num_nodes() const { return nodes_.size(); }

  // Replays the whole graph on `stream` as a single enqueue.
  void Launch(VStream* stream) const;

 private:
  friend class VStream;
  // One kernel or host func. A host func keeps its body in kernel.fn under
  // the literal span name "host_func".
  struct Node {
    enum class Kind { kKernel, kHostFunc } kind = Kind::kKernel;
    KernelDesc kernel;
  };
  std::vector<Node> nodes_;
};

// A device: the launch statistics and the armed faults its streams share.
class VDevice {
 public:
  VDevice() = default;
  VDevice(const VDevice&) = delete;
  VDevice& operator=(const VDevice&) = delete;

  LaunchStats& stats() { return stats_; }

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
  LaunchStats stats_;
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
  // `cpu` >= 0 binds the worker thread to that CPU before it runs any op.
  explicit VStream(VDevice* device, int cpu = -1);
  ~VStream();

  VStream(const VStream&) = delete;
  VStream& operator=(const VStream&) = delete;

  // Asynchronously enqueues a kernel (or records it while capturing).
  void Launch(KernelDesc kernel);
  // cudaLaunchHostFunc analog: `fn` runs on the stream worker, in order.
  void LaunchHostFunc(std::function<void()> fn);
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

  // A queued op: one node, or a whole graph replay (graph != nullptr).
  struct Op {
    VGraph::Node node;
    const VGraph* graph = nullptr;
    std::int64_t enqueue_ns = 0;  // stamped only while tracing
  };

  // Records `node` into the pending graph while capturing, else enqueues it.
  void Submit(VGraph::Node node);
  void Enqueue(Op op);
  void WorkerLoop(int cpu);
  // Runs `op`; a node inside its vgpu span, which with tracing off costs one
  // relaxed load.
  void ExecuteOp(const Op& op);
  // Counts one node in the device's stats and runs its body. A replayed
  // kernel counts no launch: the graph launch already did
  // (graph_replayed_nodes).
  void RunNode(const VGraph::Node& node, bool replayed);
  // Runs every node of `graph`; traced, one vgpu span per node and one
  // graph_replay span around them. With tracing off this costs one relaxed
  // load per replay.
  void Replay(const VGraph& graph);

  VDevice* device_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Op> queue_;
  bool busy_ = false;
  bool stop_ = false;
  // When the worker last drained the queue, 0 once it picks up an op or
  // while tracing is off (the handoff spans' anchor).
  std::int64_t idle_ns_ = 0;

  bool capturing_ = false;
  VGraph pending_graph_;
};

}  // namespace ktx

#endif  // KTX_SRC_GPU_VCUDA_H_
