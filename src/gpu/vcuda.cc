#include "src/gpu/vcuda.h"

#include <algorithm>
#include <utility>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"

namespace ktx {

// --- VGraph ------------------------------------------------------------------

void VGraph::Launch(VStream* stream) const {
  KTX_CHECK(!stream->capturing()) << "graph launch inside capture is not supported";
  VStream::Op op;
  op.graph = this;
  stream->Enqueue(std::move(op));
}

// --- VDevice -----------------------------------------------------------------

void VDevice::InjectFault(std::string key, Status fault, int after_polls) {
  KTX_CHECK(!fault.ok()) << "InjectFault requires a non-OK status";
  std::lock_guard<std::mutex> lock(fault_mu_);
  faults_[std::move(key)] = ArmedFault{std::move(fault), std::max(0, after_polls)};
}

Status VDevice::TakeFault(const std::string& key) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  auto it = faults_.find(key);
  if (it == faults_.end()) {
    return OkStatus();
  }
  if (it->second.polls_left > 0) {
    --it->second.polls_left;
    return OkStatus();
  }
  Status fault = std::move(it->second.status);
  faults_.erase(it);
  return fault.WithContext("vcuda fault [" + key + "]");
}

bool VDevice::has_armed_faults() const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return !faults_.empty();
}

// --- VStream -----------------------------------------------------------------

VStream::VStream(VDevice* device, int cpu) : device_(device) {
  KTX_CHECK(device_ != nullptr);
  worker_ = std::thread([this, cpu] { WorkerLoop(cpu); });
}

VStream::~VStream() {
  Synchronize();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void VStream::Enqueue(Op op) {
  if (trace::IsEnabled()) {
    op.enqueue_ns = SteadyNowNanos();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(op));
  }
  work_cv_.notify_one();
}

void VStream::Submit(VGraph::Node node) {
  if (capturing_) {
    pending_graph_.nodes_.push_back(std::move(node));
    return;
  }
  Op op;
  op.node = std::move(node);
  Enqueue(std::move(op));
}

void VStream::Launch(KernelDesc kernel) {
  VGraph::Node node;
  node.kernel = std::move(kernel);
  Submit(std::move(node));
}

void VStream::LaunchHostFunc(std::function<void()> fn) {
  VGraph::Node node;
  node.kind = VGraph::Node::Kind::kHostFunc;
  node.kernel.name = "host_func";
  node.kernel.fn = std::move(fn);
  Submit(std::move(node));
}

void VStream::Synchronize() {
  KTX_CHECK(!capturing_) << "stream synchronize during graph capture (capture violation)";
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty() && !busy_) {
    return;
  }
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  const std::int64_t idle_ns = idle_ns_;
  lock.unlock();
  if (idle_ns > 0 && trace::IsEnabled()) {
    trace::Emit(trace::Phase::kComplete, "handoff", "sync_wakeup", idle_ns,
                SteadyNowNanos() - idle_ns, 0, nullptr, 0, nullptr);
  }
}

void VStream::BeginCapture() {
  KTX_CHECK(!capturing_) << "nested capture";
  Synchronize();
  capturing_ = true;
  pending_graph_ = VGraph();
}

VGraph VStream::EndCapture() {
  KTX_CHECK(capturing_) << "EndCapture without BeginCapture";
  capturing_ = false;
  return std::move(pending_graph_);
}

void VStream::RunNode(const VGraph::Node& node, bool replayed) {
  LaunchStats& stats = device_->stats();
  if (node.kind == VGraph::Node::Kind::kHostFunc) {
    stats.host_funcs.fetch_add(1);
  } else if (!replayed) {
    stats.logical_launches.fetch_add(1);
  }
  if (node.kernel.fn) {
    node.kernel.fn();
  }
}

void VStream::Replay(const VGraph& graph) {
  LaunchStats& stats = device_->stats();
  stats.graph_launches.fetch_add(1);
  stats.graph_replayed_nodes.fetch_add(static_cast<std::int64_t>(graph.nodes_.size()));
  // Traced, each node's span ends where the next one starts, so a replay of
  // n nodes reads the clock n + 1 times instead of 2n + 2.
  const bool traced = trace::IsEnabled();
  const std::int64_t begin_ns = traced ? SteadyNowNanos() : 0;
  std::int64_t start_ns = begin_ns;
  for (const VGraph::Node& node : graph.nodes_) {
    RunNode(node, /*replayed=*/true);
    if (traced) {
      const std::int64_t end_ns = SteadyNowNanos();
      trace::Emit(trace::Phase::kComplete, "vgpu", node.kernel.name, start_ns,
                  end_ns - start_ns, 0, "layer", node.kernel.layer, nullptr);
      start_ns = end_ns;
    }
  }
  if (traced) {
    trace::Emit(trace::Phase::kComplete, "vgpu", "graph_replay", begin_ns, start_ns - begin_ns,
                0, "nodes", static_cast<std::int64_t>(graph.nodes_.size()), nullptr);
  }
}

void VStream::ExecuteOp(const Op& op) {
  if (op.graph != nullptr) {
    Replay(*op.graph);
    return;
  }
  trace::ScopedSpan span("vgpu", op.node.kernel.name, "layer", op.node.kernel.layer);
  RunNode(op.node, /*replayed=*/false);
}

void VStream::WorkerLoop(int cpu) {
  PinCurrentThread(cpu);
  NameCurrentThread("vgpu stream", cpu);
  for (;;) {
    Op op;
    std::int64_t idle_since_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      op = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      idle_since_ns = std::exchange(idle_ns_, 0);
    }
    // An op enqueued while the worker was busy waited behind the previous
    // op's span; one enqueued after the queue drained waited for this thread
    // to wake up.
    if (idle_since_ns > 0 && op.enqueue_ns > 0 && trace::IsEnabled()) {
      trace::Emit(trace::Phase::kComplete, "handoff", "stream_pickup", op.enqueue_ns,
                  SteadyNowNanos() - op.enqueue_ns, 0, nullptr, 0, nullptr);
    }
    ExecuteOp(op);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) {
        idle_ns_ = trace::IsEnabled() ? SteadyNowNanos() : 0;
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace ktx
