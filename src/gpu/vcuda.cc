#include "src/gpu/vcuda.h"

#include <algorithm>
#include <chrono>

#include "src/common/align.h"

namespace ktx {

// --- LaunchStats -------------------------------------------------------------

void LaunchStats::Reset() {
  logical_launches = 0;
  micro_launches = 0;
  host_funcs = 0;
  memcpys = 0;
  memcpy_bytes = 0;
  graph_launches = 0;
  graph_replayed_nodes = 0;
}

double LaunchStats::LaunchOverheadSeconds(double per_launch_us, double graph_replay_us) const {
  return micro_launches.load() * per_launch_us * 1e-6 +
         graph_launches.load() * graph_replay_us * 1e-6;
}

// --- VEvent ------------------------------------------------------------------

void VEvent::Signal() {
  // Notify while holding the lock: a waiter may destroy the event the moment
  // Wait() returns, so the cv must not be touched after the flag is visible
  // outside the critical section.
  std::lock_guard<std::mutex> lock(mu_);
  signaled_ = true;
  cv_.notify_all();
}

void VEvent::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return signaled_; });
}

bool VEvent::Query() const {
  std::lock_guard<std::mutex> lock(mu_);
  return signaled_;
}

void VEvent::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  signaled_ = false;
}

// --- VGraph ------------------------------------------------------------------

void VGraph::Launch(VStream* stream) const {
  KTX_CHECK(!stream->capturing()) << "graph launch inside capture is not supported";
  VStream::Op op;
  op.kind = VStream::Op::Kind::kGraph;
  op.graph = this;
  stream->Enqueue(std::move(op));
}

// --- VDevice -----------------------------------------------------------------

VDevice::VDevice(Options options) : options_(options) {}

VDevice::~VDevice() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  for (auto& [ptr, size] : allocations_) {
    AlignedFree(ptr);
  }
}

void* VDevice::Malloc(std::size_t bytes) {
  const std::size_t vram = static_cast<std::size_t>(options_.spec.vram_gb * 1e9);
  if (allocated_.load() + bytes > vram) {
    KTX_LOG(Warning) << "vcuda: device OOM: " << bytes << " requested, "
                     << vram - allocated_.load() << " free of " << vram;
    return nullptr;
  }
  void* ptr = AlignedAlloc(bytes);
  if (ptr != nullptr) {
    allocated_.fetch_add(bytes);
    std::lock_guard<std::mutex> lock(alloc_mu_);
    allocations_.emplace_back(ptr, bytes);
  }
  return ptr;
}

void VDevice::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto it = std::find_if(allocations_.begin(), allocations_.end(),
                         [ptr](const auto& p) { return p.first == ptr; });
  KTX_CHECK(it != allocations_.end()) << "vcuda: Free of unknown pointer";
  allocated_.fetch_sub(it->second);
  AlignedFree(ptr);
  allocations_.erase(it);
}

void VDevice::RecordTrace(TraceEvent event) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_.push_back(std::move(event));
}

std::vector<TraceEvent> VDevice::TakeTrace() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return std::move(trace_);
}

std::string VDevice::TraceToChromeJson() {
  std::lock_guard<std::mutex> lock(trace_mu_);
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : trace_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":\"" + e.name + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(e.start_us) + ",\"dur\":" + std::to_string(e.end_us - e.start_us) +
           ",\"pid\":0,\"tid\":" + std::to_string(e.kind) + "}";
  }
  out += "]";
  return out;
}

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

VStream::VStream(VDevice* device) : device_(device) {
  KTX_CHECK(device_ != nullptr);
  worker_ = std::thread([this] { WorkerLoop(); });
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(op));
  }
  work_cv_.notify_one();
}

void VStream::Launch(KernelDesc kernel) {
  if (capturing_) {
    VGraph::Node node;
    node.kind = VGraph::Node::Kind::kKernel;
    node.kernel = std::move(kernel);
    pending_graph_.nodes_.push_back(std::move(node));
    return;
  }
  Op op;
  op.kind = Op::Kind::kKernel;
  op.kernel = std::move(kernel);
  Enqueue(std::move(op));
}

void VStream::LaunchHostFunc(std::function<void()> fn) {
  if (capturing_) {
    VGraph::Node node;
    node.kind = VGraph::Node::Kind::kHostFunc;
    node.host_fn = std::move(fn);
    pending_graph_.nodes_.push_back(std::move(node));
    return;
  }
  Op op;
  op.kind = Op::Kind::kHostFunc;
  op.fn = std::move(fn);
  Enqueue(std::move(op));
}

void VStream::MemcpyAsync(std::function<void()> copy_fn, std::int64_t bytes, MemcpyDir dir) {
  if (capturing_) {
    VGraph::Node node;
    node.kind = VGraph::Node::Kind::kMemcpy;
    node.host_fn = std::move(copy_fn);
    node.bytes = bytes;
    pending_graph_.nodes_.push_back(std::move(node));
    return;
  }
  Op op;
  op.kind = Op::Kind::kMemcpy;
  op.fn = std::move(copy_fn);
  op.bytes = bytes;
  Enqueue(std::move(op));
}

void VStream::RecordEvent(VEvent* event) {
  KTX_CHECK(!capturing_) << "event record inside capture is not supported";
  Op op;
  op.kind = Op::Kind::kEventRecord;
  op.event = event;
  Enqueue(std::move(op));
}

void VStream::Synchronize() {
  KTX_CHECK(!capturing_) << "stream synchronize during graph capture (capture violation)";
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
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

namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void VStream::ExecuteOp(const Op& op) {
  LaunchStats& stats = device_->stats();
  const bool tracing = device_->options().record_trace;
  const double t0 = tracing ? NowMicros() : 0.0;
  switch (op.kind) {
    case Op::Kind::kKernel:
      stats.logical_launches.fetch_add(1);
      stats.micro_launches.fetch_add(op.kernel.micro_kernels);
      if (op.kernel.fn) {
        op.kernel.fn();
      }
      break;
    case Op::Kind::kHostFunc:
      stats.host_funcs.fetch_add(1);
      op.fn();
      break;
    case Op::Kind::kMemcpy:
      stats.memcpys.fetch_add(1);
      stats.memcpy_bytes.fetch_add(op.bytes);
      if (op.fn) {
        op.fn();
      }
      break;
    case Op::Kind::kEventRecord:
      op.event->Signal();
      break;
    case Op::Kind::kGraph: {
      stats.graph_launches.fetch_add(1);
      const double g0 = tracing ? NowMicros() : 0.0;
      stats.graph_replayed_nodes.fetch_add(
          static_cast<std::int64_t>(op.graph->nodes_.size()));
      for (const VGraph::Node& node : op.graph->nodes_) {
        switch (node.kind) {
          case VGraph::Node::Kind::kKernel:
            // Replayed kernels execute without per-launch overhead; they are
            // counted separately via graph_replayed_nodes.
            if (node.kernel.fn) {
              node.kernel.fn();
            }
            break;
          case VGraph::Node::Kind::kHostFunc:
            stats.host_funcs.fetch_add(1);
            node.host_fn();
            break;
          case VGraph::Node::Kind::kMemcpy:
            stats.memcpys.fetch_add(1);
            stats.memcpy_bytes.fetch_add(node.bytes);
            if (node.host_fn) {
              node.host_fn();
            }
            break;
        }
      }
      if (tracing) {
        device_->RecordTrace(TraceEvent{"graph_replay", g0, NowMicros(), 3});
      }
      break;
    }
  }
  if (tracing && op.kind != Op::Kind::kGraph) {
    int kind = 0;
    const char* name = "op";
    switch (op.kind) {
      case Op::Kind::kKernel:
        kind = 0;
        name = op.kernel.name;
        break;
      case Op::Kind::kHostFunc:
        kind = 1;
        name = "host_func";
        break;
      case Op::Kind::kMemcpy:
        kind = 2;
        name = "memcpy";
        break;
      default:
        return;
    }
    device_->RecordTrace(TraceEvent{name, t0, NowMicros(), kind});
  }
}

void VStream::WorkerLoop() {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      op = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    ExecuteOp(op);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace ktx
