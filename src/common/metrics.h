// Process-wide metrics registry: named counters, gauges, and latency
// histograms behind one interface, with JSON and Prometheus-text snapshot
// export. Today it holds little: in src/ only the four
// "moe.gemm_calls_*_total" counters (which duplicate MoeStats), plus the
// "cli.*" metrics ktx_cli adds. No bench reads it, and ServingLoop::Stats
// writes its JSON fields by hand through JsonWriter, not from here. Making
// it the one metrics plane per engine is ROADMAP item 3.
//
// Naming convention: "<layer>.<what>[_total|_seconds|_bytes]", e.g.
// "serving.requests_completed_total", "engine.graph_captures_total",
// "kv.blocks_in_use". Prometheus export prefixes "ktx_" and rewrites '.'
// to '_'.
//
// Counter/Gauge updates are single relaxed atomics, safe on hot paths;
// HistogramMetric::Record takes a mutex (record off the per-token path or
// into a local LatencyHistogram and Merge() at the end).

#ifndef KTX_SRC_COMMON_METRICS_H_
#define KTX_SRC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"

namespace ktx {

// Minimal streaming JSON writer: correct escaping, automatic commas, stable
// formatting. Every JSON artifact in the repo (BENCH_*.json, Stats::ToJson,
// trace export) goes through this class.
class JsonWriter {
 public:
  JsonWriter() { stack_.reserve(8); }

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(std::int64_t value);
  void Uint(std::uint64_t value);
  void Double(double value);            // shortest round-trippable (%.12g)
  void FixedDouble(double value, int decimals);
  void Bool(bool value);
  void Null();
  void Raw(std::string_view json);      // pre-serialized value, caller's risk

  // Key + value in one call.
  void Field(std::string_view key, std::string_view value) { Key(key); String(value); }
  void Field(std::string_view key, const char* value) { Key(key); String(value); }
  void Field(std::string_view key, std::int64_t value) { Key(key); Int(value); }
  void Field(std::string_view key, int value) { Key(key); Int(value); }
  void Field(std::string_view key, double value) { Key(key); Double(value); }
  void Field(std::string_view key, bool value) { Key(key); Bool(value); }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void BeforeValue();
  void AppendEscaped(std::string_view s);

  std::string out_;
  std::vector<Scope> stack_;
  bool need_comma_ = false;
  bool after_key_ = false;
};

// Writes {count, mean_s, min_s, max_s, p50_s, p95_s, p99_s} for a histogram
// as the next JSON value (call after Key()).
void AppendHistogramJson(JsonWriter& w, const LatencyHistogram& h);

class Counter {
 public:
  void Increment() { Add(1); }
  void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class HistogramMetric {
 public:
  void Record(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Record(seconds);
  }
  // Cross-thread aggregation: fold a locally-recorded histogram in at once.
  void Merge(const LatencyHistogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Merge(other);
  }
  LatencyHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  LatencyHistogram histogram_;
};

// Named metric registry. Get*() returns a stable pointer (never invalidated;
// metrics live for the registry's lifetime), creating the metric on first
// use. Lookups take a mutex — resolve once and cache the pointer on hot
// paths.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  HistogramMetric* GetHistogram(std::string_view name);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}} with
  // keys in sorted order (deterministic output).
  std::string ToJson() const;
  // Prometheus text exposition format (counters/gauges as-is, histograms as
  // summaries with p50/p95/p99 quantiles plus _count and _sum).
  std::string ToPrometheusText() const;

  // Drops every registered metric. Pointers handed out earlier dangle; only
  // for tests that want a clean slate.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>> histograms_;
};

}  // namespace ktx

#endif  // KTX_SRC_COMMON_METRICS_H_
