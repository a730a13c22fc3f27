// Process-wide metrics registry: counters, gauges and log2-bucketed
// latency histograms for the serving daemon.
//
// Design constraints, in order:
//
//   1. The hot path must not notice.  A cached query costs ~0.8us end to
//      end, so instrumentation follows the fault-injection discipline
//      (util/fault_injection.h): when metrics are disabled an update is
//      ONE relaxed atomic load, and when enabled an update is a relaxed
//      fetch_add on a cache-line-private stripe — no locks, no clock
//      reads, no allocation.
//   2. Writers never contend.  Counter/gauge/histogram cells are striped
//      across 8 cache-line-aligned slots; a thread hashes its id to a
//      stripe once and keeps hammering the same line.  Readers sum the
//      stripes, which makes reads O(stripes) and writes wait-free.
//   3. Registration is slow-path-only.  Metrics are interned by
//      (name, labels) under a mutex the first time they are looked up;
//      call sites cache the returned pointer (metrics live forever), so
//      steady state never touches the registry lock.
//
// Histograms use log2 buckets: observation v (a nonnegative integer,
// conventionally microseconds or pivot counts) lands in the first bucket
// whose upper bound 2^i satisfies v <= 2^i, with bucket 0 catching v <= 1
// and a +Inf bucket above 2^(kBuckets-1).  Bucket counts are cumulative
// only at render time; internally each bucket is an independent striped
// cell so concurrent observes never touch shared state.
//
// Exposition: Registry::Collect() returns a consistent-enough snapshot
// (each cell is read atomically; cross-metric skew is possible and fine
// for monitoring), and RenderPrometheus() formats a snapshot in the
// Prometheus text format, ready for a GET /metrics scrape.

#ifndef GEOPRIV_UTIL_METRICS_H_
#define GEOPRIV_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace geopriv {
namespace metrics {

namespace internal {
// True iff the registry records updates.  Inline so the disabled fast
// path compiles to a single relaxed load at every instrumentation site.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True iff metric updates are recorded (fast path; relaxed load).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on (the default) or off.  Off is for measuring the
/// instrumentation overhead itself, not for production.
void SetEnabled(bool enabled);

/// Number of write stripes per metric.  8 x 64B = one metric's counter
/// cells span 512B; plenty for the daemon's worker counts.
inline constexpr int kStripes = 8;

/// Histogram bucket count: upper bounds 2^0 .. 2^(kBuckets-1), plus a
/// +Inf bucket.  2^31 us ~= 36 minutes, far beyond any request deadline.
inline constexpr int kBuckets = 32;

namespace internal {

struct alignas(64) Cell {
  std::atomic<int64_t> value{0};
};

/// The calling thread's stripe index (hashed thread id, computed once).
int StripeIndex();

}  // namespace internal

/// Monotonically increasing counter.
class Counter {
 public:
  /// Adds `delta` (>= 0).  Disabled cost: one relaxed load.
  void Add(int64_t delta) {
    if (!Enabled()) return;
    cells_[internal::StripeIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over stripes.
  int64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;
  internal::Cell cells_[kStripes];
};

/// Last-writer-wins instantaneous value (queue depth, open connections).
/// Set() is a plain store; Add() is striped like a counter, so a gauge
/// is either *set* from one place or *adjusted* from many — not both.
class Gauge {
 public:
  /// Overwrites the gauge (single-writer usage).
  void Set(int64_t value) {
    if (!Enabled()) return;
    cells_[0].value.store(value, std::memory_order_relaxed);
  }

  /// Adjusts the gauge by `delta` (multi-writer usage, e.g. +1/-1 on
  /// connection open/close).
  void Add(int64_t delta) {
    if (!Enabled()) return;
    cells_[internal::StripeIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const;

 private:
  friend class Registry;
  Gauge() = default;
  internal::Cell cells_[kStripes];
};

/// Log2-bucketed histogram of nonnegative integer observations.
class Histogram {
 public:
  /// Bucket index for observation `v`: smallest i with v <= 2^i, clamped
  /// to the +Inf bucket (index kBuckets).  v <= 1 lands in bucket 0.
  static int BucketFor(int64_t v);

  /// Upper bound of bucket `i` (2^i); the +Inf bucket has no finite bound.
  static int64_t BucketBound(int i) { return int64_t{1} << i; }

  /// Records one observation.  Disabled cost: one relaxed load.
  void Observe(int64_t v) {
    if (!Enabled()) return;
    const int stripe = internal::StripeIndex();
    count_[stripe].value.fetch_add(1, std::memory_order_relaxed);
    sum_[stripe].value.fetch_add(v < 0 ? 0 : v, std::memory_order_relaxed);
    buckets_[BucketFor(v)][stripe].value.fetch_add(
        1, std::memory_order_relaxed);
  }

  int64_t Count() const;
  int64_t Sum() const;
  /// Per-bucket (non-cumulative) counts, kBuckets + 1 entries.
  std::vector<int64_t> BucketCounts() const;

 private:
  friend class Registry;
  Histogram() = default;
  internal::Cell count_[kStripes];
  internal::Cell sum_[kStripes];
  internal::Cell buckets_[kBuckets + 1][kStripes];
};

/// Sorted label set, rendered as {k="v",...}.
using Labels = std::map<std::string, std::string>;

/// One metric's state at Collect() time.
struct Sample {
  std::string name;
  std::string help;
  std::string type;  // "counter" | "gauge" | "histogram"
  Labels labels;
  int64_t value = 0;                  // counter / gauge
  int64_t count = 0;                  // histogram
  int64_t sum = 0;                    // histogram
  std::vector<int64_t> buckets;       // histogram, per-bucket counts
};

/// The metric registry.  One process-wide instance (Default()); tests may
/// construct private registries.  Returned pointers are stable for the
/// registry's lifetime — cache them at the call site.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Interns and returns the metric for (name, labels), registering it
  /// with `help` on first use.  Type mismatches on an existing name are a
  /// programming error and abort.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {});

  /// Snapshot of every registered metric, sorted by (name, labels).
  std::vector<Sample> Collect() const;

  /// The process-wide registry.
  static Registry* Default();

 private:
  struct Entry;
  Entry* Intern(const std::string& name, const std::string& help,
                const Labels& labels, const char* type);

  mutable std::mutex mu_;
  std::vector<Entry*> entries_;
};

/// Prometheus text exposition format (version 0.0.4) of `samples`, which
/// must be sorted by (name, labels) as Collect() returns them.
std::string RenderPrometheus(const std::vector<Sample>& samples);

}  // namespace metrics
}  // namespace geopriv

#endif  // GEOPRIV_UTIL_METRICS_H_
