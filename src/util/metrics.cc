#include "util/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

namespace geopriv {
namespace metrics {

namespace internal {

std::atomic<bool> g_enabled{true};

int StripeIndex() {
  // Hash the thread id once; every later update from this thread lands on
  // the same cache line.
  thread_local const int stripe = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      static_cast<size_t>(kStripes));
  return stripe;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

int64_t SumCells(const internal::Cell (&cells)[kStripes]) {
  int64_t total = 0;
  for (const internal::Cell& cell : cells) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

int64_t Counter::Value() const { return SumCells(cells_); }
int64_t Gauge::Value() const { return SumCells(cells_); }

int Histogram::BucketFor(int64_t v) {
  if (v <= 1) return 0;
  // Smallest i with v <= 2^i == bit width of (v - 1).
  int i = 0;
  uint64_t u = static_cast<uint64_t>(v - 1);
  while (u > 0) {
    u >>= 1;
    ++i;
  }
  return i < kBuckets ? i : kBuckets;
}

int64_t Histogram::Count() const { return SumCells(count_); }
int64_t Histogram::Sum() const { return SumCells(sum_); }

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(kBuckets + 1);
  for (int b = 0; b <= kBuckets; ++b) out[b] = SumCells(buckets_[b]);
  return out;
}

struct Registry::Entry {
  std::string name;
  std::string help;
  const char* type;
  Labels labels;
  // Exactly one of these is live, selected by `type`.
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

Registry::~Registry() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry* entry : entries_) delete entry;
}

Registry::Entry* Registry::Intern(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels, const char* type) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry* entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      if (std::strcmp(entry->type, type) != 0) {
        std::fprintf(stderr,
                     "metrics: %s re-registered as %s (was %s)\n",
                     name.c_str(), type, entry->type);
        std::abort();
      }
      return entry;
    }
  }
  Entry* entry = new Entry;
  entry->name = name;
  entry->help = help;
  entry->type = type;
  entry->labels = labels;
  entries_.push_back(entry);
  return entry;
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help, const Labels& labels) {
  return &Intern(name, help, labels, "counter")->counter;
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels) {
  return &Intern(name, help, labels, "gauge")->gauge;
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  return &Intern(name, help, labels, "histogram")->histogram;
}

std::vector<Sample> Registry::Collect() const {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const Entry* entry : entries_) {
      Sample sample;
      sample.name = entry->name;
      sample.help = entry->help;
      sample.type = entry->type;
      sample.labels = entry->labels;
      if (std::strcmp(entry->type, "counter") == 0) {
        sample.value = entry->counter.Value();
      } else if (std::strcmp(entry->type, "gauge") == 0) {
        sample.value = entry->gauge.Value();
      } else {
        sample.count = entry->histogram.Count();
        sample.sum = entry->histogram.Sum();
        sample.buckets = entry->histogram.BucketCounts();
      }
      out.push_back(std::move(sample));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

namespace {

std::string FormatLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += "\"";
  }
  out += "}";
  return out;
}

// Labels with one extra pair appended (for histogram `le`).
std::string FormatLabelsWith(const Labels& labels, const std::string& key,
                             const std::string& value) {
  Labels extended = labels;
  extended[key] = value;
  return FormatLabels(extended);
}

}  // namespace

std::string RenderPrometheus(const std::vector<Sample>& samples) {
  std::string out;
  out.reserve(samples.size() * 96);
  const std::string* last_name = nullptr;
  char buf[64];
  for (const Sample& sample : samples) {
    // Label variants of one metric share a single HELP/TYPE header.
    if (last_name == nullptr || *last_name != sample.name) {
      out += "# HELP " + sample.name + " " + sample.help + "\n";
      out += "# TYPE " + sample.name + " " + sample.type + "\n";
      last_name = &sample.name;
    }
    if (sample.type == "histogram") {
      int64_t cumulative = 0;
      for (int b = 0; b < static_cast<int>(sample.buckets.size()); ++b) {
        cumulative += sample.buckets[b];
        std::string le;
        if (b < kBuckets) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(Histogram::BucketBound(b)));
          le = buf;
        } else {
          le = "+Inf";
        }
        std::snprintf(buf, sizeof(buf), " %lld\n",
                      static_cast<long long>(cumulative));
        out += sample.name + "_bucket" +
               FormatLabelsWith(sample.labels, "le", le) + buf;
      }
      std::snprintf(buf, sizeof(buf), " %lld\n",
                    static_cast<long long>(sample.sum));
      out += sample.name + "_sum" + FormatLabels(sample.labels) + buf;
      std::snprintf(buf, sizeof(buf), " %lld\n",
                    static_cast<long long>(sample.count));
      out += sample.name + "_count" + FormatLabels(sample.labels) + buf;
    } else {
      std::snprintf(buf, sizeof(buf), " %lld\n",
                    static_cast<long long>(sample.value));
      out += sample.name + FormatLabels(sample.labels) + buf;
    }
  }
  return out;
}

Registry* Registry::Default() {
  // Leaked intentionally: instrumentation sites cache metric pointers and
  // may fire during static destruction.
  static Registry* const registry = new Registry;
  return registry;
}

}  // namespace metrics
}  // namespace geopriv
