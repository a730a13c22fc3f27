// Order statistics for the benchmark's reports.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) by linear interpolation; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples, and that percentile (100 * (n-10)/n).
/// With ten or fewer samples it is the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t beyond = 10;
  if (v.size() <= beyond) {
    t.value = v.back();
    return t;
  }
  const size_t index = v.size() - beyond - 1;
  t.value = v[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) /
                 static_cast<double>(v.size());
  return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
