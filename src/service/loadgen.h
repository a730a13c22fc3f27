// Open-loop load generator for the event-loop daemon.
//
// Measuring a concurrent server with a closed-loop client (send, wait,
// send) understates latency under load: the client slows down with the
// server, so queueing delay never shows up in the numbers (coordinated
// omission).  This generator's primary mode is OPEN-LOOP: request
// arrivals follow a Poisson process at a fixed rate, scheduled from a
// deterministic Xoshiro256 stream, and each request's latency is measured
// from its SCHEDULED arrival — so time a request spends queued behind a
// slow server counts against the server, exactly as it would for the
// independent clients the arrivals model.
//
// rate = 0 switches to closed-loop saturation mode: every connection
// keeps `depth` requests outstanding, which measures the server's
// throughput ceiling rather than its latency under a fixed offered load.
//
// The generator is a single-threaded nonblocking poll(2) client driving
// N concurrent connections (round-robin arrival assignment, per-connection
// write backpressure, partial-line reassembly on replies).  Connections a
// server never accepts or serves are tolerated: their requests simply stay
// unanswered and the run drains out on its deadline.

#ifndef GEOPRIV_SERVICE_LOADGEN_H_
#define GEOPRIV_SERVICE_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace geopriv {

struct LoadOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Concurrent TCP connections.
  int connections = 1;
  /// Offered load in queries/second across all connections (Poisson
  /// arrivals).  0 = closed-loop: keep `depth` outstanding per connection.
  double rate = 0.0;
  /// Closed-loop pipeline depth per connection (ignored in open loop).
  int depth = 1;
  /// Arrival-generation window.
  int64_t duration_ms = 2000;
  /// Extra time after the window to wait for outstanding replies.
  int64_t drain_ms = 2000;
  /// Seed for the arrival process and the per-request seed counter base.
  uint64_t seed = 1;
  /// Request-line prefix; each request is `line_prefix + <uint64> + "}"`
  /// with a distinct counter value, e.g.
  ///   {"op":"query","consumer":"load","n":5,"alpha":"1/2","count":2,"seed":
  /// Every line must elicit exactly one reply line (no batch ops).
  std::string line_prefix;
};

struct LoadStats {
  int connected = 0;       ///< connections whose connect() completed
  uint64_t sent = 0;       ///< requests written (or queued) to the wire
  uint64_t completed = 0;  ///< reply lines matched to a request
  uint64_t rejected = 0;   ///< shed replies (server said Unavailable)
  uint64_t errors = 0;     ///< non-ok replies other than sheds
  uint64_t malformed = 0;  ///< reply lines that were not protocol JSON
  double elapsed_s = 0.0;  ///< first arrival to last reply (or drain end)
  double throughput_qps = 0.0;  ///< completed / elapsed_s
  /// Latency percentiles over completed requests, milliseconds.  Open
  /// loop: from scheduled arrival.  Closed loop: from the actual send.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  /// Client-side latency histogram, microseconds, in the SAME log2
  /// buckets as the server's metrics registry (util/metrics.h: bucket i
  /// counts latencies in (2^(i-1), 2^i], bucket 0 counts <= 1µs; the last
  /// slot is +Inf) — so a scraped server histogram and this one line up
  /// bucket for bucket.
  std::vector<uint64_t> latency_us_buckets;
};

/// Runs one load-generation session against a live daemon.  Fails only on
/// setup errors (no connection could be established, bad options); server
/// misbehavior during the run lands in the stats, not the status.
Result<LoadStats> RunLoad(const LoadOptions& options);

/// Formats `stats` as one flat JSON line (the loadgen tool's output; CI
/// greps it).
std::string FormatLoadStats(const LoadStats& stats);

/// Formats the client-side latency histogram as one flat JSON line with
/// CUMULATIVE per-bucket counts (Prometheus-style `le`): keys "le_1us",
/// "le_2us", ..., "le_inf", plus "count" and the percentile summary's
/// source size.  Emitted by `geopriv_loadgen --dump-histogram 1`.
std::string FormatLatencyHistogram(const LoadStats& stats);

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_LOADGEN_H_
