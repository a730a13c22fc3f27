// The benchmark's workloads, generated from a seed.
//
// A workload is the daemon flags it runs under, the signatures it warms in
// set-up, and the request stream of each measured round.  Everything comes
// from the seed passed on the command line; the daemon only ever sees the
// generated JSONL lines.
//
// Solve cost varies a hundredfold across (alpha, loss), so the seed never
// changes WHICH signatures a workload solves, only the order they arrive
// in, the consumers, counts, sample sizes and the arrival schedule.  That
// keeps the work per run equal across seeds, which is what lets runs with
// different seeds be compared.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Signature {
  int n = 0;
  int lo = 0;
  int hi = 0;
  std::string alpha;         ///< "p/q" in lowest terms
  double alpha_value = 0.0;  ///< p / q, as the service converts it
  std::string loss;          ///< canonical loss name
  bool geometric = false;
  std::string key;           ///< the canonical key replies must echo
};

struct Request {
  int sig = 0;
  int consumer = 0;
  int count = 0;
  uint64_t seed = 1;
  int samples = 1;
  int conn = 0;
  int64_t due_ns = 0;  ///< open loop: send time, from the phase start
};

struct Workload {
  std::string name;
  /// Daemon flags, pinned per workload (`--persist` is appended per round
  /// when `persist` is set).
  std::vector<std::string> flags;
  bool persist = false;
  bool open_loop = false;
  int connections = 1;
  double rate_qps = 0.0;  ///< open loop only
  /// Nominal length of one round: a run of S seconds makes
  /// max(3, round(S / round_seconds)) rounds of S / rounds seconds each.
  double round_seconds = 4.0;
  /// Latency statistics are taken per window of this many consecutive
  /// requests and reported as the median over windows (0: per round,
  /// reported as the median over rounds).
  size_t tail_window = 0;
  std::vector<Signature> sigs;
  std::vector<int> setup_sigs;  ///< solved serially in set-up, in order
  std::vector<std::string> consumers;
  /// Each consumer's composed level when a round starts (1 without a
  /// prepared ledger).
  std::vector<double> start_level;
  /// ledger_churn: how the prepared ledger was charged (one release of
  /// prepared_sig[c] per consumer c).
  std::vector<int> prepared_sig;
  uint64_t seed = 0;

  /// The measured request stream of round `round`.  `seconds` sizes the
  /// open-loop schedule; closed-loop lists are sized by the workload.
  std::vector<Request> RoundRequests(int round, double seconds) const;
};

/// Builds `name` from `seed`; false when the name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// One protocol query line (no trailing newline).
std::string QueryLine(const Workload& w, const Request& r, bool trace);

/// The set-up query for signature `sig` (charged to a set-up consumer).
std::string SetupLine(const Workload& w, int sig, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
