// The daemon as a child process, and the loopback traffic engine.
//
// One thread drives every connection with nonblocking sockets.  Open loop
// sends each request at its scheduled time whatever the replies do, and
// times it from that schedule; closed loop keeps one request in flight per
// connection.  Every reply is checked as it arrives (Checker).

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace perfbench {

int64_t NowNs();

/// utime+stime and peak RSS of a live process, from /proc.
struct ProcStats {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
};
bool ReadProcStats(pid_t pid, ProcStats* out);

/// Splits the CPUs this process may use: the last one for the client
/// (this process, from now on), the rest for daemons started afterwards.
/// A spinning client that shared a CPU with the daemon would time-slice
/// against it and measure the scheduler.  No-op with fewer than two CPUs.
void PinClientCpu();

/// A geopriv_serve child on a loopback port.  The destructor kills and
/// reaps a daemon that was not stopped.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary --port 0 flags...` and waits for its announce line.
  bool Start(const std::string& binary, const std::vector<std::string>& flags,
             const std::string& log_path, std::string* error);
  /// Sends shutdown on a fresh connection and reaps the process; false if
  /// it did not exit cleanly.
  bool Stop(std::string* error);

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Blocking loopback connection with TCP_NODELAY; -1 on failure.
int Connect(int port);
/// Sends one line and reads one reply line on a blocking connection.
bool Call(int fd, const std::string& line, std::string* reply);

/// What one checked reply carried, for the traced run's cross-checks.
struct ReplyInfo {
  std::vector<int64_t> released;
  std::string loss;
  int64_t queue_us = -1;
  int64_t persist_us = -1;
};

/// The reply checks: well-formed JSON, ok, the echoed signature, released
/// values in 0..n (K of them), the level equal to the consumer's running
/// product, and one exact loss per signature across the whole run.
class Checker {
 public:
  explicit Checker(const Workload& w);

  /// Resets every consumer to its start level (a fresh daemon).
  void StartRound();
  /// Checks a reply to `r`; on failure records why and returns false.
  bool Check(const Request& r, std::string_view line, ReplyInfo* info);
  /// Checks a set-up reply (consumer "setup").
  bool CheckSetup(int sig, std::string_view line, ReplyInfo* info);
  /// Records a failure found outside a reply check.
  bool Fail(const std::string& why, std::string_view line);

  /// Exact loss each signature was served with ("" if never seen).
  const std::vector<std::string>& losses() const { return losses_; }
  const std::string& first_failure() const { return first_failure_; }
  int64_t failures() const { return failures_; }

 private:
  bool Verify(int sig, int samples, double* level, std::string_view line,
              ReplyInfo* info);

  const Workload& w_;
  std::vector<double> levels_;
  double setup_level_ = 1.0;
  std::vector<std::string> losses_;
  std::string first_failure_;
  int64_t failures_ = 0;
};

struct PhaseResult {
  /// Per request: latency in microseconds (+inf when it failed or never
  /// came back), and whether it was attempted at all.
  std::vector<double> latency_us;
  std::vector<char> attempted;
  /// Per request: when its latency clock started (the schedule in open
  /// loop, the send in closed loop) and when its reply arrived (0: never).
  std::vector<int64_t> from_ns;
  std::vector<int64_t> reply_ns;
  std::vector<ReplyInfo> info;
  int64_t attempted_count = 0;
  int64_t correct = 0;
  double seconds = 0.0;      ///< phase start to last reply
  double client_cpu_s = 0.0;
  std::vector<double> lateness_us;  ///< open loop: send time minus schedule
};

/// Runs one measured phase over `fds` (one per workload connection).
/// Closed loop stops issuing after `stop_after_s` when it is positive.
PhaseResult RunPhase(const Workload& w, const std::vector<Request>& requests,
                     const std::vector<int>& fds, bool trace,
                     double stop_after_s, Checker* checker);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
