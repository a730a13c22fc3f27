// perfbench_client — the end-to-end benchmark of the geopriv_serve daemon.
//
//   perfbench_client --workload hot_release --seed 7 --seconds 10 --trace 0
//                    --serve PATH/geopriv_serve --work DIR
//
// Runs the workload in rounds.  Each round starts a fresh daemon, times its
// set-up, drives the measured phase over loopback TCP and stops the daemon.
// End-to-end metrics are medians over rounds or latency windows, and the
// fastest of many set-ups.  With --trace 1 the rounds
// alternate untraced and traced ("trace":true on every query, then a
// `metrics` read), the traced round is replayed in process through the
// library's public calls (replay.h), and the per-layer metrics are printed
// instead.  The last stdout line is the result object; the line before it
// carries per-round detail.  Exit status 0 only when every reply checked.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "reply.h"
#include "replay.h"
#include "stats.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve;
  std::string work;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = value == "1";
    } else if (key == "--serve") {
      a->serve = value;
    } else if (key == "--work") {
      a->work = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->serve.empty() &&
         !a->work.empty() && a->seconds > 0;
}

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double p50_ms = 0.0;
  Tail tail;  // milliseconds
  double qps = 0.0;
  double server_cpu_s = 0.0;
  double hwm_mb = 0.0;
  double client_cpu_s = 0.0;
  double phase_s = 0.0;
  double lateness_p99_us = 0.0;
  double lateness_max_us = 0.0;
  double ping_rtt_us = 0.0;
  int64_t attempted = 0;
  int64_t correct = 0;
  std::map<std::string, double> server_metrics;  // traced: the metrics op
  std::vector<double> window_p50;
  std::vector<Tail> window_tail;
  /// Traced: trace_queue_us of the set-up queries (executor-queued misses).
  std::vector<double> setup_queue_us;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : a_(args), w_(w), checker_(w) {}

  int Run();

 private:
  /// Starts a daemon and brings it to the measured phase: the timed
  /// set-up.  `control` is a connection for control traffic.  A traced
  /// set-up sends "trace":true and records each query's queue wait.
  bool SetUp(Daemon* daemon, int* control, bool traced, int64_t* setup_ok,
             double* setup_s, std::vector<double>* queue_us);
  /// A set-up with no measured phase, for more set-up samples.
  bool SetUpOnly(double* setup_s);
  bool RunRound(int index, bool traced, double seconds, Round* out,
                PhaseResult* phase_out, std::vector<Request>* requests_out);
  void Fail(const std::string& why) { checker_.Fail(why, ""); }
  void PrintRounds() const;

  const Args& a_;
  const Workload& w_;
  Checker checker_;
  std::string state_template_;
  std::vector<Round> rounds_;
  std::vector<double> setups_;  ///< every set-up of an untraced run
};

bool Bench::SetUp(Daemon* daemon, int* control, bool traced, int64_t* setup_ok,
                  double* setup_s, std::vector<double>* queue_us) {
  std::vector<std::string> flags = w_.flags;
  if (w_.persist) {
    const std::string dir = a_.work + "/round-state";
    if (!CopyState(state_template_, dir)) {
      Fail("cannot copy the prepared state");
      return false;
    }
    // Untimed: write back what earlier rounds left dirty, so this round's
    // load and rewrites do not queue behind it on the disk.
    const int dir_fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
      syncfs(dir_fd);
      close(dir_fd);
    }
    flags.push_back("--persist");
    flags.push_back(dir);
  }
  // Timed: exec, announce, first reply, then the prewarm solves.
  std::string error;
  const int64_t t0 = NowNs();
  if (!daemon->Start(a_.serve, flags, a_.work + "/daemon.log", &error)) {
    Fail(error);
    return false;
  }
  *control = Connect(daemon->port());
  std::string reply;
  if (*control < 0 || !Call(*control, "{\"op\":\"ping\"}", &reply) ||
      reply != "{\"op\":\"ping\",\"ok\":true}") {
    Fail("daemon did not answer its first ping");
    return false;
  }
  *setup_ok = 0;
  if (!w_.persist) {
    for (int sig : w_.setup_sigs) {
      ReplyInfo info;
      if (!Call(*control, SetupLine(w_, sig, traced), &reply) ||
          !checker_.CheckSetup(sig, reply, &info)) {
        Fail("set-up query failed");
        return false;
      }
      ++*setup_ok;
      if (queue_us != nullptr && info.queue_us >= 0) {
        queue_us->push_back(static_cast<double>(info.queue_us));
      }
    }
  }
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

bool Bench::SetUpOnly(double* setup_s) {
  checker_.StartRound();
  Daemon daemon;
  int control = -1;
  int64_t setup_ok = 0;
  const bool ok = SetUp(&daemon, &control, false, &setup_ok, setup_s, nullptr);
  if (control >= 0) close(control);
  std::string error;
  if (ok && !daemon.Stop(&error)) Fail(error);
  return ok;
}

bool Bench::RunRound(int index, bool traced, double seconds, Round* out,
                     PhaseResult* phase_out, std::vector<Request>* requests_out) {
  std::vector<Request> requests = w_.RoundRequests(index, seconds);
  // Closed-loop rounds stop on time, but a traced run's counts must repeat
  // exactly, so its rounds send a fixed number of requests instead.
  double stop_after_s = seconds;
  if (a_.trace && !w_.open_loop) {
    constexpr size_t kTracedRequests = 300;
    if (requests.size() > kTracedRequests) requests.resize(kTracedRequests);
    stop_after_s = 0.0;
  }
  checker_.StartRound();
  Daemon daemon;
  int control = -1;
  int64_t setup_ok = 0;
  if (!SetUp(&daemon, &control, traced, &setup_ok, &out->setup_s,
             &out->setup_queue_us)) {
    if (control >= 0) close(control);
    return false;
  }
  out->traced = traced;
  std::string reply;
  std::string error;

  if (traced) {
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const int64_t s = NowNs();
      if (!Call(control, "{\"op\":\"ping\"}", &reply)) break;
      rtt.push_back(static_cast<double>(NowNs() - s) / 1e3);
    }
    out->ping_rtt_us = Median(rtt);
  }
  // No more than the workload's connections are open during the phase.
  close(control);
  control = -1;

  std::vector<int> fds;
  for (int c = 0; c < w_.connections; ++c) {
    const int fd = Connect(daemon.port());
    if (fd < 0) {
      Fail("cannot connect");
      break;
    }
    fds.push_back(fd);
  }
  ProcStats before, after;
  ReadProcStats(daemon.pid(), &before);
  PhaseResult phase;
  if (static_cast<int>(fds.size()) == w_.connections) {
    phase = RunPhase(w_, requests, fds, traced, stop_after_s, &checker_);
  }
  ReadProcStats(daemon.pid(), &after);
  for (int fd : fds) close(fd);

  if (traced) {
    // The daemon's own counters must agree with what the client saw.
    control = Connect(daemon.port());
    ReplyObject metrics;
    if (control < 0 || !Call(control, "{\"op\":\"metrics\"}", &reply) ||
        !metrics.Parse(reply)) {
      Fail("metrics op failed");
    } else {
      for (const JsonField& f : metrics.fields()) {
        if (f.kind == JsonField::Kind::kNumber) {
          out->server_metrics[std::string(f.key)] =
              std::strtod(std::string(f.text).c_str(), nullptr);
        }
      }
      const double ok_replies = out->server_metrics["geopriv_query_replies_total_ok"];
      if (ok_replies != static_cast<double>(setup_ok + phase.correct)) {
        Fail("daemon counted " + std::to_string(ok_replies) +
             " ok replies, the client checked " +
             std::to_string(setup_ok + phase.correct));
      }
    }
  }
  if (control >= 0) close(control);
  if (!daemon.Stop(&error)) Fail(error);

  std::vector<double> latencies;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (phase.attempted.empty() || phase.attempted[i] || w_.open_loop) {
      latencies.push_back(phase.latency_us.empty()
                              ? std::numeric_limits<double>::infinity()
                              : phase.latency_us[i] / 1e3);
    }
  }
  out->attempted = w_.open_loop ? static_cast<int64_t>(requests.size())
                                : phase.attempted_count;
  out->correct = phase.correct;
  out->p50_ms = Median(latencies);
  out->tail = TailOf(latencies);
  const size_t window = w_.tail_window > 0 ? w_.tail_window : latencies.size();
  for (size_t s0 = 0; window > 0 && s0 + window <= latencies.size(); s0 += window) {
    std::vector<double> v(latencies.begin() + s0, latencies.begin() + s0 + window);
    out->window_p50.push_back(Median(v));
    out->window_tail.push_back(TailOf(v));
  }
  out->phase_s = phase.seconds;
  out->qps = phase.seconds > 0 ? static_cast<double>(phase.correct) / phase.seconds : 0.0;
  out->server_cpu_s = after.cpu_s - before.cpu_s;
  out->hwm_mb = after.hwm_mb;
  out->client_cpu_s = phase.client_cpu_s;
  if (!phase.lateness_us.empty()) {
    out->lateness_p99_us = Quantile(phase.lateness_us, 0.99);
    out->lateness_max_us = Quantile(phase.lateness_us, 1.0);
  }
  if (phase_out != nullptr) *phase_out = std::move(phase);
  if (requests_out != nullptr) *requests_out = std::move(requests);
  return true;
}

void Bench::PrintRounds() const {
  std::fprintf(stderr,
               "%-5s %-6s %9s %9s %10s %9s %10s %10s %8s %11s %10s\n",
               "round", "traced", "setup_s", "p50_ms", "tail_ms", "tail_pct",
               "samples", "qps", "cpu_us/q", "late_p99_us", "client_cpu");
  for (size_t r = 0; r < rounds_.size(); ++r) {
    const Round& x = rounds_[r];
    std::fprintf(stderr,
                 "%-5zu %-6s %9.4f %9.4f %10.4f %9.3f %10zu %10.1f %8.2f %11.1f %9.0f%%\n",
                 r, x.traced ? "yes" : "no", x.setup_s, x.p50_ms, x.tail.value,
                 x.tail.percentile, x.tail.samples, x.qps,
                 x.correct > 0 ? x.server_cpu_s * 1e6 / static_cast<double>(x.correct) : 0.0,
                 x.lateness_p99_us,
                 x.phase_s > 0 ? 100.0 * x.client_cpu_s / x.phase_s : 0.0);
  }
}

// Windowed latency (hot_release, ~600 windows of 500 requests at 30 s) is
// reported as the median over windows of each window's median and tail.
// A change that slows more than half the windows moves it; host steal,
// which stalls the daemon for 10-20 ms at random moments, moves it only
// in the minutes when it hits most windows.
// Round-level figures (throughput, CPU per query, a round's latency) are
// medians over rounds.  Set-up is deterministic work, reported as the
// fastest of its repetitions: a host that runs the same solves at two
// speeds (see README.md) leaves the median of a run in either one.

// One metric of the result line.
std::string Metric(const std::string& name, double value, const char* unit) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                name.c_str(), std::isfinite(value) ? value : -1.0, unit);
  return buf;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) out += (i ? "," : "") + parts[i];
  return out;
}

int Bench::Run() {
  std::error_code ec;
  std::filesystem::create_directories(a_.work, ec);
  if (w_.persist) {
    state_template_ = a_.work + "/prepared-state";
    std::string error;
    if (!PrepareState(w_, state_template_, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
  }

  // Round plan: a fixed number of rounds for a given --seconds, so every
  // run of one workload does the same work.
  const int rounds = std::max(
      3, static_cast<int>(std::lround(a_.seconds / w_.round_seconds)));
  const double round_seconds = a_.seconds / rounds;
  // Set-up samples: the rounds' own set-ups plus set-up-only repetitions
  // after each round, at least kSetUps in all and kSetUpSeconds of
  // repetitions, so a cheap set-up gets many more samples.  Spreading them
  // over the run lets the fastest come from its quickest minute.
  constexpr size_t kSetUps = 21;
  constexpr size_t kMaxSetUps = 200;
  constexpr double kSetUpSeconds = 2.0;
  PhaseResult traced_phase;
  std::vector<Request> traced_requests;
  bool have_traced = false;
  if (!a_.trace) {
    bool ok = true;
    for (int r = 0; ok && r < rounds; ++r) {
      Round round;
      if (!RunRound(r, false, round_seconds, &round, nullptr, nullptr)) break;
      rounds_.push_back(round);
      setups_.push_back(round.setup_s);
      const size_t share = static_cast<size_t>(r + 1);
      const size_t total = static_cast<size_t>(rounds);
      const size_t want = (kSetUps * share + total - 1) / total;
      const size_t cap = kMaxSetUps * share / total;
      const int64_t start = NowNs();
      while (setups_.size() < cap &&
             (setups_.size() < want ||
              static_cast<double>(NowNs() - start) / 1e9 < kSetUpSeconds / rounds)) {
        double setup_s = 0.0;
        ok = SetUpOnly(&setup_s);
        if (!ok) break;
        setups_.push_back(setup_s);
      }
    }
  } else {
    // Untraced and traced rounds alternate on the same inputs.
    for (int pair = 0; pair < 2; ++pair) {
      for (int traced = 0; traced < 2; ++traced) {
        Round round;
        const bool first_traced = traced && !have_traced;
        if (!RunRound(pair, traced, round_seconds, &round,
                      first_traced ? &traced_phase : nullptr,
                      first_traced ? &traced_requests : nullptr)) {
          break;
        }
        have_traced = have_traced || traced;
        rounds_.push_back(round);
      }
    }
  }
  PrintRounds();

  int64_t attempted = 0, correct = 0;
  std::vector<double> cpu_us_per_query, p50, qps, hwm, late99, wp50, wtail;
  Tail window_shape;
  std::vector<double> p50_traced, cpu_traced, p50_plain, cpu_plain;
  for (const Round& r : rounds_) {
    const double cpu_us =
        r.correct > 0 ? r.server_cpu_s * 1e6 / static_cast<double>(r.correct) : 0.0;
    (r.traced ? p50_traced : p50_plain).push_back(r.p50_ms);
    (r.traced ? cpu_traced : cpu_plain).push_back(cpu_us);
    if (r.traced) continue;
    attempted += r.attempted;
    correct += r.correct;
    if (r.correct > 0) cpu_us_per_query.push_back(cpu_us);
    p50.push_back(r.p50_ms);
    qps.push_back(r.qps);
    hwm.push_back(r.hwm_mb);
    late99.push_back(r.lateness_p99_us);
    for (double v : r.window_p50) wp50.push_back(v);
    for (const Tail& t : r.window_tail) wtail.push_back(t.value);
    if (!r.window_tail.empty()) window_shape = r.window_tail.front();
  }
  // Every failed check is in the checker's count and every missing reply
  // in attempted - correct; a failed reply is in both, so take the larger.
  int64_t failed = std::max(attempted - correct, checker_.failures());
  if (rounds_.empty()) failed = std::max<int64_t>(failed, 1);

  std::vector<std::string> metrics;
  std::ostringstream detail;
  detail << "{\"perfbench\":\"detail\",\"workload\":\"" << w_.name
         << "\",\"seed\":" << w_.seed << ",\"rounds\":[";
  for (size_t i = 0; i < rounds_.size(); ++i) {
    const Round& r = rounds_[i];
    detail << (i ? "," : "") << "{\"traced\":" << (r.traced ? "true" : "false")
           << ",\"setup_s\":" << r.setup_s << ",\"latency_p50_ms\":" << r.p50_ms
           << ",\"latency_tail_ms\":" << r.tail.value
           << ",\"tail_percentile\":" << r.tail.percentile
           << ",\"samples\":" << r.tail.samples << ",\"throughput_qps\":" << r.qps
           << ",\"server_cpu_s\":" << r.server_cpu_s
           << ",\"client_cpu_s\":" << r.client_cpu_s
           << ",\"phase_s\":" << r.phase_s
           << ",\"lateness_p99_us\":" << r.lateness_p99_us
           << ",\"lateness_max_us\":" << r.lateness_max_us << "}";
  }
  detail << "],\"windows\":" << wtail.size()
         << ",\"window_samples\":" << window_shape.samples
         << ",\"window_tail_percentile\":" << window_shape.percentile
         << ",\"setups_s\":[";
  for (size_t i = 0; i < setups_.size(); ++i) detail << (i ? "," : "") << setups_[i];
  detail << "]";

  if (!a_.trace) {
    // A generator that fell behind its schedule measured itself, not the
    // daemon: flag it rather than report its latency as the server's.
    const bool client_bound =
        w_.open_loop && Median(late99) > 0.5 * Median(p50) * 1e3;
    if (client_bound) {
      std::fprintf(stderr, "perfbench: WARNING client-bound run: schedule "
                           "lateness p99 %.1f us vs latency p50 %.1f us\n",
                   Median(late99), Median(p50) * 1e3);
    }
    detail << ",\"client_bound\":" << (client_bound ? "true" : "false");
    metrics = {
        Metric("setup_s", Quantile(setups_, 0.0), "s"),
        Metric("latency_p50_ms", Median(wp50), "ms"),
        Metric("latency_tail_ms", Median(wtail), "ms"),
        Metric("throughput_qps", Median(qps), "1/s"),
        Metric("ok_ratio",
               attempted > 0
                   ? static_cast<double>(correct) / static_cast<double>(attempted)
                   : 0.0,
               "ratio"),
        Metric("server_cpu_us_per_query", Median(cpu_us_per_query), "us"),
        Metric("server_peak_rss_mb", Median(hwm), "MB"),
    };
  } else {
    Tracer tracer;
    ReplayResult replay;
    if (have_traced) {
      // Wire spans first: one per request of the traced round, keyed by
      // the same request id as the in-process spans.
      for (size_t i = 0; i < traced_requests.size(); ++i) {
        if (traced_phase.reply_ns[i] > 0) {
          tracer.Add("wire.request", Span::kNoParent, i, traced_phase.from_ns[i],
                     traced_phase.reply_ns[i]);
        }
      }
      replay = Replay(w_, traced_requests, traced_phase, checker_,
                      state_template_, a_.work, &tracer);
    } else {
      replay.failures = 1;
      replay.first_failure = "no traced round completed";
    }
    if (replay.failures > 0) {
      failed += replay.failures;
      std::fprintf(stderr, "perfbench: replay check failed: %s\n",
                   replay.first_failure.c_str());
    }
    std::fprintf(stderr, "%s", tracer.SelfTimeTable().c_str());
    const std::string spans_path = a_.work + "/spans-" + w_.name + "-seed" +
                                   std::to_string(w_.seed) + ".jsonl";
    tracer.WriteJsonl(spans_path);
    detail << ",\"spans\":\"" << spans_path << "\"";

    std::map<std::string, double>& m = replay.metrics;
    const Round* first = nullptr;
    std::vector<double> rtt, queue_us, persist_us;
    for (const Round& r : rounds_) {
      if (!r.traced) continue;
      if (first == nullptr) first = &r;
      rtt.push_back(r.ping_rtt_us);
      // The set-up misses go through the executor queue; cached queries
      // run inline on the I/O thread and wait in no queue.
      queue_us.insert(queue_us.end(), r.setup_queue_us.begin(), r.setup_queue_us.end());
    }
    const bool setup_queued = !queue_us.empty();
    for (size_t i = 0; i < traced_phase.info.size(); ++i) {
      if (!setup_queued && traced_phase.info[i].queue_us >= 0) {
        queue_us.push_back(static_cast<double>(traced_phase.info[i].queue_us));
      }
      if (traced_phase.info[i].persist_us >= 0) {
        persist_us.push_back(static_cast<double>(traced_phase.info[i].persist_us));
      }
    }
    std::map<std::string, double> server;
    if (first != nullptr) server = first->server_metrics;
    m["event_loop.ping_rtt_us"] = Median(rtt);
    m["event_loop.wire_overhead_us"] =
        Median(p50_plain) * 1e3 - m["server.handle_line_us"];
    m["event_loop.queue_wait_us"] = Median(queue_us);
    m["server.persist_wait_ms"] = Median(persist_us) / 1e3 - m["server.persist_ms"];
    m["mechanism_cache.hits"] = server["geopriv_cache_hits"];
    m["mechanism_cache.misses"] = server["geopriv_cache_misses"];
    m["mechanism_cache.warm_starts"] = server["geopriv_cache_warm_starts"];
    m["mechanism_cache.shed"] = server["geopriv_cache_shed"];
    m["mechanism_cache.timeouts"] = server["geopriv_cache_timeouts"];
    const double wire_p1 = server["geopriv_solver_pivots_1_cold_sum"] +
                           server["geopriv_solver_pivots_1_warm_sum"];
    const double wire_p2 = server["geopriv_solver_pivots_2_cold_sum"] +
                           server["geopriv_solver_pivots_2_warm_sum"];
    if (wire_p1 != m["exact_simplex.pivots_phase1"] ||
        wire_p2 != m["exact_simplex.pivots_phase2"]) {
      failed += 1;
      std::fprintf(stderr,
                   "perfbench: daemon pivots %.0f/%.0f differ from the "
                   "in-process replay's %.0f/%.0f\n",
                   wire_p1, wire_p2, m["exact_simplex.pivots_phase1"],
                   m["exact_simplex.pivots_phase2"]);
    }
    m["trace.latency_p50_overhead_pct"] =
        100.0 * (Median(p50_traced) / Median(p50_plain) - 1.0);
    m["trace.server_cpu_overhead_pct"] =
        100.0 * (Median(cpu_traced) / Median(cpu_plain) - 1.0);

    static const std::map<std::string, const char*> kUnits = {
        {"event_loop.ping_rtt_us", "us"},
        {"event_loop.wire_overhead_us", "us"},
        {"event_loop.queue_wait_us", "us"},
        {"protocol.parse_us", "us"},
        {"protocol.format_us", "us"},
        {"signature.key_us", "us"},
        {"server.handle_line_us", "us"},
        {"query_pipeline.execute_us", "us"},
        {"query_pipeline.execute_k_us", "us"},
        {"mechanism_cache.hit_us", "us"},
        {"mechanism_cache.miss_cold_ms", "ms"},
        {"mechanism_cache.miss_warm_ms", "ms"},
        {"mechanism_cache.hits", "count"},
        {"mechanism_cache.misses", "count"},
        {"mechanism_cache.warm_starts", "count"},
        {"mechanism_cache.shed", "count"},
        {"mechanism_cache.timeouts", "count"},
        {"mechanism_cache.load_ms", "ms"},
        {"optimal_exact.solve_ms", "ms"},
        {"exact_simplex.pivots_phase1", "count"},
        {"exact_simplex.pivots_phase2", "count"},
        {"budget_ledger.charge_us", "us"},
        {"server.persist_ms", "ms"},
        {"server.persist_wait_ms", "ms"},
        {"server.ledger_bytes", "count"},
        {"batch_sampler.ns_per_sample", "ns"},
        {"batch_sampler.samples", "count"},
        {"trace.latency_p50_overhead_pct", "%"},
        {"trace.server_cpu_overhead_pct", "%"},
    };
    for (const auto& [name, unit] : kUnits) metrics.push_back(Metric(name, m[name], unit));
    std::fprintf(stderr,
                 "layer rows (medians, us): parse %.2f + key %.2f + cache hit %.2f"
                 " + charge %.2f + sample %.2f + persist %.2f + format %.2f"
                 " vs handle_line %.2f; wire p50 %.2f, wire overhead %.2f\n",
                 m["protocol.parse_us"], m["signature.key_us"],
                 m["mechanism_cache.hit_us"], m["budget_ledger.charge_us"],
                 Median(tracer.DurationsUs("batch_sampler.sample")),
                 m["server.persist_ms"] * 1e3, m["protocol.format_us"],
                 m["server.handle_line_us"], Median(p50_plain) * 1e3,
                 m["event_loop.wire_overhead_us"]);
  }
  if (checker_.failures() > 0) {
    std::fprintf(stderr, "perfbench: first failed check: %s\n",
                 checker_.first_failure().c_str());
  }
  detail << "}";
  std::printf("%s\n", detail.str().c_str());
  const bool ok = failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              ok ? "true" : "false", static_cast<long long>(std::max<int64_t>(attempted, 1)),
              static_cast<long long>(failed), Join(metrics).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_client --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve PATH --work DIR\n");
    return 2;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::PinClientCpu();
  perfbench::Bench bench(args, workload);
  return bench.Run();
}
