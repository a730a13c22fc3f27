// geopriv — command-line front end for the library.
//
// Subcommands:
//   release    sample a geometric release for a true count
//   multilevel run Algorithm 1 at several privacy levels
//   optimal    solve the Section 2.5 LP and write the mechanism to a file
//   interact   solve the Section 2.4.3 LP against a saved mechanism
//   check      verify differential privacy of a saved mechanism
//   analyze    print error statistics of a saved mechanism
//   serve      run the mechanism service (JSONL over stdin or TCP)
//   query      one-shot client for the service's line protocol
//   metrics    fetch the service metrics registry (daemon or in-process)
//
// Example:
//   geopriv optimal --n 8 --alpha 0.5 --loss absolute --out mech.txt
//   geopriv check --file mech.txt --alpha 0.5
//   geopriv release --n 100 --alpha 0.5 --count 42 --seed 7
//   geopriv query --consumer alice --n 8 --alpha 1/2 --count 3 --seed 7

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/geopriv.h"
#include "core/io.h"
#include "service/server.h"
#include "service/service_flags.h"
#include "util/arg_parser.h"
#include "util/string_util.h"

namespace {

using namespace geopriv;

// Minimal --key value argument parser.
class Args {
 public:
  Args(int argc, char** argv, int begin) {
    for (int i = begin; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        // A stray token in key position desynchronizes the pair walk and
        // silently drops every later flag; record it so the strict
        // subcommands can reject the whole line.
        if (stray_.empty()) stray_ = argv[i];
        continue;
      }
      values_[argv[i] + 2] = argv[i + 1];
      // A "value" that is itself a flag means the real value was
      // forgotten mid-line ("--consumer --n 8"): record the valueless
      // flag so the strict subcommands can reject the whole line.
      if (dangling_.empty() && std::strncmp(argv[i + 1], "--", 2) == 0) {
        dangling_ = argv[i] + 2;
      }
    }
    // A lone trailing flag pairs with nothing: the loop above advances two
    // tokens at a time, so an odd remainder whose last token is a flag
    // means its value was forgotten.
    if (dangling_.empty() && begin < argc && (argc - begin) % 2 == 1 &&
        std::strncmp(argv[argc - 1], "--", 2) == 0) {
      dangling_ = argv[argc - 1] + 2;
    }
  }

  /// A trailing flag with no value ("--persist<EOL>"), or empty.  Legacy
  /// subcommands tolerate it; the service subcommands treat it as fatal.
  const std::string& dangling() const { return dangling_; }

  /// A non-flag token found where a flag was expected, or empty.
  const std::string& stray() const { return stray_; }

  /// First provided key not in `allowed`, or empty.  Lets the service
  /// subcommands reject typoed flags ("--budgte") instead of silently
  /// running without them.
  std::string FirstUnknownKey(
      const std::vector<std::string>& allowed) const {
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const std::string& candidate : allowed) {
        if (key == candidate) {
          known = true;
          break;
        }
      }
      if (!known) return key;
    }
    return "";
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
  std::string dangling_;
  std::string stray_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<LossFunction> LossByName(const std::string& name) {
  if (name == "absolute") return LossFunction::AbsoluteError();
  if (name == "squared") return LossFunction::SquaredError();
  if (name == "zero-one" || name == "zeroone") return LossFunction::ZeroOne();
  return Status::InvalidArgument("unknown loss '" + name +
                                 "' (absolute|squared|zero-one)");
}

Result<MinimaxConsumer> ConsumerFromArgs(const Args& args, int n) {
  auto loss = LossByName(args.GetString("loss", "absolute"));
  if (!loss.ok()) return loss.status();
  int lo = args.GetInt("lo", 0);
  int hi = args.GetInt("hi", n);
  auto side = SideInformation::Interval(lo, hi, n);
  if (!side.ok()) return side.status();
  return MinimaxConsumer::Create(*loss, *side);
}

int CmdRelease(const Args& args) {
  int n = args.GetInt("n", 100);
  double alpha = args.GetDouble("alpha", 0.5);
  int count = args.GetInt("count", -1);
  if (count < 0) {
    return Fail(Status::InvalidArgument("--count is required"));
  }
  auto geo = GeometricMechanism::Create(n, alpha);
  if (!geo.ok()) return Fail(geo.status());
  Xoshiro256 rng(static_cast<uint64_t>(args.GetInt("seed", 1)));
  auto released = geo->Sample(count, rng);
  if (!released.ok()) return Fail(released.status());
  std::printf("%d\n", *released);
  return 0;
}

// Parses a comma-separated list like "0.3,0.5,0.8" (--alphas values).
std::vector<double> ParseDoubleList(const std::string& spec) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    values.push_back(std::atof(spec.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return values;
}

int CmdMultilevel(const Args& args) {
  int n = args.GetInt("n", 100);
  int count = args.GetInt("count", -1);
  if (count < 0) {
    return Fail(Status::InvalidArgument("--count is required"));
  }
  std::vector<double> alphas =
      ParseDoubleList(args.GetString("alphas", "0.3,0.6"));
  auto release = MultiLevelRelease::Create(n, alphas);
  if (!release.ok()) return Fail(release.status());
  Xoshiro256 rng(static_cast<uint64_t>(args.GetInt("seed", 1)));
  auto values = release->Release(count, rng);
  if (!values.ok()) return Fail(values.status());
  for (size_t level = 0; level < values->size(); ++level) {
    std::printf("alpha=%.3f released=%d\n", release->alpha(level),
                (*values)[level]);
  }
  return 0;
}

int CmdOptimal(const Args& args) {
  int n = args.GetInt("n", 8);
  double alpha = args.GetDouble("alpha", 0.5);
  auto consumer = ConsumerFromArgs(args, n);
  if (!consumer.ok()) return Fail(consumer.status());
  auto result = SolveOptimalMechanism(n, alpha, *consumer);
  if (!result.ok()) return Fail(result.status());
  std::printf("optimal minimax loss: %.9f (%d simplex pivots)\n",
              result->loss, result->lp_iterations);
  if (args.Has("out")) {
    Status s = SaveMechanism(result->mechanism, args.GetString("out", ""));
    if (!s.ok()) return Fail(s);
    std::printf("mechanism written to %s\n",
                args.GetString("out", "").c_str());
  } else {
    std::printf("%s", result->mechanism.ToString().c_str());
  }
  return 0;
}

int CmdSweep(const Args& args) {
  // The α family streams through one warm-started solver: each point's
  // optimal basis seeds the next (SolveOptimalMechanismSweep), so a dense
  // ε grid costs far less than per-point cold solves.
  int n = args.GetInt("n", 8);
  std::vector<double> alphas =
      ParseDoubleList(args.GetString("alphas", "0.3,0.5,0.7"));
  auto consumer = ConsumerFromArgs(args, n);
  if (!consumer.ok()) return Fail(consumer.status());
  auto results = SolveOptimalMechanismSweep(n, alphas, *consumer);
  if (!results.ok()) return Fail(results.status());
  std::printf("%8s %15s %8s\n", "alpha", "optimal-loss", "pivots");
  for (size_t k = 0; k < alphas.size(); ++k) {
    std::printf("%8.4f %15.9f %8d\n", alphas[k], (*results)[k].loss,
                (*results)[k].lp_iterations);
  }
  return 0;
}

int CmdInteract(const Args& args) {
  auto deployed = LoadMechanism(args.GetString("file", ""));
  if (!deployed.ok()) return Fail(deployed.status());
  auto consumer = ConsumerFromArgs(args, deployed->n());
  if (!consumer.ok()) return Fail(consumer.status());
  auto naive = consumer->WorstCaseLoss(*deployed);
  auto result = SolveOptimalInteraction(*deployed, *consumer);
  if (!naive.ok()) return Fail(naive.status());
  if (!result.ok()) return Fail(result.status());
  std::printf("naive loss:    %.9f\n", *naive);
  std::printf("rational loss: %.9f\n", result->loss);
  std::printf("interaction matrix:\n%s", result->interaction.ToString().c_str());
  return 0;
}

int CmdCheck(const Args& args) {
  auto mechanism = LoadMechanism(args.GetString("file", ""));
  if (!mechanism.ok()) return Fail(mechanism.status());
  double alpha = args.GetDouble("alpha", 0.5);
  auto check = CheckDifferentialPrivacy(*mechanism, alpha);
  if (!check.ok()) return Fail(check.status());
  std::printf("%.4f-differentially private: %s\n", alpha,
              check->is_private ? "yes" : "no");
  if (!check->is_private) {
    std::printf("violation at inputs (%d, %d), output %d, ratio %.6f\n",
                check->violation.input, check->violation.input + 1,
                check->violation.output, check->violation.ratio);
  }
  std::printf("strongest alpha satisfied: %.6f (epsilon = %.6f)\n",
              StrongestAlpha(*mechanism),
              EpsilonFromAlpha(StrongestAlpha(*mechanism)));
  return 0;
}

int CmdAnalyze(const Args& args) {
  auto mechanism = LoadMechanism(args.GetString("file", ""));
  if (!mechanism.ok()) return Fail(mechanism.status());
  MechanismSummary summary = Summarize(*mechanism);
  std::printf("n: %d\n", mechanism->n());
  std::printf("strongest alpha: %.6f\n", summary.strongest_alpha);
  std::printf("worst E|error|: %.6f\n", summary.worst_mean_abs_error);
  std::printf("worst E[error^2]: %.6f\n", summary.worst_mean_sq_error);
  std::printf("worst Pr[error]: %.6f\n", summary.worst_prob_error);
  std::printf("max |bias|: %.6f\n\n", summary.max_bias_magnitude);
  std::printf("%s",
              FormatRowErrorStats(ComputeRowErrorStats(*mechanism)).c_str());
  return 0;
}

// The service subcommands parse with the shared strict table
// (service/service_flags.h + util/arg_parser.h) instead of Args: a typoed
// or valueless --budget silently running with enforcement off is the
// exact failure the daemon's strict parser exists to prevent, and sharing
// the table with geopriv_serve means a new service flag lands here for
// free.  They take raw argv because ArgParser owns the walk.

int CmdServe(int argc, char** argv) {
  // The daemon loop lives in service/server.h; this subcommand is the same
  // process as `geopriv_serve`, reachable without a second binary.
  ServiceFlags flags;
  ArgParser parser;
  RegisterServiceFlags(&parser, &flags);
  Status parsed = parser.Parse(argc, argv, 2);
  if (!parsed.ok()) return Fail(parsed);
  Status armed = ArmConfiguredFaults(flags);
  if (!armed.ok()) return Fail(armed);
  MechanismService service(ToServiceOptions(flags));
  auto loaded = service.LoadPersisted();
  if (!loaded.ok()) return Fail(loaded.status());
  const Status status = parser.Provided("port")
                            ? ServeTcp(flags.port, service, std::cout)
                            : RunServeLoop(std::cin, std::cout, service);
  if (!status.ok()) return Fail(status);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  ServiceFlags service_flags;
  ArgParser parser;
  RegisterServiceFlags(&parser, &service_flags);
  std::string line, host = "127.0.0.1";
  std::string consumer = "cli", alpha = "1/2", loss = "absolute";
  std::string mode = "exact";
  int n = 8, lo = 0, hi = 0, count = 0, retries = 3, samples = 1;
  int64_t seed = 1;
  parser.AddString("line", &line, "raw protocol line, sent verbatim")
      .AddString("consumer", &consumer, "consumer identity for budgeting")
      .AddInt("n", &n, 0, 1 << 20, "count-query domain size")
      .AddString("alpha", &alpha, "privacy level (rational, e.g. 1/2)")
      .AddString("loss", &loss, "absolute|squared|zero-one")
      .AddInt("lo", &lo, 0, 1 << 20, "remap interval lower end")
      .AddInt("hi", &hi, 0, 1 << 20, "remap interval upper end (default n)")
      .AddString("mode", &mode, "exact|geometric")
      .AddInt("count", &count, 0, 1 << 20, "true count to release")
      .AddInt64("seed", &seed, 0, INT64_MAX, "per-request RNG stream seed")
      .AddInt("samples", &samples, 1, 4096,
              "draws from the one seeded stream, charged atomically as "
              "one K-fold composition; >1 replies \"released\":[...]")
      .AddString("host", &host, "daemon address (dotted IPv4)")
      .AddInt("retries", &retries, 1, 100,
              "TCP attempts incl. the first; backoff honors the server's "
              "retry_after_ms hint");
  Status parsed = parser.Parse(argc, argv, 2);
  if (!parsed.ok()) return Fail(parsed);
  // Build one protocol line from the flags (or take it verbatim).
  if (line.empty()) {
    line = "{\"op\":\"query\",\"consumer\":\"" + JsonEscape(consumer) +
           "\"" + ",\"n\":" + std::to_string(n) + ",\"alpha\":\"" +
           JsonEscape(alpha) + "\"" + ",\"loss\":\"" + JsonEscape(loss) +
           "\"" + ",\"lo\":" + std::to_string(lo) + ",\"hi\":" +
           std::to_string(parser.Provided("hi") ? hi : n) +
           ",\"mode\":\"" + JsonEscape(mode) + "\"" +
           ",\"count\":" + std::to_string(count) +
           ",\"seed\":" + std::to_string(seed);
    if (samples > 1) {
      // Only when requested: "samples":1 and an absent field are the
      // same protocol object, and omitting it keeps the line (and the
      // reply shape) byte-compatible with pre-PR-10 clients.
      line += ",\"samples\":" + std::to_string(samples);
    }
    if (parser.Provided("deadline-ms")) {
      line += ",\"deadline_ms\":" + std::to_string(service_flags.deadline_ms);
    }
    line += "}";
  }
  if (parser.Provided("port")) {
    // Client against a running daemon, with capped-backoff retries for
    // transient failures (connection refused/lost, shed replies).
    RetryOptions retry;
    retry.attempts = retries;
    retry.jitter_seed = static_cast<uint64_t>(seed);
    auto response =
        TcpRequestWithRetry(host, service_flags.port, line, retry);
    if (!response.ok()) return Fail(response.status());
    std::printf("%s\n", response->c_str());
    return 0;
  }
  // No daemon: answer in-process with a fresh (or persisted) service.
  Status armed = ArmConfiguredFaults(service_flags);
  if (!armed.ok()) return Fail(armed);
  MechanismService service(ToServiceOptions(service_flags));
  auto loaded = service.LoadPersisted();
  if (!loaded.ok()) return Fail(loaded.status());
  bool shutdown = false;
  std::printf("%s\n", service.HandleLine(line, &shutdown).c_str());
  Status persisted = service.Persist();
  if (!persisted.ok()) return Fail(persisted);
  return 0;
}

int CmdMetrics(int argc, char** argv) {
  ServiceFlags service_flags;
  ArgParser parser;
  RegisterServiceFlags(&parser, &service_flags);
  std::string host = "127.0.0.1", format = "json";
  int retries = 3;
  parser.AddString("host", &host, "daemon address (dotted IPv4)")
      .AddString("format", &format,
                 "json (the protocol's metrics op reply) | text "
                 "(Prometheus exposition; in-process only)")
      .AddInt("retries", &retries, 1, 100, "TCP attempts incl. the first");
  Status parsed = parser.Parse(argc, argv, 2);
  if (!parsed.ok()) return Fail(parsed);
  if (parser.Provided("port")) {
    // Against a daemon: the protocol op.  (For Prometheus text, scrape the
    // daemon's --metrics-port endpoint instead.)
    RetryOptions retry;
    retry.attempts = retries;
    auto response = TcpRequestWithRetry(host, service_flags.port,
                                        "{\"op\":\"metrics\"}", retry);
    if (!response.ok()) return Fail(response.status());
    std::printf("%s\n", response->c_str());
    return 0;
  }
  // No daemon: read the registry of a fresh in-process service (after
  // LoadPersisted, so cache/ledger gauges reflect the persisted state).
  MechanismService service(ToServiceOptions(service_flags));
  auto loaded = service.LoadPersisted();
  if (!loaded.ok()) return Fail(loaded.status());
  if (format == "text") {
    std::printf("%s", service.MetricsText().c_str());
  } else {
    std::printf("%s\n", service.MetricsJson().c_str());
  }
  return 0;
}

void PrintUsage() {
  std::printf(
      "usage: geopriv <command> [--key value ...]\n"
      "\n"
      "commands:\n"
      "  release    --n N --alpha A --count C [--seed S]\n"
      "  multilevel --n N --alphas a1,a2,... --count C [--seed S]\n"
      "  optimal    --n N --alpha A [--loss absolute|squared|zero-one]\n"
      "             [--lo L --hi H] [--out FILE]\n"
      "  sweep      --n N --alphas a1,a2,... [--loss ...] [--lo L --hi H]\n"
      "             (warm-started: each point seeds the next solve)\n"
      "  interact   --file FILE [--loss ...] [--lo L --hi H]\n"
      "  check      --file FILE --alpha A\n"
      "  analyze    --file FILE\n"
      "  serve      [--budget B] [--shards K] [--threads T]\n"
      "             [--persist DIR] [--port P] [--deadline-ms D]\n"
      "             [--max-pending M] [--retry-after-ms R]\n"
      "             [--idle-timeout-ms I] [--cached-only 1] [--fault SPEC]\n"
      "             [--workers W]\n"
      "             (JSONL mechanism service; same flags as geopriv_serve)\n"
      "  query      --consumer C --n N --alpha A --count K [--seed S]\n"
      "             [--samples K]\n"
      "             [--loss ...] [--lo L --hi H] [--mode exact|geometric]\n"
      "             [--deadline-ms D] [--port P [--host H] [--retries R]]\n"
      "             (or --line '<raw json>')\n"
      "  metrics    [--port P [--host H] [--retries R]] [--format json|text]\n"
      "             [--persist DIR]\n"
      "             (registry snapshot: daemon op reply, or in-process)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  std::string command = argv[1];
  Args args(argc, argv, 2);
  if (command == "release") return CmdRelease(args);
  if (command == "multilevel") return CmdMultilevel(args);
  if (command == "optimal") return CmdOptimal(args);
  if (command == "sweep") return CmdSweep(args);
  if (command == "interact") return CmdInteract(args);
  if (command == "check") return CmdCheck(args);
  if (command == "analyze") return CmdAnalyze(args);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "metrics") return CmdMetrics(argc, argv);
  PrintUsage();
  return 1;
}
