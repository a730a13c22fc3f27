#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rng/engine.h"
#include "service/event_loop.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

CacheOptions MakeCacheOptions(const ServiceOptions& options) {
  CacheOptions cache;
  cache.shards = options.shards;
  cache.threads = options.threads;
  cache.solver = options.solver;
  cache.max_pending = options.max_pending;
  // The cache persists its own entries at publish time; the service's
  // Persist() only needs to flush the ledger.
  cache.persist_dir = options.persist_dir;
  cache.max_entries = options.max_entries;
  cache.max_bytes = options.max_bytes;
  return cache;
}

// Per-op request counters, interned once.
void RecordRequestOp(ServiceOp op) {
  if (!metrics::Enabled()) return;
  metrics::Registry* registry = metrics::Registry::Default();
  static const char* const kHelp = "Protocol requests by op";
  static metrics::Counter* const by_op[] = {
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "query"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "batch_begin"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "batch_end"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "budget"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "stats"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "metrics"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "ping"}}),
      registry->GetCounter("geopriv_requests_total", kHelp,
                           {{"op", "shutdown"}}),
  };
  by_op[static_cast<size_t>(op)]->Increment();
}

// Label values flattened into a stable key suffix for the flat-JSON
// metrics op: geopriv_solver_pivots{phase="1",start="warm"} ->
// "geopriv_solver_pivots_1_warm" (label keys are sorted by the map).
std::string FlatKey(const metrics::Sample& sample) {
  std::string key = sample.name;
  for (const auto& [label, value] : sample.labels) {
    key += "_" + value;
  }
  return key;
}

}  // namespace

MechanismService::MechanismService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(MakeCacheOptions(options_)),
      ledger_(options_.budget_alpha),
      pipeline_(&cache_, &ledger_,
                PipelineOptions{options_.cached_only, options_.retry_after_ms,
                                options_.default_deadline_ms,
                                /*time_stages=*/options_.slow_query_ms > 0}),
      ledger_store_(&ledger_, options_.persist_dir) {}

Result<int> MechanismService::LoadPersisted() {
  if (options_.persist_dir.empty()) return 0;
  GEOPRIV_ASSIGN_OR_RETURN(MechanismCache::LoadReport report,
                           cache_.LoadFromDirectory(options_.persist_dir));
  GEOPRIV_RETURN_IF_ERROR(ledger_store_.Load());
  return report.loaded;
}

Status MechanismService::Persist() {
  // Cache entries are already durable: each one persisted (entry, basis,
  // manifest) when it was published.  Re-writing them here would only
  // double the shutdown I/O, so shutdown compacts the ledger alone.
  return ledger_store_.Compact();
}

std::string MechanismService::HandleLine(const std::string& line,
                                         bool* shutdown) {
  return HandleLine(line, &default_window_, shutdown);
}

std::string MechanismService::HandleLine(const std::string& line,
                                         BatchWindow* window,
                                         bool* shutdown) {
  if (shutdown != nullptr) *shutdown = false;
  // Blank lines are keep-alives, not requests.
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return "";
  Stopwatch parse_watch;
  Result<ServiceRequest> request = ParseRequestLine(line);
  if (!request.ok()) return FormatErrorReply("parse", request.status());
  request->parse_us = static_cast<int64_t>(parse_watch.ElapsedMicros());
  return HandleRequest(*request, window, shutdown);
}

std::string MechanismService::HandleRequest(const ServiceRequest& request,
                                            BatchWindow* window,
                                            bool* shutdown,
                                            bool cached_only,
                                            uint64_t* unsynced) {
  if (shutdown != nullptr) *shutdown = false;
  if (unsynced != nullptr) *unsynced = 0;
  RecordRequestOp(request.op);
  switch (request.op) {
    case ServiceOp::kPing:
      return "{\"op\":\"ping\",\"ok\":true}";

    case ServiceOp::kShutdown: {
      if (shutdown != nullptr) *shutdown = true;
      std::string out;
      if (window->open) {
        // Queries already acknowledged as "queued" must not vanish
        // silently: tell the client its window died unexecuted.
        out += FormatErrorReply(
                   "batch_end",
                   Status::FailedPrecondition(
                       "batch aborted by shutdown; " +
                       std::to_string(window->pending.size()) +
                       " queued queries dropped uncharged")) +
               "\n";
        window->Reset();
      }
      Status persisted = Persist();
      if (!persisted.ok()) return out + FormatErrorReply("shutdown", persisted);
      return out + "{\"op\":\"shutdown\",\"ok\":true}";
    }

    case ServiceOp::kStats: {
      const MechanismCache::Stats stats = cache_.GetStats();
      std::ostringstream out;
      out << "{\"op\":\"stats\",\"ok\":true,\"entries\":" << stats.entries
          << ",\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
          << ",\"warm_starts\":" << stats.warm_starts
          << ",\"bytes\":" << stats.bytes
          << ",\"evictions\":" << stats.evictions
          << ",\"quarantined\":" << stats.quarantined
          << ",\"basis_warm_reloads\":" << stats.basis_warm_reloads
          << ",\"persist_failures\":" << stats.persist_failures << "}";
      return out.str();
    }

    case ServiceOp::kMetrics:
      return MetricsJson();

    case ServiceOp::kBudget: {
      std::string out = "{\"op\":\"budget\",\"ok\":true,\"consumer\":\"";
      AppendJsonEscaped(request.consumer, &out);
      out += "\",\"level\":";
      AppendJsonDouble(ledger_.Level(request.consumer), &out);
      out += ",\"releases\":";
      AppendJsonInt(ledger_.Releases(request.consumer), &out);
      out += ",\"budget\":";
      AppendJsonDouble(ledger_.budget(), &out);
      return out + "}";
    }

    case ServiceOp::kBatchBegin:
      if (window->open) {
        return FormatErrorReply(
            "batch_begin",
            Status::FailedPrecondition("a batch is already open"));
      }
      window->open = true;
      window->pending.clear();
      return "{\"op\":\"batch_begin\",\"ok\":true}";

    case ServiceOp::kBatchEnd: {
      if (!window->open) {
        return FormatErrorReply(
            "batch_end", Status::FailedPrecondition("no batch is open"));
      }
      window->open = false;
      std::vector<ServiceQuery> batch = std::move(window->pending);
      window->pending.clear();
      Stopwatch handle_watch;
      std::vector<ServiceReply> replies =
          pipeline_.ExecuteBatch(batch.data(), batch.size(), cached_only);
      Stopwatch persist_watch;
      Status persisted = PersistCharges(batch.data(), replies, unsynced);
      if (!persisted.ok()) {
        // The charges happened but could not be made durable: withhold the
        // released values rather than risk re-admitting them after a crash.
        return FormatErrorReply("persist", persisted);
      }
      const int64_t persist_us =
          static_cast<int64_t>(persist_watch.ElapsedMicros());
      // Transport spans: parse/queue describe the batch_end line itself;
      // the persist span is batch-level like the pipeline stages.
      const int64_t total_us = request.parse_us + request.queue_us +
                               static_cast<int64_t>(
                                   handle_watch.ElapsedMicros());
      // Columnar reply encoding: one reserved buffer, every reply
      // serialized in place (protocol.h AppendQueryReply) — no per-reply
      // temporary strings on the batch path.
      std::string out;
      out.reserve(batch.size() * 192);
      for (size_t q = 0; q < batch.size(); ++q) {
        ServiceReply& reply = replies[q];
        reply.trace_parse_us = request.parse_us;
        reply.trace_queue_us = request.queue_us;
        reply.trace_persist_us = persist_us;
        MaybeLogSlowQuery(batch[q], reply, total_us);
        AppendQueryReply(batch[q], reply, &out);
        out += '\n';
      }
      out += "{\"op\":\"batch_end\",\"ok\":true,\"batched\":" +
             std::to_string(batch.size()) + "}";
      return out;
    }

    case ServiceOp::kQuery:
      break;
  }

  if (window->open) {
    // Bounded window: an endless stream of queued queries must not grow
    // daemon memory without limit (same unauthenticated-DoS class as the
    // protocol's n ceiling).  The cap is per connection — the event loop
    // keeps many windows open at once, each bounded on its own.
    constexpr size_t kMaxBatch = 4096;
    if (window->pending.size() >= kMaxBatch) {
      return FormatErrorReply(
          "query", Status::FailedPrecondition(
                       "batch window is full (" +
                       std::to_string(kMaxBatch) +
                       " queries); send batch_end"));
    }
    window->pending.push_back(request.query);
    return "{\"op\":\"queued\",\"ok\":true,\"index\":" +
           std::to_string(window->pending.size() - 1) + "}";
  }
  Stopwatch handle_watch;
  std::vector<ServiceReply> replies =
      pipeline_.ExecuteBatch(&request.query, 1, cached_only);
  Stopwatch persist_watch;
  Status persisted = PersistCharges(&request.query, replies, unsynced);
  if (!persisted.ok()) return FormatErrorReply("persist", persisted);
  ServiceReply& reply = replies.front();
  reply.trace_parse_us = request.parse_us;
  reply.trace_queue_us = request.queue_us;
  reply.trace_persist_us = static_cast<int64_t>(persist_watch.ElapsedMicros());
  if (options_.slow_query_ms > 0) {
    MaybeLogSlowQuery(request.query, reply,
                      request.parse_us + request.queue_us +
                          static_cast<int64_t>(handle_watch.ElapsedMicros()));
  }
  return FormatQueryReply(request.query, reply);
}

Status MechanismService::PersistCharges(
    const ServiceQuery* queries, const std::vector<ServiceReply>& replies,
    uint64_t* unsynced) {
  if (options_.persist_dir.empty()) return Status::OK();
  std::vector<const std::string*> charged;
  for (size_t q = 0; q < replies.size(); ++q) {
    if (replies[q].charged) charged.push_back(&queries[q].consumer);
  }
  // Rejected-only batches changed no ledger state: no disk I/O, so an
  // over-budget consumer cannot put it on the hot path.
  if (charged.empty()) return Status::OK();
  GEOPRIV_ASSIGN_OR_RETURN(uint64_t ticket, ledger_store_.Append(charged));
  if (unsynced != nullptr) {
    *unsynced = ticket;
    return Status::OK();
  }
  return ledger_store_.Sync(ticket);
}

std::vector<metrics::Sample> MechanismService::CollectMetrics() const {
  // The cache's atomics are the only home of its counters: they are read
  // here, once per render, and merged into the registry snapshot as
  // gauges.  Each service therefore reports its own cache, however many
  // share the process registry.
  const MechanismCache::Stats stats = cache_.GetStats();
  const struct {
    const char* name;
    const char* help;
    uint64_t value;
  } own[] = {
      {"geopriv_cache_basis_warm_reloads", "Bases restored from disk on load",
       stats.basis_warm_reloads},
      {"geopriv_cache_bytes", "Serialized size of live cache entries",
       stats.bytes},
      {"geopriv_cache_entries", "Live cache entries", stats.entries},
      {"geopriv_cache_evictions", "Entries removed by the LRU bound",
       stats.evictions},
      {"geopriv_cache_hits", "Cache lookups served", stats.hits},
      {"geopriv_cache_misses", "Cache misses that ran a solve", stats.misses},
      {"geopriv_cache_pending_solves",
       "Solves running or queued on the solver mutex", cache_.PendingSolves()},
      {"geopriv_cache_persist_failures",
       "Entries degraded to memory-only by a failed persist",
       stats.persist_failures},
      {"geopriv_cache_quarantined", "Corrupt files moved to quarantine/",
       stats.quarantined},
      {"geopriv_cache_shed", "Misses rejected by the admission cap",
       stats.shed},
      {"geopriv_cache_timeouts", "Cache calls that hit their deadline",
       stats.timeouts},
      {"geopriv_cache_warm_starts", "Misses seeded from a cached basis",
       stats.warm_starts},
      {"geopriv_ledger_consumers", "Consumers with a ledger account",
       ledger_.size()},
  };
  std::vector<metrics::Sample> samples =
      metrics::Registry::Default()->Collect();
  for (const auto& metric : own) {
    metrics::Sample sample;
    sample.name = metric.name;
    sample.help = metric.help;
    sample.type = "gauge";
    sample.value = static_cast<int64_t>(metric.value);
    samples.push_back(std::move(sample));
  }
  std::sort(samples.begin(), samples.end(),
            [](const metrics::Sample& a, const metrics::Sample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return samples;
}

std::string MechanismService::MetricsText() const {
  return metrics::RenderPrometheus(CollectMetrics());
}

std::string MechanismService::MetricsJson() const {
  std::string out = "{\"op\":\"metrics\",\"ok\":true";
  for (const metrics::Sample& sample : CollectMetrics()) {
    const std::string key = FlatKey(sample);
    if (sample.type == "histogram") {
      out += ",\"" + key + "_count\":" + std::to_string(sample.count);
      out += ",\"" + key + "_sum\":" + std::to_string(sample.sum);
    } else {
      out += ",\"" + key + "\":" + std::to_string(sample.value);
    }
  }
  out += "}";
  return out;
}

void MechanismService::MaybeLogSlowQuery(const ServiceQuery& query,
                                         const ServiceReply& reply,
                                         int64_t total_us) {
  if (options_.slow_query_ms <= 0) return;
  if (total_us < options_.slow_query_ms * 1000) return;
  std::string line = "{\"slow_query\":true";
  line += ",\"consumer\":\"" + JsonEscape(query.consumer) + "\"";
  line += ",\"signature\":\"" + JsonEscape(query.signature.CanonicalKey()) +
          "\"";
  line += std::string(",\"ok\":") + (reply.status.ok() ? "true" : "false");
  line += std::string(",\"cache\":\"") + reply.cache + "\"";
  line += ",\"total_us\":" + std::to_string(total_us);
  line += ",\"parse_us\":" + std::to_string(reply.trace_parse_us);
  line += ",\"queue_us\":" + std::to_string(reply.trace_queue_us);
  line += ",\"solve_us\":" + std::to_string(reply.trace_solve_us);
  line += ",\"charge_us\":" + std::to_string(reply.trace_charge_us);
  line += ",\"sample_us\":" + std::to_string(reply.trace_sample_us);
  line += ",\"persist_us\":" + std::to_string(reply.trace_persist_us);
  line += "}\n";
  std::ostream* sink = options_.slow_query_log;
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  if (sink != nullptr) {
    *sink << line << std::flush;
  } else {
    std::fputs(line.c_str(), stderr);
    std::fflush(stderr);
  }
}

Status RunServeLoop(std::istream& in, std::ostream& out,
                    MechanismService& service) {
  std::string line;
  bool shutdown = false;
  while (!shutdown && std::getline(in, line)) {
    const std::string response = service.HandleLine(line, &shutdown);
    if (!response.empty()) out << response << "\n" << std::flush;
  }
  // EOF without an explicit shutdown still persists: a drained stdin is
  // the daemon's normal exit in scripted (CI) sessions.  An open batch
  // window dies with the stream (nothing is listening for its replies).
  if (!shutdown) {
    service.ResetBatch();
    return service.Persist();
  }
  return Status::OK();
}

namespace {

// RAII for a POSIX fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

Status SendAll(int fd, const std::string& data) {
  // Fires for every protocol send in this process — the daemon's replies
  // and the one-shot client's request alike; tests arm it against
  // whichever side the process under test is playing.
  GEOPRIV_INJECT_FAULT("server.send");
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a client that disconnected without reading must yield
    // EPIPE (drop that client), not SIGPIPE (kill the daemon).
    const ssize_t k = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (k <= 0) return Status::Internal("send failed");
    sent += static_cast<size_t>(k);
  }
  return Status::OK();
}

}  // namespace

Status ServeTcp(int port, MechanismService& service, std::ostream& announce) {
  return ServeTcpEventLoop(port, service, announce);
}

Result<std::string> TcpRequest(const std::string& host, int port,
                               const std::string& line) {
  Fd sock;
  sock.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock.fd < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host +
                                   "' (dotted IPv4 only)");
  }
  if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::NotFound("cannot connect to " + host + ":" +
                            std::to_string(port));
  }
  GEOPRIV_RETURN_IF_ERROR(SendAll(sock.fd, line + "\n"));
  // Half-close: tells the server this client has no further requests, so
  // it answers what it has and closes — the client reads until EOF.
  ::shutdown(sock.fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t k = ::recv(sock.fd, chunk, sizeof(chunk), 0);
    if (k == 0) break;  // orderly EOF: the server answered and closed
    if (k < 0) {
      // A reset mid-response must not masquerade as a complete reply.
      return Status::Internal("connection lost while reading the response");
    }
    response.append(chunk, static_cast<size_t>(k));
  }
  while (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

namespace {

// A reply is worth retrying only when the server itself marked it
// transient: shed replies carry "error":"Unavailable".  Everything else —
// parse errors, budget rejections, deadline timeouts — is deterministic
// for this request and retrying would just repeat (or re-charge) it.
bool ReplyIsTransient(const std::string& response) {
  return response.find("\"error\":\"Unavailable\"") != std::string::npos;
}

// The server's backoff hint from a shed reply; 0 when absent.
int64_t ParseRetryAfterMs(const std::string& response) {
  const size_t at = response.find("\"retry_after_ms\":");
  if (at == std::string::npos) return 0;
  int64_t value = 0;
  size_t p = at + sizeof("\"retry_after_ms\":") - 1;
  while (p < response.size() && response[p] >= '0' && response[p] <= '9') {
    value = value * 10 + (response[p] - '0');
    if (value > 600000) return 600000;  // cap a hostile/corrupt hint
    ++p;
  }
  return value;
}

}  // namespace

Result<std::string> TcpRequestWithRetry(const std::string& host, int port,
                                        const std::string& line,
                                        const RetryOptions& retry) {
  const int attempts = std::max(1, retry.attempts);
  Xoshiro256 jitter(retry.jitter_seed);
  int64_t backoff = std::max<int64_t>(1, retry.base_backoff_ms);
  const int64_t cap = std::max<int64_t>(1, retry.max_backoff_ms);
  Status last = Status::Internal("retry loop made no attempt");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Result<std::string> response = TcpRequest(host, port, line);
    int64_t floor_ms = 0;
    if (response.ok()) {
      if (!ReplyIsTransient(*response)) return response;
      if (attempt + 1 == attempts) {
        // Out of attempts: hand back the shed reply itself, not a
        // client-invented error — it carries the server's own hint.
        return response;
      }
      floor_ms = ParseRetryAfterMs(*response);
      last = Status::Unavailable("server shed the request");
    } else {
      // Bad host is the caller's bug, not the network's; fail fast.
      if (response.status().code() == StatusCode::kInvalidArgument) {
        return response;
      }
      last = response.status();
    }
    if (attempt + 1 == attempts) break;
    // Capped exponential backoff with FULL jitter — uniform in
    // [0, backoff], floored at the server's retry_after_ms so a shed herd
    // spreads out instead of re-converging on the same tick.
    const int64_t jittered =
        static_cast<int64_t>(jitter.Next() % static_cast<uint64_t>(backoff + 1));
    const int64_t wait = std::max(jittered, floor_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    backoff = std::min(backoff * 2, cap);
  }
  return last;
}

}  // namespace geopriv
