#include "service/service_flags.h"

#include "util/fault_injection.h"

namespace geopriv {

void RegisterServiceFlags(ArgParser* parser, ServiceFlags* flags) {
  parser->AddDouble("budget", &flags->budget, 0.0, 1.0,
                    "privacy-budget floor in [0, 1]; 0 disables enforcement");
  parser->AddInt("shards", &flags->shards, 1, 1 << 20,
                 "cache shard count");
  parser->AddInt("threads", &flags->threads, 0, 4096,
                 "worker threads (0 defers to GEOPRIV_THREADS)");
  parser->AddString("persist", &flags->persist,
                    "directory for durable cache + ledger state");
  parser->AddInt("port", &flags->port, 0, 65535,
                 "serve/query over TCP on 127.0.0.1 (0 picks a free port)");
  parser->AddString("fault", &flags->fault,
                    "fault-injection spec point=action[:arg][@N],... "
                    "(testing only)");
  parser->AddInt64("deadline-ms", &flags->deadline_ms, 0, 600000,
                   "default wall-clock bound on fresh solves; 0 = none");
  parser->AddInt64("max-pending", &flags->max_pending, 0, 1 << 20,
                   "max concurrently pending solves before shedding; "
                   "0 = unbounded");
  parser->AddInt64("max-entries", &flags->max_entries, 0, INT64_C(1) << 40,
                   "cache LRU bound on entry count (soft: per-class "
                   "warm-start anchors stay pinned); 0 = unbounded");
  parser->AddInt64("max-bytes", &flags->max_bytes, 0, INT64_C(1) << 50,
                   "cache LRU bound on serialized entry bytes; "
                   "0 = unbounded");
  parser->AddInt64("retry-after-ms", &flags->retry_after_ms, 0, 600000,
                   "backoff hint attached to shed replies");
  parser->AddInt64("idle-timeout-ms", &flags->idle_timeout_ms, 0, 86400000,
                   "drop a TCP client idle this long; 0 = never");
  parser->AddBool("cached-only", &flags->cached_only,
                  "degraded mode: serve cached entries only, shed misses");
  parser->AddInt("workers", &flags->workers, 0, 256,
                 "event-loop batch executor threads (0 = auto)");
  parser->AddInt("metrics-port", &flags->metrics_port, -1, 65535,
                 "serve Prometheus GET /metrics over loopback HTTP "
                 "(0 picks a free port, -1 disables; event loop only)");
  parser->AddInt64("slow-query-ms", &flags->slow_query_ms, 0, 600000,
                   "log a JSONL line to stderr for any query slower than "
                   "this end to end; 0 disables");
}

ServiceOptions ToServiceOptions(const ServiceFlags& flags) {
  ServiceOptions options;
  options.budget_alpha = flags.budget;
  options.shards = static_cast<size_t>(flags.shards);
  options.threads = flags.threads;
  options.persist_dir = flags.persist;
  options.default_deadline_ms = flags.deadline_ms;
  options.max_pending = static_cast<size_t>(flags.max_pending);
  options.max_entries = static_cast<size_t>(flags.max_entries);
  options.max_bytes = static_cast<size_t>(flags.max_bytes);
  options.retry_after_ms = flags.retry_after_ms;
  options.idle_timeout_ms = flags.idle_timeout_ms;
  options.cached_only = flags.cached_only;
  options.workers = flags.workers;
  options.metrics_port = flags.metrics_port;
  options.slow_query_ms = flags.slow_query_ms;
  return options;
}

Status ArmConfiguredFaults(const ServiceFlags& flags) {
  GEOPRIV_RETURN_IF_ERROR(fault_injection::ArmFromEnv());
  if (!flags.fault.empty()) {
    GEOPRIV_RETURN_IF_ERROR(fault_injection::ArmFromSpec(flags.fault));
  }
  return Status::OK();
}

}  // namespace geopriv
