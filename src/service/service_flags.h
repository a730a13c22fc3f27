// Shared service flag table: one declaration, every binary.
//
// The geopriv_serve daemon and geopriv_cli's serve/query subcommands
// configure the same MechanismService, and historically each grew its own
// flag parser — so a new service option (a deadline, an overload knob)
// had to land twice and could drift.  This table registers the full flag
// set on a util/arg_parser.h ArgParser once; both tools call it, so a
// flag added here appears everywhere with identical names, ranges and
// strictness.

#ifndef GEOPRIV_SERVICE_SERVICE_FLAGS_H_
#define GEOPRIV_SERVICE_SERVICE_FLAGS_H_

#include <cstdint>
#include <string>

#include "service/server.h"
#include "util/arg_parser.h"
#include "util/status.h"

namespace geopriv {

/// Targets for the shared flags; defaults match ServiceOptions.
struct ServiceFlags {
  double budget = 0.0;        ///< --budget: floor in [0, 1]; 0 disables
  int shards = 8;             ///< --shards
  int threads = 0;            ///< --threads (0 defers to GEOPRIV_THREADS)
  std::string persist;        ///< --persist: durable state directory
  int port = 0;               ///< --port: TCP (check Provided("port"))
  std::string fault;          ///< --fault: injection spec (testing only)
  int64_t deadline_ms = 0;    ///< --deadline-ms: default solve deadline
  int64_t max_pending = 0;    ///< --max-pending: solve admission bound
  int64_t max_entries = 0;    ///< --max-entries: cache LRU entry bound
  int64_t max_bytes = 0;      ///< --max-bytes: cache LRU byte bound
  int64_t retry_after_ms = 1000;  ///< --retry-after-ms: shed backoff hint
  int64_t idle_timeout_ms = 0;    ///< --idle-timeout-ms: TCP idle drop
  bool cached_only = false;   ///< --cached-only: degraded mode
  int workers = 0;            ///< --workers: event-loop batch executors
  int metrics_port = -1;      ///< --metrics-port: loopback HTTP /metrics
  int64_t slow_query_ms = 0;  ///< --slow-query-ms: JSONL slow-query log
};

/// Registers every service flag on `parser`, bound to `flags`.  Both must
/// outlive the Parse call.
void RegisterServiceFlags(ArgParser* parser, ServiceFlags* flags);

/// The ServiceOptions the parsed flags describe (ranges were already
/// enforced by ArgParser, so this cannot fail).
ServiceOptions ToServiceOptions(const ServiceFlags& flags);

/// Arms fault injection from the environment (GEOPRIV_FAULTS), then from
/// the --fault spec; a non-empty flag replaces whatever the environment
/// armed (ArmFromSpec replaces the whole registry).  No-op when both are
/// empty.
Status ArmConfiguredFaults(const ServiceFlags& flags);

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_SERVICE_FLAGS_H_
