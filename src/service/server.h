// MechanismService: the deployable front of the library.
//
// Owns the three service pieces — sharded solve cache, privacy-budget
// ledger, batched query pipeline — and speaks the JSONL protocol
// (protocol.h) one line at a time.  The same HandleLine drives every
// transport: the geopriv_serve daemon's stdin loop, its TCP loop, the
// geopriv_cli `serve`/`query` subcommands, and the in-process tests.
//
// Batching over the wire: lines between {"op":"batch_begin"} and
// {"op":"batch_end"} are buffered (each acknowledged with op "queued") and
// executed as ONE pipeline batch at batch_end — grouped by signature,
// solved once per distinct signature, budget-charged and sampled in
// arrival order.  Queries outside a batch window execute
// immediately as a batch of one.
//
// Concurrency: the batch window is SESSION state, not service state.  Each
// transport connection owns a BatchWindow and hands it to HandleLine /
// HandleRequest; the service itself (cache, ledger, pipeline, persistence)
// is safe to drive from concurrent sessions, which is what the event-loop
// TCP transport (event_loop.h) does.  The window-less HandleLine overload
// keeps the historical single-session API for the stdin loop and tests.

#ifndef GEOPRIV_SERVICE_SERVER_H_
#define GEOPRIV_SERVICE_SERVER_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "service/budget_ledger.h"
#include "service/ledger_store.h"
#include "service/mechanism_cache.h"
#include "service/protocol.h"
#include "service/query_pipeline.h"
#include "util/metrics.h"
#include "util/result.h"

namespace geopriv {

struct ServiceOptions {
  /// Budget floor: no consumer's composed level may drop below this.
  /// 0 disables enforcement (levels are still tracked).
  double budget_alpha = 0.0;
  /// Cache shard count.
  size_t shards = 8;
  /// Solver pool threads (0 defers to GEOPRIV_THREADS, else serial).
  int threads = 0;
  /// When non-empty: entries are loaded from here on LoadPersisted() and
  /// written back on Persist() (the daemon persists at shutdown/EOF).
  std::string persist_dir;
  /// Base exact-solver configuration for cache misses.
  ExactSimplexOptions solver;
  /// Deadline applied to queries that carry none of their own; 0 = none.
  int64_t default_deadline_ms = 0;
  /// Solve-admission bound passed to the cache: at most this many solves
  /// may be pending at once before further misses are shed.  0 = unbounded.
  size_t max_pending = 0;
  /// Cache LRU bounds (CacheOptions::max_entries/max_bytes); 0 = unbounded.
  /// Entry count is a soft bound: per-class warm-start anchors stay pinned.
  size_t max_entries = 0;
  size_t max_bytes = 0;
  /// Backoff hint attached to shed (Unavailable) replies, milliseconds.
  int64_t retry_after_ms = 1000;
  /// TCP transport: drop a client that sends nothing for this long.
  /// 0 = wait forever (the historical behavior).
  int64_t idle_timeout_ms = 0;
  /// Degraded mode: serve cached entries only, shed every miss.
  bool cached_only = false;
  /// Event-loop transport: batch-executor threads that run solve-bearing
  /// work off the I/O thread, so a slow cold solve never stalls
  /// cached-signature traffic on other connections.  0 picks a small
  /// default (2, or more when the hardware has cores to spare).
  int workers = 0;
  /// Loopback HTTP metrics endpoint: the event loop additionally listens
  /// on 127.0.0.1:metrics_port and answers GET /metrics with the
  /// Prometheus text exposition.  0 picks a free port; -1 (default)
  /// disables the listener.
  int metrics_port = -1;
  /// Slow-query log: a query whose end-to-end handling (parse + queue +
  /// pipeline + persist) takes at least this long is logged as one JSONL
  /// line with its full stage breakdown.  0 (default) disables.
  int64_t slow_query_ms = 0;
  /// Slow-query log sink; nullptr means stderr.  Borrowed, not owned.
  std::ostream* slow_query_log = nullptr;
};

/// One protocol session's batch-window state.  Every transport connection
/// owns one; the stdin loop uses the service's built-in default window.
struct BatchWindow {
  bool open = false;
  std::vector<ServiceQuery> pending;
  void Reset() {
    open = false;
    pending.clear();
  }
};

class MechanismService {
 public:
  explicit MechanismService(ServiceOptions options = {});

  /// Handles one protocol line and returns the response — usually one
  /// line, but batch_end returns one reply line per buffered query plus a
  /// summary line (separated by '\n', no trailing newline).  Blank input
  /// returns an empty string (no response).  Sets *shutdown on a shutdown
  /// request.  This overload uses the service's built-in default window
  /// (the single-session API: stdin loop, CLI one-shots, tests) and must
  /// not race with itself; concurrent transports use the overload below.
  std::string HandleLine(const std::string& line, bool* shutdown);

  /// Same, against a caller-owned batch window.  Safe to call from
  /// concurrent threads as long as each window is driven by one thread at
  /// a time — the shared pieces (cache, ledger, pipeline, ledger
  /// persistence) synchronize internally.
  std::string HandleLine(const std::string& line, BatchWindow* window,
                         bool* shutdown);

  /// The parsed-request entry point the event loop uses: it parses lines
  /// itself (to classify cached-only work), then executes through here so
  /// request semantics can never drift between transports.
  ///
  /// `cached_only` is the event loop's inline-execution guard: work it
  /// classified as fully cached runs on the I/O thread with the flag set,
  /// so if an entry was evicted between classification and execution the
  /// miss is shed as transient Unavailable (the client's retry re-routes
  /// through the executor) instead of cold-solving on the I/O thread —
  /// and never answered with the wrong mechanism.
  ///
  /// `unsynced` defers the ledger sync: when non-null, a charging
  /// request's journal records are appended but not synced, *unsynced is
  /// set to the ticket (0 when nothing needs syncing), and the caller
  /// must hold the response until SyncLedger(ticket) returns OK — or
  /// replace it with an op "persist" error if it fails.  The event loop
  /// uses this to cover every inline reply of one wakeup with one sync.
  std::string HandleRequest(const ServiceRequest& request, BatchWindow* window,
                            bool* shutdown, bool cached_only = false,
                            uint64_t* unsynced = nullptr);

  /// Returns once the ledger journal holds every record up to `ticket` on
  /// stable storage (group commit; see ledger_store.h).
  Status SyncLedger(uint64_t ticket) { return ledger_store_.Sync(ticket); }

  /// Discards the default window's open batch (buffered queries are
  /// dropped uncharged).  Transports call this when a client disconnects
  /// so a dropped connection's half-built batch can neither wedge the
  /// service in queueing mode nor be flushed — and budget-charged — by the
  /// NEXT client's batch_end.
  void ResetBatch() { default_window_.Reset(); }

  /// Loads persisted cache entries and the ledger (no-op without
  /// persist_dir); returns the number of entries loaded.  Corrupt cache
  /// files are quarantined, not fatal (details in cache().GetStats());
  /// a corrupt ledger IS fatal — it is the budget floor's memory.
  Result<int> LoadPersisted();
  /// Flushes durable state (no-op without persist_dir).  Cache entries
  /// persist continuously at publish time and charges are journaled per
  /// batch, so this is a ledger compaction: a fresh snapshot, fsynced,
  /// then an empty journal.
  Status Persist();

  MechanismCache& cache() { return cache_; }
  BudgetLedger& ledger() { return ledger_; }
  QueryPipeline& pipeline() { return pipeline_; }
  const ServiceOptions& options() const { return options_; }

  /// Prometheus text exposition of the process metrics registry merged
  /// with this service's cache and ledger gauges (CollectMetrics).  What
  /// the HTTP GET /metrics endpoint serves.
  std::string MetricsText() const;

  /// The `metrics` protocol op's reply body: the same samples as one
  /// flat JSON line (labels flattened into key suffixes; histograms as
  /// their _count/_sum aggregates — buckets are Prometheus-only).
  std::string MetricsJson() const;

 private:
  /// Journals the accounts of every query in `queries[0..replies.size())`
  /// whose reply recorded a charge, then syncs — or, with `unsynced`,
  /// leaves the sync to the caller (see HandleRequest).  Rejected-only
  /// batches touch no disk.
  Status PersistCharges(const ServiceQuery* queries,
                        const std::vector<ServiceReply>& replies,
                        uint64_t* unsynced);

  /// The process registry's snapshot plus this service's cache and ledger
  /// values as gauges, read from one GetStats() call, sorted by
  /// (name, labels).
  std::vector<metrics::Sample> CollectMetrics() const;

  /// Emits one slow-query JSONL line when options_.slow_query_ms is set
  /// and `total_us` crosses it.
  void MaybeLogSlowQuery(const ServiceQuery& query, const ServiceReply& reply,
                         int64_t total_us);

  ServiceOptions options_;
  MechanismCache cache_;
  BudgetLedger ledger_;
  QueryPipeline pipeline_;
  LedgerStore ledger_store_;
  BatchWindow default_window_;
  std::mutex slow_log_mu_;  ///< slow-query lines must not interleave
};

/// Reads request lines from `in` until EOF or shutdown, writing each
/// response chunk (plus newline) to `out` and flushing per line.  Persists
/// the cache on exit when configured.  The daemon's stdin transport and
/// the tests' harness.
Status RunServeLoop(std::istream& in, std::ostream& out,
                    MechanismService& service);

/// Serves the same protocol over TCP on 127.0.0.1:`port` (0 picks a free
/// port) with the concurrent event-loop transport (event_loop.h: epoll,
/// per-connection batch windows, write
/// backpressure, idle timer wheel, graceful drain, TCP_NODELAY replies).
/// Announces "geopriv_serve listening on 127.0.0.1:<port>" on `announce`
/// before accepting.  Returns after a shutdown request (persisting when
/// configured).
Status ServeTcp(int port, MechanismService& service, std::ostream& announce);

/// One-shot client for the daemon's TCP transport: sends `line`, returns
/// the response chunk (batch replies arrive as multiple lines).
Result<std::string> TcpRequest(const std::string& host, int port,
                               const std::string& line);

/// Client-side retry policy for TcpRequestWithRetry.
struct RetryOptions {
  /// Total attempts (first try included).  1 degenerates to TcpRequest.
  int attempts = 3;
  /// First backoff; each retry doubles it, capped at max_backoff_ms.
  int64_t base_backoff_ms = 100;
  int64_t max_backoff_ms = 2000;
  /// Jitter stream seed.  Full jitter (uniform in [0, backoff]) keeps a
  /// thundering herd of shed clients from re-converging on the same tick.
  uint64_t jitter_seed = 1;
};

/// TcpRequest wrapped in capped exponential backoff with full jitter.
/// Retries transport failures (connect refused, connection lost) and
/// replies the server marked transient (op-level Unavailable shed replies
/// carrying "retry_after_ms"); when the reply names a retry_after_ms, the
/// wait honors it as the backoff floor.  Permanent errors — parse errors,
/// budget rejections, deadline timeouts — return immediately: retrying
/// them would spend budget or wall-clock for an identical answer.
Result<std::string> TcpRequestWithRetry(const std::string& host, int port,
                                        const std::string& line,
                                        const RetryOptions& retry = {});

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_SERVER_H_
