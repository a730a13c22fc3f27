// Batched query pipeline: amortize solves, batch the samples.
//
// Under load the service sees many concurrent queries, and most share a
// signature (one negotiated contract, many data points).  The pipeline
// exploits that: a batch is grouped by canonical signature, each distinct
// signature is resolved through the solve cache exactly once (so a batch
// of 1000 queries against one contract pays one lookup — or one solve on
// the first ever batch), the budget ledger is charged in input order
// (deterministic: the ledger is sequential state), and the admitted
// requests are sampled through the batched kernel one row group at a time.
//
// Determinism: every request carries its own seed, and its sample is drawn
// from a fresh Xoshiro256 stream seeded with it.  No request reads another
// request's RNG state, so each released value equals a direct Sample from
// its own seed — which tests/service_test.cc pins.

#ifndef GEOPRIV_SERVICE_QUERY_PIPELINE_H_
#define GEOPRIV_SERVICE_QUERY_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exact/rational.h"
#include "service/budget_ledger.h"
#include "service/mechanism_cache.h"
#include "service/signature.h"
#include "util/result.h"

namespace geopriv {

/// One count-query release request.  Every pipeline release is a FRESH
/// independent sample, so it always composes sequentially (product) —
/// there is deliberately no way to request Lemma-4 min-composition here:
/// that discount is only sound for an actual Algorithm-1 chain (each
/// release a post-processing of the previous one), which this pipeline
/// does not construct.  BudgetLedger keeps its chained API for a future
/// multilevel-serving op that really does chain.
struct ServiceQuery {
  std::string consumer;
  MechanismSignature signature;
  int true_count = 0;
  uint64_t seed = 1;  ///< per-request RNG stream seed
  /// Number of independent draws this query requests, all from the one
  /// per-request stream (draw j is the stream's j-th Sample — the
  /// scalar oracle order, which the batched kernel reproduces exactly).
  /// Each draw is a release: a K-draw query is admitted atomically for
  /// K sequential charges or rejected whole (BudgetLedger::ChargeMany).
  int samples = 1;
  /// Wall-clock bound on any fresh solve this query may trigger, in
  /// milliseconds; 0 defers to PipelineOptions::default_deadline_ms (and
  /// 0 there means none).  Cached lookups are never bounded — they are
  /// microseconds.  One solve serves a whole signature group, so the
  /// group's effective deadline is the laxest among its members (a member
  /// with no deadline lifts the bound for the shared solve).
  int64_t deadline_ms = 0;
  /// Request-level tracing: when set, the pipeline times its stages and
  /// the reply carries a per-stage breakdown (ServiceReply::traced).
  bool trace = false;
};

/// One per-request outcome.  `status` carries budget rejections and input
/// errors; the budget fields are reported either way.
struct ServiceReply {
  Status status;
  int released = -1;             ///< sampled value (when status is OK)
  /// All drawn values when the query asked for samples > 1 (released
  /// mirrors the first); empty for single-draw queries, whose wire
  /// replies must stay byte-identical to the historical format.
  std::vector<int32_t> released_values;
  double level_after = 1.0;      ///< consumer's composed level after charge
  double composed_level = 1.0;   ///< level the release composes/composed to
  double budget = 0.0;           ///< the ledger's floor
  /// The entry that served the query.  Its loss text, rendered once at
  /// publish, is the reply's "loss" field; holding the entry keeps that
  /// text alive until the reply is formatted.
  std::shared_ptr<const ServedMechanism> served;
  /// The exact loss of a reply built outside the pipeline (no `served`);
  /// it is rendered when the reply is formatted.
  Rational optimal_loss;
  /// "hit" | "warm" | "cold" | "skipped" | "shed" | "none"
  const char* cache = "none";
  int lp_iterations = 0;
  /// True when the ledger recorded this release (the service journals
  /// the batch's charged accounts, and only those).
  bool charged = false;
  /// Nonzero on shed replies (status Unavailable): the client should back
  /// off at least this long before retrying.
  int64_t retry_after_ms = 0;
  /// Per-stage timings, filled when the query set `trace`.  The pipeline
  /// stages are batch-level spans (one solve/charge/sample pass serves the
  /// whole batch); the transport adds its own spans (parse, queue wait,
  /// persist, serialize) before the reply is formatted.
  bool traced = false;
  int64_t trace_solve_us = 0;   ///< stage 1: group + cache resolve
  int64_t trace_charge_us = 0;  ///< stage 2: budget admission + charge
  int64_t trace_sample_us = 0;  ///< stage 3: sampling
  /// Transport spans, filled by the serving layer (not the pipeline):
  int64_t trace_parse_us = 0;    ///< request line parse + validation
  int64_t trace_queue_us = 0;    ///< event-loop executor queue wait
  int64_t trace_persist_us = 0;  ///< ledger journal append (+ sync)
};

/// Pipeline tuning; all defaults preserve the historical behavior.
struct PipelineOptions {
  /// Degraded mode: serve cached entries only; every miss group is shed.
  /// The switch an operator flips (or a future overload controller sets)
  /// when solver capacity must be protected.
  bool cached_only = false;
  /// Backoff hint attached to shed replies.
  int64_t retry_after_ms = 1000;
  /// Deadline applied to queries that do not carry their own; 0 = none.
  int64_t default_deadline_ms = 0;
  /// Time the pipeline stages for EVERY batch (three clock reads per
  /// batch) instead of only traced/sampled ones.  The server sets this
  /// when a slow-query threshold is configured, so slow-query lines
  /// always carry a full breakdown.
  bool time_stages = false;
};

class QueryPipeline {
 public:
  /// The cache and ledger are borrowed and must outlive the pipeline.
  QueryPipeline(MechanismCache* cache, BudgetLedger* ledger,
                PipelineOptions options = {});

  /// Executes a batch: group by signature -> resolve each signature once
  /// through the cache -> charge the ledger in input order -> sample the
  /// admitted requests.  Replies come back in input order.
  /// Per-request failures land in the reply's status; the call itself only
  /// fails on internal errors.  Thread-safe: concurrent batches (the
  /// event-loop transport's executor workers plus its inline cached path)
  /// synchronize on the cache and the ledger; each batch is internally
  /// deterministic regardless of what runs beside it.
  ///
  /// Miss groups resolve as one warm family: distinct unsolved signatures
  /// are taken in (structure, alpha) order, so each exact solve seeds the
  /// next via the cache's nearest-alpha warm start — a cold batch over an
  /// alpha grid pays one cold phase 1, not one per signature.
  std::vector<ServiceReply> ExecuteBatch(
      const std::vector<ServiceQuery>& queries);

  /// Same, over `count` queries starting at `queries` (the transport's
  /// single-query path executes its parsed query uncopied), with a
  /// per-call cached-only override (effective mode is
  /// options().cached_only || cached_only_override).  The event loop sets
  /// the override when executing work it classified as fully cached on
  /// the I/O thread: if an entry was evicted between classification and
  /// execution, the miss is shed as transient Unavailable — the client's
  /// retry re-routes through the executor — instead of cold-solving
  /// inline or stalling the loop.
  std::vector<ServiceReply> ExecuteBatch(const ServiceQuery* queries,
                                         size_t count,
                                         bool cached_only_override);

 private:
  MechanismCache* cache_;
  BudgetLedger* ledger_;
  PipelineOptions options_;
};

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_QUERY_PIPELINE_H_
