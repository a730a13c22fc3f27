#include "service/query_pipeline.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "rng/engine.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

// Pipeline instrumentation.  Counters are always-on (striped fetch_adds,
// nanoseconds); the per-stage clock reads are taken only for traced
// batches and a 1-in-64 sample of the rest, so the ~0.8us cached hot path
// never pays three steady_clock reads per batch by default.
struct PipelineMetrics {
  metrics::Histogram* batch_size;
  metrics::Histogram* stage_solve_us;
  metrics::Histogram* stage_charge_us;
  metrics::Histogram* stage_sample_us;
  metrics::Histogram* sample_batch_size;
  metrics::Gauge* samples_per_sec;
  metrics::Counter* samples_total;
  metrics::Counter* ledger_charges;
  metrics::Counter* ledger_rejections;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics m = [] {
      metrics::Registry* registry = metrics::Registry::Default();
      PipelineMetrics out;
      out.batch_size = registry->GetHistogram(
          "geopriv_pipeline_batch_size", "Queries per executed batch");
      out.stage_solve_us = registry->GetHistogram(
          "geopriv_pipeline_stage_us",
          "Batch-level pipeline stage wall time in microseconds (traced or "
          "1-in-64 sampled batches)",
          {{"stage", "solve"}});
      out.stage_charge_us = registry->GetHistogram(
          "geopriv_pipeline_stage_us",
          "Batch-level pipeline stage wall time in microseconds (traced or "
          "1-in-64 sampled batches)",
          {{"stage", "charge"}});
      out.stage_sample_us = registry->GetHistogram(
          "geopriv_pipeline_stage_us",
          "Batch-level pipeline stage wall time in microseconds (traced or "
          "1-in-64 sampled batches)",
          {{"stage", "sample"}});
      out.sample_batch_size = registry->GetHistogram(
          "geopriv_sample_batch_size",
          "Lanes per batched sampling kernel invocation (one row group — "
          "queries sharing a mechanism and true-count row)");
      out.samples_per_sec = registry->GetGauge(
          "geopriv_samples_per_sec",
          "Sampling throughput of the most recent timed batch (draws per "
          "second through the sample stage)");
      out.samples_total = registry->GetCounter(
          "geopriv_samples_total", "Released samples drawn from mechanisms");
      out.ledger_charges = registry->GetCounter(
          "geopriv_ledger_charges_total", "Budget charges recorded");
      out.ledger_rejections = registry->GetCounter(
          "geopriv_ledger_rejections_total",
          "Releases rejected by the budget ledger");
      return out;
    }();
    return m;
  }
};

}  // namespace

QueryPipeline::QueryPipeline(MechanismCache* cache, BudgetLedger* ledger,
                             PipelineOptions options)
    : cache_(cache), ledger_(ledger), options_(options) {}

std::vector<ServiceReply> QueryPipeline::ExecuteBatch(
    const std::vector<ServiceQuery>& queries) {
  return ExecuteBatch(queries.data(), queries.size(),
                      /*cached_only_override=*/false);
}

std::vector<ServiceReply> QueryPipeline::ExecuteBatch(
    const ServiceQuery* queries, size_t count, bool cached_only_override) {
  const bool cached_only = options_.cached_only || cached_only_override;
  std::vector<ServiceReply> replies(count);

  const PipelineMetrics& pm = PipelineMetrics::Get();
  pm.batch_size->Observe(static_cast<int64_t>(count));
  bool any_trace = false;
  for (size_t q = 0; q < count; ++q) any_trace |= queries[q].trace;
  // Time the stages for traced batches and a 1-in-64 sample of the rest.
  static std::atomic<uint64_t> batch_counter{0};
  const bool timed =
      any_trace || options_.time_stages ||
      (metrics::Enabled() &&
       (batch_counter.fetch_add(1, std::memory_order_relaxed) & 63) == 0);
  Stopwatch stage_watch;
  int64_t solve_us = 0;
  int64_t charge_us = 0;
  int64_t sample_us = 0;

  // Stage 1 — group by canonical signature and resolve each group through
  // the cache once.  std::map keeps group iteration deterministic; its
  // keys view the queries' own canonical keys, which outlive the batch.
  struct Group {
    std::shared_ptr<const ServedMechanism> entry;
    Status status = Status::OK();
    const char* cache = "none";
    std::vector<size_t> members;
  };
  std::map<std::string_view, Group> groups;
  for (size_t q = 0; q < count; ++q) {
    groups[queries[q].signature.CanonicalKey()].members.push_back(q);
  }
  // Per-query group pointers (map nodes are stable): the later stages
  // never re-search the map.
  std::vector<const Group*> group_of(count);
  for (auto& [key, group] : groups) {
    for (size_t q : group.members) group_of[q] = &group;
  }
  // Resolve the batch's distinct signatures as one warm family: structural
  // families together, alpha ascending within a family, so every exact
  // miss after the first warm-starts from the just-published nearest-alpha
  // neighbor (the cache's seed search) instead of paying a cold phase 1.
  // The order is deterministic (structure, then exact alpha compare, then
  // canonical key) and only affects solve cost, never results: replies are
  // keyed by query index and charging below stays in input order.
  std::vector<std::pair<std::string_view, Group*>> solve_order;
  solve_order.reserve(groups.size());
  for (auto& [key, group] : groups) solve_order.push_back({key, &group});
  std::sort(solve_order.begin(), solve_order.end(),
            [&](const auto& a, const auto& b) {
              const MechanismSignature& sa =
                  queries[a.second->members.front()].signature;
              const MechanismSignature& sb =
                  queries[b.second->members.front()].signature;
              const std::string_view ka = sa.StructuralKey();
              const std::string_view kb = sb.StructuralKey();
              if (ka != kb) return ka < kb;
              const int cmp = sa.alpha.Compare(sb.alpha);
              if (cmp != 0) return cmp < 0;
              return a.first < b.first;
            });
  if (timed) stage_watch.Reset();
  for (auto& [key, group_ptr] : solve_order) {
    Group& group = *group_ptr;
    const ServiceQuery& first = queries[group.members.front()];
    // Already-solved signatures are served to everyone: a lookup is free.
    group.entry = cache_->Peek(first.signature);
    if (group.entry != nullptr) {
      group.cache = "hit";
      continue;
    }
    // A fresh solve is only justified when at least one member could be
    // admitted by the ledger right now.  Charges never raise a level, so
    // a group with no admissible member can never need the entry — its
    // members are headed for budget rejections either way, and solving
    // first would let an over-budget consumer burn unbounded solver time
    // (and the solve mutex) for free.
    bool worth_solving = ledger_ == nullptr;
    for (size_t q : group.members) {
      if (worth_solving) break;
      Result<BudgetDecision> preview =
          ledger_->Preview(queries[q].consumer,
                          queries[q].signature.alpha.ToDouble());
      worth_solving = preview.ok() && preview->allowed;
    }
    if (!worth_solving) {
      group.cache = "skipped";  // entry stays null; charges reject below
      continue;
    }
    // Overload shedding: in cached_only degraded mode no miss may solve.
    // Shed groups answer Unavailable with a backoff hint; cached service
    // above is untouched.  The per-call override is the event loop's
    // eviction race showing up here: work classified as cached a moment
    // ago missed after all, and the retry (off the I/O thread) is the
    // place to solve it.
    if (cached_only) {
      group.cache = "shed";
      group.status = Status::Unavailable(
          cached_only_override
              ? "signature is no longer cached (evicted since "
                "classification); retry to solve it"
              : "service is in cached-only degraded mode; signature is not "
                "cached");
      continue;
    }
    // The group's deadline: the laxest among its members (one solve serves
    // them all; a member with no deadline means the solve may run
    // unbounded).  Queries without their own deadline inherit the default.
    int64_t deadline_ms = 0;
    bool unbounded = false;
    for (size_t q : group.members) {
      int64_t member_ms = queries[q].deadline_ms > 0
                              ? queries[q].deadline_ms
                              : options_.default_deadline_ms;
      if (member_ms <= 0) {
        unbounded = true;
        break;
      }
      deadline_ms = std::max(deadline_ms, member_ms);
    }
    if (unbounded) deadline_ms = 0;
    bool hit = false;
    Result<std::shared_ptr<const ServedMechanism>> entry =
        cache_->GetOrSolve(first.signature, &hit, deadline_ms);
    if (!entry.ok()) {
      if (entry.status().IsUnavailable()) group.cache = "shed";
      group.status = entry.status();
      continue;
    }
    group.entry = std::move(*entry);
    group.cache = hit ? "hit" : (group.entry->warm_started ? "warm" : "cold");
  }

  if (timed) {
    solve_us = static_cast<int64_t>(stage_watch.ElapsedMicros());
    stage_watch.Reset();
  }

  // Stage 2 — budget admission, strictly in input order (the ledger is
  // sequential state: a batch's earlier queries shrink the budget its
  // later ones see, exactly as if they had arrived one by one).
  int64_t charges = 0;
  int64_t rejections = 0;
  std::vector<const ServedMechanism*> admitted(count, nullptr);
  for (size_t q = 0; q < count; ++q) {
    const ServiceQuery& query = queries[q];
    ServiceReply& reply = replies[q];
    if (ledger_ != nullptr) reply.budget = ledger_->budget();
    const Group& group = *group_of[q];
    if (!group.status.ok()) {
      reply.status = group.status;
      reply.cache = group.cache;
      if (group.status.IsUnavailable()) {
        reply.retry_after_ms = options_.retry_after_ms;
      }
      continue;
    }
    reply.cache = group.cache;
    if (group.entry != nullptr) {
      reply.served = group.entry;
      reply.lp_iterations = group.entry->lp_iterations;
    }
    if (query.true_count < 0 || query.true_count > query.signature.n) {
      reply.status =
          Status::OutOfRange("true count outside {0..n} for this signature");
      continue;
    }
    if (ledger_ != nullptr) {
      // Always sequential composition: a pipeline release is a fresh
      // independent sample, never part of an Algorithm-1 chain.  A
      // K-sample query is charged atomically for all K draws — admitted
      // together or rejected together, never partially released.
      Result<BudgetDecision> decision = ledger_->ChargeMany(
          query.consumer, query.signature.alpha.ToDouble(),
          static_cast<uint64_t>(std::max(1, query.samples)));
      if (!decision.ok()) {
        reply.status = decision.status();
        continue;
      }
      reply.composed_level = decision->composed_level;
      reply.budget = decision->budget;
      if (!decision->allowed) {
        ++rejections;
        reply.level_after = decision->current_level;
        reply.status = Status::FailedPrecondition(
            "privacy budget exceeded: release would compose consumer '" +
            query.consumer + "' to level " +
            std::to_string(decision->composed_level) + " < budget " +
            std::to_string(decision->budget));
        continue;
      }
      reply.level_after = decision->composed_level;
      reply.charged = true;
      ++charges;
    } else {
      reply.composed_level = query.signature.alpha.ToDouble();
      reply.level_after = reply.composed_level;
    }
    if (group.entry == nullptr) {
      // Unreachable by construction: a skipped group had no admissible
      // member at batch start, and charges only lower levels — but never
      // sample from nothing if the invariant is ever broken.
      reply.status = Status::Internal(
          "query admitted for a signature whose solve was skipped");
      continue;
    }
    admitted[q] = group.entry.get();
  }
  if (timed) {
    charge_us = static_cast<int64_t>(stage_watch.ElapsedMicros());
    stage_watch.Reset();
  }

  // Stage 3 — the columnar sample plane.  Admitted requests are decoded
  // into parallel arrays (seed, draw count, output offset) and
  // partitioned by (mechanism, true-count row): one quantized alias
  // table then serves a whole lane group through the batched kernel
  // (rng/batch_sampler.h).  Bit-identity with the per-request scalar
  // path is the kernel's contract — lane k reproduces exactly the stream
  // Xoshiro256(seed_k) yields — so the decomposition cannot change any
  // released value.
  auto scatter = [&](size_t q, const int32_t* draws) {
    ServiceReply& reply = replies[q];
    const int reps = std::max(1, queries[q].samples);
    reply.released = draws[0];
    if (reps > 1) reply.released_values.assign(draws, draws + reps);
  };
  if (count == 1) {
    // Single-query fast path: a one-lane batch gains nothing from the
    // columnar decode, and the ~0.8us cached hot path must not pay for
    // the row-group scaffolding.  This IS the scalar oracle: one stream,
    // `samples` sequential draws.
    if (admitted[0] != nullptr) {
      const ServiceQuery& query = queries[0];
      const int reps = std::max(1, query.samples);
      Xoshiro256 rng(query.seed);
      if (reps == 1) {
        // No draw buffer: the ~0.8us cached hot path must not pay a
        // heap allocation for its one released value.
        Result<int> released =
            admitted[0]->mechanism.Sample(query.true_count, rng);
        if (!released.ok()) {
          replies[0].status = released.status();
        } else {
          replies[0].released = *released;
          pm.sample_batch_size->Observe(1);
        }
      } else {
        std::vector<int32_t>& draws = replies[0].released_values;
        draws.resize(static_cast<size_t>(reps));
        Status failed = Status::OK();
        for (int j = 0; j < reps; ++j) {
          Result<int> released =
              admitted[0]->mechanism.Sample(query.true_count, rng);
          if (!released.ok()) {
            failed = released.status();
            break;
          }
          draws[static_cast<size_t>(j)] = *released;
        }
        if (!failed.ok()) {
          replies[0].status = failed;
          replies[0].released_values.clear();
        } else {
          replies[0].released = draws[0];
          pm.sample_batch_size->Observe(1);
        }
      }
    }
  } else {
    // One row group per (signature group, true-count row).  Group
    // iteration follows the deterministic std::map order from stage 1,
    // and rows ascend within a group, so the row-group list — and with
    // it every kernel invocation — is independent of arrival timing.
    struct RowGroup {
      const ServedMechanism* entry = nullptr;
      int row = 0;
      std::vector<size_t> members;  // query indices, input order
    };
    std::vector<RowGroup> row_groups;
    for (auto& [key, group] : groups) {
      if (group.entry == nullptr) continue;
      std::map<int, std::vector<size_t>> by_row;
      for (size_t q : group.members) {
        if (admitted[q] != nullptr) by_row[queries[q].true_count].push_back(q);
      }
      for (auto& [row, members] : by_row) {
        row_groups.push_back({group.entry.get(), row, std::move(members)});
      }
    }
    for (const RowGroup& rg : row_groups) {
      const size_t lanes = rg.members.size();
      std::vector<uint64_t> seeds(lanes);
      std::vector<int32_t> counts(lanes);
      std::vector<size_t> offsets(lanes);
      size_t total = 0;
      bool single_draw = true;
      for (size_t j = 0; j < lanes; ++j) {
        const ServiceQuery& query = queries[rg.members[j]];
        seeds[j] = query.seed;
        counts[j] = std::max(1, query.samples);
        single_draw &= counts[j] == 1;
        offsets[j] = total;
        total += static_cast<size_t>(counts[j]);
      }
      std::vector<int32_t> draws(total);
      const Status status =
          single_draw
              ? rg.entry->mechanism.SampleBatch(seeds.data(), rg.row, lanes,
                                                draws.data())
              : rg.entry->mechanism.SampleRuns(seeds.data(), counts.data(),
                                               offsets.data(), rg.row, lanes,
                                               draws.data());
      if (!status.ok()) {
        for (size_t q : rg.members) replies[q].status = status;
        continue;
      }
      for (size_t j = 0; j < lanes; ++j) {
        scatter(rg.members[j], draws.data() + offsets[j]);
      }
      pm.sample_batch_size->Observe(static_cast<int64_t>(lanes));
    }
  }
  if (timed) sample_us = static_cast<int64_t>(stage_watch.ElapsedMicros());

  int64_t samples = 0;
  for (size_t q = 0; q < count; ++q) {
    if (admitted[q] != nullptr && replies[q].status.ok()) {
      samples += std::max(1, queries[q].samples);
    }
  }
  pm.samples_total->Add(samples);
  if (timed && metrics::Enabled() && samples > 0 && sample_us > 0) {
    pm.samples_per_sec->Set(static_cast<int64_t>(
        (static_cast<double>(samples) * 1e6) / static_cast<double>(sample_us)));
  }
  if (charges > 0) pm.ledger_charges->Add(charges);
  if (rejections > 0) pm.ledger_rejections->Add(rejections);
  if (timed && metrics::Enabled()) {
    pm.stage_solve_us->Observe(solve_us);
    pm.stage_charge_us->Observe(charge_us);
    pm.stage_sample_us->Observe(sample_us);
  }
  if (timed) {
    // Spans land in every reply (the slow-query log reads them even for
    // untraced queries); the `traced` flag — which puts them on the wire —
    // follows the request's own ask.
    for (size_t q = 0; q < count; ++q) {
      replies[q].traced = queries[q].trace;
      replies[q].trace_solve_us = solve_us;
      replies[q].trace_charge_us = charge_us;
      replies[q].trace_sample_us = sample_us;
    }
  }
  return replies;
}

}  // namespace geopriv
