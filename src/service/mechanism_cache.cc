#include "service/mechanism_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/geometric.h"
#include "core/io.h"
#include "core/optimal_exact.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

namespace fs = std::filesystem;

using SteadyClock = std::chrono::steady_clock;

constexpr char kEntryHeader[] = "geopriv-service-entry v1";
constexpr char kManifestHeader[] = "geopriv-manifest v1";
constexpr char kManifestName[] = "manifest";
constexpr char kQuarantineDir[] = "quarantine";

// Milliseconds left before `deadline`, floored at 1 so a nearly-expired
// deadline still reaches the per-pivot check instead of rounding to
// "unlimited" (0 means "no deadline" everywhere downstream).
int64_t RemainingMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return std::max<int64_t>(1, left.count());
}

// Stable on-disk identity of an entry: 16 hex digits of the canonical-key
// hash.  The entry file is "<stem>.entry", its basis "<stem>.basis".
std::string HashStem(const MechanismSignature& signature) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    SignatureHash(signature.CanonicalKey())));
  return std::string(buf);
}

bool StructurallyCompatible(const MechanismSignature& a,
                            const MechanismSignature& b) {
  return a.mode == b.mode && a.n == b.n && a.lo == b.lo && a.hi == b.hi;
}

// Moves a failed-validation file into dir/quarantine/ so it is preserved
// for inspection but can never be loaded (or re-quarantined) again.  Falls
// back to deleting it if the rename fails — an unloadable file must not
// brick every subsequent start.
void QuarantineFile(const fs::path& dir, const fs::path& path) {
  std::error_code ec;
  fs::create_directories(dir / kQuarantineDir, ec);
  fs::rename(path, dir / kQuarantineDir / path.filename(), ec);
  if (ec) fs::remove(path, ec);
}

// The manifest is the authoritative index of live entries:
//
//   geopriv-manifest v1
//   checksum <16 hex digits>
//   entry <stem>
//   ...
//
// with the checksum covering the entry lines.  A stem present on disk but
// absent here is debris from a crashed eviction or a crashed publish and
// must not be loaded; a stem listed here but missing on disk was half-
// evicted and is skipped.
Result<std::vector<std::string>> ParseManifest(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::InvalidArgument("missing 'geopriv-manifest v1' header");
  }
  if (!std::getline(in, line) || line.size() != 9 + 16 ||
      line.compare(0, 9, "checksum ") != 0) {
    return Status::InvalidArgument("missing 'checksum <16 hex>' line");
  }
  const std::string stored = line.substr(9);
  const std::string body = text.substr(static_cast<size_t>(in.tellg()));
  if (Fnv1a64Hex(body) != stored) {
    return Status::InvalidArgument("manifest checksum mismatch");
  }
  std::vector<std::string> stems;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.compare(0, 6, "entry ") != 0 || line.size() == 6) {
      return Status::InvalidArgument("malformed manifest line '" + line +
                                     "'");
    }
    stems.push_back(line.substr(6));
  }
  return stems;
}

// The mechanism every entry deploys: G_{n,alpha}.  alpha = 1 (a valid
// exact-mode level) has no geometric mechanism, so it deploys G's
// alpha -> 1 limit, whose every row puts 1/2 on each end of {0..n}.  That
// matrix is 1-DP, and post-processing it reaches every 1-DP mechanism (all
// rows equal q, from T's rows 0 and n both set to q), so Theorem 1's
// argument still holds.
Result<RationalMatrix> DeployedGeometric(int n, const Rational& alpha) {
  if (alpha != Rational(1)) {
    return GeometricMechanism::BuildExactMatrix(n, alpha);
  }
  const size_t size = static_cast<size_t>(n) + 1;
  RationalMatrix limit(size, size);
  GEOPRIV_ASSIGN_OR_RETURN(const Rational half, Rational::FromInts(1, 2));
  for (size_t i = 0; i < size; ++i) {
    limit.At(i, 0) += half;
    limit.At(i, size - 1) += half;  // n = 0: both halves land on {0}
  }
  return limit;
}

// Miss solves are millisecond-scale, so the clock reads and interned
// lookups below are noise there; the hit path records nothing.
void RecordSolveMetrics(const ServedMechanism& entry, double micros) {
  if (!metrics::Enabled()) return;
  metrics::Registry* registry = metrics::Registry::Default();
  static metrics::Histogram* const latency_warm = registry->GetHistogram(
      "geopriv_cache_solve_latency_us",
      "Miss solve wall time in microseconds, by warm-start outcome",
      {{"start", "warm"}});
  static metrics::Histogram* const latency_cold = registry->GetHistogram(
      "geopriv_cache_solve_latency_us",
      "Miss solve wall time in microseconds, by warm-start outcome",
      {{"start", "cold"}});
  static metrics::Histogram* const pivots_p1_warm = registry->GetHistogram(
      "geopriv_solver_pivots",
      "Simplex pivots per miss solve, by phase and warm-start outcome",
      {{"phase", "1"}, {"start", "warm"}});
  static metrics::Histogram* const pivots_p2_warm = registry->GetHistogram(
      "geopriv_solver_pivots",
      "Simplex pivots per miss solve, by phase and warm-start outcome",
      {{"phase", "2"}, {"start", "warm"}});
  static metrics::Histogram* const pivots_p1_cold = registry->GetHistogram(
      "geopriv_solver_pivots",
      "Simplex pivots per miss solve, by phase and warm-start outcome",
      {{"phase", "1"}, {"start", "cold"}});
  static metrics::Histogram* const pivots_p2_cold = registry->GetHistogram(
      "geopriv_solver_pivots",
      "Simplex pivots per miss solve, by phase and warm-start outcome",
      {{"phase", "2"}, {"start", "cold"}});
  const bool warm = entry.warm_started;
  (warm ? latency_warm : latency_cold)
      ->Observe(static_cast<int64_t>(micros));
  (warm ? pivots_p1_warm : pivots_p1_cold)->Observe(entry.phase1_iterations);
  (warm ? pivots_p2_warm : pivots_p2_cold)->Observe(entry.phase2_iterations);
}

}  // namespace

MechanismCache::MechanismCache(CacheOptions options)
    : options_(std::move(options)),
      shards_(options_.shards == 0 ? 1 : options_.shards) {
  const int threads = ThreadPool::ConfiguredThreads(options_.threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

MechanismCache::Shard& MechanismCache::ShardFor(
    const MechanismSignature& signature) {
  return shards_[SignatureHash(signature.StructuralKey()) % shards_.size()];
}

const MechanismCache::Shard& MechanismCache::ShardFor(
    const MechanismSignature& signature) const {
  return shards_[SignatureHash(signature.StructuralKey()) % shards_.size()];
}

Result<ServedMechanism> MechanismCache::SolveLocked(
    const MechanismSignature& signature, const LpBasis* warm_seed,
    int64_t deadline_ms) const {
  GEOPRIV_ASSIGN_OR_RETURN(ExactLossFunction loss, signature.ResolveLoss());
  GEOPRIV_ASSIGN_OR_RETURN(SideInformation side, signature.ResolveSide());

  // Theorem 1: every entry deploys G_{n,alpha} and post-processes it with
  // the consumer's interaction T.  Geometric mode serves G itself (T = I);
  // exact mode serves G·T*, where T* solves the Section 2.4.3 LP.  G·T* is
  // alpha-DP because post-processing preserves it, and its loss is the
  // Section 2.5 optimum -- from an LP with no privacy rows.
  GEOPRIV_ASSIGN_OR_RETURN(RationalMatrix deployed,
                           DeployedGeometric(signature.n, signature.alpha));
  ServedMechanism entry;
  entry.signature = signature;
  if (signature.mode == ServeMode::kGeometric) {
    GEOPRIV_ASSIGN_OR_RETURN(Rational worst,
                             ExactWorstCaseLoss(deployed, loss, side));
    entry.exact = std::move(deployed);
    entry.loss = std::move(worst);
  } else {
    ExactSimplexOptions solver = options_.solver;
    solver.warm_start = warm_seed;
    solver.pool = pool_.get();
    solver.threads = 1;  // never spawn per-solve workers; pool_ is the pool
    solver.deadline_ms = deadline_ms;
    Result<ExactOptimalResult> solved =
        SolveOptimalInteractionExact(deployed, loss, side, solver);
    if (!solved.ok() && !solved.status().IsDeadlineExceeded() &&
        warm_seed != nullptr) {
      // A seed that does not fit (or drove the solver into a corner) must
      // never cost correctness: fall back to the cold path once.  A timed-
      // out warm attempt is the one exception — retrying cold would spend
      // the deadline twice.
      solver.warm_start = nullptr;
      solved = SolveOptimalInteractionExact(deployed, loss, side, solver);
    }
    GEOPRIV_ASSIGN_OR_RETURN(ExactOptimalResult result, std::move(solved));
    entry.exact = deployed * result.matrix;
    entry.loss = std::move(result.loss);
    entry.basis = std::move(result.basis);
    entry.lp_iterations = result.lp_iterations;
    entry.phase1_iterations = result.phase1_iterations;
    entry.phase2_iterations = result.phase2_iterations;
    entry.warm_started = result.warm_started;
  }
  entry.loss_text = entry.loss.ToString();

  GEOPRIV_ASSIGN_OR_RETURN(Mechanism mechanism,
                           Mechanism::FromExact(entry.exact));
  GEOPRIV_RETURN_IF_ERROR(mechanism.PrepareSamplers());
  entry.mechanism = std::move(mechanism);
  return entry;
}

bool MechanismCache::Contains(const MechanismSignature& signature) const {
  const Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.count(signature.CanonicalKey()) > 0;
}

std::shared_ptr<const ServedMechanism> MechanismCache::Peek(
    const MechanismSignature& signature) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(signature.CanonicalKey());
  if (it == shard.entries.end()) return nullptr;
  hits_.fetch_add(1, std::memory_order_relaxed);
  it->second.last_used = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  return it->second.entry;
}

Result<std::shared_ptr<const ServedMechanism>> MechanismCache::GetOrSolve(
    const MechanismSignature& signature, bool* was_hit, int64_t deadline_ms) {
  Shard& shard = ShardFor(signature);
  const std::string& key = signature.CanonicalKey();
  // One deadline covers the whole call: waiting on a duplicate in-flight
  // solve, queueing on the solver mutex, and the solve's own pivots.
  const bool has_deadline = deadline_ms > 0;
  const SteadyClock::time_point deadline =
      SteadyClock::now() + std::chrono::milliseconds(deadline_ms);

  std::shared_ptr<const ServedMechanism> seed_entry;
  {
    std::unique_lock<std::mutex> shard_lock(shard.mu);
    // Wait out a concurrent solve of the same signature: each signature is
    // solved at most once, and waiters come back as hits (or retry the
    // solve themselves if the first attempt failed and vanished).
    for (;;) {
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        it->second.last_used =
            tick_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (was_hit != nullptr) *was_hit = true;
        return it->second.entry;
      }
      if (shard.in_flight.count(key) == 0) break;
      if (!has_deadline) {
        shard.solved.wait(shard_lock);
      } else if (shard.solved.wait_until(shard_lock, deadline) ==
                 std::cv_status::timeout) {
        // Only this waiter gives up; the in-flight solve it was watching
        // continues and will still publish for later callers.
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded(
            "deadline expired waiting for an in-flight solve of '" + key +
            "'");
      }
    }
    if (was_hit != nullptr) *was_hit = false;
    // Overload admission: shed this miss rather than join an unbounded
    // convoy on the solver mutex.  Checked before the in-flight marker so
    // a shed call leaves no state to clean up.
    if (options_.max_pending > 0 &&
        pending_solves_.load(std::memory_order_relaxed) >=
            options_.max_pending) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(
          "solve queue is full (max_pending=" +
          std::to_string(options_.max_pending) + "); retry later");
    }
    pending_solves_.fetch_add(1, std::memory_order_relaxed);
    shard.in_flight.insert(key);

    // Pick the warm seed before unlocking.  Only entries of the same
    // structural family fit (warm starts require identical LP shape), only
    // LP entries carry a basis, and the nearest alpha gives the seed whose
    // optimal basis most likely still prices out optimal (ties prefer the
    // same loss, then the smaller key for determinism).  Holding the
    // shared_ptr keeps the seed's basis alive after the lock drops.
    if (signature.mode == ServeMode::kExactOptimal) {
      for (const auto& [other_key, slot] : shard.entries) {
        const std::shared_ptr<const ServedMechanism>& other = slot.entry;
        if (!StructurallyCompatible(other->signature, signature)) continue;
        if (other->basis.empty()) continue;
        if (seed_entry == nullptr) {
          seed_entry = other;
          continue;
        }
        const Rational cand_dist =
            (other->signature.alpha - signature.alpha).Abs();
        const Rational seed_dist =
            (seed_entry->signature.alpha - signature.alpha).Abs();
        const int cmp = cand_dist.Compare(seed_dist);
        if (cmp < 0) {
          seed_entry = other;
        } else if (cmp == 0) {
          const bool cand_same = other->signature.loss == signature.loss;
          const bool seed_same = seed_entry->signature.loss == signature.loss;
          if ((cand_same && !seed_same) ||
              (cand_same == seed_same &&
               other->signature.CanonicalKey() <
                   seed_entry->signature.CanonicalKey())) {
            seed_entry = other;
          }
        }
      }
    }
  }

  // The shard lock is released while the solve grinds, so concurrent hits
  // on this shard (and GetStats) stay cheap; the in_flight marker keeps
  // duplicate solves of this signature out.
  Result<ServedMechanism> solved = Status::Internal("unreachable");
  Stopwatch solve_watch;
  {
    std::unique_lock<std::timed_mutex> solve_lock(solve_mu_, std::defer_lock);
    if (!has_deadline) {
      solve_lock.lock();
      solved = SolveLocked(
          signature, seed_entry != nullptr ? &seed_entry->basis : nullptr,
          /*deadline_ms=*/0);
    } else if (solve_lock.try_lock_until(deadline)) {
      // Whatever deadline survives the queue bounds the solve's pivots.
      solved = SolveLocked(
          signature, seed_entry != nullptr ? &seed_entry->basis : nullptr,
          RemainingMs(deadline));
    } else {
      solved = Status::DeadlineExceeded(
          "deadline expired queueing for the solver mutex on '" + key + "'");
    }
  }

  // Persist before publishing: files first, memory second, manifest last.
  // A crash after the files but before the manifest leaves unmanifested
  // files the next load removes as debris — the store can only lose the
  // entry in flight, never serve a half-written one.  Persist failures
  // degrade the entry to memory-only (the cache is a performance
  // artifact); the query still succeeds.
  std::shared_ptr<const ServedMechanism> entry;
  size_t entry_bytes = 0;
  bool persisted = false;  // only persisted files may be manifested
  if (solved.ok()) {
    entry = std::make_shared<const ServedMechanism>(std::move(*solved));
    RecordSolveMetrics(*entry, solve_watch.ElapsedMicros());
    if (!options_.persist_dir.empty()) {
      const std::string serialized = SerializeExactMechanismV3(entry->exact);
      entry_bytes = serialized.size();
      if (!entry->basis.empty()) {
        entry_bytes += SerializeBasisDoc(key, entry->basis.basic_columns)
                           .size();
      }
      persisted =
          PersistEntryFiles(options_.persist_dir, *entry, serialized).ok();
      if (!persisted) {
        // Memory-only degradation (see comment above), but visibly so.
        persist_failures_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      entry_bytes = SerializeExactMechanismV3(entry->exact).size();
    }
  }

  {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    shard.in_flight.erase(key);
    pending_solves_.fetch_sub(1, std::memory_order_relaxed);
    shard.solved.notify_all();
    if (!solved.ok()) {
      if (solved.status().IsDeadlineExceeded()) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      return solved.status();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (entry->warm_started) {
      warm_starts_.fetch_add(1, std::memory_order_relaxed);
    }
    Slot slot;
    slot.entry = entry;
    slot.last_used = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    slot.bytes = entry_bytes;
    shard.entries.emplace(key, std::move(slot));
    bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
  }
  if (persisted) ManifestAdd(HashStem(entry->signature));
  MaybeEvict();
  return entry;
}

Result<std::shared_ptr<const ServedMechanism>> MechanismCache::SolveUncached(
    const MechanismSignature& signature) const {
  std::lock_guard<std::timed_mutex> solve_lock(solve_mu_);
  GEOPRIV_ASSIGN_OR_RETURN(
      ServedMechanism solved,
      SolveLocked(signature, nullptr, /*deadline_ms=*/0));
  return std::make_shared<const ServedMechanism>(std::move(solved));
}

MechanismCache::Stats MechanismCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.quarantined = quarantined_.load(std::memory_order_relaxed);
  stats.basis_warm_reloads =
      basis_warm_reloads_.load(std::memory_order_relaxed);
  stats.persist_failures = persist_failures_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.entries += shard.entries.size();
  }
  return stats;
}

Status MechanismCache::PersistEntryFiles(const std::string& dir,
                                         const ServedMechanism& entry,
                                         const std::string& serialized) const {
  const MechanismSignature& sig = entry.signature;
  const std::string& key = sig.CanonicalKey();
  const std::string stem = HashStem(sig);
  // Write-then-rename with fsyncs (util/durable_file.h): a crash or power
  // loss mid-write must never leave a torn file where the loader expects
  // a committed one — torn bytes live only in "*.tmp", which the next
  // start sweeps.  The write fault fires between the header and the
  // matrix, so an abort there leaves a genuinely torn tmp file; the
  // rename fault between a complete tmp and the publishing rename, where
  // the previous version of the entry (or its absence) must survive.
  std::ostringstream header;
  header << kEntryHeader << "\n"
         << "key " << key << "\n"
         << "mode " << ServeModeName(sig.mode) << "\n"
         << "n " << sig.n << "\n"
         << "lo " << sig.lo << "\n"
         << "hi " << sig.hi << "\n"
         << "loss " << sig.loss << "\n"
         << "alpha " << sig.alpha.ToString() << "\n";
  GEOPRIV_RETURN_IF_ERROR(ReplaceFileDurably(
      (fs::path(dir) / (stem + ".entry")).string(), header.str(), serialized,
      "cache.entry.write", "cache.entry.rename"));
  if (entry.basis.empty()) return Status::OK();
  const std::string basis_doc = SerializeBasisDoc(key, entry.basis.basic_columns);
  const size_t split = basis_doc.find('\n') + 1;
  return ReplaceFileDurably((fs::path(dir) / (stem + ".basis")).string(),
                            std::string_view(basis_doc).substr(0, split),
                            std::string_view(basis_doc).substr(split),
                            "cache.basis.write", "cache.basis.rename");
}

Status MechanismCache::WriteManifestLocked(
    const std::string& dir, const std::set<std::string>& stems) const {
  std::string body;
  for (const std::string& stem : stems) body += "entry " + stem + "\n";
  // The write fault fires between the checksum and the entry lines: the
  // torn tmp (or, if it were ever committed, the checksum mismatch) is
  // what the loader's quarantine-and-fall-back path exists for.  At the
  // rename fault the previous manifest stays authoritative, so files
  // persisted after it are debris the next load removes — never
  // resurrected entries.
  const std::string header = std::string(kManifestHeader) + "\nchecksum " +
                             Fnv1a64Hex(body) + "\n";
  return ReplaceFileDurably((fs::path(dir) / kManifestName).string(), header,
                            body, "cache.manifest.write",
                            "cache.manifest.rename");
}

void MechanismCache::ManifestAdd(const std::string& stem) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  manifest_stems_.insert(stem);
  const Status written =
      WriteManifestLocked(options_.persist_dir, manifest_stems_);
  (void)written;  // a failed commit leaves the new files unmanifested —
                  // the next load removes them as debris and re-solves
}

namespace {

// Unlinking runs last, after the manifest commit and the in-memory erase:
// by then the files are unmanifested, so a crash (or an injected failure)
// anywhere in this loop only leaves debris the next load removes.
Status UnlinkEvictedFiles(const fs::path& dir,
                          const std::vector<std::string>& stems) {
  for (const std::string& stem : stems) {
    GEOPRIV_INJECT_FAULT("cache.evict.unlink");
    std::error_code ec;
    fs::remove(dir / (stem + ".entry"), ec);
    fs::remove(dir / (stem + ".basis"), ec);
  }
  return Status::OK();
}

}  // namespace

void MechanismCache::MaybeEvict() {
  if (options_.max_entries == 0 && options_.max_bytes == 0) return;
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  struct Item {
    std::shared_ptr<const ServedMechanism> entry;
    std::string key;
    std::string struct_key;
    uint64_t last_used = 0;
    size_t bytes = 0;
    size_t shard_index = 0;
  };
  std::vector<Item> items;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    for (const auto& [key, slot] : shards_[s].entries) {
      items.push_back(Item{slot.entry, key,
                           std::string(slot.entry->signature.StructuralKey()),
                           slot.last_used, slot.bytes, s});
    }
  }
  uint64_t total_bytes = 0;
  for (const Item& item : items) total_bytes += item.bytes;
  const auto over = [this](size_t count, uint64_t bytes) {
    return (options_.max_entries > 0 && count > options_.max_entries) ||
           (options_.max_bytes > 0 && bytes > options_.max_bytes);
  };
  if (!over(items.size(), total_bytes)) return;

  // Pin each structural class's warm-start anchor: the smallest-
  // denominator alpha (ties: smaller alpha, then smaller canonical key).
  // Contract alphas negotiated from coarse grids (1/2, 2/5, ...) make the
  // low-denominator entry the one whose basis seeds the rest of the
  // class, so it is the entry eviction must never destroy.
  std::unordered_map<std::string, size_t> anchors;
  for (size_t i = 0; i < items.size(); ++i) {
    auto [it, inserted] = anchors.emplace(items[i].struct_key, i);
    if (inserted) continue;
    const Rational& cand = items[i].entry->signature.alpha;
    const Rational& best = items[it->second].entry->signature.alpha;
    const int denom_cmp = cand.denominator().Compare(best.denominator());
    const int alpha_cmp = denom_cmp != 0 ? 0 : cand.Compare(best);
    if (denom_cmp < 0 || (denom_cmp == 0 && alpha_cmp < 0) ||
        (denom_cmp == 0 && alpha_cmp == 0 &&
         items[i].key < items[it->second].key)) {
      it->second = i;
    }
  }
  // A class is as warm as its most recently used member; eviction drains
  // the coldest class first so one hot family cannot starve another's
  // warm-start neighborhood, then oldest-first within the class.
  std::unordered_map<std::string, uint64_t> class_heat;
  for (const Item& item : items) {
    uint64_t& heat = class_heat[item.struct_key];
    heat = std::max(heat, item.last_used);
  }
  std::unordered_set<size_t> pinned;
  for (const auto& [struct_key, index] : anchors) pinned.insert(index);
  std::vector<size_t> candidates;
  for (size_t i = 0; i < items.size(); ++i) {
    if (pinned.count(i) == 0) candidates.push_back(i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](size_t a, size_t b) {
              const uint64_t heat_a = class_heat[items[a].struct_key];
              const uint64_t heat_b = class_heat[items[b].struct_key];
              if (heat_a != heat_b) return heat_a < heat_b;
              if (items[a].last_used != items[b].last_used) {
                return items[a].last_used < items[b].last_used;
              }
              return items[a].key < items[b].key;
            });
  size_t count = items.size();
  uint64_t bytes = total_bytes;
  std::vector<size_t> victims;
  for (const size_t i : candidates) {
    if (!over(count, bytes)) break;
    victims.push_back(i);
    --count;
    bytes -= items[i].bytes;
  }
  if (victims.empty()) return;

  // Commit to disk first: a manifest that no longer lists the victims is
  // the point of no return.  A crash after it under-deletes (the files
  // become debris the next load removes); a crash before it changes
  // nothing — restart can never resurrect an evicted entry.
  std::vector<std::string> victim_stems;
  victim_stems.reserve(victims.size());
  for (const size_t i : victims) {
    victim_stems.push_back(HashStem(items[i].entry->signature));
  }
  if (!options_.persist_dir.empty()) {
    std::set<std::string> shrunk = manifest_stems_;
    for (const std::string& stem : victim_stems) shrunk.erase(stem);
    if (!WriteManifestLocked(options_.persist_dir, shrunk).ok()) {
      return;  // could not commit: evict nothing, retry at the next publish
    }
    manifest_stems_ = std::move(shrunk);
  }
  for (const size_t i : victims) {
    Shard& shard = shards_[items[i].shard_index];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(items[i].key);
    if (it == shard.entries.end()) continue;
    bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!options_.persist_dir.empty()) {
    const Status unlinked =
        UnlinkEvictedFiles(fs::path(options_.persist_dir), victim_stems);
    (void)unlinked;  // failures leave unmanifested debris, removed on load
  }
}

namespace {

// One persisted entry -> (signature, exact matrix).  The signature is
// rebuilt through MechanismSignature::Create so a tampered or stale file
// re-validates from scratch; the loss value is recomputed, not trusted.
// Every field extraction is checked: a truncated "alpha" line defaulting
// to 0 would make the load-time alpha-DP re-validation vacuous (any
// non-negative matrix is 0-DP), so missing-or-malformed fields are
// errors, never defaults.  The embedded canonical key is returned through
// `stored_key` so the caller can cross-check it against the key the
// fields re-derive — a bit flip in any header field changes one side of
// that comparison but not the other.
Result<MechanismSignature> ParseEntryHeader(std::istringstream& in,
                                            std::string* stored_key) {
  std::string line;
  if (!std::getline(in, line) || line != kEntryHeader) {
    return Status::InvalidArgument("missing '" + std::string(kEntryHeader) +
                                   "' header");
  }
  std::string mode_name, loss_name, alpha_text;
  int n = -1, lo = -1, hi = -1;
  bool saw_alpha = false;
  while (!saw_alpha && std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    fields >> field;
    bool parsed = true;
    if (field == "key") {
      parsed = static_cast<bool>(fields >> *stored_key);
    } else if (field == "mode") {
      parsed = static_cast<bool>(fields >> mode_name);
    } else if (field == "n") {
      parsed = static_cast<bool>(fields >> n);
    } else if (field == "lo") {
      parsed = static_cast<bool>(fields >> lo);
    } else if (field == "hi") {
      parsed = static_cast<bool>(fields >> hi);
    } else if (field == "loss") {
      parsed = static_cast<bool>(fields >> loss_name);
    } else if (field == "alpha") {
      parsed = static_cast<bool>(fields >> alpha_text);
      saw_alpha = parsed;  // alpha closes the header; the v2 block follows
    } else {
      return Status::InvalidArgument("unknown entry field '" + field + "'");
    }
    if (!parsed) {
      return Status::InvalidArgument("malformed entry field '" + field +
                                     "'");
    }
  }
  if (!saw_alpha || mode_name.empty() || loss_name.empty()) {
    return Status::InvalidArgument(
        "entry header is missing required fields (mode/loss/alpha)");
  }
  GEOPRIV_ASSIGN_OR_RETURN(ServeMode mode, ServeModeFromString(mode_name));
  GEOPRIV_ASSIGN_OR_RETURN(Rational alpha, Rational::FromString(alpha_text));
  return MechanismSignature::Create(n, std::move(alpha), loss_name, lo, hi,
                                    mode);
}

// Parses and fully re-validates one entry file.  Any failure means the
// file must be quarantined, so everything that can reject a byte of it —
// header fields, the key cross-check, the v2/v3 mechanism block (and its
// v3 checksum), shape, and the alpha-DP claim — funnels through here.
Result<ServedMechanism> ParseAndValidateEntry(const std::string& text) {
  std::istringstream in(text);
  std::string stored_key;
  GEOPRIV_ASSIGN_OR_RETURN(MechanismSignature signature,
                           ParseEntryHeader(in, &stored_key));
  if (stored_key.empty()) {
    return Status::InvalidArgument("entry header is missing its key line");
  }
  if (signature.CanonicalKey() != stored_key) {
    return Status::InvalidArgument(
        "entry key line does not match its header fields (stored '" +
        stored_key + "', derived '" + signature.CanonicalKey() + "')");
  }
  // Everything after the header fields is one io v2/v3 document.
  if (in.tellg() < 0) {
    return Status::InvalidArgument("missing mechanism block");
  }
  const std::string rest(text.substr(static_cast<size_t>(in.tellg())));
  GEOPRIV_ASSIGN_OR_RETURN(RationalMatrix exact, ParseExactMechanism(rest));
  if (exact.rows() != static_cast<size_t>(signature.n) + 1) {
    return Status::InvalidArgument("matrix size does not match n");
  }

  // Safety re-validation: the signature's alpha-DP claim is what the
  // ledger charges for, so a tampered or corrupted matrix must never be
  // served under it (a file swapped for the identity matrix would turn
  // the service into a plaintext oracle billed at alpha).  Geometric
  // entries must equal the closed form exactly; exact-mode entries (G·T*,
  // or a Section 2.5 optimum persisted by an older build) must satisfy
  // Definition 2 exactly (a tampered-but-DP matrix can only cost
  // utility, never privacy).
  if (signature.mode == ServeMode::kGeometric) {
    GEOPRIV_ASSIGN_OR_RETURN(
        RationalMatrix expected,
        GeometricMechanism::BuildExactMatrix(signature.n, signature.alpha));
    if (!(exact == expected)) {
      return Status::InvalidArgument(
          "matrix is not G_{n,alpha} for its signature");
    }
  } else {
    const size_t size = exact.rows();
    for (size_t i = 0; i + 1 < size; ++i) {
      for (size_t r = 0; r < size; ++r) {
        const Rational& a = exact.At(i, r);
        const Rational& b = exact.At(i + 1, r);
        if (a < signature.alpha * b || b < signature.alpha * a) {
          return Status::InvalidArgument(
              "matrix violates the alpha-DP level its signature claims");
        }
      }
    }
  }

  ServedMechanism entry;
  entry.signature = signature;
  GEOPRIV_ASSIGN_OR_RETURN(ExactLossFunction loss, signature.ResolveLoss());
  GEOPRIV_ASSIGN_OR_RETURN(SideInformation side, signature.ResolveSide());
  GEOPRIV_ASSIGN_OR_RETURN(Rational worst,
                           ExactWorstCaseLoss(exact, loss, side));
  entry.loss = std::move(worst);
  entry.loss_text = entry.loss.ToString();
  GEOPRIV_ASSIGN_OR_RETURN(Mechanism mechanism, Mechanism::FromExact(exact));
  GEOPRIV_RETURN_IF_ERROR(mechanism.PrepareSamplers());
  entry.exact = std::move(exact);
  entry.mechanism = std::move(mechanism);
  return entry;
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path.string() + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace

Result<MechanismCache::LoadReport> MechanismCache::LoadFromDirectory(
    const std::string& dir) {
  LoadReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return report;
  const fs::path root(dir);

  std::set<std::string> entry_stems;
  std::set<std::string> basis_stems;
  std::vector<fs::path> stale_tmps;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    const fs::path& path = dirent.path();
    if (path.extension() == ".entry") {
      entry_stems.insert(path.stem().string());
    } else if (path.extension() == ".basis") {
      basis_stems.insert(path.stem().string());
    } else if (path.extension() == ".tmp") {
      // A leftover "*.tmp" is a write that never reached its rename — a
      // crash mid-persist.  Its content is untrusted (possibly torn); the
      // committed file beside it (if any) is intact.  Sweep our own kinds
      // only — the ledger sweeps its own tmp.
      const fs::path inner = path.stem();
      if (inner.extension() == ".entry" || inner.extension() == ".basis" ||
          inner.string() == kManifestName) {
        stale_tmps.push_back(path);
      }
    }
  }
  if (ec) {
    return Status::Internal("cannot list '" + dir + "': " + ec.message());
  }
  for (const fs::path& tmp : stale_tmps) {
    std::error_code remove_ec;
    fs::remove(tmp, remove_ec);
    ++report.debris_removed;
  }

  // The manifest decides what is live.  A corrupt or torn manifest is
  // quarantined and the load falls back to adopting every entry that
  // passes validation — over-loading is safe (every adopted entry is
  // still fully re-validated), silently dropping the whole store is not.
  // No manifest at all means a pre-manifest store: adopt it the same way.
  std::set<std::string> live;
  bool adopt_all = false;
  const fs::path manifest_path = root / kManifestName;
  if (fs::exists(manifest_path, ec)) {
    Result<std::string> text = ReadFile(manifest_path);
    Result<std::vector<std::string>> stems =
        text.ok() ? ParseManifest(*text)
                  : Result<std::vector<std::string>>(text.status());
    if (stems.ok()) {
      live.insert(stems->begin(), stems->end());
    } else {
      QuarantineFile(root, manifest_path);
      ++report.quarantined;
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      adopt_all = true;
    }
  } else {
    adopt_all = true;
  }
  if (adopt_all) live = entry_stems;

  // An on-disk file the manifest does not list is debris: either a crash
  // landed between persisting it and committing the manifest (the entry
  // was never published to a client as durable) or between evicting it
  // from the manifest and unlinking it.  Both must not load — the second
  // would resurrect an evicted entry.
  if (!adopt_all) {
    for (const std::string& stem : entry_stems) {
      if (live.count(stem) != 0) continue;
      std::error_code remove_ec;
      fs::remove(root / (stem + ".entry"), remove_ec);
      ++report.debris_removed;
    }
    for (const std::string& stem : basis_stems) {
      if (live.count(stem) != 0) continue;
      std::error_code remove_ec;
      fs::remove(root / (stem + ".basis"), remove_ec);
      ++report.debris_removed;
    }
  }

  std::set<std::string> adopted;
  for (const std::string& stem : live) {
    const fs::path path = root / (stem + ".entry");
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) continue;  // manifested-but-missing: a half-done evict

    Result<ServedMechanism> parsed = ParseAndValidateEntry(*text);
    if (!parsed.ok()) {
      QuarantineFile(root, path);
      ++report.quarantined;
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      // The basis describes a mechanism that no longer loads; without its
      // entry it is dead weight, not evidence — remove, don't quarantine,
      // so the quarantined count stays one per corrupted artifact.
      if (basis_stems.count(stem) != 0) {
        std::error_code remove_ec;
        fs::remove(root / (stem + ".basis"), remove_ec);
        ++report.debris_removed;
      }
      continue;
    }

    ServedMechanism entry = std::move(*parsed);
    size_t slot_bytes = text->size();
    if (basis_stems.count(stem) != 0) {
      const fs::path basis_path = root / (stem + ".basis");
      Result<std::string> basis_text = ReadFile(basis_path);
      std::string basis_key;
      Result<std::vector<size_t>> columns =
          basis_text.ok()
              ? ParseBasisDoc(*basis_text, &basis_key)
              : Result<std::vector<size_t>>(basis_text.status());
      if (!columns.ok() && columns.status().IsFailedPrecondition()) {
        // A v1 basis (Section 2.5 LP) or v2 basis (unreduced interaction
        // LP): intact, but it cannot seed the reduced interaction LP.  Not
        // evidence of corruption, so it is removed rather than
        // quarantined; the entry serves without a seed.
        std::error_code remove_ec;
        fs::remove(basis_path, remove_ec);
        ++report.debris_removed;
      } else if (columns.ok() &&
                 basis_key == entry.signature.CanonicalKey()) {
        // A restored basis re-arms warm starts; a bad one could at worst
        // cost a wasted warm attempt (SolveLocked falls back to cold),
        // but the checksum means we never even try a corrupt one.
        entry.basis.basic_columns = std::move(*columns);
        slot_bytes += basis_text->size();
        ++report.basis_reloads;
        basis_warm_reloads_.fetch_add(1, std::memory_order_relaxed);
      } else {
        QuarantineFile(root, basis_path);
        ++report.quarantined;
        quarantined_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    Shard& shard = ShardFor(entry.signature);
    const std::string key = entry.signature.CanonicalKey();
    Slot slot;
    slot.entry = std::make_shared<const ServedMechanism>(std::move(entry));
    slot.last_used = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    slot.bytes = slot_bytes;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
      }
      shard.entries[key] = std::move(slot);
    }
    bytes_.fetch_add(slot_bytes, std::memory_order_relaxed);
    adopted.insert(stem);
    ++report.loaded;
  }

  // Rewrite the manifest to exactly the set being served, so quarantined
  // and skipped stems stop being listed and an adopted pre-manifest store
  // becomes a manifested one.  A clean restart — the committed manifest
  // already lists exactly that set — keeps its file and skips the fsyncs.
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    manifest_stems_.insert(adopted.begin(), adopted.end());
    if (adopt_all || manifest_stems_ != live) {
      const Status written = WriteManifestLocked(dir, manifest_stems_);
      (void)written;  // best effort; the files themselves are committed
    }
  }
  MaybeEvict();
  return report;
}

}  // namespace geopriv
