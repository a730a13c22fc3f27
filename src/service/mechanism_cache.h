// Sharded solve cache: the mechanism service's hot core.
//
// An exact-mode entry is the paper's Theorem 1 made concrete: the geometric
// mechanism G_{n,alpha} post-processed by the consumer's optimal
// interaction T*, found by the Section 2.4.3 LP over Q.  That solve costs
// milliseconds to seconds; looking a solved mechanism up costs a hash and
// a mutex.  A data owner serving
// many consumers sees the same problems over and over — the same (n, alpha,
// loss, side) tuples negotiated into contracts — so the service keeps every
// solved mechanism, keyed by its canonical signature (signature.h).
//
// Sharding is by *structural* key (n, side, mode): all members of one LP
// family land in one shard, which buys two things at once — map contention
// spreads across families, and a cache miss can scan its own shard, under
// its own lock, for the structurally compatible neighbor whose basis warm-
// starts the new solve (nearest alpha wins; a warm load typically
// re-optimizes in zero pivots, see docs/PERFORMANCE.md).  Misses serialize
// on one solver mutex: exact solves are memory-hungry and share one worker
// pool (ExactSimplexOptions::pool), so running them one at a time is the
// deliberate policy; hits never touch the solver mutex.
//
// Entries are immutable once published and handed out as
// shared_ptr<const ServedMechanism>, so readers never hold a lock while
// sampling.
//
// The cache doubles as a *durable, bounded* store:
//
//  - Durability.  With CacheOptions::persist_dir set, every newly solved
//    entry is persisted at publish time — the exact matrix in the
//    checksummed io v3 format, the optimal LP basis as a checksummed
//    basis document — so a restarted daemon serves the same hits and
//    warm-starts misses exactly as the live cache did.  A write-then-
//    rename manifest indexes the live entries; restart never resurrects
//    an evicted file or loads a half-deleted one.  Reloaded entries are
//    bit-identical (operator==) to the solves that produced them.
//  - Integrity.  Every persisted artifact carries an FNV-1a-64 checksum.
//    On load, a corrupt, torn or claim-violating file is *quarantined*
//    (moved to a quarantine/ subdir, counted, re-solved fresh on the next
//    miss) — never served, never fatal to the load.
//  - Bounds.  CacheOptions::max_entries / max_bytes cap the store with
//    LRU eviction that respects structural shards: victims come from the
//    coldest compatibility class first, and the warm-start anchor of each
//    class (the smallest-denominator alpha) is pinned so eviction never
//    destroys the seeds that make misses cheap.

#ifndef GEOPRIV_SERVICE_MECHANISM_CACHE_H_
#define GEOPRIV_SERVICE_MECHANISM_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/mechanism.h"
#include "exact/rational_matrix.h"
#include "lp/exact_simplex.h"
#include "service/signature.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace geopriv {

/// One solved, immutable, ready-to-sample cache entry.
struct ServedMechanism {
  MechanismSignature signature;
  /// Exact row-stochastic matrix: G_{n,alpha} in geometric mode, G·T* in
  /// exact mode (T* the optimal interaction); the placeholder shape is
  /// replaced before an entry is published.
  RationalMatrix exact{0, 0};
  Rational loss;          ///< exact minimax loss over the signature's side
  /// `loss` as wire text, rendered once when the entry is built or loaded
  /// so a reply copies no Rational and converts no BigInt.
  std::string loss_text;
  Mechanism mechanism = Mechanism::Identity(0);  ///< double view, prepared
  /// Optimal basis of the interaction LP: a warm-start seed for neighbors
  /// (empty in geometric mode).
  LpBasis basis;
  int lp_iterations = 0;  ///< pivots of the producing solve (0 = no LP)
  int phase1_iterations = 0;  ///< pivots spent finding feasibility
  int phase2_iterations = 0;  ///< pivots spent optimizing
  bool warm_started = false;  ///< solved from a cached neighbor's basis
};

struct CacheOptions {
  /// Shard count; structural families map to shards by stable hash.
  size_t shards = 8;
  /// Worker threads for miss solves (0 defers to GEOPRIV_THREADS, else 1).
  /// The cache owns one pool for its lifetime and passes it into every
  /// solve — the service's warm-start path never re-spawns workers.
  int threads = 0;
  /// Base solver configuration for miss solves (engine, pivot rule, ...).
  /// warm_start/pool/threads are managed by the cache and ignored here.
  ExactSimplexOptions solver;
  /// Overload admission: the maximum number of solves allowed to be
  /// running or queued on the solver mutex at once; further misses are
  /// shed with Status::Unavailable instead of joining the convoy.  0
  /// means unbounded (the historical behavior).  Hits are never shed.
  size_t max_pending = 0;
  /// When non-empty, each newly solved entry (and its basis) is persisted
  /// here at publish time and the manifest is updated, so a SIGKILL'd
  /// daemon loses at most the solve in flight.  Persist failures degrade
  /// the entry to memory-only (the cache is a performance artifact, not a
  /// correctness one); they never fail the query.
  std::string persist_dir;
  /// LRU bounds; 0 means unbounded.  max_entries is a soft bound: the
  /// per-class warm-start anchors are pinned, so the store never shrinks
  /// below one entry per structural compatibility class.
  size_t max_entries = 0;
  size_t max_bytes = 0;
};

class MechanismCache {
 public:
  explicit MechanismCache(CacheOptions options = {});

  MechanismCache(const MechanismCache&) = delete;
  MechanismCache& operator=(const MechanismCache&) = delete;

  /// Returns the cached entry for `signature`, solving (and publishing) it
  /// on a miss.  Miss handling warm-starts from the nearest structurally
  /// compatible cached basis when one exists.  `was_hit`, when non-null,
  /// reports whether the entry was already present.  Thread-safe; each
  /// signature is solved at most once (concurrent requests for an
  /// in-flight signature wait for its solve and come back as hits), and
  /// the shard lock is NOT held during a solve, so hits and stats stay
  /// cheap while misses grind.
  ///
  /// `deadline_ms > 0` bounds the whole call in wall-clock time: waiting
  /// on an in-flight duplicate, queueing on the solver mutex, and the
  /// solve's own pivots (cooperative cancellation, lp/simplex_core.h) all
  /// run against one deadline, and an expired call returns
  /// Status::DeadlineExceeded with the solver mutex released.  An expired
  /// waiter abandons only its own wait — the in-flight solve it was
  /// watching continues and still publishes.  Under CacheOptions::
  /// max_pending an over-subscribed miss returns Status::Unavailable
  /// without solving.
  Result<std::shared_ptr<const ServedMechanism>> GetOrSolve(
      const MechanismSignature& signature, bool* was_hit = nullptr,
      int64_t deadline_ms = 0);

  /// Lookup-only: the cached entry, or null on a miss (no solve, no
  /// waiting).  A found entry counts as a hit.  The pipeline uses this to
  /// serve already-solved signatures to consumers whose budget admission
  /// would never justify a fresh solve.
  std::shared_ptr<const ServedMechanism> Peek(
      const MechanismSignature& signature);

  /// Stats-neutral presence probe (no hit recorded, no solve, no wait,
  /// no LRU touch).  The answer is advisory only: under max_entries /
  /// max_bytes an entry can be evicted between this probe and the lookup
  /// it advised.  The event loop uses it to classify a decoded batch as
  /// cached-only work — the post-eviction contract is that
  /// misclassification may cost a re-route or a shed, never a wrong
  /// reply or an inline cold solve (see event_loop.cc).
  bool Contains(const MechanismSignature& signature) const;

  /// Solves `signature` cold, bypassing the cache in both directions
  /// (nothing read, nothing published).  The solve-per-query baseline the
  /// throughput bench and the bit-identity tests compare against.
  Result<std::shared_ptr<const ServedMechanism>> SolveUncached(
      const MechanismSignature& signature) const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;        ///< misses that ran a solve
    uint64_t warm_starts = 0;   ///< misses seeded from a cached basis
    uint64_t entries = 0;
    uint64_t shed = 0;          ///< misses rejected by the admission cap
    uint64_t timeouts = 0;      ///< calls that hit their deadline
    uint64_t bytes = 0;         ///< serialized size of all live entries
    uint64_t evictions = 0;     ///< entries removed by the LRU bound
    uint64_t quarantined = 0;   ///< corrupt files moved to quarantine/
    uint64_t basis_warm_reloads = 0;  ///< bases restored from disk on load
    uint64_t persist_failures = 0;  ///< entries degraded to memory-only
  };
  Stats GetStats() const;

  /// Solves currently running or queued on the solver mutex (the load
  /// signal behind admission and the server's retry_after_ms hint).
  size_t PendingSolves() const {
    return pending_solves_.load(std::memory_order_relaxed);
  }

  /// What LoadFromDirectory found.  `quarantined` and `basis_reloads`
  /// also accumulate into GetStats().
  struct LoadReport {
    int loaded = 0;         ///< entries now serving from this load
    int quarantined = 0;    ///< corrupt/claim-violating files quarantined
    int basis_reloads = 0;  ///< entries whose warm-start basis survived
    /// stale *.tmp, unmanifested files and v1 bases removed
  int debris_removed = 0;
  };

  /// Loads the manifested entries under `dir` into the cache.  A corrupt,
  /// torn or claim-violating entry/basis/manifest file is moved to
  /// `dir`/quarantine/ and counted — never served, never fatal.  A
  /// manifested-but-missing entry (a crash mid-eviction) is skipped; an
  /// unmanifested entry or basis file (a crash between persist and
  /// manifest commit, or mid-eviction unlink) is removed as debris so an
  /// evicted entry can never resurrect.  A directory with entries but no
  /// manifest (written before manifests existed) loads every valid entry
  /// and adopts it.  Stale "*.tmp" files are swept, and so is a v1 basis
  /// (a Section 2.5 LP basis, which cannot seed the interaction LP): its
  /// entry still loads, without a seed.  After a successful
  /// load the manifest is rewritten to match the loaded set.  A missing
  /// directory loads nothing.
  Result<LoadReport> LoadFromDirectory(const std::string& dir);

 private:
  /// One published entry plus its LRU bookkeeping.  The entry itself
  /// stays immutable and shared; recency and size live in the slot so
  /// hits can bump `last_used` under the shard lock without touching the
  /// shared object.
  struct Slot {
    std::shared_ptr<const ServedMechanism> entry;
    uint64_t last_used = 0;  ///< global LRU tick at last hit/publish
    size_t bytes = 0;        ///< serialized (entry + basis) size on disk
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable solved;  ///< signaled when an in-flight key lands
    std::unordered_map<std::string, Slot> entries;
    std::unordered_set<std::string> in_flight;  ///< keys being solved now
  };

  Shard& ShardFor(const MechanismSignature& signature);
  const Shard& ShardFor(const MechanismSignature& signature) const;

  /// Solves `signature` with an optional warm seed.  Caller must hold
  /// solve_mu_ (the pool is not reentrant).  `deadline_ms > 0` bounds the
  /// solve's pivots (ExactSimplexOptions::deadline_ms).
  Result<ServedMechanism> SolveLocked(const MechanismSignature& signature,
                                      const LpBasis* warm_seed,
                                      int64_t deadline_ms) const;

  /// Writes `entry`'s files under `dir` write-then-rename: the io-v3
  /// entry document (with `serialized` as its mechanism block) and, for a
  /// non-empty basis, the basis document.
  Status PersistEntryFiles(const std::string& dir,
                           const ServedMechanism& entry,
                           const std::string& serialized) const;

  /// Rewrites `dir`/manifest from `stems` write-then-rename.  Caller must
  /// hold maintenance_mu_.
  Status WriteManifestLocked(const std::string& dir,
                             const std::set<std::string>& stems) const;

  /// Adds `stem` to the live set and commits the manifest (best effort).
  void ManifestAdd(const std::string& stem);

  /// Enforces max_entries/max_bytes: picks victims from the coldest
  /// structural class first, pins each class's warm-start anchor, commits
  /// the shrunken manifest to disk *before* erasing from memory or
  /// unlinking files (so a crash can only under-delete, never resurrect).
  void MaybeEvict();

  CacheOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // shared by every miss solve
  mutable std::timed_mutex solve_mu_;  // serializes solves / guards pool_
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> warm_starts_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<size_t> pending_solves_{0};
  std::atomic<uint64_t> tick_{0};   // global LRU clock
  std::atomic<uint64_t> bytes_{0};  // serialized size of live entries
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> quarantined_{0};
  std::atomic<uint64_t> basis_warm_reloads_{0};
  std::atomic<uint64_t> persist_failures_{0};
  /// Serializes eviction and manifest commits; guards manifest_stems_.
  /// Lock order: maintenance_mu_ before any shard.mu, never the reverse.
  std::mutex maintenance_mu_;
  std::set<std::string> manifest_stems_;  ///< live entry file stems
};

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_MECHANISM_CACHE_H_
