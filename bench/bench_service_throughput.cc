// Service-layer throughput: what the sharded solve cache, the batched
// pipeline and the line protocol cost per query.
//
// The headline comparison is CachedQuery vs SolvePerQuery on a repeated
// signature — the gap IS the cache (the acceptance gate asks for >= 5x;
// in practice it is orders of magnitude, a map lookup against an exact LP
// solve).  MissWarmSweep vs MissColdSweep isolates what warm-starting
// misses from the nearest cached basis saves while an alpha grid fills;
// MissCold/n=8,16,32 times one cold exact-mode miss each, and
// MissWarm/n=8,16,32 the same miss seeded from a cached neighbour.
// A fresh RNG stream per query keeps every workload deterministic.
//
// n=8 always runs (so the CI bench-smoke compare always has shared
// cases); --large adds the same workloads at n=12.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "service/server.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace {

using namespace geopriv;

Rational R(int64_t num, int64_t den = 1) {
  return *Rational::FromInts(num, den);
}

MechanismSignature Sig(int n, const Rational& alpha) {
  return *MechanismSignature::Create(n, alpha, "absolute", 0, n,
                                     ServeMode::kExactOptimal);
}

std::vector<ServiceQuery> RepeatedBatch(int n, size_t count) {
  std::vector<ServiceQuery> batch;
  for (size_t q = 0; q < count; ++q) {
    ServiceQuery query;
    query.consumer = "load-" + std::to_string(q % 8);
    query.signature = Sig(n, R(1, 2));
    query.true_count = static_cast<int>(q % (static_cast<size_t>(n) + 1));
    query.seed = 0x5eed + q;
    batch.push_back(query);
  }
  return batch;
}

std::vector<Rational> AlphaGrid() {
  return {R(2, 5), R(9, 20), R(1, 2), R(11, 20), R(3, 5)};
}

// A solver failure must surface as a diagnosable message, not a segfault
// through an error Result.
std::shared_ptr<const ServedMechanism> MustEntry(
    Result<std::shared_ptr<const ServedMechanism>> entry) {
  if (!entry.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 entry.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(entry);
}

void RunWorkloads(bench::Harness& harness, int n) {
  const std::string label = "/n=" + std::to_string(n);

  // --- repeated-signature workload: cache vs solve-per-query ---------------
  MechanismCache cache;
  QueryPipeline pipeline(&cache, nullptr);
  const std::vector<ServiceQuery> one = RepeatedBatch(n, 1);
  (void)pipeline.ExecuteBatch(one);  // prime: the one cold solve

  harness.Run("CachedQuery" + label, [&] {
    bench::DoNotOptimize(pipeline.ExecuteBatch(one).front().released);
  });

  harness.Run(
      "SolvePerQuery" + label,
      [&] {
        auto entry = MustEntry(cache.SolveUncached(one.front().signature));
        Xoshiro256 rng(one.front().seed);
        bench::DoNotOptimize(
            entry->mechanism.Sample(one.front().true_count, rng));
      },
      {/*repetitions=*/5, /*warmup=*/0, /*min_rep_ms=*/0.0,
       /*budget_ms=*/-1.0});

  // --- batched sampling -----------------------------------------------------
  const std::vector<ServiceQuery> batch64 = RepeatedBatch(n, 64);
  harness.Run("CachedBatch64" + label, [&] {
    bench::DoNotOptimize(pipeline.ExecuteBatch(batch64).back().released);
  });

  // --- the line protocol on the hit path -----------------------------------
  {
    MechanismService service;
    bool shutdown = false;
    const std::string line =
        "{\"op\":\"query\",\"consumer\":\"wire\",\"n\":" + std::to_string(n) +
        ",\"alpha\":\"1/2\",\"count\":3,\"seed\":17}";
    (void)service.HandleLine(line, &shutdown);  // prime
    harness.Run("ProtocolQuery" + label, [&] {
      bench::DoNotOptimize(service.HandleLine(line, &shutdown));
    });
  }

  // --- miss handling: warm-started grid fill vs cold grid fill -------------
  const auto fill = [&](bool cached) {
    MechanismCache fresh;
    int pivots = 0;
    for (const Rational& alpha : AlphaGrid()) {
      auto entry = MustEntry(cached ? fresh.GetOrSolve(Sig(n, alpha))
                                    : fresh.SolveUncached(Sig(n, alpha)));
      pivots += entry->lp_iterations;
    }
    return pivots;
  };
  const bench::RunOptions slow{/*repetitions=*/3, /*warmup=*/0,
                               /*min_rep_ms=*/0.0, /*budget_ms=*/-1.0};
  harness.Run("MissWarmSweep" + label,
              [&] { bench::DoNotOptimize(fill(true)); }, slow);
  harness.Run("MissColdSweep" + label,
              [&] { bench::DoNotOptimize(fill(false)); }, slow);

  // --- restart recovery: a reloaded store must fill the grid like a live
  // one.  Both fills start with the alpha=1/2 anchor already present; the
  // restarted store got it from disk (entry + LP basis), the live one
  // solved it in-process.  If the basis were not persisted, every
  // neighbor would re-pivot from scratch and the restart fill would pay
  // cold-sweep pivot counts.
  {
    namespace fs = std::filesystem;
    const std::string dir =
        fs::temp_directory_path().string() + "/geopriv_bench_restart_n" +
        std::to_string(n);
    fs::remove_all(dir);
    {
      CacheOptions options;
      options.persist_dir = dir;
      MechanismCache seeded(options);
      (void)MustEntry(seeded.GetOrSolve(Sig(n, R(1, 2))));
      if (seeded.GetStats().persist_failures != 0) {
        std::fprintf(stderr, "cannot persist the bench cache to %s\n",
                     dir.c_str());
        std::exit(1);
      }
    }
    const auto fill_anchored = [&](bool restart) {
      MechanismCache fresh;
      if (restart) {
        auto loaded = fresh.LoadFromDirectory(dir);
        if (!loaded.ok()) {
          std::fprintf(stderr, "reload failed: %s\n",
                       loaded.status().ToString().c_str());
          std::exit(1);
        }
      } else {
        (void)MustEntry(fresh.GetOrSolve(Sig(n, R(1, 2))));
      }
      // Count pivots on misses only: a hit hands back the stored entry,
      // whose recorded lp_iterations describe the ORIGINAL solve (99 for
      // the live anchor, 0 for a reloaded one), not work done now.
      int pivots = 0;
      for (const Rational& alpha : AlphaGrid()) {
        bool hit = false;
        auto entry = MustEntry(fresh.GetOrSolve(Sig(n, alpha), &hit));
        if (!hit) pivots += entry->lp_iterations;
      }
      return pivots;
    };
    harness.Run("LiveWarmFill" + label,
                [&] { bench::DoNotOptimize(fill_anchored(false)); }, slow);
    harness.Run("RestartWarmFill" + label,
                [&] { bench::DoNotOptimize(fill_anchored(true)); }, slow);
    const int live_pivots = fill_anchored(false);
    const int restart_pivots = fill_anchored(true);
    std::printf(
        "  restart grid fill (n=%d): %d miss LP pivots vs %d live — the "
        "persisted bases keep a restarted store exactly as warm\n",
        n, restart_pivots, live_pivots);
    fs::remove_all(dir);
  }

  // --- registry overhead on the cached hot path ----------------------------
  //
  // The metrics design contract (util/metrics.h): an enabled update is a
  // striped relaxed fetch_add, a disabled one is a single relaxed load, so
  // the ~0.8us cached query must not regress measurably.  Measure the same
  // CachedQuery workload with the registry off and on, and print the
  // delta as acceptance evidence (the gate asks for < 5%).
  {
    metrics::SetEnabled(false);
    harness.Run("CachedQuery/metrics=off" + label, [&] {
      bench::DoNotOptimize(pipeline.ExecuteBatch(one).front().released);
    });
    metrics::SetEnabled(true);
    const int reps = 20000;
    const auto time_reps = [&] {
      Stopwatch watch;
      for (int r = 0; r < reps; ++r) {
        bench::DoNotOptimize(pipeline.ExecuteBatch(one).front().released);
      }
      return watch.ElapsedMicros() / reps;
    };
    metrics::SetEnabled(false);
    time_reps();  // warm both states once before measuring
    const double off_us = time_reps();
    metrics::SetEnabled(true);
    time_reps();
    const double on_us = time_reps();
    std::printf(
        "  registry overhead on the cached hot path (n=%d): %.3f us "
        "disabled vs %.3f us enabled (%+.1f%%; acceptance gate < 5%%)\n",
        n, off_us, on_us, (on_us - off_us) / off_us * 100.0);
  }

  // --- acceptance evidence: the cache speedup on a repeated signature ------
  {
    Stopwatch cold_watch;
    (void)cache.SolveUncached(one.front().signature);
    const double cold_ms = cold_watch.ElapsedMillis();
    const int reps = 1000;
    Stopwatch hit_watch;
    for (int r = 0; r < reps; ++r) {
      bench::DoNotOptimize(pipeline.ExecuteBatch(one).front().released);
    }
    const double hit_ms = hit_watch.ElapsedMillis() / reps;
    std::printf(
        "  repeated-signature speedup through the cache (n=%d): %.0fx "
        "(%.3f ms solve-per-query vs %.6f ms cached)\n",
        n, cold_ms / hit_ms, cold_ms, hit_ms);
  }
}

// One exact-mode miss on G_{n,1/2}: the interaction LP, the product G·T*
// and the sampler build.  MissCold has no neighbour to seed from; MissWarm
// seeds from the basis of alpha = 9/20 (its neighbour on AlphaGrid), which
// a fresh cache solves untimed before each timed miss, so the harness only
// records that miss's wall time (median of three).  The pivot counts are
// the work behind each time.  The budget lets n=32 (seconds per solve)
// take all three repetitions.
void RunMissColdAndWarm(bench::Harness& harness) {
  MechanismCache cache;
  const bench::RunOptions three{/*repetitions=*/3, /*warmup=*/0,
                                /*min_rep_ms=*/0.0, /*budget_ms=*/60000.0};
  for (const int n : {8, 16, 32}) {
    const MechanismSignature sig = Sig(n, R(1, 2));
    harness.Run(
        "MissCold/n=" + std::to_string(n),
        [&] { bench::DoNotOptimize(MustEntry(cache.SolveUncached(sig))); },
        three);
    const auto entry = MustEntry(cache.SolveUncached(sig));
    std::printf("  MissCold/n=%d: %d pivots (phase 1 %d, phase 2 %d)\n", n,
                entry->lp_iterations, entry->phase1_iterations,
                entry->phase2_iterations);

    std::vector<double> warm_ms;
    std::shared_ptr<const ServedMechanism> warm;
    for (int rep = 0; rep < 3; ++rep) {
      MechanismCache fresh;
      MustEntry(fresh.GetOrSolve(Sig(n, R(9, 20))));
      Stopwatch watch;
      warm = MustEntry(fresh.GetOrSolve(sig));
      warm_ms.push_back(watch.ElapsedMillis());
      if (!warm->warm_started) {
        std::fprintf(stderr, "MissWarm/n=%d did not warm-start\n", n);
        std::exit(1);
      }
    }
    std::sort(warm_ms.begin(), warm_ms.end());
    harness.Record("MissWarm/n=" + std::to_string(n), warm_ms[1]);
    std::printf("  MissWarm/n=%d: %d pivots (phase 1 %d, phase 2 %d)\n", n,
                warm->lp_iterations, warm->phase1_iterations,
                warm->phase2_iterations);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("bench_service_throughput", argc, argv);
  RunWorkloads(harness, 8);
  RunMissColdAndWarm(harness);
  if (harness.large()) RunWorkloads(harness, 12);
  return harness.Finish();
}
