// The durable bounded mechanism store (PR 8).
//
// Four contracts under test:
//   1. Restart recovery — a restarted cache serves bit-identical values,
//      reloads LP bases (so misses warm-start exactly as on a live
//      cache), skips half-evicted files, sweeps tmp orphans, and
//      quarantines — never serves, never dies on — corrupt artifacts.
//   2. Bounded residency — --max-entries / --max-bytes evict strictly
//      within the coldest structural class first, and never evict a
//      class's warm-start anchor (the smallest-denominator alpha).
//   3. No resurrection — an evicted entry stays evicted across restart:
//      the manifest, not the file set, decides what is live.
//   4. Post-eviction serving contract — a request classified as cached
//      but evicted before execution is shed as transient Unavailable
//      (the retry re-routes to a solving path), never answered wrong and
//      never cold-solved on a cached-only path.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/geometric.h"
#include "core/io.h"
#include "core/optimal_exact.h"
#include "service/server.h"

namespace geopriv {
namespace {

namespace fs = std::filesystem;

Rational R(int64_t num, int64_t den = 1) {
  return *Rational::FromInts(num, den);
}

MechanismSignature Sig(int n, const Rational& alpha,
                       const std::string& loss = "absolute",
                       ServeMode mode = ServeMode::kExactOptimal) {
  auto sig = MechanismSignature::Create(n, alpha, loss, 0, n, mode);
  EXPECT_TRUE(sig.ok()) << sig.status().ToString();
  return *sig;
}

MechanismSignature Geo(int n, const Rational& alpha) {
  return Sig(n, alpha, "absolute", ServeMode::kGeometric);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- bounded residency ------------------------------------------------------

TEST(DurabilityTest, MaxEntriesEvictsOldestNonAnchor) {
  CacheOptions options;
  options.threads = 1;
  options.max_entries = 2;
  MechanismCache cache(options);
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());  // anchor (den 2)
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(2, 5))).ok());
  const MechanismCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.Contains(Geo(6, R(1, 2))));   // pinned anchor
  EXPECT_FALSE(cache.Contains(Geo(6, R(1, 3))));  // oldest non-anchor
  EXPECT_TRUE(cache.Contains(Geo(6, R(2, 5))));
}

TEST(DurabilityTest, EvictionDrainsTheColdestClassFirst) {
  CacheOptions options;
  options.threads = 1;
  options.max_entries = 3;
  MechanismCache cache(options);
  // Class A (n=6) fills first, so by the time class B (n=7) overflows the
  // bound, A is the colder class — the victim comes from A, but never A's
  // anchor.
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  ASSERT_TRUE(cache.GetOrSolve(Geo(7, R(1, 2))).ok());
  ASSERT_TRUE(cache.GetOrSolve(Geo(7, R(1, 3))).ok());
  const MechanismCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.Contains(Geo(6, R(1, 2))));   // cold class's anchor
  EXPECT_FALSE(cache.Contains(Geo(6, R(1, 3))));  // cold class, non-anchor
  EXPECT_TRUE(cache.Contains(Geo(7, R(1, 2))));   // hot class untouched
  EXPECT_TRUE(cache.Contains(Geo(7, R(1, 3))));
}

TEST(DurabilityTest, MaxBytesIsASoftBoundThatNeverEvictsAnchors) {
  CacheOptions options;
  options.threads = 1;
  options.max_bytes = 1;  // everything is over budget
  MechanismCache cache(options);
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
  // The lone anchor survives even though the byte bound is busted: the
  // bound is soft precisely so eviction can never destroy a class's
  // warm-start seed.
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  EXPECT_GT(cache.GetStats().bytes, 1u);
  // A non-anchor is evicted as soon as it lands.
  ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  EXPECT_EQ(cache.GetStats().entries, 1u);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_TRUE(cache.Contains(Geo(6, R(1, 2))));
}

TEST(DurabilityTest, PinnedAnchorKeepsSeedingWarmStartsThroughSweeps) {
  // The acceptance test for anchor pinning: with max_entries=1 every
  // non-anchor entry is swept immediately after publishing, yet every new
  // alpha in the family still warm-starts — the anchor's basis survives
  // all sweeps.
  CacheOptions options;
  options.threads = 1;
  options.max_entries = 1;
  MechanismCache cache(options);
  ASSERT_TRUE(cache.GetOrSolve(Sig(5, R(1, 2))).ok());  // anchor, cold
  EXPECT_EQ(cache.GetStats().warm_starts, 0u);
  ASSERT_TRUE(cache.GetOrSolve(Sig(5, R(9, 20))).ok());
  ASSERT_TRUE(cache.GetOrSolve(Sig(5, R(11, 20))).ok());
  const MechanismCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.warm_starts, 2u);  // unchanged by the interleaved sweeps
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_TRUE(cache.Contains(Sig(5, R(1, 2))));
}

// ---- restart recovery -------------------------------------------------------

CacheOptions PersistOptions(const std::string& dir) {
  CacheOptions options;
  options.threads = 1;
  options.persist_dir = dir;
  return options;
}

TEST(DurabilityTest, RestartReloadsBasisAndWarmStartsLikeALiveCache) {
  // The tentpole's core claim: a restarted daemon's first miss in a known
  // family warm-starts exactly as it would have on the live cache,
  // because the anchor's basis came back from disk.
  const std::string dir = FreshDir("geopriv_durability_warm");
  RationalMatrix original(0, 0);
  {
    MechanismCache cache(PersistOptions(dir));
    auto solved = cache.GetOrSolve(Sig(5, R(1, 2)));
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    original = (*solved)->exact;
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_EQ(report->basis_reloads, 1);
  EXPECT_EQ(restarted.GetStats().basis_warm_reloads, 1u);

  // The reloaded entry answers hits bit-identically...
  bool hit = false;
  auto entry = restarted.GetOrSolve(Sig(5, R(1, 2)), &hit);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(hit);
  EXPECT_TRUE((*entry)->exact == original);

  // ...and its basis seeds the neighbor miss, just like a live cache.
  auto neighbor = restarted.GetOrSolve(Sig(5, R(9, 20)));
  ASSERT_TRUE(neighbor.ok()) << neighbor.status().ToString();
  EXPECT_TRUE((*neighbor)->warm_started);
  EXPECT_EQ(restarted.GetStats().warm_starts, 1u);
  fs::remove_all(dir);
}

TEST(DurabilityTest, Section25EntryWithV1BasisServesAndItsBasisIsDropped) {
  // A store written before exact mode went through Theorem 1 holds a
  // Section 2.5 optimum and that LP's basis (basis document v1); one
  // written before the interaction LP was reduced holds a v2 basis of the
  // unreduced LP.  The entry is still alpha-DP with the optimal loss, so
  // it loads and serves hits; the basis fits a different LP, so it is
  // dropped -- neither used as a seed nor quarantined -- and a neighbour
  // miss solves cold.
  auto old = SolveOptimalMechanismExact(6, R(1, 2),
                                        ExactLossFunction::AbsoluteError(),
                                        SideInformation::All(6));
  ASSERT_TRUE(old.ok());
  ASSERT_FALSE(old->basis.empty());
  auto optimum = SolveOptimalMechanismExact(6, R(2, 5),
                                            ExactLossFunction::AbsoluteError(),
                                            SideInformation::All(6));
  ASSERT_TRUE(optimum.ok());
  const MechanismSignature sig = Sig(6, R(1, 2));
  char stem[24];
  std::snprintf(stem, sizeof(stem), "%016llx",
                static_cast<unsigned long long>(
                    SignatureHash(sig.CanonicalKey())));
  for (const char* header : {"geopriv-basis v1", "geopriv-basis v2"}) {
    SCOPED_TRACE(header);
    const std::string dir = FreshDir("geopriv_durability_stale_basis");
    fs::create_directories(dir);
    {
      std::ofstream entry(dir + "/" + stem + ".entry");
      entry << "geopriv-service-entry v1\nkey " << sig.CanonicalKey()
            << "\nmode exact\nn 6\nlo 0\nhi 6\nloss absolute\nalpha 1/2\n"
            << SerializeExactMechanismV3(old->matrix);
      std::string basis =
          SerializeBasisDoc(sig.CanonicalKey(), old->basis.basic_columns);
      basis.replace(0, 16, header);
      std::ofstream(dir + "/" + stem + ".basis") << basis;
      const std::string body = std::string("entry ") + stem + "\n";
      std::ofstream(dir + "/manifest")
          << "geopriv-manifest v1\nchecksum " << Fnv1a64Hex(body) << "\n"
          << body;
    }

    MechanismCache cache(PersistOptions(dir));
    auto report = cache.LoadFromDirectory(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->loaded, 1);
    EXPECT_EQ(report->quarantined, 0);
    EXPECT_EQ(report->basis_reloads, 0);
    EXPECT_EQ(report->debris_removed, 1);
    EXPECT_FALSE(fs::exists(dir + "/" + stem + ".basis"));
    EXPECT_FALSE(fs::exists(dir + "/quarantine"));

    bool hit = false;
    auto entry = cache.GetOrSolve(sig, &hit);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_TRUE(hit);
    EXPECT_TRUE((*entry)->exact == old->matrix);
    EXPECT_TRUE((*entry)->loss == old->loss);
    EXPECT_TRUE((*entry)->basis.empty());

    auto neighbor = cache.GetOrSolve(Sig(6, R(2, 5)));
    ASSERT_TRUE(neighbor.ok()) << neighbor.status().ToString();
    EXPECT_FALSE((*neighbor)->warm_started);
    EXPECT_TRUE((*neighbor)->loss == optimum->loss);
    // The new entry's basis is persisted as v3, and seeds after a restart.
    MechanismCache restarted(PersistOptions(dir));
    auto reloaded = restarted.LoadFromDirectory(dir);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded->loaded, 2);
    EXPECT_EQ(reloaded->basis_reloads, 1);
    EXPECT_EQ(reloaded->quarantined, 0);
    fs::remove_all(dir);
  }
}

TEST(DurabilityTest, RestartNeverResurrectsAnEvictedEntry) {
  const std::string dir = FreshDir("geopriv_durability_no_resurrect");
  {
    CacheOptions options = PersistOptions(dir);
    options.max_entries = 1;
    MechanismCache cache(options);
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());  // evicted
    EXPECT_EQ(cache.GetStats().evictions, 1u);
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_TRUE(restarted.Contains(Geo(6, R(1, 2))));
  EXPECT_FALSE(restarted.Contains(Geo(6, R(1, 3))));
  fs::remove_all(dir);
}

TEST(DurabilityTest, HalfEvictedFilesAreDebrisNotEntries) {
  // A crash between the manifest commit and the unlink leaves the
  // victim's files on disk; restart must treat the manifest as the truth
  // and remove them.  Built by hand here (the fork-crash version lives in
  // fault_injection_test.cc).
  const std::string dir = FreshDir("geopriv_durability_half_evict");
  std::string victim_entry;
  {
    MechanismCache cache(PersistOptions(dir));
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  }
  // Both manifested.  Rewrite the manifest to list only one stem — the
  // state a crashed eviction leaves — keeping the other file on disk.
  std::vector<std::string> stems;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".entry") {
      stems.push_back(dirent.path().stem().string());
    }
  }
  ASSERT_EQ(stems.size(), 2u);
  const std::string keep = std::min(stems[0], stems[1]);
  const std::string drop = std::max(stems[0], stems[1]);
  {
    const std::string body = "entry " + keep + "\n";
    std::ofstream manifest(dir + "/manifest", std::ios::trunc);
    manifest << "geopriv-manifest v1\nchecksum " << Fnv1a64Hex(body) << "\n"
             << body;
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_GE(report->debris_removed, 1);
  EXPECT_EQ(report->quarantined, 0);
  EXPECT_FALSE(fs::exists(dir + "/" + drop + ".entry"));
  EXPECT_EQ(restarted.GetStats().entries, 1u);
  fs::remove_all(dir);
}

TEST(DurabilityTest, ManifestedButMissingFileIsSkippedNotFatal) {
  const std::string dir = FreshDir("geopriv_durability_missing");
  {
    MechanismCache cache(PersistOptions(dir));
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  }
  // Delete one manifested entry file — the other half of a crashed
  // eviction (manifest committed, file already unlinked... of the OLD
  // manifest's entries).  The load skips it.
  bool removed = false;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (!removed && dirent.path().extension() == ".entry") {
      fs::remove(dirent.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_EQ(report->quarantined, 0);
  fs::remove_all(dir);
}

TEST(DurabilityTest, CorruptManifestIsQuarantinedAndEntriesAdopted) {
  const std::string dir = FreshDir("geopriv_durability_bad_manifest");
  {
    MechanismCache cache(PersistOptions(dir));
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 3))).ok());
  }
  // Flip a byte inside the manifest body: the checksum catches it.
  {
    std::string text = ReadAll(dir + "/manifest");
    text[text.size() - 2] ^= 1;
    std::ofstream out(dir + "/manifest", std::ios::trunc);
    out << text;
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The corrupt index is quarantined; the entries themselves re-validate
  // and are adopted — losing the index must not lose the store.
  EXPECT_EQ(report->quarantined, 1);
  EXPECT_EQ(report->loaded, 2);
  EXPECT_TRUE(fs::exists(dir + "/quarantine/manifest"));
  // The load re-committed a fresh manifest.
  EXPECT_TRUE(fs::exists(dir + "/manifest"));
  fs::remove_all(dir);
}

TEST(DurabilityTest, TmpOrphansAreSweptOnLoad) {
  const std::string dir = FreshDir("geopriv_durability_tmps");
  {
    MechanismCache cache(PersistOptions(dir));
    ASSERT_TRUE(cache.GetOrSolve(Geo(6, R(1, 2))).ok());
  }
  for (const char* name :
       {"0123456789abcdef.entry.tmp", "0123456789abcdef.basis.tmp",
        "manifest.tmp"}) {
    std::ofstream tmp(dir + "/" + name);
    tmp << "torn";
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_EQ(report->debris_removed, 3);
  for (const auto& dirent : fs::directory_iterator(dir)) {
    EXPECT_NE(dirent.path().extension(), ".tmp") << dirent.path();
  }
  fs::remove_all(dir);
}

TEST(DurabilityTest, BitFlippedEntryIsQuarantinedAndReSolvedFresh) {
  // A single flipped bit inside the matrix body — parseable by eye,
  // caught by the v3 checksum.  The value served after recovery is the
  // freshly re-solved one, bit-identical to a cold oracle.
  const std::string dir = FreshDir("geopriv_durability_bitflip");
  RationalMatrix original(0, 0);
  std::string entry_path;
  {
    MechanismCache cache(PersistOptions(dir));
    auto solved = cache.GetOrSolve(Geo(6, R(1, 2)));
    ASSERT_TRUE(solved.ok());
    original = (*solved)->exact;
  }
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".entry") {
      entry_path = dirent.path().string();
    }
  }
  ASSERT_FALSE(entry_path.empty());
  {
    std::string text = ReadAll(entry_path);
    text[text.size() - 3] ^= 1;
    std::ofstream out(entry_path, std::ios::trunc);
    out << text;
  }
  MechanismCache restarted(PersistOptions(dir));
  auto report = restarted.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 0);
  EXPECT_EQ(report->quarantined, 1);
  bool hit = true;
  auto fresh = restarted.GetOrSolve(Geo(6, R(1, 2)), &hit);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_TRUE((*fresh)->exact == original);
  fs::remove_all(dir);
}

// ---- the stats protocol op --------------------------------------------------

TEST(DurabilityTest, StatsOpReportsDurabilityCounters) {
  ServiceOptions options;
  options.threads = 1;
  MechanismService service(options);
  bool shutdown = false;
  (void)service.HandleLine(
      "{\"op\":\"query\",\"consumer\":\"a\",\"n\":6,\"alpha\":\"1/2\","
      "\"mode\":\"geometric\",\"count\":1,\"seed\":1}",
      &shutdown);
  const std::string stats = service.HandleLine("{\"op\":\"stats\"}",
                                               &shutdown);
  // The historical prefix stays stable (CI greps it), the durability
  // counters ride behind it.
  EXPECT_NE(stats.find("\"entries\":1,\"hits\":0,\"misses\":1"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"bytes\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"evictions\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quarantined\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"basis_warm_reloads\":0"), std::string::npos)
      << stats;
}

// ---- post-eviction serving contract -----------------------------------------

TEST(DurabilityTest, CachedOnlyRequestShedsAnEvictedSignature) {
  // The event loop classifies a request as cached (inline, I/O thread)
  // and an eviction races in before execution.  The inline path executes
  // with cached_only=true: the stale classification must degrade to a
  // transient shed carrying a retry hint — never a wrong answer, never an
  // inline cold solve.
  ServiceOptions options;
  options.threads = 1;
  options.retry_after_ms = 123;
  MechanismService service(options);
  bool shutdown = false;
  (void)service.HandleLine(
      "{\"op\":\"query\",\"consumer\":\"a\",\"n\":6,\"alpha\":\"1/2\","
      "\"mode\":\"geometric\",\"count\":1,\"seed\":1}",
      &shutdown);

  // Simulate "classified cached, then evicted": ask for a signature that
  // is simply not cached, through the cached_only entry point.
  auto request = ParseRequestLine(
      "{\"op\":\"query\",\"consumer\":\"a\",\"n\":7,\"alpha\":\"1/2\","
      "\"mode\":\"geometric\",\"count\":1,\"seed\":1}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  BatchWindow window;
  const std::string shed =
      service.HandleRequest(*request, &window, &shutdown,
                            /*cached_only=*/true);
  EXPECT_NE(shed.find("\"ok\":false"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":123"), std::string::npos) << shed;
  EXPECT_NE(shed.find("evicted since classification"), std::string::npos)
      << shed;
  // No cold solve ran on the "I/O thread": still exactly one entry.
  EXPECT_EQ(service.cache().GetStats().entries, 1u);

  // The cached signature itself is served normally through the same path.
  auto cached = ParseRequestLine(
      "{\"op\":\"query\",\"consumer\":\"a\",\"n\":6,\"alpha\":\"1/2\","
      "\"mode\":\"geometric\",\"count\":1,\"seed\":2}");
  ASSERT_TRUE(cached.ok());
  const std::string served =
      service.HandleRequest(*cached, &window, &shutdown,
                            /*cached_only=*/true);
  EXPECT_NE(served.find("\"ok\":true"), std::string::npos) << served;
  EXPECT_NE(served.find("\"cache\":\"hit\""), std::string::npos) << served;

  // The ordinary executor path (cached_only=false) still solves misses.
  const std::string solved =
      service.HandleRequest(*request, &window, &shutdown,
                            /*cached_only=*/false);
  EXPECT_NE(solved.find("\"ok\":true"), std::string::npos) << solved;
  EXPECT_EQ(service.cache().GetStats().entries, 2u);
}

}  // namespace
}  // namespace geopriv
