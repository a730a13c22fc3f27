// The mechanism service layer: sharded solve cache (hit/warm/cold paths,
// persistence), privacy-budget ledger (composition arithmetic must match
// core/accounting.h exactly), batched query pipeline (one solve per
// distinct signature, thread-count-independent sampling), and the JSONL
// protocol (parsing, formatting, malformed-input rejection).

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/accounting.h"
#include "core/geometric.h"
#include "core/optimal_exact.h"
#include "rng/engine.h"
#include "service/server.h"

namespace geopriv {
namespace {

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

// ---- signatures -------------------------------------------------------------

TEST(SignatureTest, CanonicalizesEquivalentSpellings) {
  MechanismSignature a = Sig(5, R(2, 4));          // reduces to 1/2
  MechanismSignature b = Sig(5, R(1, 2), "absolute");
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_EQ(a.CanonicalKey(),
            "mode=exact;n=5;side=0..5;loss=absolute;alpha=1/2");
  EXPECT_EQ(a.StructuralKey(), "mode=exact;n=5;side=0..5");
  // "zeroone" is the CLI spelling of "zero-one".
  EXPECT_EQ(Sig(5, R(1, 2), "zeroone").CanonicalKey(),
            Sig(5, R(1, 2), "zero-one").CanonicalKey());
  // Same structure, different alpha: shard key collides, map key differs.
  MechanismSignature c = Sig(5, R(2, 5));
  EXPECT_EQ(a.StructuralKey(), c.StructuralKey());
  EXPECT_NE(a.CanonicalKey(), c.CanonicalKey());

  // Create builds the key once, so it must be exactly the string the
  // fields spell — both modes, every loss and its CLI spelling, a
  // non-reduced alpha — since it is the cache's map key and, hashed,
  // every persisted entry's filename.
  for (ServeMode mode : {ServeMode::kExactOptimal, ServeMode::kGeometric}) {
    const std::string prefix =
        std::string("mode=") + ServeModeName(mode) + ";n=7;side=2..6";
    for (const char* loss : {"absolute", "squared", "zero-one", "zeroone"}) {
      const std::string canonical_loss =
          std::string(loss) == "zeroone" ? "zero-one" : loss;
      auto sig = MechanismSignature::Create(7, R(2, 4), loss, 2, 6, mode);
      ASSERT_TRUE(sig.ok()) << sig.status().ToString();
      EXPECT_EQ(sig->CanonicalKey(),
                prefix + ";loss=" + canonical_loss + ";alpha=1/2");
      EXPECT_EQ(sig->StructuralKey(), prefix);
    }
  }

  // The key survives copy and move, and a copy owns its key.
  const std::string key = "mode=geometric;n=9;side=0..9;loss=squared;"
                          "alpha=3/7";
  const std::string structural = "mode=geometric;n=9;side=0..9";
  MechanismSignature original =
      Sig(9, R(6, 14), "squared", ServeMode::kGeometric);
  MechanismSignature copied(original);
  MechanismSignature assigned = a;
  assigned = copied;
  MechanismSignature moved(std::move(copied));
  MechanismSignature move_assigned = a;
  move_assigned = std::move(assigned);
  MechanismSignature survivor = a;
  {
    MechanismSignature temporary = original;
    survivor = temporary;
  }
  for (const MechanismSignature* sig :
       {&original, &moved, &move_assigned, &survivor}) {
    EXPECT_TRUE(*sig == original);
    EXPECT_EQ(sig->CanonicalKey(), key);
    EXPECT_EQ(sig->StructuralKey(), structural);
  }
}

TEST(SignatureTest, RejectsMalformedProblems) {
  EXPECT_FALSE(
      MechanismSignature::Create(-1, R(1, 2), "absolute", 0, 0,
                                 ServeMode::kExactOptimal).ok());
  EXPECT_FALSE(MechanismSignature::Create(5, R(3, 2), "absolute", 0, 5,
                                          ServeMode::kExactOptimal).ok());
  EXPECT_FALSE(MechanismSignature::Create(5, R(1, 2), "huber", 0, 5,
                                          ServeMode::kExactOptimal).ok());
  EXPECT_FALSE(MechanismSignature::Create(5, R(1, 2), "absolute", 3, 2,
                                          ServeMode::kExactOptimal).ok());
  EXPECT_FALSE(MechanismSignature::Create(5, R(1, 2), "absolute", 0, 6,
                                          ServeMode::kExactOptimal).ok());
  // alpha == 1 has no geometric mechanism (but is a valid LP level).
  EXPECT_FALSE(MechanismSignature::Create(5, R(1), "absolute", 0, 5,
                                          ServeMode::kGeometric).ok());
  EXPECT_TRUE(MechanismSignature::Create(5, R(1), "absolute", 0, 5,
                                         ServeMode::kExactOptimal).ok());
}

TEST(SignatureTest, HashIsStableAcrossRuns) {
  // Persistence filenames and shard placement key off this value; it must
  // never drift with the standard library or the platform.
  EXPECT_EQ(SignatureHash(""), 1469598103934665603ULL);
  EXPECT_EQ(SignatureHash("mode=exact;n=5;side=0..5"),
            SignatureHash("mode=exact;n=5;side=0..5"));
  EXPECT_NE(SignatureHash("a"), SignatureHash("b"));
}

// ---- cache ------------------------------------------------------------------

TEST(MechanismCacheTest, HitReturnsBitIdenticalMechanismToColdSolve) {
  MechanismCache cache;
  const MechanismSignature sig = Sig(5, R(1, 2));

  // The reference matrix: G_{5,1/2} post-processed by the consumer's
  // optimal interaction, computed outside the cache (Theorem 1).
  auto g = GeometricMechanism::BuildExactMatrix(5, R(1, 2));
  ASSERT_TRUE(g.ok());
  auto interaction = SolveOptimalInteractionExact(
      *g, ExactLossFunction::AbsoluteError(), SideInformation::All(5));
  ASSERT_TRUE(interaction.ok());
  const RationalMatrix reference = *g * interaction->matrix;
  // The reference loss: the Section 2.5 LP's optimum.
  auto optimum = SolveOptimalMechanismExact(
      5, R(1, 2), ExactLossFunction::AbsoluteError(), SideInformation::All(5));
  ASSERT_TRUE(optimum.ok());

  bool hit = true;
  auto first = cache.GetOrSolve(sig, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_TRUE((*first)->exact == reference);       // operator==, exact
  EXPECT_TRUE((*first)->loss == optimum->loss);
  EXPECT_TRUE((*first)->loss == interaction->loss);

  auto second = cache.GetOrSolve(sig, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());  // the same immutable entry
  EXPECT_TRUE((*second)->exact == reference);

  const MechanismCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // SolveUncached bypasses the cache but must agree bit-for-bit.
  auto uncached = cache.SolveUncached(sig);
  ASSERT_TRUE(uncached.ok());
  EXPECT_TRUE((*uncached)->exact == (*first)->exact);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(MechanismCacheTest, MissWarmStartsFromNearestCachedBasis) {
  MechanismCache cache;
  (void)cache.GetOrSolve(Sig(5, R(1, 5))).status();   // far neighbor
  (void)cache.GetOrSolve(Sig(5, R(9, 20))).status();  // near neighbor
  auto warm = cache.GetOrSolve(Sig(5, R(1, 2)));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE((*warm)->warm_started);
  // Every solve after the first found a structurally compatible neighbor.
  EXPECT_EQ(cache.GetStats().warm_starts, 2u);

  // Warm starts may land on a different (equally optimal) vertex, but the
  // optimal VALUE over Q is unique — and the result must be a genuine
  // mechanism for the signature.
  auto cold = cache.SolveUncached(Sig(5, R(1, 2)));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE((*warm)->loss == (*cold)->loss);
  EXPECT_TRUE((*warm)->exact.IsRowStochastic());
}

TEST(MechanismCacheTest, GeometricModeServesClosedForm) {
  MechanismCache cache;
  const MechanismSignature sig =
      Sig(6, R(1, 3), "absolute", ServeMode::kGeometric);
  auto entry = cache.GetOrSolve(sig);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  auto expected = GeometricMechanism::BuildExactMatrix(6, R(1, 3));
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE((*entry)->exact == *expected);
  EXPECT_EQ((*entry)->lp_iterations, 0);
  EXPECT_TRUE((*entry)->basis.empty());
  EXPECT_EQ((*entry)->loss_text, (*entry)->loss.ToString());
  // The geometric mechanism can never beat the per-consumer LP optimum
  // (Theorem 1: it matches it only after the consumer's interaction).
  auto optimum = cache.GetOrSolve(Sig(6, R(1, 3)));
  ASSERT_TRUE(optimum.ok());
  EXPECT_TRUE((*optimum)->loss <= (*entry)->loss);
}

TEST(MechanismCacheTest, PersistsAndReloadsBitIdentically) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/geopriv_cache_test";
  fs::remove_all(dir);
  const MechanismSignature exact_sig = Sig(4, R(1, 2));
  const MechanismSignature geo_sig =
      Sig(6, R(1, 3), "squared", ServeMode::kGeometric);

  RationalMatrix original(0, 0);
  {
    // Entries persist at publish time: solving them is saving them.
    CacheOptions options;
    options.persist_dir = dir;
    MechanismCache cache(options);
    auto lp_entry = cache.GetOrSolve(exact_sig);
    ASSERT_TRUE(lp_entry.ok());
    original = (*lp_entry)->exact;
    ASSERT_TRUE(cache.GetOrSolve(geo_sig).ok());
    EXPECT_EQ(cache.GetStats().persist_failures, 0u);
  }

  MechanismCache reloaded;
  auto loaded = reloaded.LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded, 2);
  EXPECT_EQ(loaded->quarantined, 0);
  // The LP entry's basis came back with it, re-arming warm starts.
  EXPECT_EQ(loaded->basis_reloads, 1);
  EXPECT_EQ(reloaded.GetStats().basis_warm_reloads, 1u);
  bool hit = false;
  auto entry = reloaded.GetOrSolve(exact_sig, &hit);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(hit);  // no solve ran: the persisted entry answered
  EXPECT_TRUE((*entry)->exact == original);
  EXPECT_EQ(reloaded.GetStats().misses, 0u);

  // The two artifacts on disk: the LP entry has a .basis sidecar, the
  // geometric one does not.
  std::string exact_stem, geo_stem;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".basis") {
      exact_stem = dirent.path().stem().string();
    }
  }
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".entry" &&
        dirent.path().stem().string() != exact_stem) {
      geo_stem = dirent.path().stem().string();
    }
  }
  ASSERT_FALSE(exact_stem.empty());
  ASSERT_FALSE(geo_stem.empty());

  // A file the manifest does not list is debris (a crashed publish or a
  // half-done eviction), removed on load — never adopted, never fatal.
  {
    std::ofstream bad(dir + "/deadbeef00000000.entry");
    bad << "geopriv-service-entry v1\nmode exact\nn 1\nlo 0\nhi 1\n"
           "loss absolute\nalpha 1/2\n"
           "geopriv-mechanism v2\nn 1\nrow 1/3 1/3\nrow 0 1\n";
  }
  {
    MechanismCache debris_tolerant;
    auto report = debris_tolerant.LoadFromDirectory(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->loaded, 2);
    EXPECT_EQ(report->quarantined, 0);
    EXPECT_GE(report->debris_removed, 1);
    EXPECT_FALSE(fs::exists(dir + "/deadbeef00000000.entry"));
  }

  // A corrupted basis sidecar (checksum mismatch) is quarantined; its
  // entry still loads and serves, just without a warm-start seed.
  {
    std::fstream basis(dir + "/" + exact_stem + ".basis",
                       std::ios::in | std::ios::out);
    basis.seekp(-2, std::ios::end);
    basis << 'X';
  }
  {
    MechanismCache basis_strict;
    auto report = basis_strict.LoadFromDirectory(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->loaded, 2);
    EXPECT_EQ(report->basis_reloads, 0);
    EXPECT_EQ(report->quarantined, 1);
    EXPECT_TRUE(basis_strict.Contains(exact_sig));
    EXPECT_FALSE(fs::exists(dir + "/" + exact_stem + ".basis"));
    EXPECT_TRUE(
        fs::exists(dir + "/quarantine/" + exact_stem + ".basis"));
  }

  // A manifested entry whose bytes are torn (truncated mid-matrix) is
  // quarantined, not served and not fatal; the surviving entry loads and
  // the lost one re-solves fresh as an ordinary miss.
  {
    const std::string path = dir + "/" + exact_stem + ".entry";
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  {
    MechanismCache entry_strict;
    auto report = entry_strict.LoadFromDirectory(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->loaded, 1);
    EXPECT_EQ(report->quarantined, 1);
    EXPECT_EQ(entry_strict.GetStats().quarantined, 1u);
    EXPECT_FALSE(entry_strict.Contains(exact_sig));
    EXPECT_TRUE(entry_strict.Contains(geo_sig));
    EXPECT_TRUE(
        fs::exists(dir + "/quarantine/" + exact_stem + ".entry"));
    // The quarantined signature re-solves fresh — and bit-identically.
    bool was_hit = true;
    auto resolved = entry_strict.GetOrSolve(exact_sig, &was_hit);
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    EXPECT_FALSE(was_hit);
    EXPECT_TRUE((*resolved)->exact == original);
  }
  fs::remove_all(dir);
}

TEST(MechanismCacheTest, QuarantinesTamperedEntriesOnAdoption) {
  // A store with no manifest (pre-manifest layout) is adopted, but every
  // file still re-validates from scratch.  Four corruption shapes, all
  // quarantined, none fatal, none served:
  //   - a matrix that fails structural validation,
  //   - a parseable matrix violating its signature's alpha-DP claim
  //     (serving the identity under alpha=1/2 would bill a plaintext
  //     oracle at level 1/2),
  //   - a geometric entry whose matrix is not G_{n,alpha},
  //   - a truncated alpha line (must not default to the vacuous alpha=0).
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/geopriv_cache_tampered";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string exact_key = Sig(1, R(1, 2)).CanonicalKey();
  const std::string geo_key =
      Sig(1, R(1, 2), "absolute", ServeMode::kGeometric).CanonicalKey();
  {
    std::ofstream bad(dir + "/deadbeef00000000.entry");
    bad << "geopriv-service-entry v1\nkey " << exact_key
        << "\nmode exact\nn 1\nlo 0\nhi 1\nloss absolute\nalpha 1/2\n"
           "geopriv-mechanism v2\nn 1\nrow 1/3 1/3\nrow 0 1\n";
  }
  {
    std::ofstream tampered(dir + "/deadbeef00000001.entry");
    tampered << "geopriv-service-entry v1\nkey " << exact_key
             << "\nmode exact\nn 1\nlo 0\nhi 1\nloss absolute\nalpha 1/2\n"
                "geopriv-mechanism v2\nn 1\nrow 1 0\nrow 0 1\n";
  }
  {
    std::ofstream wrong(dir + "/deadbeef00000002.entry");
    wrong << "geopriv-service-entry v1\nkey " << geo_key
          << "\nmode geometric\nn 1\nlo 0\nhi 1\nloss absolute\nalpha 1/2\n"
             "geopriv-mechanism v2\nn 1\nrow 1/2 1/2\nrow 1/2 1/2\n";
  }
  {
    std::ofstream truncated(dir + "/deadbeef00000003.entry");
    truncated << "geopriv-service-entry v1\nmode exact\nn 1\nlo 0\nhi 1\n"
                 "loss absolute\nalpha\n"
                 "geopriv-mechanism v2\nn 1\nrow 1 0\nrow 0 1\n";
  }
  MechanismCache strict;
  auto report = strict.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 0);
  EXPECT_EQ(report->quarantined, 4);
  EXPECT_EQ(strict.GetStats().entries, 0u);
  int preserved = 0;
  for (const auto& dirent : fs::directory_iterator(dir + "/quarantine")) {
    (void)dirent;
    ++preserved;
  }
  EXPECT_EQ(preserved, 4);
  // A second start sees a clean (now manifested) directory.
  MechanismCache again;
  auto second = again.LoadFromDirectory(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->loaded, 0);
  EXPECT_EQ(second->quarantined, 0);
  fs::remove_all(dir);
}

TEST(MechanismCacheTest, RefusesAnEntryWhoseStoredKeyWasTampered) {
  // The key line is cross-checked against the key Create derives from the
  // header fields.  A valid entry loads; the same bytes with only the key
  // line altered (the mechanism block's checksum does not cover it) are
  // quarantined.
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "/geopriv_cache_key";
  fs::remove_all(root);
  const MechanismSignature sig =
      Sig(3, R(1, 2), "absolute", ServeMode::kGeometric);
  {
    CacheOptions options;
    options.persist_dir = root + "/saved";
    MechanismCache cache(options);
    ASSERT_TRUE(cache.GetOrSolve(sig).ok());
    ASSERT_EQ(cache.GetStats().persist_failures, 0u);
  }
  fs::path saved_entry;
  for (const auto& dirent : fs::directory_iterator(root + "/saved")) {
    if (dirent.path().extension() == ".entry") saved_entry = dirent.path();
  }
  ASSERT_FALSE(saved_entry.empty());
  std::string text;
  {
    std::ifstream in(saved_entry);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::string key_line = "key " + sig.CanonicalKey() + "\n";
  const size_t at = text.find(key_line);
  ASSERT_NE(at, std::string::npos);
  std::string tampered = text;
  tampered.replace(at, key_line.size(),
                   "key " +
                       Sig(3, R(1, 3), "absolute", ServeMode::kGeometric)
                           .CanonicalKey() +
                       "\n");

  // Unmanifested directories: every file is adopted and re-validated.
  const auto load_one = [&](const std::string& dir, const std::string& body) {
    fs::create_directories(dir);
    std::ofstream(dir + "/" + saved_entry.filename().string()) << body;
    MechanismCache cache;
    auto report = cache.LoadFromDirectory(dir);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::make_pair(report.ok() ? report->loaded : -1,
                          cache.Contains(sig));
  };
  EXPECT_EQ(load_one(root + "/intact", text), std::make_pair(1, true));
  EXPECT_EQ(load_one(root + "/tampered", tampered),
            std::make_pair(0, false));
  EXPECT_TRUE(fs::exists(root + "/tampered/quarantine/" +
                         saved_entry.filename().string()));
  fs::remove_all(root);
}

TEST(MechanismCacheTest, ConcurrentGetOrSolveIsSafe) {
  // Hammer one cache from many threads: same signature (hit storms),
  // plus a second signature (cross-shard or same-shard miss).  Geometric
  // mode keeps each solve cheap; the interesting part is the locking,
  // which the CI ThreadSanitizer job runs this test under.
  MechanismCache cache;
  const MechanismSignature a =
      Sig(6, R(1, 3), "absolute", ServeMode::kGeometric);
  const MechanismSignature b =
      Sig(6, R(1, 2), "absolute", ServeMode::kGeometric);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        auto entry = cache.GetOrSolve((t + round) % 2 == 0 ? a : b);
        if (!entry.ok() || !(*entry)->exact.IsRowStochastic()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const MechanismCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits + stats.misses, 64u);
  EXPECT_EQ(stats.misses, 2u);  // each signature solved exactly once
}

// ---- budget ledger ----------------------------------------------------------

TEST(BudgetLedgerTest, CompositionMatchesComposeSequential) {
  BudgetLedger ledger(0.25);
  auto first = ledger.Charge("alice", 0.5);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->allowed);
  auto second = ledger.Charge("alice", 0.6);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->allowed);
  // The ledger's arithmetic IS ComposeSequential — exact double equality.
  EXPECT_EQ(second->composed_level, *ComposeSequential({0.5, 0.6}));
  EXPECT_EQ(ledger.Level("alice"), *ComposeSequential({0.5, 0.6}));

  // 0.3 * 0.5 = 0.15 < 0.25: rejected, reported exactly, NOT charged.
  auto third = ledger.Charge("alice", 0.5);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->allowed);
  EXPECT_EQ(third->composed_level, *ComposeSequential({0.5, 0.6, 0.5}));
  EXPECT_EQ(ledger.Level("alice"), *ComposeSequential({0.5, 0.6}));
  EXPECT_EQ(ledger.Releases("alice"), 2u);

  // Other consumers have independent budgets.
  auto bob = ledger.Charge("bob", 0.5);
  ASSERT_TRUE(bob.ok());
  EXPECT_TRUE(bob->allowed);
  EXPECT_EQ(ledger.Level("bob"), 0.5);

  EXPECT_FALSE(ledger.Charge("alice", 1.5).ok());  // not a level
}

TEST(BudgetLedgerTest, ChainedReleasesComposeByMin) {
  BudgetLedger ledger(0.0);
  ASSERT_TRUE(ledger.Charge("carol", 0.3, /*chained=*/true).ok());
  ASSERT_TRUE(ledger.Charge("carol", 0.5, /*chained=*/true).ok());
  // Lemma 4: the chain costs its most trusted level, not the product.
  EXPECT_EQ(ledger.Level("carol"), *ComposeChained({0.3, 0.5}));
  // An independent release multiplies on top of the chain's level.
  ASSERT_TRUE(ledger.Charge("carol", 0.5, /*chained=*/false).ok());
  EXPECT_EQ(ledger.Level("carol"),
            *ComposeSequential({0.5}) * *ComposeChained({0.3, 0.5}));
}

TEST(BudgetLedgerTest, PreviewDoesNotCharge) {
  BudgetLedger ledger(0.25);
  auto preview = ledger.Preview("dave", 0.5);
  ASSERT_TRUE(preview.ok());
  EXPECT_TRUE(preview->allowed);
  EXPECT_EQ(preview->composed_level, 0.5);
  EXPECT_EQ(ledger.Releases("dave"), 0u);
  EXPECT_EQ(ledger.Level("dave"), 1.0);
}

TEST(BudgetLedgerTest, RejectedChargesCreateNoAccountState) {
  // A stream of unique rejected consumer names must not grow the ledger
  // (and its persisted file) without bound.
  BudgetLedger ledger(0.5);
  for (int k = 0; k < 8; ++k) {
    auto rejected =
        ledger.Charge("ghost-" + std::to_string(k), 0.3);  // 0.3 < 0.5
    ASSERT_TRUE(rejected.ok());
    EXPECT_FALSE(rejected->allowed);
  }
  EXPECT_TRUE(ledger.Snapshot().empty());
  ASSERT_TRUE(ledger.Charge("real", 0.6).ok());
  EXPECT_EQ(ledger.Snapshot().size(), 1u);
}

TEST(BudgetLedgerTest, ChargeManyIsBitIdenticalToSequentialCharges) {
  // ChargeMany's K-step fold must be the left fold K sequential Charge
  // calls run: the same level under ==, the same release count — whether
  // the K releases are admitted or refused at the floor.  Every ledger
  // starts from a prior 0.7 charge so the fold begins off 1.0.
  for (uint64_t k : {1u, 2u, 20u, 200u}) {
    for (double alpha : {0.1, 0.5, 0.9, 0.999}) {
      BudgetLedger sequential(0.0);
      ASSERT_TRUE(sequential.Charge("c", 0.7).ok());
      for (uint64_t j = 0; j < k; ++j) {
        ASSERT_TRUE(sequential.Charge("c", alpha)->allowed);
      }
      const double folded = sequential.Level("c");

      // Admitted exactly at the floor: the floor IS the K-fold level.
      BudgetLedger at_floor(folded);
      ASSERT_TRUE(at_floor.Charge("c", 0.7)->allowed);
      auto admitted = at_floor.ChargeMany("c", alpha, k);
      ASSERT_TRUE(admitted.ok());
      EXPECT_TRUE(admitted->allowed) << "k=" << k << " alpha=" << alpha;
      EXPECT_EQ(admitted->composed_level, folded);
      EXPECT_EQ(at_floor.Level("c"), folded);
      EXPECT_EQ(at_floor.Releases("c"), sequential.Releases("c"));

      // Refused one ulp above it: ChargeMany reports the same K-fold level
      // and charges nothing, exactly where the K-th sequential charge is
      // refused.
      const double above = std::nextafter(folded, 1.0);
      BudgetLedger refused(above);
      ASSERT_TRUE(refused.Charge("c", 0.7)->allowed);
      auto rejected = refused.ChargeMany("c", alpha, k);
      ASSERT_TRUE(rejected.ok());
      EXPECT_FALSE(rejected->allowed) << "k=" << k << " alpha=" << alpha;
      EXPECT_EQ(rejected->composed_level, folded);
      EXPECT_EQ(refused.Level("c"), 0.7);
      EXPECT_EQ(refused.Releases("c"), 1u);
      BudgetLedger one_by_one(above);
      ASSERT_TRUE(one_by_one.Charge("c", 0.7)->allowed);
      for (uint64_t j = 1; j < k; ++j) {
        ASSERT_TRUE(one_by_one.Charge("c", alpha)->allowed);
      }
      auto last = one_by_one.Charge("c", alpha);
      EXPECT_FALSE(last->allowed);
      EXPECT_EQ(last->composed_level, folded);
    }
  }
}

// ---- pipeline ---------------------------------------------------------------

std::vector<ServiceQuery> RepeatedSignatureBatch(size_t count) {
  std::vector<ServiceQuery> batch;
  for (size_t q = 0; q < count; ++q) {
    ServiceQuery query;
    query.consumer = "load-" + std::to_string(q % 3);
    query.signature = q % 2 == 0
                          ? Sig(6, R(1, 3), "absolute", ServeMode::kGeometric)
                          : Sig(6, R(1, 2), "absolute", ServeMode::kGeometric);
    query.true_count = static_cast<int>(q % 7);
    query.seed = 1000 + q;
    batch.push_back(query);
  }
  return batch;
}

TEST(QueryPipelineTest, BatchSolvesEachSignatureOnce) {
  MechanismCache cache;
  QueryPipeline pipeline(&cache, nullptr);
  const std::vector<ServiceReply> replies =
      pipeline.ExecuteBatch(RepeatedSignatureBatch(16));
  ASSERT_EQ(replies.size(), 16u);
  for (const ServiceReply& reply : replies) {
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_GE(reply.released, 0);
  }
  // 16 queries, 2 distinct signatures: exactly 2 solves ran.
  EXPECT_EQ(cache.GetStats().misses, 2u);
  EXPECT_EQ(cache.GetStats().hits, 0u);
}

TEST(QueryPipelineTest, EveryReleaseEqualsADirectSampleFromItsSeed) {
  // The per-request seed fully determines each sample: drawing directly
  // from the mechanism with a query's own seed reproduces its release,
  // for every query of the batch (the batched kernel's row groups and the
  // scalar oracle must agree lane by lane).
  const std::vector<ServiceQuery> batch = RepeatedSignatureBatch(32);
  MechanismCache cache;
  QueryPipeline pipeline(&cache, nullptr);
  const std::vector<ServiceReply> replies = pipeline.ExecuteBatch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t q = 0; q < batch.size(); ++q) {
    ASSERT_TRUE(replies[q].status.ok()) << replies[q].status.ToString();
    auto entry = cache.GetOrSolve(batch[q].signature);
    ASSERT_TRUE(entry.ok());
    Xoshiro256 rng(batch[q].seed);
    auto direct = (*entry)->mechanism.Sample(batch[q].true_count, rng);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(replies[q].released, *direct) << "q=" << q;
  }
}

TEST(QueryPipelineTest, OverBudgetQueriesAreRejectedWithComposedLevel) {
  MechanismCache cache;
  BudgetLedger ledger(0.25);
  QueryPipeline pipeline(&cache, &ledger);
  std::vector<ServiceQuery> batch;
  for (int q = 0; q < 3; ++q) {
    ServiceQuery query;
    query.consumer = "eve";
    query.signature = Sig(6, R(1, 2), "absolute", ServeMode::kGeometric);
    query.true_count = 1;
    query.seed = 7 + static_cast<uint64_t>(q);
    batch.push_back(query);
  }
  const std::vector<ServiceReply> replies = pipeline.ExecuteBatch(batch);
  EXPECT_TRUE(replies[0].status.ok());   // level 1/2
  EXPECT_TRUE(replies[1].status.ok());   // level 1/4 == budget: admitted
  EXPECT_FALSE(replies[2].status.ok());  // level 1/8 < 1/4: rejected
  EXPECT_TRUE(replies[2].status.IsFailedPrecondition());
  EXPECT_EQ(replies[2].composed_level, *ComposeSequential({0.5, 0.5, 0.5}));
  EXPECT_EQ(replies[2].released, -1);  // nothing sampled, nothing leaked
  EXPECT_EQ(ledger.Level("eve"), 0.25);
}

TEST(QueryPipelineTest, OverBudgetConsumerCannotForceFreshSolves) {
  MechanismCache cache;
  BudgetLedger ledger(0.5);
  QueryPipeline pipeline(&cache, &ledger);
  ASSERT_TRUE(ledger.Charge("mallory", 0.5).ok());  // now exactly at the floor

  ServiceQuery query;
  query.consumer = "mallory";
  query.signature = Sig(5, R(1, 2));  // uncached: would cost an exact solve
  query.true_count = 1;
  query.seed = 3;
  const std::vector<ServiceReply> replies = pipeline.ExecuteBatch({query});
  // Rejected for budget — and, crucially, WITHOUT running the solve: an
  // over-budget consumer must not be able to burn solver time for free.
  EXPECT_TRUE(replies[0].status.IsFailedPrecondition());
  EXPECT_STREQ(replies[0].cache, "skipped");
  EXPECT_EQ(cache.GetStats().misses, 0u);
  EXPECT_EQ(cache.GetStats().entries, 0u);

  // An already-cached signature is still looked up (lookups are free).
  ASSERT_TRUE(cache
                  .GetOrSolve(Sig(6, R(1, 2), "absolute",
                                  ServeMode::kGeometric))
                  .ok());
  ServiceQuery cached = query;
  cached.signature = Sig(6, R(1, 2), "absolute", ServeMode::kGeometric);
  const std::vector<ServiceReply> second = pipeline.ExecuteBatch({cached});
  EXPECT_TRUE(second[0].status.IsFailedPrecondition());
  EXPECT_STREQ(second[0].cache, "hit");
}

// ---- protocol ---------------------------------------------------------------

TEST(ProtocolTest, ParsesQueriesWithExactAlpha) {
  auto request = ParseRequestLine(
      "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":8,\"alpha\":\"1/3\","
      "\"loss\":\"zeroone\",\"lo\":2,\"hi\":6,\"count\":4,\"seed\":9,"
      "\"chained\":false,\"mode\":\"geometric\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(static_cast<int>(request->op),
            static_cast<int>(ServiceOp::kQuery));
  const ServiceQuery& query = request->query;
  EXPECT_EQ(query.consumer, "alice");
  EXPECT_EQ(query.signature.n, 8);
  EXPECT_TRUE(query.signature.alpha == R(1, 3));
  EXPECT_EQ(query.signature.loss, "zero-one");
  EXPECT_EQ(query.signature.lo, 2);
  EXPECT_EQ(query.signature.hi, 6);
  EXPECT_EQ(query.true_count, 4);
  EXPECT_EQ(query.seed, 9u);
  // Client-declared chained accounting would be a budget bypass (min
  // instead of product for independent samples): refused at parse time.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":8,"
                   "\"alpha\":\"1/3\",\"count\":4,\"chained\":true}")
                   .ok());

  // A JSON number is parsed as an exact decimal: 0.3 means 3/10.
  auto decimal = ParseRequestLine(
      "{\"op\":\"query\",\"consumer\":\"c\",\"n\":4,\"alpha\":0.3,"
      "\"count\":1}");
  ASSERT_TRUE(decimal.ok()) << decimal.status().ToString();
  EXPECT_TRUE(decimal->query.signature.alpha == R(3, 10));
}

TEST(ProtocolTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"query\"}").ok());  // missing fields
  EXPECT_FALSE(ParseRequestLine("{\"op\":17}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"warp\"}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\"} extra").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\",\"op\":\"ping\"}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\",\"x\":null}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\",\"x\":[1]}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\",\"x\":{\"y\":1}}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"op\":\"ping\",\"x\":\"\\q\"}").ok());
  // Bad query payloads fail signature validation, not just JSON parsing.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"op\":\"query\",\"consumer\":\"a\",\"n\":4,"
                   "\"alpha\":\"5/4\",\"count\":1}")
                   .ok());
}

TEST(ProtocolTest, OutOfRangeAndMistypedFieldsAreErrorsNotDefaults) {
  const std::string head =
      "{\"op\":\"query\",\"consumer\":\"a\",\"alpha\":\"1/2\"";
  // n=2^32+5 must not truncate into the valid problem n=5.
  EXPECT_FALSE(ParseRequestLine(head + ",\"n\":4294967301,\"count\":1}").ok());
  EXPECT_FALSE(ParseRequestLine(head + ",\"n\":-1,\"count\":0}").ok());
  // The n ceiling is per mode: what one entry materializes differs by
  // orders of magnitude between the exact LP and the geometric closed
  // form, and a huge geometric n would be a one-line OOM.
  EXPECT_FALSE(ParseRequestLine(head + ",\"n\":300,\"count\":1}").ok());
  EXPECT_TRUE(ParseRequestLine(
                  head + ",\"n\":300,\"count\":1,\"mode\":\"geometric\"}")
                  .ok());
  EXPECT_FALSE(ParseRequestLine(
                   head + ",\"n\":2000,\"count\":1,\"mode\":\"geometric\"}")
                   .ok());
  // count outside [0, n] is rejected at parse time (before any int cast).
  EXPECT_FALSE(
      ParseRequestLine(head + ",\"n\":4,\"count\":4294967297}").ok());
  EXPECT_FALSE(ParseRequestLine(head + ",\"n\":4,\"count\":-1}").ok());
  // A present-but-mistyped optional field is an error, never a default:
  // hi=3.7 must not silently serve the unrestricted mechanism, a string
  // seed must not silently become seed 1, chained="true" must not charge
  // product-composition.
  const std::string ok_head = head + ",\"n\":4,\"count\":1";
  EXPECT_TRUE(ParseRequestLine(ok_head + "}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"hi\":3.7}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"lo\":\"0\"}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"seed\":\"7\"}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"chained\":\"true\"}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"mode\":7}").ok());
  EXPECT_FALSE(ParseRequestLine(ok_head + ",\"loss\":7}").ok());
}

// The decoded string field "k" of a line, through the flat-JSON reader.
Result<std::string> ReadStringK(const std::string& line) {
  static constexpr std::array<std::string_view, 1> kNames = {"k"};
  std::array<JsonSlot, 1> fields;
  GEOPRIV_RETURN_IF_ERROR(ReadFlatJson(line, kNames, &fields));
  std::string scratch;
  GEOPRIV_ASSIGN_OR_RETURN(const std::string_view value,
                           JsonString("k", fields[0], &scratch));
  return std::string(value);
}

TEST(ProtocolTest, EscapingRoundTripsThroughTheParser) {
  // Includes control characters (escaped as \uXXXX): a persisted ledger
  // whose consumer name the parser could not re-read would brick restart.
  const std::string raw = "a\"b\\c\nd\te\x08f\x01g";
  auto value = ReadStringK("{\"k\":\"" + JsonEscape(raw) + "\"}");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, raw);
  // Non-BMP-surrogate \u escapes decode to UTF-8; malformed ones fail.
  auto unicode = ReadStringK("{\"k\":\"\\u00e9\\u20ac\"}");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(*unicode, "\xc3\xa9\xe2\x82\xac");
  EXPECT_FALSE(ReadStringK("{\"k\":\"\\u12\"}").ok());
  EXPECT_FALSE(ReadStringK("{\"k\":\"\\uzzzz\"}").ok());
  EXPECT_FALSE(ReadStringK("{\"k\":\"\\ud800\"}").ok());
}

TEST(ProtocolTest, ReplyNumbersAreSpelledExactlyAsPrintf17g) {
  // The reply's three doubles must be byte-identical to printf("%.17g"):
  // clients parse them back to the exact double, and a changed spelling
  // is a protocol change.  Edge cases: zero, exact binary fractions, a
  // non-dyadic decimal, the normal/subnormal boundary and its
  // neighbours, and running products alpha^k down into the subnormals
  // (what composed levels actually are).
  std::vector<double> values = {
      0.0,
      1.0,
      0.5,
      0.1,
      1e-300,
      DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),
      std::nextafter(DBL_MIN, 1.0),
      std::nextafter(1.0, 0.0),
      std::nextafter(0.5, 1.0),
      std::nextafter(0.1, 0.0),
      std::nextafter(0.1, 1.0),
  };
  for (double alpha : {0.5, 0.9, 1.0 / 3.0, 0.999}) {
    double product = 1.0;
    for (int k = 0; k < 1100 && product > 0.0; k += 7) {
      values.push_back(product);
      for (int step = 0; step < 7; ++step) product *= alpha;
    }
  }
  const auto printf17g = [](double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::string(buf);
  };
  ServiceQuery query;
  query.consumer = "alice";
  query.signature = Sig(2, R(1, 2));
  for (size_t i = 0; i < values.size(); ++i) {
    ServiceReply reply;
    reply.optimal_loss = R(1, 3);
    reply.cache = "hit";
    // Each value takes every field position across three iterations.
    reply.level_after = values[i];
    reply.composed_level = values[(i + 1) % values.size()];
    reply.budget = values[(i + 2) % values.size()];
    std::string out;
    AppendQueryReply(query, reply, &out);
    const std::string expected =
        ",\"level\":" + printf17g(reply.level_after) +
        ",\"composed_level\":" + printf17g(reply.composed_level) +
        ",\"budget\":" + printf17g(reply.budget) + ",\"cache\":\"hit\"}";
    ASSERT_GE(out.size(), expected.size());
    EXPECT_EQ(out.substr(out.size() - expected.size()), expected)
        << "value index " << i;
  }
}

TEST(ProtocolTest, ReplyStringsAreEscapedExactlyAsBefore) {
  // Consumer names and error messages are escaped in place; the bytes
  // must match the historical JsonEscape spelling: the five short
  // escapes, lowercase \u00XX for the other control bytes, everything
  // else (DEL, UTF-8) verbatim.
  const std::string raw = std::string("q\"b\\s/\x01\x1f\n\r\t\b\f") +
                          '\0' + "\x7f\xc3\xa9" "end";
  const std::string escaped =
      "q\\\"b\\\\s/\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\\u0000"
      "\x7f\xc3\xa9" "end";
  EXPECT_EQ(JsonEscape(raw), escaped);
  std::string appended = "prefix:";
  AppendJsonEscaped(raw, &appended);
  EXPECT_EQ(appended, "prefix:" + escaped);

  ServiceQuery query;
  query.consumer = raw;
  query.signature = Sig(2, R(1, 2));
  ServiceReply ok;
  ok.optimal_loss = R(1, 3);
  ok.cache = "hit";
  ok.released = 1;
  ok.level_after = 0.5;
  ok.composed_level = 0.5;
  ok.budget = 0.25;
  EXPECT_EQ(FormatQueryReply(query, ok),
            "{\"op\":\"query\",\"ok\":true,\"consumer\":\"" + escaped +
                "\",\"signature\":\"mode=exact;n=2;side=0..2;"
                "loss=absolute;alpha=1/2\",\"released\":1,\"loss\":\"1/3\","
                "\"level\":0.5,\"composed_level\":0.5,\"budget\":0.25,"
                "\"cache\":\"hit\"}");
  ServiceReply rejected;
  rejected.status = Status::FailedPrecondition(raw);
  rejected.cache = "none";
  EXPECT_EQ(FormatQueryReply(query, rejected),
            "{\"op\":\"query\",\"ok\":false,\"consumer\":\"" + escaped +
                "\",\"signature\":\"mode=exact;n=2;side=0..2;"
                "loss=absolute;alpha=1/2\",\"error\":\"FailedPrecondition\","
                "\"message\":\"" + escaped +
                "\",\"level\":1,\"composed_level\":1,\"budget\":0,"
                "\"cache\":\"none\"}");
}

// ---- service facade (in-process protocol sessions) --------------------------

TEST(MechanismServiceTest, ScriptedSessionEnforcesBudget) {
  ServiceOptions options;
  options.budget_alpha = 0.3;
  MechanismService service(options);
  bool shutdown = false;

  EXPECT_EQ(service.HandleLine("{\"op\":\"ping\"}", &shutdown),
            "{\"op\":\"ping\",\"ok\":true}");

  const std::string query =
      "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":5,\"alpha\":\"1/2\","
      "\"loss\":\"absolute\",\"count\":2,\"seed\":11}";
  const std::string first = service.HandleLine(query, &shutdown);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cache\":\"cold\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"level\":0.5"), std::string::npos) << first;
  // The entry's loss text, rendered once at publish: the Section 2.5
  // optimum for this consumer.
  EXPECT_NE(first.find("\"loss\":\"212/231\""), std::string::npos) << first;

  // Second release composes to 1/4 < 0.3: rejected with the exact level.
  const std::string second = service.HandleLine(query, &shutdown);
  EXPECT_NE(second.find("\"ok\":false"), std::string::npos) << second;
  EXPECT_NE(second.find("FailedPrecondition"), std::string::npos) << second;
  EXPECT_NE(second.find("\"composed_level\":0.25"), std::string::npos)
      << second;
  EXPECT_NE(second.find("\"cache\":\"hit\""), std::string::npos) << second;

  const std::string budget = service.HandleLine(
      "{\"op\":\"budget\",\"consumer\":\"alice\"}", &shutdown);
  EXPECT_NE(budget.find("\"level\":0.5"), std::string::npos) << budget;
  EXPECT_NE(budget.find("\"releases\":1"), std::string::npos) << budget;

  EXPECT_FALSE(shutdown);
  const std::string bye =
      service.HandleLine("{\"op\":\"shutdown\"}", &shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_NE(bye.find("\"ok\":true"), std::string::npos);
}

TEST(MechanismServiceTest, BatchWindowBuffersAndExecutesInOrder) {
  MechanismService service;
  bool shutdown = false;
  EXPECT_NE(service.HandleLine("{\"op\":\"batch_begin\"}", &shutdown)
                .find("\"ok\":true"),
            std::string::npos);
  for (int q = 0; q < 3; ++q) {
    const std::string queued = service.HandleLine(
        "{\"op\":\"query\",\"consumer\":\"b\",\"n\":6,\"alpha\":\"1/3\","
        "\"mode\":\"geometric\",\"count\":" + std::to_string(q) +
            ",\"seed\":" + std::to_string(q + 40) + "}",
        &shutdown);
    EXPECT_NE(queued.find("\"op\":\"queued\""), std::string::npos);
    EXPECT_NE(queued.find("\"index\":" + std::to_string(q)),
              std::string::npos);
  }
  const std::string chunk =
      service.HandleLine("{\"op\":\"batch_end\"}", &shutdown);
  std::istringstream lines(chunk);
  std::string line;
  int replies = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"op\":\"query\"") != std::string::npos) ++replies;
  }
  EXPECT_EQ(replies, 3);
  EXPECT_NE(chunk.find("\"batched\":3"), std::string::npos);
  // One distinct signature across the batch: exactly one solve.
  EXPECT_EQ(service.cache().GetStats().misses, 1u);
  // A second batch_end without a window is an error, not a crash.
  EXPECT_NE(service.HandleLine("{\"op\":\"batch_end\"}", &shutdown)
                .find("\"ok\":false"),
            std::string::npos);

  // Shutdown with an open window reports the aborted batch instead of
  // silently dropping queries that were already acknowledged as queued.
  (void)service.HandleLine("{\"op\":\"batch_begin\"}", &shutdown);
  (void)service.HandleLine(
      "{\"op\":\"query\",\"consumer\":\"b\",\"n\":6,\"alpha\":\"1/3\","
      "\"mode\":\"geometric\",\"count\":1,\"seed\":50}",
      &shutdown);
  const std::string bye =
      service.HandleLine("{\"op\":\"shutdown\"}", &shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_NE(bye.find("batch aborted by shutdown"), std::string::npos) << bye;
  EXPECT_NE(bye.find("\"op\":\"shutdown\",\"ok\":true"), std::string::npos)
      << bye;
}

TEST(MechanismServiceTest, LedgerPersistsAcrossRestarts) {
  // Spent budget must survive a daemon restart: a floor that resets with
  // the process would admit unbounded cumulative epsilon.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/geopriv_ledger_persist";
  fs::remove_all(dir);
  ServiceOptions options;
  options.budget_alpha = 0.3;
  options.persist_dir = dir;
  const std::string query =
      "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":6,\"alpha\":\"1/2\","
      "\"mode\":\"geometric\",\"count\":2,\"seed\":5}";
  bool shutdown = false;
  {
    MechanismService service(options);
    ASSERT_TRUE(service.LoadPersisted().ok());
    const std::string first = service.HandleLine(query, &shutdown);
    EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
    (void)service.HandleLine("{\"op\":\"shutdown\"}", &shutdown);  // persists
  }
  {
    MechanismService service(options);
    auto loaded = service.LoadPersisted();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, 1);  // the cache entry came back too
    EXPECT_EQ(service.ledger().Level("alice"), 0.5);
    // 0.5 * 0.5 = 0.25 < 0.3: the restart did not refill the budget.
    const std::string second = service.HandleLine(query, &shutdown);
    EXPECT_NE(second.find("\"ok\":false"), std::string::npos) << second;
    EXPECT_NE(second.find("\"composed_level\":0.25"), std::string::npos)
        << second;
  }
  fs::remove_all(dir);
}

TEST(MechanismServiceTest, ServeLoopRunsAScriptedSession) {
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "\n"
      "{\"op\":\"query\",\"consumer\":\"s\",\"n\":6,\"alpha\":\"1/3\","
      "\"mode\":\"geometric\",\"count\":3,\"seed\":5}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // after shutdown: must not be processed
  std::ostringstream out;
  MechanismService service;
  ASSERT_TRUE(RunServeLoop(in, out, service).ok());
  const std::string transcript = out.str();
  EXPECT_NE(transcript.find("\"op\":\"ping\",\"ok\":true"),
            std::string::npos);
  EXPECT_NE(transcript.find("\"op\":\"query\",\"ok\":true"),
            std::string::npos);
  EXPECT_NE(transcript.find("\"entries\":1"), std::string::npos);
  EXPECT_NE(transcript.find("\"op\":\"shutdown\""), std::string::npos);
  // Exactly one ping response: the loop stopped at shutdown.
  EXPECT_EQ(transcript.find("\"op\":\"ping\""),
            transcript.rfind("\"op\":\"ping\""));
}

}  // namespace
}  // namespace geopriv
