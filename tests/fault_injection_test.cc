// Fault injection and the robustness guarantees it proves.
//
// Three layers of tests:
//   1. The registry itself: spec grammar, catalog validation, trigger
//      counts, disarming.
//   2. Injected *failures* (action "fail"): every persistence path must
//      surface a Status and leave previously committed state loadable.
//   3. Injected *crashes* (action "abort", run in a fork()ed child): the
//      write-then-rename persistence paths must be crash-consistent — the
//      ledger never under-charges a committed (replied-to) batch, and a
//      cache entry is either absent or bit-identical after a crash at any
//      registered persistence fault point, never torn.
//
// Plus the deadline and overload-degradation guarantees from the same PR:
// a deadline-bounded cold solve times out within 2x its deadline while
// cached queries keep being served, and shed replies carry retry hints.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/geometric.h"

#include "core/io.h"
#include "service/server.h"
#include "service/service_flags.h"
#include "util/arg_parser.h"
#include "util/fault_injection.h"

namespace geopriv {
namespace {

namespace fs = std::filesystem;
namespace fi = fault_injection;

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

// Every test leaves the process-global registry clean, so test order can
// never leak an armed fault into an unrelated test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fi::Disarm(); }
  void TearDown() override { fi::Disarm(); }
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

// A cheap charging query (geometric mode solves in microseconds).
std::string GeometricQuery(const std::string& consumer, int seed, int n = 6) {
  return "{\"op\":\"query\",\"consumer\":\"" + consumer +
         "\",\"n\":" + std::to_string(n) +
         ",\"alpha\":\"1/2\",\"mode\":\"geometric\",\"count\":2,"
         "\"seed\":" + std::to_string(seed) + "}";
}

bool HasTmpDebris(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return false;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (dirent.path().extension() == ".tmp") return true;
  }
  return false;
}

// ---- the registry -----------------------------------------------------------

TEST_F(FaultInjectionTest, CatalogListsEveryRegisteredPoint) {
  const std::vector<std::string> points = fi::KnownPoints();
  for (const char* expected :
       {"cache.basis.rename", "cache.basis.write", "cache.entry.rename",
        "cache.entry.write", "cache.evict.unlink", "cache.manifest.rename",
        "cache.manifest.write", "io.save.write", "ledger.append",
        "ledger.fsync", "ledger.rename", "ledger.write", "server.accept",
        "server.recv", "server.send"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected),
              points.end())
        << expected;
  }
}

TEST_F(FaultInjectionTest, RejectsUnknownPointsActionsAndCounts) {
  EXPECT_FALSE(fi::ArmFromSpec("no.such.point=fail").ok());
  EXPECT_FALSE(fi::ArmFromSpec("io.save.write=explode").ok());
  EXPECT_FALSE(fi::ArmFromSpec("io.save.write=fail@zero").ok());
  EXPECT_FALSE(fi::ArmFromSpec("io.save.write=fail@0").ok());
  EXPECT_FALSE(fi::ArmFromSpec("io.save.write=delay:never").ok());
  EXPECT_FALSE(fi::ArmFromSpec("io.save.write").ok());
  // A bad clause anywhere in the list arms nothing.
  EXPECT_FALSE(
      fi::ArmFromSpec("io.save.write=fail,ledger.write=explode").ok());
  EXPECT_FALSE(fi::Armed());
  EXPECT_TRUE(fi::Fire("io.save.write").ok());
}

TEST_F(FaultInjectionTest, TriggerCountDelaysTheFailure) {
  ASSERT_TRUE(fi::ArmFromSpec("io.save.write=fail@3").ok());
  EXPECT_TRUE(fi::Armed());
  EXPECT_TRUE(fi::Fire("io.save.write").ok());
  EXPECT_TRUE(fi::Fire("io.save.write").ok());
  EXPECT_FALSE(fi::Fire("io.save.write").ok());
  EXPECT_FALSE(fi::Fire("io.save.write").ok());  // sticky once triggered
  EXPECT_EQ(fi::HitCount("io.save.write"), 4);
  // An unarmed point in the same process is unaffected.
  EXPECT_TRUE(fi::Fire("ledger.write").ok());
  fi::Disarm();
  EXPECT_FALSE(fi::Armed());
  EXPECT_TRUE(fi::Fire("io.save.write").ok());
  EXPECT_EQ(fi::HitCount("io.save.write"), 0);
}

TEST_F(FaultInjectionTest, DelayActionPassesAfterSleeping) {
  ASSERT_TRUE(fi::ArmFromSpec("io.save.write=delay:10").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fi::Fire("io.save.write").ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(10));
}

// ---- injected failures ------------------------------------------------------

TEST_F(FaultInjectionTest, SaveMechanismSurfacesInjectedFailure) {
  auto geometric = GeometricMechanism::Create(4, 0.5);
  ASSERT_TRUE(geometric.ok());
  auto mechanism = geometric->ToMechanism();
  ASSERT_TRUE(mechanism.ok());
  const std::string path =
      FreshDir("geopriv_fault_io") + "/mech.txt";
  fs::create_directories(fs::path(path).parent_path());
  ASSERT_TRUE(fi::ArmFromSpec("io.save.write=fail").ok());
  const Status failed = SaveMechanism(*mechanism, path);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected fault"), std::string::npos);
  // Fired before the destination is touched: nothing was created.
  EXPECT_FALSE(fs::exists(path));
  fi::Disarm();
  EXPECT_TRUE(SaveMechanism(*mechanism, path).ok());
  EXPECT_TRUE(LoadMechanism(path).ok());
}

TEST_F(FaultInjectionTest, CacheSaveFailureLeavesLoadableDirectory) {
  const std::string dir = FreshDir("geopriv_fault_cache_fail");
  CacheOptions options;
  options.persist_dir = dir;
  MechanismCache cache(options);
  // A committed entry first, so the failing publish has a survivor to
  // endanger.
  ASSERT_TRUE(
      cache.GetOrSolve(Sig(6, R(1, 2), "absolute", ServeMode::kGeometric))
          .ok());
  ASSERT_EQ(cache.GetStats().persist_failures, 0u);
  // The next entry's write fails at publish time: the entry degrades to
  // memory-only, visibly, and the query is still answered.
  ASSERT_TRUE(fi::ArmFromSpec("cache.entry.write=fail").ok());
  EXPECT_TRUE(
      cache.GetOrSolve(Sig(6, R(1, 3), "absolute", ServeMode::kGeometric))
          .ok());
  fi::Disarm();
  EXPECT_EQ(cache.GetStats().persist_failures, 1u);
  EXPECT_EQ(cache.GetStats().entries, 2u);
  // At once, before any reload: only the committed entry is manifested,
  // and the failed write unlinked its tmp.
  std::vector<std::string> entry_stems;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.path().extension() == ".entry") {
      entry_stems.push_back(dirent.path().stem().string());
    }
  }
  ASSERT_EQ(entry_stems.size(), 1u);
  std::vector<std::string> manifested;
  {
    std::ifstream manifest(dir + "/manifest");
    std::string line;
    while (std::getline(manifest, line)) {
      if (line.rfind("entry ", 0) == 0) manifested.push_back(line.substr(6));
    }
  }
  EXPECT_EQ(manifested, entry_stems);
  EXPECT_FALSE(HasTmpDebris(dir));
  // The committed entry still loads bit-identically (load re-validates
  // the matrix), the failed one is not resurrected, and the reload leaves
  // no tmp debris behind.
  MechanismCache reloaded;
  auto loaded = reloaded.LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded, 1);
  EXPECT_EQ(loaded->quarantined, 0);
  EXPECT_FALSE(HasTmpDebris(dir));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, LedgerWriteFailureWithholdsTheReply) {
  const std::string dir = FreshDir("geopriv_fault_ledger_fail");
  ServiceOptions options;
  options.budget_alpha = 0.1;
  options.persist_dir = dir;
  options.threads = 1;
  bool shutdown = false;
  {
    MechanismService service(options);
    ASSERT_TRUE(service.LoadPersisted().ok());
    ASSERT_TRUE(fi::ArmFromSpec("ledger.write=fail").ok());
    // The charge cannot be made durable, so the released value must be
    // withheld (a "persist" error), not handed out and forgotten.
    const std::string reply =
        service.HandleLine(GeometricQuery("alice", 7), &shutdown);
    EXPECT_NE(reply.find("\"op\":\"persist\""), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    fi::Disarm();
  }
  // Nothing durable: a fresh service sees an uncharged consumer.
  MechanismService service(options);
  ASSERT_TRUE(service.LoadPersisted().ok());
  EXPECT_EQ(service.ledger().Level("alice"), 1.0);
  fs::remove_all(dir);
}

// ---- crash recovery (fork + abort) ------------------------------------------

// Runs `child` in a fork()ed process.  The child must end by crashing at
// an armed abort fault point; reaching the end alive is reported as a
// clean exit (and failed by the caller's SIGABRT assertion).  The service
// under test runs with threads=1: a forked child must stay single-
// threaded, and the serial path exercises the same persistence code.
template <typename Fn>
int RunForked(Fn&& child) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    child();
    _exit(0);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

ServiceOptions SerialPersistOptions(const std::string& dir) {
  ServiceOptions options;
  options.budget_alpha = 0.1;
  options.persist_dir = dir;
  options.threads = 1;
  return options;
}

// The ledger side of the acceptance harness.  The child answers one
// charging query for alice, then crashes persisting.  After restart the
// answered charge must still be there — a committed reply is never
// under-charged.
//
// Snapshot points ("ledger.write", "ledger.rename") fire only inside a
// compaction.  Alice's first-ever charge compacts (there is no snapshot
// yet: hit 1 passes); bob's answered charge then only appends to the
// journal; and the crash comes from the compaction Persist() (graceful
// shutdown) drives.  Both answered charges survive: the journal is cut
// only after the new snapshot is durable.
void LedgerCompactionCrashRoundTrip(const std::string& point) {
  const std::string dir = FreshDir("geopriv_crash_" + point);
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec(point + "=abort@2").ok());
    MechanismService service(SerialPersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    (void)service.HandleLine(GeometricQuery("alice", 1), &shutdown);
    (void)service.HandleLine(GeometricQuery("bob", 2), &shutdown);
    // Crashes inside the snapshot rewrite.
    (void)service.Persist();
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismService service(SerialPersistOptions(dir));
  auto loaded = service.LoadPersisted();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Exactly the committed charges: alpha=1/2 once each.  Less than 0.5
  // would mean the crash charged budget nobody received; more than 0.5
  // would mean a committed release was forgotten (the unsafe direction).
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_EQ(service.ledger().Releases("alice"), 1u);
  EXPECT_EQ(service.ledger().Level("bob"), 0.5);
  EXPECT_EQ(service.ledger().Releases("bob"), 1u);
  // LoadPersisted swept the uncommitted tmp debris.
  EXPECT_FALSE(fs::exists(dir + "/ledger.jsonl.tmp"));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CrashDuringLedgerWriteNeverUnderCharges) {
  LedgerCompactionCrashRoundTrip("ledger.write");
}

TEST_F(FaultInjectionTest, CrashBeforeLedgerRenameKeepsCommittedSnapshot) {
  LedgerCompactionCrashRoundTrip("ledger.rename");
}

// Journal points: alice's answered charge compacts (first ever), bob's
// charge appends to the journal and crashes at `point` before his reply.
// `bob_level`/`bob_releases` are what the restart must find for bob.
void LedgerJournalCrashRoundTrip(const std::string& point, double bob_level,
                                 uint64_t bob_releases) {
  const std::string dir = FreshDir("geopriv_crash_" + point);
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec(point + "=abort").ok());
    MechanismService service(SerialPersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    const std::string reply =
        service.HandleLine(GeometricQuery("alice", 1), &shutdown);
    ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    (void)service.HandleLine(GeometricQuery("bob", 2), &shutdown);
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismService service(SerialPersistOptions(dir));
  auto loaded = service.LoadPersisted();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_EQ(service.ledger().Releases("alice"), 1u);
  EXPECT_EQ(service.ledger().Level("bob"), bob_level);
  EXPECT_EQ(service.ledger().Releases("bob"), bob_releases);
  // The restarted service keeps journaling behind the recovered prefix.
  bool shutdown = false;
  const std::string reply =
      service.HandleLine(GeometricQuery("carol", 3), &shutdown);
  ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  MechanismService reloaded(SerialPersistOptions(dir));
  ASSERT_TRUE(reloaded.LoadPersisted().ok());
  EXPECT_EQ(reloaded.ledger().Level("alice"), 0.5);
  EXPECT_EQ(reloaded.ledger().Level("carol"), 0.5);
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CrashMidJournalAppendDropsTheUnansweredCharge) {
  // Half of bob's record reached the file: a torn tail, dropped on load.
  LedgerJournalCrashRoundTrip("ledger.append", 1.0, 0);
}

TEST_F(FaultInjectionTest, CrashBeforeJournalSyncNeverUnderCharges) {
  // Bob's whole record was written but not yet synced.  A process crash
  // leaves it in the page cache, so it replays: bob is charged for a
  // release he never received — an over-charge, the safe direction.  (A
  // power loss here may keep or lose it; either is safe, because the
  // reply waits for the sync.)
  LedgerJournalCrashRoundTrip("ledger.fsync", 0.5, 1);
}

// The cache side: entries persist at publish time (inside GetOrSolve),
// so the crash fires mid-query, before the ledger charge and before any
// reply.  A crash mid-entry-write (or pre-rename) must leave previously
// committed entries intact and the in-flight entry simply absent — never
// torn.  LoadFromDirectory re-validates every matrix, so "loads at all"
// certifies "not torn".
void CacheEntryCrashRoundTrip(const std::string& point) {
  const std::string dir = FreshDir("geopriv_crash_" + point);
  // Run 1 (clean): commit one entry + one charge, so the crashing publish
  // in run 2 endangers a real committed store.
  {
    MechanismService service(SerialPersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    (void)service.HandleLine(GeometricQuery("alice", 1), &shutdown);
    (void)service.HandleLine("{\"op\":\"shutdown\"}", &shutdown);
  }
  ASSERT_FALSE(HasTmpDebris(dir));

  // Run 2: a query for a NEW signature publishes (and persists) a second
  // entry; the child crashes at the armed point inside that persist —
  // before the charge, before the reply.
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec(point + "=abort").ok());
    MechanismService service(SerialPersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    (void)service.HandleLine(GeometricQuery("alice", 2, /*n=*/7), &shutdown);
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  // Restart: the committed entry survived intact (a torn file would be
  // quarantined, not loaded), the crashed entry is absent, the ledger
  // still holds exactly the committed charge (the crashed query never
  // replied, so it must not have charged), the debris is gone.
  MechanismService service(SerialPersistOptions(dir));
  auto loaded = service.LoadPersisted();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1);
  EXPECT_EQ(service.cache().GetStats().quarantined, 0u);
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_FALSE(HasTmpDebris(dir));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CrashDuringCacheEntryWriteLeavesOldEntryIntact) {
  CacheEntryCrashRoundTrip("cache.entry.write");
}

TEST_F(FaultInjectionTest, CrashBeforeCacheEntryRenameLeavesOldEntryIntact) {
  CacheEntryCrashRoundTrip("cache.entry.rename");
}

TEST_F(FaultInjectionTest, CrashOnFirstEverEntryPersistLeavesStoreEmpty) {
  // No committed version exists: after the crash the entry must simply be
  // absent (and its torn tmp swept), never half-loaded.  The crash fires
  // at publish time, before the ledger charge, so the consumer stays
  // uncharged for the reply that never went out.
  const std::string dir = FreshDir("geopriv_crash_first_persist");
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec("cache.entry.write=abort").ok());
    MechanismService service(SerialPersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    (void)service.HandleLine(GeometricQuery("alice", 1), &shutdown);
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismService service(SerialPersistOptions(dir));
  auto loaded = service.LoadPersisted();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0);
  EXPECT_EQ(service.ledger().Level("alice"), 1.0);
  EXPECT_FALSE(HasTmpDebris(dir));
  fs::remove_all(dir);
}

// ---- crash recovery: basis, manifest, eviction fault points -----------------

CacheOptions PersistCacheOptions(const std::string& dir) {
  CacheOptions options;
  options.threads = 1;
  options.persist_dir = dir;
  return options;
}

// A crash while persisting the basis sidecar (mid-write or pre-rename)
// happens AFTER the entry file committed but BEFORE the manifest listed
// it.  Restart must still adopt the entry (first-ever store: no manifest
// yet), sweep the torn basis tmp, and simply run without a warm-start
// seed — a lost basis is a performance artifact, never an error.
void BasisCrashRoundTrip(const std::string& point) {
  const std::string dir = FreshDir("geopriv_crash_" + point);
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec(point + "=abort").ok());
    MechanismCache cache(PersistCacheOptions(dir));
    // Exact mode: the only mode that carries an LP basis.
    (void)cache.GetOrSolve(Sig(5, R(1, 2)));
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismCache reloaded(PersistCacheOptions(dir));
  auto report = reloaded.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_EQ(report->basis_reloads, 0);
  EXPECT_EQ(report->quarantined, 0);
  EXPECT_TRUE(reloaded.Contains(Sig(5, R(1, 2))));
  EXPECT_FALSE(HasTmpDebris(dir));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CrashDuringBasisWriteLeavesEntryServableSeedless) {
  BasisCrashRoundTrip("cache.basis.write");
}

TEST_F(FaultInjectionTest, CrashBeforeBasisRenameLeavesEntryServableSeedless) {
  BasisCrashRoundTrip("cache.basis.rename");
}

// A crash while committing the manifest leaves the just-persisted entry
// files on disk with no manifest (first-ever store).  Restart adopts
// them — fully re-validated — and rewrites the manifest.
void ManifestCrashRoundTrip(const std::string& point) {
  const std::string dir = FreshDir("geopriv_crash_" + point);
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec(point + "=abort").ok());
    MechanismCache cache(PersistCacheOptions(dir));
    (void)cache.GetOrSolve(
        Sig(6, R(1, 2), "absolute", ServeMode::kGeometric));
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismCache reloaded(PersistCacheOptions(dir));
  auto report = reloaded.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_EQ(report->quarantined, 0);
  EXPECT_TRUE(
      reloaded.Contains(Sig(6, R(1, 2), "absolute", ServeMode::kGeometric)));
  EXPECT_FALSE(HasTmpDebris(dir));
  // The adopting load re-committed the manifest.
  EXPECT_TRUE(fs::exists(dir + "/manifest"));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CrashDuringManifestWriteAdoptsFilesOnRestart) {
  ManifestCrashRoundTrip("cache.manifest.write");
}

TEST_F(FaultInjectionTest, CrashBeforeManifestRenameAdoptsFilesOnRestart) {
  ManifestCrashRoundTrip("cache.manifest.rename");
}

TEST_F(FaultInjectionTest, CrashBeforeEvictionUnlinkNeverResurrects) {
  // Eviction commits the shrunken manifest BEFORE unlinking; a crash in
  // between leaves the victim's files on disk but unmanifested.  Restart
  // must remove them as debris — loading them would resurrect an entry
  // the bound already evicted.
  const std::string dir = FreshDir("geopriv_crash_evict_unlink");
  const int status = RunForked([&] {
    ASSERT_TRUE(fi::ArmFromSpec("cache.evict.unlink=abort").ok());
    CacheOptions options = PersistCacheOptions(dir);
    options.max_entries = 1;
    MechanismCache cache(options);
    // Anchor (denominator 2) survives; alpha=1/3 is the victim.
    (void)cache.GetOrSolve(
        Sig(6, R(1, 2), "absolute", ServeMode::kGeometric));
    (void)cache.GetOrSolve(
        Sig(6, R(1, 3), "absolute", ServeMode::kGeometric));
  });
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  ASSERT_EQ(WTERMSIG(status), SIGABRT);

  MechanismCache reloaded(PersistCacheOptions(dir));
  auto report = reloaded.LoadFromDirectory(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->loaded, 1);
  EXPECT_GE(report->debris_removed, 1);
  EXPECT_TRUE(
      reloaded.Contains(Sig(6, R(1, 2), "absolute", ServeMode::kGeometric)));
  EXPECT_FALSE(
      reloaded.Contains(Sig(6, R(1, 3), "absolute", ServeMode::kGeometric)));
  fs::remove_all(dir);
}

// ---- ledger file corruption -------------------------------------------------

Status TryLoad(const std::string& dir) {
  MechanismService service(SerialPersistOptions(dir));
  return service.LoadPersisted().status();
}

void WriteLedger(const std::string& dir, const std::string& content) {
  fs::create_directories(dir);
  std::ofstream out(dir + "/ledger.jsonl", std::ios::trunc);
  out << content;
}

constexpr char kLedgerHeaderLine[] = "{\"ledger\":\"geopriv-ledger v1\"}\n";

TEST_F(FaultInjectionTest, TornLedgerLineFailsClosed) {
  const std::string dir = FreshDir("geopriv_ledger_torn");
  WriteLedger(dir, std::string(kLedgerHeaderLine) +
                       "{\"consumer\":\"alice\",\"level\":0.5,\"rel");
  EXPECT_FALSE(TryLoad(dir).ok());
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, TruncatedLedgerFileFailsClosed) {
  const std::string dir = FreshDir("geopriv_ledger_truncated");
  WriteLedger(dir, "");
  EXPECT_FALSE(TryLoad(dir).ok());
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, DuplicatedConsumerLinesMergeMostCharged) {
  // A duplicated account (hand-merged file, replayed concatenation) must
  // resolve toward MORE spent budget, never less: min level, max count.
  const std::string dir = FreshDir("geopriv_ledger_dup");
  WriteLedger(
      dir,
      std::string(kLedgerHeaderLine) +
          "{\"consumer\":\"alice\",\"level\":0.5,\"releases\":1,"
          "\"chained_level\":1,\"chained_releases\":0}\n" +
          "{\"consumer\":\"alice\",\"level\":0.25,\"releases\":2,"
          "\"chained_level\":1,\"chained_releases\":0}\n" +
          "{\"consumer\":\"alice\",\"level\":0.5,\"releases\":1,"
          "\"chained_level\":1,\"chained_releases\":0}\n");
  MechanismService service(SerialPersistOptions(dir));
  ASSERT_TRUE(service.LoadPersisted().ok());
  EXPECT_EQ(service.ledger().Level("alice"), 0.25);
  EXPECT_EQ(service.ledger().Releases("alice"), 2u);
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, StaleLedgerTmpIsSweptNotLoaded) {
  const std::string dir = FreshDir("geopriv_ledger_stale_tmp");
  WriteLedger(dir,
              std::string(kLedgerHeaderLine) +
                  "{\"consumer\":\"alice\",\"level\":0.5,\"releases\":1,"
                  "\"chained_level\":1,\"chained_releases\":0}\n");
  {
    std::ofstream tmp(dir + "/ledger.jsonl.tmp", std::ios::trunc);
    tmp << "{\"ledger\":\"geopriv-ledger v1\"}\n{\"consumer\":\"al";  // torn
  }
  MechanismService service(SerialPersistOptions(dir));
  ASSERT_TRUE(service.LoadPersisted().ok());
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_FALSE(fs::exists(dir + "/ledger.jsonl.tmp"));
  fs::remove_all(dir);
}

// ---- deadlines --------------------------------------------------------------

TEST_F(FaultInjectionTest, ColdSolveDeadlineTimesOutWhileCacheServesHits) {
  // A deadline-bounded query against a cold n=40 exact solve must come
  // back DeadlineExceeded within 2x the deadline, while a concurrent
  // cached query is served normally.  Unbounded, that interaction-LP solve
  // takes ~11 s with two threads on a 4-core x86 host (~20 s on one),
  // over 7x the deadline (n=32 takes ~3.6 s, too close to it).  The
  // protocol caps exact mode at n=32; the cache API has no cap.
  CacheOptions options;
  options.threads = 2;
  MechanismCache cache(options);
  const MechanismSignature small = Sig(5, R(1, 2));
  ASSERT_TRUE(cache.GetOrSolve(small).ok());  // pre-solved: later = hits

  constexpr int64_t kDeadlineMs = 1500;
  std::atomic<bool> timed_out{false};
  std::atomic<int64_t> elapsed_ms{0};
  std::thread solver([&] {
    const auto start = std::chrono::steady_clock::now();
    auto result = cache.GetOrSolve(Sig(40, R(1, 2)), nullptr, kDeadlineMs);
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    timed_out = !result.ok() && result.status().IsDeadlineExceeded();
  });

  // While the big solve grinds, cached service is unaffected: hits never
  // touch the solver mutex.
  bool hit = false;
  const auto hit_start = std::chrono::steady_clock::now();
  auto served = cache.GetOrSolve(small, &hit);
  const auto hit_elapsed = std::chrono::steady_clock::now() - hit_start;
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(hit);
  EXPECT_LT(hit_elapsed, std::chrono::milliseconds(kDeadlineMs));

  solver.join();
  EXPECT_TRUE(timed_out.load()) << "cold solve did not hit its deadline";
  EXPECT_LT(elapsed_ms.load(), 2 * kDeadlineMs)
      << "timeout returned after 2x the deadline";
  EXPECT_GE(cache.GetStats().timeouts, 1u);
}

TEST_F(FaultInjectionTest, ExpiredWaiterAbandonsOnlyItsOwnWait) {
  // A second caller waiting on an in-flight solve with a too-short
  // deadline gives up; the solve itself keeps running and publishes.
  CacheOptions options;
  options.threads = 1;
  MechanismCache cache(options);
  const MechanismSignature sig =
      Sig(6, R(1, 3), "absolute", ServeMode::kGeometric);
  // Make the (otherwise instant) solve observable by delaying... geometric
  // solves are too fast to race against reliably, so instead check the
  // semantics on the exact path: waiter times out, solver finishes.
  const MechanismSignature big = Sig(24, R(1, 2));
  std::thread solver([&] {
    // One thread solves n=24 in ~1.5 s, 30x the waiter's deadline, so
    // the waiter reliably expires first; the bound stays far above both.
    (void)cache.GetOrSolve(big, nullptr, 3000);
  });
  // Wait until the solve is registered in-flight.
  while (cache.PendingSolves() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto waiter = cache.GetOrSolve(big, nullptr, 50);
  EXPECT_FALSE(waiter.ok());
  EXPECT_TRUE(waiter.status().IsDeadlineExceeded())
      << waiter.status().ToString();
  solver.join();
  // The cache is healthy afterwards: nothing stuck in flight.
  ASSERT_TRUE(cache.GetOrSolve(sig).ok());
  EXPECT_EQ(cache.PendingSolves(), 0u);
}

// ---- overload degradation ---------------------------------------------------

TEST_F(FaultInjectionTest, MaxPendingShedsTheSecondMiss) {
  CacheOptions options;
  options.threads = 1;
  options.max_pending = 1;
  MechanismCache cache(options);
  std::thread solver([&] {
    (void)cache.GetOrSolve(Sig(24, R(1, 2)), nullptr, 3000);
  });
  while (cache.PendingSolves() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A different signature (no in-flight wait): admission says no.
  auto shed = cache.GetOrSolve(Sig(6, R(1, 2)));
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status().ToString();
  EXPECT_GE(cache.GetStats().shed, 1u);
  solver.join();
  // Capacity freed: the same signature now solves.
  EXPECT_TRUE(cache.GetOrSolve(Sig(6, R(1, 2))).ok());
}

TEST_F(FaultInjectionTest, CachedOnlyModeShedsMissesAndServesHits) {
  MechanismCache cache;
  const MechanismSignature cached =
      Sig(6, R(1, 2), "absolute", ServeMode::kGeometric);
  ASSERT_TRUE(cache.GetOrSolve(cached).ok());
  BudgetLedger ledger(0.0);
  PipelineOptions options;
  options.cached_only = true;
  options.retry_after_ms = 77;
  QueryPipeline pipeline(&cache, &ledger, options);

  ServiceQuery hit;
  hit.consumer = "alice";
  hit.signature = cached;
  hit.true_count = 2;
  ServiceQuery miss = hit;
  miss.signature = Sig(7, R(1, 2), "absolute", ServeMode::kGeometric);
  const std::vector<ServiceReply> replies =
      pipeline.ExecuteBatch({hit, miss});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].status.ok()) << replies[0].status.ToString();
  EXPECT_STREQ(replies[0].cache, "hit");
  EXPECT_TRUE(replies[1].status.IsUnavailable());
  EXPECT_STREQ(replies[1].cache, "shed");
  EXPECT_EQ(replies[1].retry_after_ms, 77);
  // The shed query charged nothing.
  EXPECT_FALSE(replies[1].charged);
  EXPECT_EQ(ledger.Releases("alice"), 1u);
}

// ---- batch warm-family ordering ---------------------------------------------

TEST_F(FaultInjectionTest, ColdBatchSolvesAsOneWarmFamilyInAlphaOrder) {
  // Satellite: a cold batch over one structural family pays one cold
  // phase 1; the other members warm-start from the just-published
  // neighbor because the pipeline solves in (structure, alpha) order.
  MechanismCache cache;
  BudgetLedger ledger(0.0);
  QueryPipeline pipeline(&cache, &ledger, PipelineOptions{});
  std::vector<ServiceQuery> queries;
  for (const auto& alpha : {R(1, 2), R(1, 3), R(2, 3)}) {
    ServiceQuery query;
    query.consumer = "alice";
    query.signature = Sig(5, alpha);
    query.true_count = 1;
    query.seed = 7;
    queries.push_back(query);
  }
  const std::vector<ServiceReply> replies = pipeline.ExecuteBatch(queries);
  ASSERT_EQ(replies.size(), 3u);
  for (const ServiceReply& reply : replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  }
  // alpha=1/3 is the family's smallest: it solved cold; 1/2 and 2/3
  // chained off cached neighbors.
  EXPECT_STREQ(replies[1].cache, "cold");
  EXPECT_STREQ(replies[0].cache, "warm");
  EXPECT_STREQ(replies[2].cache, "warm");
  EXPECT_EQ(cache.GetStats().warm_starts, 2u);
}

// ---- TCP retry client -------------------------------------------------------

TEST_F(FaultInjectionTest, TcpRetryGivesUpAfterConfiguredAttempts) {
  // Nothing listens on this port: every attempt fails to connect, the
  // client backs off (1ms base) and returns the final failure.
  RetryOptions retry;
  retry.attempts = 3;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  auto response = TcpRequestWithRetry("127.0.0.1", 1, "{\"op\":\"ping\"}",
                                      retry);
  EXPECT_FALSE(response.ok());
}

// Captures the daemon's "listening on 127.0.0.1:<port>" announce line and
// hands the port to the test thread through a promise (the stream itself
// is only ever touched from the server thread).
class AnnouncedPort : public std::stringbuf {
 public:
  std::future<int> port() { return port_.get_future(); }

 protected:
  int sync() override {
    const std::string text = str();
    const size_t nl = text.find('\n');
    if (!set_ && nl != std::string::npos) {
      const size_t colon = text.rfind(':', nl);
      port_.set_value(std::atoi(text.c_str() + colon + 1));
      set_ = true;
    }
    return 0;
  }

 private:
  std::promise<int> port_;
  bool set_ = false;
};

TEST_F(FaultInjectionTest, TcpRetrySucceedsAgainstARealServer) {
  ServiceOptions options;
  options.threads = 1;
  MechanismService service(options);
  AnnouncedPort buffer;
  std::future<int> announced = buffer.port();
  std::thread server([&] {
    std::ostream announce(&buffer);
    ASSERT_TRUE(ServeTcp(0, service, announce).ok());
  });
  const int port = announced.get();
  ASSERT_GT(port, 0);
  RetryOptions retry;
  retry.attempts = 3;
  retry.base_backoff_ms = 1;
  auto pong =
      TcpRequestWithRetry("127.0.0.1", port, "{\"op\":\"ping\"}", retry);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_NE(pong->find("\"op\":\"ping\",\"ok\":true"), std::string::npos);
  auto bye =
      TcpRequestWithRetry("127.0.0.1", port, "{\"op\":\"shutdown\"}", retry);
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  server.join();
}

// ---- shared flag table ------------------------------------------------------

TEST_F(FaultInjectionTest, ServiceFlagsMapOntoServiceOptions) {
  ServiceFlags flags;
  ArgParser parser;
  RegisterServiceFlags(&parser, &flags);
  const char* argv[] = {"geopriv_serve",    "--budget",        "0.25",
                        "--shards",         "4",               "--threads",
                        "2",                "--persist",       "/tmp/x",
                        "--deadline-ms",    "1500",            "--max-pending",
                        "3",                "--retry-after-ms", "250",
                        "--idle-timeout-ms", "9000",           "--cached-only",
                        "true",             "--max-entries",   "64",
                        "--max-bytes",      "1048576"};
  ASSERT_TRUE(parser
                  .Parse(static_cast<int>(std::size(argv)),
                         const_cast<char**>(argv), 1)
                  .ok());
  const ServiceOptions options = ToServiceOptions(flags);
  EXPECT_EQ(options.budget_alpha, 0.25);
  EXPECT_EQ(options.shards, 4u);
  EXPECT_EQ(options.threads, 2);
  EXPECT_EQ(options.persist_dir, "/tmp/x");
  EXPECT_EQ(options.default_deadline_ms, 1500);
  EXPECT_EQ(options.max_pending, 3u);
  EXPECT_EQ(options.retry_after_ms, 250);
  EXPECT_EQ(options.idle_timeout_ms, 9000);
  EXPECT_TRUE(options.cached_only);
  EXPECT_EQ(options.max_entries, 64u);
  EXPECT_EQ(options.max_bytes, 1048576u);
  EXPECT_FALSE(parser.Provided("port"));
}

TEST_F(FaultInjectionTest, ServiceFlagsRejectMalformedValues) {
  const auto parses = [](std::vector<const char*> argv) {
    ServiceFlags flags;
    ArgParser parser;
    RegisterServiceFlags(&parser, &flags);
    argv.insert(argv.begin(), "geopriv_serve");
    return parser
        .Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
               1)
        .ok();
  };
  EXPECT_FALSE(parses({"--budget", "1.5"}));       // out of range
  EXPECT_FALSE(parses({"--budget", "abc"}));       // malformed
  EXPECT_FALSE(parses({"--max-entries", "-1"}));   // below minimum
  EXPECT_FALSE(parses({"--max-bytes", "lots"}));   // malformed
  EXPECT_FALSE(parses({"--port", "70000"}));       // out of range
  EXPECT_FALSE(parses({"--shards", "0"}));         // below minimum
  EXPECT_FALSE(parses({"--budgte", "0.5"}));       // unknown flag
  EXPECT_FALSE(parses({"--persist"}));             // dangling
  EXPECT_FALSE(parses({"--persist", "--port"}));   // flag as value
  EXPECT_FALSE(parses({"stray"}));                 // bare token
  EXPECT_TRUE(parses({"--budget", "0.5", "--port", "0"}));
}

TEST_F(FaultInjectionTest, ArmConfiguredFaultsValidatesTheSpec) {
  ServiceFlags flags;
  flags.fault = "no.such.point=fail";
  EXPECT_FALSE(ArmConfiguredFaults(flags).ok());
  EXPECT_FALSE(fi::Armed());
  flags.fault = "io.save.write=fail";
  EXPECT_TRUE(ArmConfiguredFaults(flags).ok());
  EXPECT_TRUE(fi::Armed());
}

}  // namespace
}  // namespace geopriv
