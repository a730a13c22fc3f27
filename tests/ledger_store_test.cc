// The budget ledger's snapshot + journal store (service/ledger_store.h).
//
// Contracts under test:
//   1. Load rules — a torn final journal record (an append that never
//      completed) is dropped and cut off; any bad line that ends in '\n'
//      fails the load closed.
//   2. Compaction is idempotent across its crash window — a journal whose
//      truncate was lost replays over the new snapshot to the same ledger.
//   3. Every acknowledged charge survives a journal cut at ANY byte
//      offset past its record (property test over random charge runs).
//   4. Group commit — concurrent appenders share syncs and every synced
//      ticket reloads.
//   5. Failed appends and syncs withhold the reply and never leave a
//      journal the next load rejects.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "rng/engine.h"
#include "service/ledger_store.h"
#include "service/server.h"
#include "util/fault_injection.h"

namespace geopriv {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string JournalPath(const std::string& dir) {
  return dir + "/" + LedgerStore::kJournalFile;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string Record(const std::string& consumer, double level,
                   int releases) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"consumer\":\"%s\",\"level\":%.17g,\"releases\":%d,"
                "\"chained_level\":1,\"chained_releases\":0}\n",
                consumer.c_str(), level, releases);
  return buf;
}

// Charges `consumer` once at `alpha` and makes it durable, as the service
// does before replying.
void ChargeDurably(BudgetLedger* ledger, LedgerStore* store,
                   const std::string& consumer, double alpha) {
  auto decision = ledger->Charge(consumer, alpha);
  ASSERT_TRUE(decision.ok() && decision->allowed);
  auto ticket = store->Append({&consumer});
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(store->Sync(*ticket).ok());
}

// Alice's first charge compacts (no snapshot yet), so her account lives in
// the snapshot; bob's charges then land in the journal.
void SnapshotAliceJournalBob(const std::string& dir) {
  BudgetLedger ledger;
  LedgerStore store(&ledger, dir);
  ASSERT_TRUE(store.Load().ok());
  ChargeDurably(&ledger, &store, "alice", 0.5);
  ChargeDurably(&ledger, &store, "bob", 0.5);
  ASSERT_GT(fs::file_size(JournalPath(dir)), 0u);
}

TEST(LedgerStoreTest, TornFinalRecordIsDroppedAndCut) {
  const std::string dir = FreshDir("geopriv_journal_torn_tail");
  SnapshotAliceJournalBob(dir);
  const std::string committed = ReadFile(JournalPath(dir));
  WriteFile(JournalPath(dir), committed + "{\"consumer\":\"carol\",\"lev");
  {
    BudgetLedger ledger;
    LedgerStore store(&ledger, dir);
    ASSERT_TRUE(store.Load().ok());
    EXPECT_EQ(ledger.Level("alice"), 0.5);
    EXPECT_EQ(ledger.Level("bob"), 0.5);
    EXPECT_EQ(ledger.Releases("carol"), 0u);
    // The tail was cut, so the next record starts on a clean line.
    EXPECT_EQ(ReadFile(JournalPath(dir)), committed);
    ChargeDurably(&ledger, &store, "dave", 0.5);
  }
  BudgetLedger ledger;
  LedgerStore store(&ledger, dir);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(ledger.Level("dave"), 0.5);
  EXPECT_EQ(ledger.Releases("carol"), 0u);
  fs::remove_all(dir);
}

TEST(LedgerStoreTest, BadLineEndingInNewlineFailsClosed) {
  const std::string dir = FreshDir("geopriv_journal_bad_middle");
  SnapshotAliceJournalBob(dir);
  const std::string committed = ReadFile(JournalPath(dir));
  for (const std::string& bad :
       {std::string("garbage\n"), std::string("{\"consumer\":\"bob\"}\n"),
        std::string("{\"consumer\":\"bob\",\"level\":0.5,\"rel\n")}) {
    // In the middle, and as the final '\n'-terminated line: both fail.
    for (const std::string& journal :
         {committed + bad + Record("bob", 0.25, 2), committed + bad}) {
      WriteFile(JournalPath(dir), journal);
      BudgetLedger ledger;
      LedgerStore store(&ledger, dir);
      const Status loaded = store.Load();
      EXPECT_FALSE(loaded.ok()) << journal;
      EXPECT_EQ(ledger.size(), 0u) << "a failed load must not restore";
    }
  }
  fs::remove_all(dir);
}

TEST(LedgerStoreTest, JournalReplaysWithTheMostChargedMerge) {
  const std::string dir = FreshDir("geopriv_journal_merge");
  SnapshotAliceJournalBob(dir);
  // Records out of order and duplicated: absolute states merge to the
  // most-charged view regardless of order.
  WriteFile(JournalPath(dir), Record("alice", 0.125, 3) +
                                  Record("alice", 0.25, 2) +
                                  Record("bob", 0.5, 1));
  BudgetLedger ledger;
  LedgerStore store(&ledger, dir);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(ledger.Level("alice"), 0.125);
  EXPECT_EQ(ledger.Releases("alice"), 3u);
  EXPECT_EQ(ledger.Level("bob"), 0.5);
  fs::remove_all(dir);
}

TEST(LedgerStoreTest, CrashBetweenRenameAndTruncateReplaysToTheSameLedger) {
  const std::string dir = FreshDir("geopriv_journal_rename_truncate");
  BudgetLedger live;
  {
    LedgerStore store(&live, dir);
    ASSERT_TRUE(store.Load().ok());
    ChargeDurably(&live, &store, "alice", 0.5);
    // Charge until the journal holds records (a charge that reaches the
    // snapshot's size compacts instead of appending).
    for (int i = 0; ReadFile(JournalPath(dir)).empty(); ++i) {
      ASSERT_LT(i, 10);
      ChargeDurably(&live, &store, i % 2 ? "bob" : "carol", 0.9);
    }
    const std::string journal = ReadFile(JournalPath(dir));
    ASSERT_TRUE(store.Compact().ok());
    EXPECT_EQ(fs::file_size(JournalPath(dir)), 0u);
    // The truncate "never happened": the old journal is back beside the
    // new snapshot.
    WriteFile(JournalPath(dir), journal);
  }
  BudgetLedger reloaded;
  LedgerStore store(&reloaded, dir);
  ASSERT_TRUE(store.Load().ok());
  const auto want = live.Snapshot();
  const auto got = reloaded.Snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].consumer, want[i].consumer);
    EXPECT_EQ(got[i].independent_level, want[i].independent_level);
    EXPECT_EQ(got[i].independent_releases, want[i].independent_releases);
  }
  fs::remove_all(dir);
}

// Property: for random charge runs, cutting the journal at any byte offset
// keeps every charge whose record ended at or before the cut (and every
// charge a compaction covered): level <= the acknowledged level and
// releases >= the acknowledged count.
TEST(LedgerStoreTest, EveryAcknowledgedChargeSurvivesAnyJournalCut) {
  const std::vector<std::string> consumers = {"a", "b", "c", "d", "e"};
  const std::vector<double> alphas = {0.5, 0.9, 0.1, 0.75};
  Xoshiro256 rng(20261017);
  for (int run = 0; run < 12; ++run) {
    const std::string dir =
        FreshDir("geopriv_journal_property_" + std::to_string(run));
    struct Ack {
      std::string consumer;
      double level;
      uint64_t releases;
      uint64_t journal_end;  ///< 0 once a compaction covered it
    };
    std::vector<Ack> acks;
    {
      BudgetLedger ledger(1e-300);
      LedgerStore store(&ledger, dir);
      ASSERT_TRUE(store.Load().ok());
      const int charges = 20 + static_cast<int>(rng.NextBounded(60));
      for (int i = 0; i < charges; ++i) {
        const std::string& consumer =
            consumers[rng.NextBounded(consumers.size())];
        const double alpha = alphas[rng.NextBounded(alphas.size())];
        const uint64_t k = 1 + rng.NextBounded(3);
        auto decision = ledger.ChargeMany(consumer, alpha, k);
        ASSERT_TRUE(decision.ok());
        if (!decision->allowed) continue;
        auto ticket = store.Append({&consumer});
        ASSERT_TRUE(ticket.ok());
        ASSERT_TRUE(store.Sync(*ticket).ok());
        std::error_code ec;  // no journal file until the first append
        uint64_t end = fs::file_size(JournalPath(dir), ec);
        if (ec) end = 0;
        if (!acks.empty() && end < acks.back().journal_end) {
          for (Ack& ack : acks) ack.journal_end = 0;  // compacted
        }
        acks.push_back({consumer, ledger.Level(consumer),
                        ledger.Releases(consumer), end});
      }
    }
    const std::string journal = ReadFile(JournalPath(dir));
    const std::string cut_dir = dir + "_cut";
    for (int trial = 0; trial < 8; ++trial) {
      const size_t cut = rng.NextBounded(journal.size() + 1);
      fs::remove_all(cut_dir);
      fs::copy(dir, cut_dir);
      WriteFile(JournalPath(cut_dir), journal.substr(0, cut));
      BudgetLedger ledger(1e-300);
      LedgerStore store(&ledger, cut_dir);
      const Status loaded = store.Load();
      ASSERT_TRUE(loaded.ok()) << "cut at " << cut << ": "
                               << loaded.ToString();
      for (const Ack& ack : acks) {
        if (ack.journal_end > cut) continue;  // never acknowledged here
        EXPECT_LE(ledger.Level(ack.consumer), ack.level)
            << "run " << run << " cut " << cut << " consumer "
            << ack.consumer;
        EXPECT_GE(ledger.Releases(ack.consumer), ack.releases)
            << "run " << run << " cut " << cut << " consumer "
            << ack.consumer;
      }
    }
    fs::remove_all(cut_dir);
    fs::remove_all(dir);
  }
}

TEST(LedgerStoreTest, ConcurrentAppendersShareSyncsAndAllReload) {
  const std::string dir = FreshDir("geopriv_journal_group_commit");
  BudgetLedger live;
  {
    LedgerStore store(&live, dir);
    ASSERT_TRUE(store.Load().ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 40; ++i) {
          const std::string consumer =
              "t" + std::to_string(t) + "_" + std::to_string(i % 7);
          auto decision = live.Charge(consumer, 0.9);
          ASSERT_TRUE(decision.ok() && decision->allowed);
          auto ticket = store.Append({&consumer});
          ASSERT_TRUE(ticket.ok());
          ASSERT_TRUE(store.Sync(*ticket).ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  BudgetLedger reloaded;
  LedgerStore store(&reloaded, dir);
  ASSERT_TRUE(store.Load().ok());
  const auto want = live.Snapshot();
  ASSERT_EQ(reloaded.size(), want.size());
  for (const auto& account : want) {
    EXPECT_EQ(reloaded.Level(account.consumer), account.independent_level);
    EXPECT_EQ(reloaded.Releases(account.consumer),
              account.independent_releases);
  }
  fs::remove_all(dir);
}

// ---- failures through the service ------------------------------------------

std::string GeometricQuery(const std::string& consumer, int seed) {
  return "{\"op\":\"query\",\"consumer\":\"" + consumer +
         "\",\"n\":6,\"alpha\":\"1/2\",\"mode\":\"geometric\",\"count\":2,"
         "\"seed\":" + std::to_string(seed) + "}";
}

ServiceOptions PersistOptions(const std::string& dir) {
  ServiceOptions options;
  options.persist_dir = dir;
  options.threads = 1;
  return options;
}

bool IsPersistError(const std::string& reply) {
  return reply.find("\"op\":\"persist\",\"ok\":false") != std::string::npos;
}

class LedgerStoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault_injection::Disarm(); }
  void TearDown() override { fault_injection::Disarm(); }
};

TEST_F(LedgerStoreFaultTest, FailedAppendWithholdsTheReplyAndLeavesNoTornLine) {
  const std::string dir = FreshDir("geopriv_journal_append_fail");
  {
    MechanismService service(PersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    // alice compacts (first ever); bob's append fails halfway.
    ASSERT_FALSE(IsPersistError(
        service.HandleLine(GeometricQuery("alice", 1), &shutdown)));
    ASSERT_TRUE(fault_injection::ArmFromSpec("ledger.append=fail").ok());
    EXPECT_TRUE(IsPersistError(
        service.HandleLine(GeometricQuery("bob", 2), &shutdown)));
    fault_injection::Disarm();
    // The half-written record was cut: carol's lands on a clean line.
    ASSERT_FALSE(IsPersistError(
        service.HandleLine(GeometricQuery("carol", 3), &shutdown)));
  }
  MechanismService service(PersistOptions(dir));
  auto loaded = service.LoadPersisted();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_EQ(service.ledger().Level("carol"), 0.5);
  // bob's reply was withheld; the record never reached the journal.
  EXPECT_EQ(service.ledger().Releases("bob"), 0u);
  fs::remove_all(dir);
}

TEST_F(LedgerStoreFaultTest, FailedSyncWithholdsTheReplyUntilACompaction) {
  const std::string dir = FreshDir("geopriv_journal_sync_fail");
  {
    MechanismService service(PersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    ASSERT_FALSE(IsPersistError(
        service.HandleLine(GeometricQuery("alice", 1), &shutdown)));
    ASSERT_TRUE(fault_injection::ArmFromSpec("ledger.fsync=fail").ok());
    EXPECT_TRUE(IsPersistError(
        service.HandleLine(GeometricQuery("bob", 2), &shutdown)));
    fault_injection::Disarm();
    // The failed sync leaves the journal untrusted: the next charge
    // compacts (a full fsynced snapshot) instead of appending.
    ASSERT_FALSE(IsPersistError(
        service.HandleLine(GeometricQuery("carol", 3), &shutdown)));
    EXPECT_EQ(fs::file_size(JournalPath(dir)), 0u);
  }
  MechanismService service(PersistOptions(dir));
  ASSERT_TRUE(service.LoadPersisted().ok());
  EXPECT_EQ(service.ledger().Level("alice"), 0.5);
  EXPECT_EQ(service.ledger().Level("carol"), 0.5);
  fs::remove_all(dir);
}

TEST_F(LedgerStoreFaultTest, CleanShutdownLeavesOnlyASnapshot) {
  const std::string dir = FreshDir("geopriv_journal_clean_shutdown");
  {
    MechanismService service(PersistOptions(dir));
    ASSERT_TRUE(service.LoadPersisted().ok());
    bool shutdown = false;
    for (int i = 0; i < 5; ++i) {
      (void)service.HandleLine(GeometricQuery("c" + std::to_string(i), i),
                               &shutdown);
    }
    ASSERT_GT(fs::file_size(JournalPath(dir)), 0u);
    EXPECT_NE(service.HandleLine("{\"op\":\"shutdown\"}", &shutdown)
                  .find("\"ok\":true"),
              std::string::npos);
  }
  EXPECT_EQ(fs::file_size(JournalPath(dir)), 0u);
  MechanismService service(PersistOptions(dir));
  ASSERT_TRUE(service.LoadPersisted().ok());
  EXPECT_EQ(service.ledger().size(), 5u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace geopriv
