// LedgerStore: the budget ledger's durable home — a snapshot plus an
// fdatasync'd append-only journal with group commit.
//
// Spent budget MUST survive restarts, crashes and power loss: a floor
// that reset would admit unbounded cumulative epsilon.  Two files in the
// persist directory hold it, both in one line format (one flat JSON
// account per line, parsed by one parser):
//
//   ledger.jsonl          snapshot: a header line, then one line per
//                         consumer, sorted — rewritten only by compaction
//   ledger.jsonl.journal  journal: one line per consumer charged by each
//                         batch, appended with write(2) on an O_APPEND fd
//
// A journal record is the account's ABSOLUTE post-charge state, never a
// delta, so replay is idempotent: load reads the snapshot, then folds
// every journal record in with the most-charged merge (min level, max
// releases) — the same rule that merges duplicate snapshot lines.  Levels
// only fall and counts only rise as budget is spent, so the merge can
// over-charge but never under-charge.
//
// Charge -> persist -> reply.  Append() writes a batch's records and
// returns a ticket; no reply carrying one of those charges may leave the
// process before Sync(ticket) returns OK.  Sync is group commit: a
// fdatasync covers every record appended before it started, so callers
// whose ticket is already durable return at once and concurrent callers
// elect one leader that syncs for all of them.
//
// Compaction rewrites the snapshot (write tmp, fsync, rename, fsync the
// directory — util/durable_file.h) and only then truncates the journal.
// It runs whenever the journal would reach the last snapshot's size (so
// its cost per record stays O(1)) — in which case it replaces that
// append — and on every Compact() call (graceful shutdown), so a cleanly
// shut down directory holds only a snapshot.
//
// Crash windows:
//   * mid-append: the journal ends in a record without '\n' — an
//     unacknowledged append, dropped (and cut off) on load;
//   * after the append, before its fdatasync returns: the reply never
//     left; the record may or may not survive (over-charge at worst);
//   * mid-compaction, before the rename: the previous snapshot and the
//     whole journal are intact; the tmp debris is swept on load;
//   * between the rename and the journal truncate: the old journal
//     replays over the new snapshot to the same ledger (idempotent).
// The snapshot stays strict — a torn or unparseable line fails the load —
// and so does any journal line that ends in '\n': damage anywhere but an
// unacknowledged tail fails closed rather than guessing at accounting.

#ifndef GEOPRIV_SERVICE_LEDGER_STORE_H_
#define GEOPRIV_SERVICE_LEDGER_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/budget_ledger.h"
#include "util/result.h"

namespace geopriv {

class LedgerStore {
 public:
  static constexpr char kSnapshotFile[] = "ledger.jsonl";
  static constexpr char kJournalFile[] = "ledger.jsonl.journal";

  /// Persists `ledger` (borrowed) under `dir`; an empty `dir` disables
  /// persistence and every call below is a no-op.
  LedgerStore(BudgetLedger* ledger, std::string dir);
  ~LedgerStore();
  LedgerStore(const LedgerStore&) = delete;
  LedgerStore& operator=(const LedgerStore&) = delete;

  /// Replaces the ledger's state with the snapshot plus the replayed
  /// journal.  Sweeps a leftover snapshot tmp and cuts an unacknowledged
  /// journal tail.  Fails (ledger untouched) on any damage that could
  /// hide spent budget.
  Status Load();

  /// Appends one record per distinct consumer in `consumers` holding its
  /// current account, or compacts instead when the journal is due.
  /// Returns the ticket to Sync before replying; a failed append leaves
  /// the journal as it was and the charges must not be answered.
  Result<uint64_t> Append(const std::vector<const std::string*>& consumers);

  /// Returns once every record up to `ticket` is on stable storage
  /// (group commit; ticket 0 is always durable).
  Status Sync(uint64_t ticket);

  /// Rewrites the snapshot durably, then truncates the journal.
  Status Compact();

 private:
  Status CompactLocked(std::unique_lock<std::mutex>& lock);
  Status OpenJournalLocked();

  BudgetLedger* ledger_;
  const std::string dir_;
  const std::string snapshot_path_;
  const std::string journal_path_;

  std::mutex mu_;
  std::condition_variable synced_cv_;
  int fd_ = -1;                 ///< journal, O_APPEND; opened lazily
  uint64_t journal_bytes_ = 0;  ///< committed (whole-record) journal size
  uint64_t snapshot_bytes_ = 0;
  uint64_t appended_ = 0;  ///< tickets handed out (records appended)
  uint64_t durable_ = 0;   ///< every ticket <= this is on stable storage
  bool syncing_ = false;   ///< a leader's fdatasync is in flight
  /// A failed fdatasync leaves the page cache's state unknown, so the
  /// journal is not trusted again until a compaction rewrites everything.
  bool broken_ = false;
};

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_LEDGER_STORE_H_
