#include "service/ledger_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "service/protocol.h"
#include "util/durable_file.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

constexpr char kLedgerHeader[] = "geopriv-ledger v1";

struct LedgerMetrics {
  metrics::Histogram* append_us;
  metrics::Histogram* compact_us;
  metrics::Counter* fsyncs;
  metrics::Gauge* journal_bytes;

  static const LedgerMetrics& Get() {
    static const LedgerMetrics m = [] {
      metrics::Registry* registry = metrics::Registry::Default();
      static const char* const kPersistHelp =
          "Ledger persistence per charged batch (append) or per snapshot "
          "rewrite (compact), microseconds";
      LedgerMetrics out;
      out.append_us = registry->GetHistogram(
          "geopriv_ledger_persist_us", kPersistHelp, {{"kind", "append"}});
      out.compact_us = registry->GetHistogram(
          "geopriv_ledger_persist_us", kPersistHelp, {{"kind", "compact"}});
      out.fsyncs = registry->GetCounter(
          "geopriv_ledger_fsyncs_total",
          "fsync/fdatasync calls on the ledger's files");
      out.journal_bytes = registry->GetGauge(
          "geopriv_ledger_journal_bytes",
          "Committed size of the ledger journal, bytes");
      return out;
    }();
    return m;
  }
};

// The one account-line format of both files: a flat JSON object with the
// account's running composition aggregates, through the same flat-JSON
// code path the wire protocol uses.
void AppendAccountLine(const BudgetLedger::AccountSnapshot& account,
                       std::string* out) {
  char buf[64];
  *out += "{\"consumer\":\"" + JsonEscape(account.consumer) + "\"";
  std::snprintf(buf, sizeof(buf), ",\"level\":%.17g",
                account.independent_level);
  *out += buf;
  *out += ",\"releases\":" + std::to_string(account.independent_releases);
  std::snprintf(buf, sizeof(buf), ",\"chained_level\":%.17g",
                account.chained_level);
  *out += buf;
  *out += ",\"chained_releases\":" +
          std::to_string(account.chained_releases) + "}\n";
}

// Accounts accumulated while loading, one entry per consumer.
struct LoadedAccounts {
  std::vector<BudgetLedger::AccountSnapshot> list;
  std::unordered_map<std::string, size_t> index;
};

// Parses one account line and folds it into `accounts`.  A consumer seen
// before (a journal record over its snapshot line, a later record over an
// earlier one, a hand-merged file) keeps the MOST-charged view of every
// field: levels only fall and release counts only rise as budget is
// spent, so min level / max count can over-charge but never under-charge
// — the only safe direction for a privacy floor.
Status MergeAccountLine(const std::string& line, LoadedAccounts* accounts) {
  GEOPRIV_ASSIGN_OR_RETURN(JsonObject object, JsonObject::Parse(line));
  BudgetLedger::AccountSnapshot account;
  GEOPRIV_ASSIGN_OR_RETURN(account.consumer, object.GetString("consumer"));
  GEOPRIV_ASSIGN_OR_RETURN(account.independent_level,
                           object.GetDouble("level"));
  GEOPRIV_ASSIGN_OR_RETURN(int64_t releases, object.GetInt("releases"));
  GEOPRIV_ASSIGN_OR_RETURN(account.chained_level,
                           object.GetDouble("chained_level"));
  GEOPRIV_ASSIGN_OR_RETURN(int64_t chained_releases,
                           object.GetInt("chained_releases"));
  if (releases < 0 || chained_releases < 0) {
    return Status::InvalidArgument("negative release count for consumer '" +
                                   account.consumer + "'");
  }
  account.independent_releases = static_cast<uint64_t>(releases);
  account.chained_releases = static_cast<uint64_t>(chained_releases);
  auto [it, inserted] =
      accounts->index.emplace(account.consumer, accounts->list.size());
  if (inserted) {
    accounts->list.push_back(std::move(account));
    return Status::OK();
  }
  BudgetLedger::AccountSnapshot& kept = accounts->list[it->second];
  kept.independent_level =
      std::min(kept.independent_level, account.independent_level);
  kept.independent_releases =
      std::max(kept.independent_releases, account.independent_releases);
  kept.chained_level = std::min(kept.chained_level, account.chained_level);
  kept.chained_releases =
      std::max(kept.chained_releases, account.chained_releases);
  return Status::OK();
}

bool IsBlank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

Status LoadSnapshot(std::istream& in, LoadedAccounts* accounts) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty ledger file");
  }
  GEOPRIV_ASSIGN_OR_RETURN(JsonObject header, JsonObject::Parse(line));
  GEOPRIV_ASSIGN_OR_RETURN(std::string version, header.GetString("ledger"));
  if (version != kLedgerHeader) {
    return Status::InvalidArgument("unknown ledger version '" + version +
                                   "'");
  }
  // A torn/unparseable line is a hard error, never skipped: this file is
  // the budget floor's memory, and guessing at damaged accounting could
  // only err toward admitting releases the floor should refuse.
  while (std::getline(in, line)) {
    if (IsBlank(line)) continue;
    GEOPRIV_RETURN_IF_ERROR(MergeAccountLine(line, accounts));
  }
  return Status::OK();
}

// Replays journal records into `accounts`; *committed is the byte length
// of the whole-record prefix.  Only a final segment without '\n' — an
// append that never completed, so was never synced or answered — is
// dropped; every line that ends in '\n' must parse.
Status ReplayJournal(std::istream& in, LoadedAccounts* accounts,
                     uint64_t* committed) {
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // no terminating '\n': the unacknowledged tail
    if (!IsBlank(line)) {
      GEOPRIV_RETURN_IF_ERROR(MergeAccountLine(line, accounts));
    }
    *committed += line.size() + 1;
  }
  return Status::OK();
}

}  // namespace

LedgerStore::LedgerStore(BudgetLedger* ledger, std::string dir)
    : ledger_(ledger),
      dir_(std::move(dir)),
      snapshot_path_(dir_ + "/" + kSnapshotFile),
      journal_path_(dir_ + "/" + kJournalFile) {}

LedgerStore::~LedgerStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status LedgerStore::Load() {
  if (dir_.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  // A leftover .tmp is an uncommitted compaction from a crash.  Its state
  // is still covered by the committed snapshot plus the journal (which is
  // truncated only after the rename is durable); the debris must go or a
  // later crash-between-open-and-write could rename stale bytes over a
  // newer snapshot.
  std::error_code ec;
  std::filesystem::remove(snapshot_path_ + ".tmp", ec);
  LoadedAccounts accounts;
  {
    std::ifstream in(snapshot_path_);
    if (in) {
      Status parsed = LoadSnapshot(in, &accounts);
      if (!parsed.ok()) {
        return Status::InvalidArgument(snapshot_path_ + ": " +
                                       parsed.message());
      }
      snapshot_bytes_ = std::filesystem::file_size(snapshot_path_, ec);
      if (ec) snapshot_bytes_ = 0;
    }
  }
  uint64_t committed = 0;
  {
    std::ifstream in(journal_path_);
    if (in) {
      Status replayed = ReplayJournal(in, &accounts, &committed);
      if (!replayed.ok()) {
        return Status::InvalidArgument(journal_path_ + ": " +
                                       replayed.message());
      }
    }
  }
  const uint64_t size = std::filesystem::file_size(journal_path_, ec);
  if (!ec && size > committed) {
    // Cut the torn tail now: a record appended behind it would turn it
    // into a bad '\n'-terminated line and fail the next load.
    GEOPRIV_RETURN_IF_ERROR(OpenJournalLocked());
    if (::ftruncate(fd_, static_cast<off_t>(committed)) != 0) {
      return Errno("cannot truncate", journal_path_);
    }
  }
  journal_bytes_ = committed;
  if (metrics::Enabled()) {
    LedgerMetrics::Get().journal_bytes->Set(
        static_cast<int64_t>(journal_bytes_));
  }
  return ledger_->Restore(accounts.list);
}

Status LedgerStore::OpenJournalLocked() {
  if (fd_ >= 0) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create '" + dir_ + "': " + ec.message());
  }
  fd_ = ::open(journal_path_.c_str(),
               O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return Errno("cannot open", journal_path_);
  // The journal's own directory entry must be durable before any record
  // in it may count as synced.
  Status synced = SyncDirectory(dir_);
  if (!synced.ok()) {
    ::close(fd_);
    fd_ = -1;
  }
  return synced;
}

Result<uint64_t> LedgerStore::Append(
    const std::vector<const std::string*>& consumers) {
  if (dir_.empty() || consumers.empty()) return uint64_t{0};
  Stopwatch watch;
  std::vector<const std::string*> distinct = consumers;
  const auto by_name = [](const std::string* a, const std::string* b) {
    return *a < *b;
  };
  std::sort(distinct.begin(), distinct.end(), by_name);
  distinct.erase(std::unique(distinct.begin(), distinct.end(),
                             [](const std::string* a, const std::string* b) {
                               return *a == *b;
                             }),
                 distinct.end());
  std::unique_lock<std::mutex> lock(mu_);
  // Records are read under mu_, after the charges: each holds a state at
  // least as charged as the one its reply acknowledges, and a compaction
  // (also under mu_) can never slip between reading and writing one.
  std::string records;
  for (const std::string* consumer : distinct) {
    AppendAccountLine(ledger_->Get(*consumer), &records);
  }
  if (broken_ || journal_bytes_ + records.size() >= snapshot_bytes_) {
    // Compaction instead of the append: the snapshot holds these accounts
    // and is durable once it returns.
    GEOPRIV_RETURN_IF_ERROR(CompactLocked(lock));
    return durable_;
  }
  GEOPRIV_RETURN_IF_ERROR(OpenJournalLocked());
  // Split around the fault point so "ledger.append" crashes with the
  // record genuinely torn on disk.
  const std::string_view bytes(records);
  const size_t half = bytes.size() / 2;
  Status written = WriteAll(fd_, bytes.substr(0, half));
  if (written.ok() && fault_injection::Armed()) {
    written = fault_injection::Fire("ledger.append");
  }
  if (written.ok()) written = WriteAll(fd_, bytes.substr(half));
  if (!written.ok()) {
    // Cut the partial record so no later append lands behind a torn
    // line; if even that fails, the next append compacts instead.
    if (::ftruncate(fd_, static_cast<off_t>(journal_bytes_)) != 0) {
      broken_ = true;
    }
    return Status::Internal("ledger journal append failed: " +
                            written.message());
  }
  journal_bytes_ += records.size();
  const uint64_t ticket = ++appended_;
  if (metrics::Enabled()) {
    const LedgerMetrics& m = LedgerMetrics::Get();
    m.append_us->Observe(static_cast<int64_t>(watch.ElapsedMicros()));
    m.journal_bytes->Set(static_cast<int64_t>(journal_bytes_));
  }
  return ticket;
}

Status LedgerStore::Sync(uint64_t ticket) {
  if (ticket == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  while (durable_ < ticket) {
    if (broken_) {
      return Status::Internal(
          "ledger journal sync failed earlier; charges wait for the next "
          "compaction");
    }
    if (syncing_) {
      // Follower: the leader's sync may already cover this ticket.
      synced_cv_.wait(lock);
      continue;
    }
    // Leader: one fdatasync covers every record appended so far.
    syncing_ = true;
    const uint64_t target = appended_;
    const int fd = fd_;
    lock.unlock();
    Status synced = Status::OK();
    if (fault_injection::Armed()) synced = fault_injection::Fire("ledger.fsync");
    if (synced.ok() && ::fdatasync(fd) != 0) {
      synced = Errno("cannot fdatasync", journal_path_);
    }
    if (metrics::Enabled()) LedgerMetrics::Get().fsyncs->Increment();
    lock.lock();
    syncing_ = false;
    if (synced.ok()) {
      durable_ = std::max(durable_, target);
    } else {
      broken_ = true;
    }
    synced_cv_.notify_all();
    if (!synced.ok()) return synced;
  }
  return Status::OK();
}

Status LedgerStore::Compact() {
  if (dir_.empty()) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  return CompactLocked(lock);
}

Status LedgerStore::CompactLocked(std::unique_lock<std::mutex>& lock) {
  // The journal fd must not be truncated under an in-flight fdatasync.
  synced_cv_.wait(lock, [this] { return !syncing_; });
  Stopwatch watch;
  const uint64_t covered = appended_;
  const std::string header =
      std::string("{\"ledger\":\"") + kLedgerHeader + "\"}\n";
  std::string body;
  for (const BudgetLedger::AccountSnapshot& account : ledger_->Snapshot()) {
    AppendAccountLine(account, &body);
  }
  // "ledger.write" fires between the header and the accounts, so an abort
  // leaves the tmp genuinely torn — the artifact write-then-rename exists
  // to survive.
  GEOPRIV_RETURN_IF_ERROR(ReplaceFileDurably(snapshot_path_, header, body,
                                             "ledger.write", "ledger.rename"));
  snapshot_bytes_ = header.size() + body.size();
  // The durable snapshot holds every appended record's state (records
  // are read under mu_ after their charges), so it covers them all.
  durable_ = std::max(durable_, covered);
  broken_ = false;
  synced_cv_.notify_all();
  // Only now may the journal go.  If the truncate is lost to a crash, the
  // old records replay over the new snapshot to the same ledger.
  const int truncated =
      fd_ >= 0 ? ::ftruncate(fd_, 0) : ::truncate(journal_path_.c_str(), 0);
  if (truncated != 0 && !(fd_ < 0 && errno == ENOENT)) {
    return Errno("cannot truncate", journal_path_);
  }
  journal_bytes_ = 0;
  if (metrics::Enabled()) {
    const LedgerMetrics& m = LedgerMetrics::Get();
    m.compact_us->Observe(static_cast<int64_t>(watch.ElapsedMicros()));
    m.fsyncs->Add(2);  // the tmp file and the directory
    m.journal_bytes->Set(0);
  }
  return Status::OK();
}

}  // namespace geopriv
