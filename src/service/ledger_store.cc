#include "service/ledger_store.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>
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
// account's running composition aggregates, written by the reply path's
// writers and read back by its reader (service/protocol.h).
void AppendAccountLine(const BudgetLedger::AccountSnapshot& account,
                       std::string* out) {
  *out += "{\"consumer\":\"";
  AppendJsonEscaped(account.consumer, out);
  *out += "\",\"level\":";
  AppendJsonDouble(account.independent_level, out);
  *out += ",\"releases\":";
  AppendJsonInt(account.independent_releases, out);
  *out += ",\"chained_level\":";
  AppendJsonDouble(account.chained_level, out);
  *out += ",\"chained_releases\":";
  AppendJsonInt(account.chained_releases, out);
  *out += "}\n";
}

// Parses one account line and folds it into `accounts`.  A consumer seen
// before (a journal record over its snapshot line, a later record over an
// earlier one, a hand-merged file) keeps the MOST-charged view of every
// field: levels only fall and release counts only rise as budget is
// spent, so min level / max count can over-charge but never under-charge
// — the only safe direction for a privacy floor.
Status MergeAccountLine(std::string_view line,
                        BudgetLedger::Accounts* accounts) {
  enum Field {
    kConsumer, kLevel, kReleases, kChainedLevel, kChainedReleases,
    kFieldCount
  };
  static constexpr std::array<std::string_view, kFieldCount> kNames = {
      "consumer", "level", "releases", "chained_level", "chained_releases"};
  std::array<JsonSlot, kFieldCount> fields;
  GEOPRIV_RETURN_IF_ERROR(ReadFlatJson(line, kNames, &fields));
  std::string scratch;
  GEOPRIV_ASSIGN_OR_RETURN(
      const std::string_view consumer,
      JsonString(kNames[kConsumer], fields[kConsumer], &scratch));
  BudgetLedger::Account account;
  GEOPRIV_ASSIGN_OR_RETURN(account.independent_level,
                           JsonDouble(kNames[kLevel], fields[kLevel]));
  GEOPRIV_ASSIGN_OR_RETURN(const int64_t releases,
                           JsonInt(kNames[kReleases], fields[kReleases]));
  GEOPRIV_ASSIGN_OR_RETURN(
      account.chained_level,
      JsonDouble(kNames[kChainedLevel], fields[kChainedLevel]));
  GEOPRIV_ASSIGN_OR_RETURN(
      const int64_t chained_releases,
      JsonInt(kNames[kChainedReleases], fields[kChainedReleases]));
  if (releases < 0 || chained_releases < 0) {
    return Status::InvalidArgument("negative release count for consumer '" +
                                   std::string(consumer) + "'");
  }
  account.independent_releases = static_cast<uint64_t>(releases);
  account.chained_releases = static_cast<uint64_t>(chained_releases);
  auto [it, inserted] = accounts->try_emplace(std::string(consumer), account);
  if (inserted) return Status::OK();
  BudgetLedger::Account& kept = it->second;
  kept.independent_level =
      std::min(kept.independent_level, account.independent_level);
  kept.independent_releases =
      std::max(kept.independent_releases, account.independent_releases);
  kept.chained_level = std::min(kept.chained_level, account.chained_level);
  kept.chained_releases =
      std::max(kept.chained_releases, account.chained_releases);
  return Status::OK();
}

bool IsBlank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

// Hands each line of `path` (without its '\n') to on_line(line,
// terminated), reading fixed 64 KiB chunks: memory holds one chunk plus
// the longest line, never the whole file.  Only a final segment without
// '\n' has terminated == false.  A missing file is an empty one
// (*exists = false); any other open or read error fails, since a ledger
// read short would forget spent budget.  *bytes counts what was read.
template <typename OnLine>
Status ForEachLine(const std::string& path, bool* exists, uint64_t* bytes,
                   OnLine&& on_line) {
  constexpr size_t kChunk = 64 * 1024;
  *exists = false;
  *bytes = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();
    return Errno("cannot open", path);
  }
  *exists = true;
  std::vector<char> buf(kChunk);
  size_t held = 0;  // buf[0, held): the start of a line not yet ended
  Status status;
  for (;;) {
    // One line longer than the buffer grows it.
    if (held == buf.size()) buf.resize(2 * buf.size());
    const ssize_t k = ::read(fd, buf.data() + held, buf.size() - held);
    if (k < 0) {
      if (errno == EINTR) continue;
      status = Errno("cannot read", path);
      break;
    }
    if (k == 0) break;
    *bytes += static_cast<uint64_t>(k);
    const char* line = buf.data();
    const char* const end = buf.data() + held + k;
    const char* scan = buf.data() + held;  // the held bytes hold no '\n'
    while (const char* newline = static_cast<const char*>(
               std::memchr(scan, '\n', static_cast<size_t>(end - scan)))) {
      status = on_line(
          std::string_view(line, static_cast<size_t>(newline - line)), true);
      if (!status.ok()) break;
      line = scan = newline + 1;
    }
    if (!status.ok()) break;
    held = static_cast<size_t>(end - line);
    std::memmove(buf.data(), line, held);
  }
  ::close(fd);
  if (status.ok() && held > 0) {
    status = on_line(std::string_view(buf.data(), held), false);
  }
  return status;
}

// The snapshot: a header line, then account lines.  A torn or
// unparseable line is a hard error, never skipped: this file is the
// budget floor's memory, and guessing at damaged accounting could only
// err toward admitting releases the floor should refuse.
Status LoadSnapshot(const std::string& path, BudgetLedger::Accounts* accounts,
                    uint64_t* bytes) {
  bool exists = false;
  bool header = true;
  GEOPRIV_RETURN_IF_ERROR(ForEachLine(
      path, &exists, bytes, [&](std::string_view line, bool) -> Status {
        if (!header) {
          return IsBlank(line) ? Status::OK()
                               : MergeAccountLine(line, accounts);
        }
        header = false;
        static constexpr std::array<std::string_view, 1> kHeader = {
            "ledger"};
        std::array<JsonSlot, 1> fields;
        GEOPRIV_RETURN_IF_ERROR(ReadFlatJson(line, kHeader, &fields));
        std::string scratch;
        GEOPRIV_ASSIGN_OR_RETURN(
            const std::string_view version,
            JsonString(kHeader[0], fields[0], &scratch));
        if (version != kLedgerHeader) {
          return Status::InvalidArgument("unknown ledger version '" +
                                         std::string(version) + "'");
        }
        return Status::OK();
      }));
  if (exists && header) return Status::InvalidArgument("empty ledger file");
  return Status::OK();
}

// Replays journal records into `accounts`; *committed is the byte length
// of the whole-record prefix.  Only a final segment without '\n' — an
// append that never completed, so was never synced or answered — is
// dropped; every line that ends in '\n' must parse.
Status ReplayJournal(const std::string& path,
                     BudgetLedger::Accounts* accounts, uint64_t* committed,
                     uint64_t* bytes) {
  bool exists = false;
  *committed = 0;
  return ForEachLine(path, &exists, bytes,
                     [&](std::string_view line, bool terminated) -> Status {
                       if (!terminated) return Status::OK();
                       *committed += line.size() + 1;
                       return IsBlank(line) ? Status::OK()
                                            : MergeAccountLine(line, accounts);
                     });
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
  BudgetLedger::Accounts accounts;
  uint64_t snapshot_bytes = 0;
  Status loaded = LoadSnapshot(snapshot_path_, &accounts, &snapshot_bytes);
  if (!loaded.ok()) {
    return Status::InvalidArgument(snapshot_path_ + ": " + loaded.message());
  }
  uint64_t committed = 0;
  uint64_t journal_size = 0;
  loaded = ReplayJournal(journal_path_, &accounts, &committed, &journal_size);
  if (!loaded.ok()) {
    return Status::InvalidArgument(journal_path_ + ": " + loaded.message());
  }
  snapshot_bytes_ = snapshot_bytes;
  if (journal_size > committed) {
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
  return ledger_->Restore(std::move(accounts));
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
