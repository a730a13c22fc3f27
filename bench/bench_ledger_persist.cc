// Ledger persistence cost per charge as the ledger grows.
//
// ChargePersist is what a charging query pays before its reply may leave:
// the charge, one journal record appended, and the group-commit sync
// (an fdatasync when nothing else covers it), plus whatever compactions
// the data trigger fires along the way.  It must stay flat in the number
// of consumers: the journal record is one account, and a compaction is
// due only once the journal has grown to the snapshot's size, so its
// cost per record is Compact/consumers.
//
// Compact is one snapshot rewrite (write, fsync, rename, directory fsync)
// — the O(consumers) work the service used to do on every charged reply.
//
// Load is a restart's ledger replay: LedgerStore::Load of the compacted
// snapshot into a fresh ledger — what the daemon does before it answers
// anything.
//
// The state lives under the system temp directory; point TMPDIR at the
// disk whose sync cost you want to measure (tmpfs makes syncs free).

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "service/ledger_store.h"

namespace {

using namespace geopriv;

std::string ConsumerName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "consumer-%08zu", i);
  return buf;
}

void RunAtSize(bench::Harness& harness, size_t consumers) {
  namespace fs = std::filesystem;
  const std::string dir = fs::temp_directory_path().string() +
                          "/geopriv_bench_ledger_" + std::to_string(consumers);
  fs::remove_all(dir);
  std::vector<std::string> names;
  names.reserve(consumers);
  BudgetLedger ledger;
  for (size_t i = 0; i < consumers; ++i) {
    names.push_back(ConsumerName(i));
    (void)ledger.Charge(names.back(), 0.5);
  }
  LedgerStore store(&ledger, dir);
  if (!store.Compact().ok()) {
    std::fprintf(stderr, "cannot write the initial snapshot under %s\n",
                 dir.c_str());
    std::exit(1);
  }
  const std::string label = "/consumers=" + std::to_string(consumers);

  size_t next = 0;
  harness.Run("ChargePersist" + label, [&] {
    const std::string& consumer = names[next++ % consumers];
    (void)ledger.Charge(consumer, 0.999999);
    auto ticket = store.Append({&consumer});
    if (!ticket.ok() || !store.Sync(*ticket).ok()) {
      std::fprintf(stderr, "ledger persist failed\n");
      std::exit(1);
    }
  });
  harness.Run(
      "Compact" + label,
      [&] {
        if (!store.Compact().ok()) {
          std::fprintf(stderr, "ledger compaction failed\n");
          std::exit(1);
        }
      },
      {/*repetitions=*/5, /*warmup=*/1, /*min_rep_ms=*/0.0,
       /*budget_ms=*/-1.0});
  // The last compaction left only the snapshot: every account, no journal.
  harness.Run("Load" + label, [&] {
    BudgetLedger loaded;
    LedgerStore reader(&loaded, dir);
    if (!reader.Load().ok() || loaded.size() != consumers) {
      std::fprintf(stderr, "ledger load failed\n");
      std::exit(1);
    }
  });
  fs::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  geopriv::bench::Harness harness("bench_ledger_persist", argc, argv);
  for (size_t consumers : {100u, 10000u, 100000u}) {
    RunAtSize(harness, consumers);
  }
  return harness.Finish();
}
