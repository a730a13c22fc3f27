#include "util/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/string_util.h"

namespace geopriv {
namespace fault_injection {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

// The fault-point catalog.  Every GEOPRIV_INJECT_FAULT / Fire site in the
// tree must appear here: arming validates names against this list, and
// docs/SERVICE.md documents the same catalog.  Keep both in sync.
constexpr const char* kCatalog[] = {
    "cache.basis.rename",  // mechanism_cache: before renaming tmp -> .basis
    "cache.basis.write",   // mechanism_cache: mid-write of a basis tmp file
    "cache.entry.rename",  // mechanism_cache: before renaming tmp -> .entry
    "cache.entry.write",   // mechanism_cache: mid-write of an entry tmp file
    "cache.evict.unlink",  // mechanism_cache: before each eviction unlink
    "cache.manifest.rename",  // mechanism_cache: before tmp -> manifest
    "cache.manifest.write",   // mechanism_cache: mid-write of manifest tmp
    "io.save.write",       // core/io: before a mechanism file write
    "ledger.append",       // ledger_store: mid-append of a journal record
    "ledger.fsync",        // ledger_store: journal written, before fdatasync
    "ledger.rename",       // ledger_store: before renaming snapshot tmp
    "ledger.write",        // ledger_store: mid-write of the snapshot tmp
    "server.accept",       // server: after accepting a TCP client
    "server.recv",         // server: before each recv on a client socket
    "server.send",         // server: before each send on a client socket
};

enum class Action { kFail, kDelay, kAbort };

struct ArmedPoint {
  Action action = Action::kFail;
  long delay_ms = 0;   // for kDelay
  long after = 1;      // 1-based hit index at which the action triggers
  long hits = 0;       // hits recorded so far
};

std::mutex g_mu;
std::map<std::string, ArmedPoint>& Points() {
  static std::map<std::string, ArmedPoint>* points =
      new std::map<std::string, ArmedPoint>();
  return *points;
}

bool IsKnownPoint(const std::string& name) {
  for (const char* known : kCatalog) {
    if (name == known) return true;
  }
  return false;
}

// Parses one "point=action[:arg][@N]" clause into (name, point).
Status ParseClause(const std::string& clause, std::string* name,
                   ArmedPoint* point) {
  const size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("fault clause is not 'point=action': '" +
                                   clause + "'");
  }
  *name = clause.substr(0, eq);
  if (!IsKnownPoint(*name)) {
    return Status::InvalidArgument("unknown fault point '" + *name + "'");
  }
  std::string action = clause.substr(eq + 1);
  point->after = 1;
  const size_t at = action.find('@');
  if (at != std::string::npos) {
    int after = 0;
    if (!ParseIntStrict(action.substr(at + 1), &after) || after < 1) {
      return Status::InvalidArgument("bad fault trigger count in '" + clause +
                                     "'");
    }
    point->after = after;
    action.resize(at);
  }
  if (action == "fail") {
    point->action = Action::kFail;
  } else if (action == "abort") {
    point->action = Action::kAbort;
  } else if (action.rfind("delay:", 0) == 0) {
    int ms = 0;
    if (!ParseIntStrict(action.substr(6), &ms) || ms < 0 || ms > 60000) {
      return Status::InvalidArgument("bad fault delay in '" + clause + "'");
    }
    point->action = Action::kDelay;
    point->delay_ms = ms;
  } else {
    return Status::InvalidArgument("unknown fault action in '" + clause +
                                   "' (want fail, delay:MS or abort)");
  }
  return Status::OK();
}

}  // namespace

Status Fire(const char* point) {
  Action action;
  long delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = Points().find(point);
    if (it == Points().end()) return Status::OK();
    ArmedPoint& armed = it->second;
    ++armed.hits;
    if (armed.hits < armed.after) return Status::OK();
    action = armed.action;
    delay_ms = armed.delay_ms;
  }
  switch (action) {
    case Action::kFail:
      return Status::Internal(std::string("injected fault at '") + point +
                              "'");
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return Status::OK();
    case Action::kAbort:
      // A faithful crash: no stdio flush, no destructors, no persistence
      // hooks — exactly what a SIGKILL or power loss leaves behind.
      std::abort();
  }
  return Status::OK();
}

Status ArmFromSpec(const std::string& spec) {
  std::map<std::string, ArmedPoint> parsed;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(begin, end - begin);
    if (!clause.empty()) {
      std::string name;
      ArmedPoint point;
      GEOPRIV_RETURN_IF_ERROR(ParseClause(clause, &name, &point));
      parsed[name] = point;
    }
    begin = end + 1;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  Points() = std::move(parsed);
  internal::g_armed.store(!Points().empty(), std::memory_order_relaxed);
  return Status::OK();
}

Status ArmFromEnv() {
  const char* spec = std::getenv("GEOPRIV_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return ArmFromSpec(spec);
}

void Disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  Points().clear();
  internal::g_armed.store(false, std::memory_order_relaxed);
}

long HitCount(const std::string& point) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = Points().find(point);
  return it == Points().end() ? 0 : it->second.hits;
}

std::vector<std::string> KnownPoints() {
  std::vector<std::string> points(std::begin(kCatalog), std::end(kCatalog));
  std::sort(points.begin(), points.end());
  return points;
}

}  // namespace fault_injection
}  // namespace geopriv
