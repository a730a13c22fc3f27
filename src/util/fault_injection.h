// Fault injection: named failure points for crash/robustness testing.
//
// Every state-mutating path in the service (core/io writes, cache entry
// persistence, the ledger journal and snapshot, the server's socket calls) passes
// through a named fault point.  In production the registry is empty and a
// fault point costs one relaxed atomic load — the same price as the
// iteration-budget check in the simplex loop.  Under test, a spec string
// (from the GEOPRIV_FAULTS environment variable or the daemon's --fault
// flag) arms individual points to fail, delay, or abort the process, so
// the crash-recovery harness (tests/fault_injection_test.cc and the CI
// fault-injection smoke job) can prove the write-then-rename persistence
// paths really are crash-consistent instead of asserting it.
//
// Spec grammar (comma-separated, each clause arms one point):
//
//   point=fail            every hit returns Status::Internal
//   point=fail@N          hits >= N fail (1-based; earlier hits pass)
//   point=delay:MS        every hit sleeps MS milliseconds, then passes
//   point=abort           the first hit calls std::abort() (no flush, no
//   point=abort@N         cleanup — a faithful crash), or the Nth with @N
//
// Point names are validated against the registered catalog (KnownPoints)
// so a typo in a test script is an error, not a silently disarmed fault.

#ifndef GEOPRIV_UTIL_FAULT_INJECTION_H_
#define GEOPRIV_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <string>
#include <vector>

#include "util/status.h"

namespace geopriv {
namespace fault_injection {

namespace internal {
// True iff at least one fault point is armed.  Inline so the disabled
// fast path compiles to a single relaxed load at every injection site.
extern std::atomic<bool> g_armed;
}  // namespace internal

/// True iff any fault point is armed (fast path; relaxed load).
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Records a hit on `point`.  Returns OK unless the point is armed with a
/// `fail` action whose trigger count has been reached; `delay` sleeps and
/// returns OK; `abort` calls std::abort() and does not return.  `point`
/// must be a registered catalog name (enforced at arm time, not here).
Status Fire(const char* point);

/// Arms fault points from a spec string (grammar above).  Rejects unknown
/// point names, unknown actions and malformed counts/durations; on error
/// nothing is armed.  Replaces any previously armed spec.
Status ArmFromSpec(const std::string& spec);

/// Arms from the GEOPRIV_FAULTS environment variable; no-op when unset.
Status ArmFromEnv();

/// Disarms every fault point (tests call this in teardown).
void Disarm();

/// Number of times `point` has fired since it was armed (0 if not armed).
long HitCount(const std::string& point);

/// The registered fault-point catalog, sorted.
std::vector<std::string> KnownPoints();

}  // namespace fault_injection
}  // namespace geopriv

/// Injection site for Status-returning code: records a hit on `point` and
/// propagates an injected failure to the caller.  Disabled cost: one
/// relaxed atomic load.
#define GEOPRIV_INJECT_FAULT(point)                                        \
  do {                                                                     \
    if (::geopriv::fault_injection::Armed()) {                             \
      GEOPRIV_RETURN_IF_ERROR(::geopriv::fault_injection::Fire(point));    \
    }                                                                      \
  } while (0)

#endif  // GEOPRIV_UTIL_FAULT_INJECTION_H_
