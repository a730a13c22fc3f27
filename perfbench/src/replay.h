// In-process replay of a workload through the library's public calls,
// with spans around each call.
//
// Each request of the traced round is replayed three ways, each on its
// own MechanismService built from the workload's daemon flags:
//   * decomposed: one parent span per request and one child span per
//     layer call in pipeline order — ParseRequestLine,
//     MechanismSignature::Create + CanonicalKey, MechanismCache::GetOrSolve,
//     BudgetLedger::ChargeMany, Mechanism::SampleBatch/SampleRuns,
//     MechanismService::Persist (persisting workloads), AppendQueryReply;
//   * QueryPipeline::ExecuteBatch on the single query;
//   * MechanismService::HandleLine on the raw line.
// Every exact signature is also solved cold with SolveOptimalMechanismExact
// (G_{n,alpha} with ExactWorstCaseLoss for geometric ones), and the wire's
// exact loss must equal it under operator==.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wire.h"
#include "workload.h"

namespace perfbench {

/// One timed interval.  Spans of one request share `request`; `parent` is
/// the index of the enclosing span (kNoParent for roots).
struct Span {
  static constexpr uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  void Add(const char* name, uint32_t parent, uint64_t request,
           int64_t start_ns, int64_t end_ns);
  void Rename(uint32_t id, const char* name) { spans_[id].name = name; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Per span name: calls, median, total and self time (duration minus
  /// what its children cover), as a printable table.
  std::string SelfTimeTable() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Replaces `to` with a recursive copy of `from`.
bool CopyState(const std::string& from, const std::string& to);

/// Builds the persisted state a persisting workload restores: its
/// signatures solved into the cache and one charge per consumer in the
/// ledger (`Workload::prepared_sig`).  Untimed.
bool PrepareState(const Workload& w, const std::string& dir,
                  std::string* error);

struct ReplayResult {
  std::map<std::string, double> metrics;  ///< per-layer metrics it owns
  int64_t failures = 0;
  std::string first_failure;
};

/// Replays the requests of the traced round that were sent (`phase`
/// holds their checked wire replies) in process.  `state_template` is the prepared state of a
/// persisting workload ("" otherwise); `work_dir` holds the copies.
ReplayResult Replay(const Workload& w, const std::vector<Request>& requests,
                    const PhaseResult& phase, const Checker& checker,
                    const std::string& state_template,
                    const std::string& work_dir, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
