// Per-consumer privacy-budget accounting for the mechanism service.
//
// Every release the service grants a consumer weakens that consumer's
// guarantee about the database: k independent releases at levels
// alpha_1..alpha_k compose to the product (ComposeSequential), while the
// releases inside one Algorithm-1 chain cost only their best level
// (ComposeChained, Lemma 4).  The ledger tracks both streams per consumer:
//
//   composed level = ComposeSequential(independent releases)
//                    x ComposeChained(chained releases)   (when any exist)
//
// and enforces a floor: a configured budget alpha_B below which no
// consumer's composed level may drop (alpha = e^-eps, so a *lower* alpha
// is a *weaker* guarantee — the floor caps cumulative epsilon at
// -ln(alpha_B)).  A query that would cross the floor is rejected and NOT
// charged; the decision reports the exact level the release would have
// composed to, so the consumer can renegotiate instead of guessing.
//
// Thread-safe; composition arithmetic delegates to core/accounting.h so
// the ledger can never drift from the library's composition semantics.

#ifndef GEOPRIV_SERVICE_BUDGET_LEDGER_H_
#define GEOPRIV_SERVICE_BUDGET_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace geopriv {

/// Outcome of a charge (or preview): whether the release fits the budget
/// and the exact arithmetic behind the answer.
struct BudgetDecision {
  bool allowed = false;
  double composed_level = 1.0;  ///< level after the proposed release
  double current_level = 1.0;   ///< level before it
  double budget = 0.0;          ///< the configured floor
};

class BudgetLedger {
 public:
  /// `budget_alpha` is the floor in [0, 1]; 0 admits everything (the
  /// ledger still tracks levels).  Values outside [0, 1] are clamped.
  explicit BudgetLedger(double budget_alpha = 0.0);

  /// Records a release at level `alpha` for `consumer` if it fits the
  /// budget; otherwise leaves the account untouched.  `chained` marks the
  /// release as part of the consumer's Algorithm-1 chain (min-composition)
  /// rather than an independent release (product-composition).  Fails on
  /// alpha outside [0, 1]; an over-budget query is NOT a failure — it
  /// returns allowed == false with the exact composed level.
  Result<BudgetDecision> Charge(const std::string& consumer, double alpha,
                                bool chained = false);

  /// Atomically records `k` independent releases at level `alpha` — the
  /// multi-sample query's charge.  The k levels are folded sequentially
  /// (the same left-fold k Charge calls would run, bit for bit; k == 1
  /// IS Charge), and because sequential composition never raises a
  /// level, checking the final composed level against the budget admits
  /// exactly the set of k-step sequences whose every step fits.  All k
  /// releases are admitted together or the account is left untouched:
  /// a K-sample query never partially releases.
  Result<BudgetDecision> ChargeMany(const std::string& consumer,
                                    double alpha, uint64_t k);

  /// Same arithmetic as Charge without recording anything.
  Result<BudgetDecision> Preview(const std::string& consumer, double alpha,
                                 bool chained = false) const;

  /// The consumer's current composed level (1.0 for unknown consumers).
  double Level(const std::string& consumer) const;

  /// Number of releases charged to `consumer` so far.
  uint64_t Releases(const std::string& consumer) const;

  double budget() const { return budget_; }

  /// One consumer's composed state, for persistence snapshots.  The
  /// ledger keeps running aggregates, not release histories: the product
  /// (ComposeSequential is a left fold of products) and the min
  /// (ComposeChained) compose new releases in O(1) with bit-identical
  /// results, and accounts stay bounded no matter how long a consumer
  /// lives.
  struct AccountSnapshot {
    std::string consumer;
    double independent_level = 1.0;    ///< Πα over independent releases
    uint64_t independent_releases = 0;
    double chained_level = 1.0;        ///< min α over the chain (1 if none)
    uint64_t chained_releases = 0;
  };

  /// Number of consumers with an account (O(1); no snapshot copy).
  size_t size() const;

  /// One consumer's account (the fresh-account state when unknown) — the
  /// absolute state a ledger journal record carries.
  AccountSnapshot Get(const std::string& consumer) const;

  /// Every account, sorted by consumer name (deterministic files).  The
  /// daemon persists this next to the solve cache so spent budget
  /// survives restarts — otherwise the floor would reset with the process
  /// and cumulative epsilon would be unbounded across restarts.
  std::vector<AccountSnapshot> Snapshot() const;

  /// One consumer's running aggregates, as the ledger keeps them.
  struct Account {
    double independent_level = 1.0;
    uint64_t independent_releases = 0;
    double chained_level = 1.0;
    uint64_t chained_releases = 0;
  };
  using Accounts = std::unordered_map<std::string, Account>;

  /// Makes `accounts` the ledger's state (moved in, not copied).  Fails
  /// (leaving the ledger untouched) when any recorded level is outside
  /// [0, 1].
  Status Restore(Accounts accounts);

 private:
  /// The account's per-stream levels with the proposed alpha folded into
  /// the selected stream (no fold when alpha < 0).  The admission check
  /// AND the state recorded on success both come from this one
  /// computation, so decision and ledger can never diverge.
  struct FoldedLevels {
    double independent = 1.0;
    double chained = 1.0;
  };
  static Result<FoldedLevels> Fold(const Account& account, double alpha,
                                   bool chained);

  /// The full admission decision for one proposed release — Charge and
  /// Preview share this one implementation (differing only in whether the
  /// folded levels get recorded), so their arithmetic cannot drift.
  Result<FoldedLevels> Decide(const Account& account, double alpha,
                              bool chained, BudgetDecision* decision) const;

  double budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Account> accounts_;
};

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_BUDGET_LEDGER_H_
