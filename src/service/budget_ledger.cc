#include "service/budget_ledger.h"

#include <algorithm>
#include <utility>

#include "core/accounting.h"

namespace geopriv {

BudgetLedger::BudgetLedger(double budget_alpha)
    : budget_(std::min(1.0, std::max(0.0, budget_alpha))) {}

Result<BudgetLedger::FoldedLevels> BudgetLedger::Fold(const Account& account,
                                                      double alpha,
                                                      bool chained) {
  // Delegate every fold to core/accounting.h so the ledger can never
  // drift from the library's composition semantics.  Folding one release
  // at a time into the running aggregates is bit-identical to composing
  // the full history: ComposeSequential is the same left-fold of
  // products, and min is associative.
  FoldedLevels folded{account.independent_level, account.chained_level};
  if (alpha >= 0.0) {
    if (chained) {
      GEOPRIV_ASSIGN_OR_RETURN(
          folded.chained, account.chained_releases == 0
                              ? Result<double>(alpha)
                              : ComposeChained({folded.chained, alpha}));
    } else {
      GEOPRIV_ASSIGN_OR_RETURN(
          folded.independent, ComposeSequential({folded.independent, alpha}));
    }
  }
  return folded;
}

Result<BudgetLedger::FoldedLevels> BudgetLedger::Decide(
    const Account& account, double alpha, bool chained,
    BudgetDecision* decision) const {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("release level alpha must lie in [0, 1]");
  }
  decision->budget = budget_;
  decision->current_level =
      account.independent_level * account.chained_level;
  GEOPRIV_ASSIGN_OR_RETURN(FoldedLevels folded,
                           Fold(account, alpha, chained));
  decision->composed_level = folded.independent * folded.chained;
  decision->allowed = decision->composed_level >= budget_;
  return folded;
}

Result<BudgetDecision> BudgetLedger::Charge(const std::string& consumer,
                                            double alpha, bool chained) {
  std::lock_guard<std::mutex> lock(mu_);
  // No account is created for a rejected (or malformed) charge: a stream
  // of unique rejected consumer names must not grow ledger state — and
  // the persisted file — without bound.
  static const Account kEmpty;
  auto it = accounts_.find(consumer);
  const Account& account = it == accounts_.end() ? kEmpty : it->second;
  BudgetDecision decision;
  GEOPRIV_ASSIGN_OR_RETURN(FoldedLevels folded,
                           Decide(account, alpha, chained, &decision));
  if (decision.allowed) {
    // Record exactly what was admitted — the same fold, not a re-derivation.
    Account& stored =
        it == accounts_.end() ? accounts_[consumer] : it->second;
    stored.independent_level = folded.independent;
    stored.chained_level = folded.chained;
    ++(chained ? stored.chained_releases : stored.independent_releases);
  }
  return decision;
}

Result<BudgetDecision> BudgetLedger::ChargeMany(const std::string& consumer,
                                                double alpha, uint64_t k) {
  if (k == 0) {
    return Status::InvalidArgument(
        "a multi-release charge must cover at least one release");
  }
  if (k == 1) return Charge(consumer, alpha);
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("release level alpha must lie in [0, 1]");
  }
  std::lock_guard<std::mutex> lock(mu_);
  static const Account kEmpty;
  auto it = accounts_.find(consumer);
  const Account& account = it == accounts_.end() ? kEmpty : it->second;
  BudgetDecision decision;
  decision.budget = budget_;
  decision.current_level =
      account.independent_level * account.chained_level;
  // Fold the k releases one product at a time: the identical left-fold k
  // sequential Charge calls run (Fold's ComposeSequential({level, alpha})
  // is exactly level * alpha for levels in [0, 1]), so an admitted
  // ChargeMany leaves the account bit-identical to k admitted Charges.
  double independent = account.independent_level;
  for (uint64_t j = 0; j < k; ++j) independent *= alpha;
  decision.composed_level = independent * account.chained_level;
  decision.allowed = decision.composed_level >= budget_;
  if (decision.allowed) {
    Account& stored =
        it == accounts_.end() ? accounts_[consumer] : it->second;
    stored.independent_level = independent;
    stored.independent_releases += k;
  }
  return decision;
}

Result<BudgetDecision> BudgetLedger::Preview(const std::string& consumer,
                                             double alpha,
                                             bool chained) const {
  std::lock_guard<std::mutex> lock(mu_);
  static const Account kEmpty;
  auto it = accounts_.find(consumer);
  const Account& account = it == accounts_.end() ? kEmpty : it->second;
  BudgetDecision decision;
  GEOPRIV_RETURN_IF_ERROR(
      Decide(account, alpha, chained, &decision).status());
  return decision;
}

double BudgetLedger::Level(const std::string& consumer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(consumer);
  if (it == accounts_.end()) return 1.0;
  return it->second.independent_level * it->second.chained_level;
}

uint64_t BudgetLedger::Releases(const std::string& consumer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(consumer);
  if (it == accounts_.end()) return 0;
  return it->second.independent_releases + it->second.chained_releases;
}

size_t BudgetLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accounts_.size();
}

BudgetLedger::AccountSnapshot BudgetLedger::Get(
    const std::string& consumer) const {
  std::lock_guard<std::mutex> lock(mu_);
  AccountSnapshot out;
  out.consumer = consumer;
  auto it = accounts_.find(consumer);
  if (it != accounts_.end()) {
    out.independent_level = it->second.independent_level;
    out.independent_releases = it->second.independent_releases;
    out.chained_level = it->second.chained_level;
    out.chained_releases = it->second.chained_releases;
  }
  return out;
}

std::vector<BudgetLedger::AccountSnapshot> BudgetLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AccountSnapshot> out;
  out.reserve(accounts_.size());
  for (const auto& [consumer, account] : accounts_) {
    out.push_back({consumer, account.independent_level,
                   account.independent_releases, account.chained_level,
                   account.chained_releases});
  }
  std::sort(out.begin(), out.end(),
            [](const AccountSnapshot& a, const AccountSnapshot& b) {
              return a.consumer < b.consumer;
            });
  return out;
}

Status BudgetLedger::Restore(Accounts accounts) {
  for (const auto& [consumer, account] : accounts) {
    if (!(account.independent_level >= 0.0 &&
          account.independent_level <= 1.0 &&
          account.chained_level >= 0.0 && account.chained_level <= 1.0)) {
      return Status::InvalidArgument(
          "persisted ledger holds a level outside [0, 1] for consumer '" +
          consumer + "'");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  accounts_ = std::move(accounts);
  return Status::OK();
}

}  // namespace geopriv
