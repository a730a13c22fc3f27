// Quickstart: answer one count query with the geometric mechanism.
//
// This is the smallest end-to-end use of the library:
//   1. build a database and a count query,
//   2. deploy the α-geometric mechanism (Definition 4 of the paper),
//   3. release a perturbed count,
//   4. verify the differential-privacy guarantee programmatically.
//
// Run:  ./build/example_quickstart

#include <cstdio>

#include "core/geopriv.h"

namespace {

int Run() {
  using namespace geopriv;

  // 1. A tiny medical table and the query "how many patients have the flu".
  Schema schema({{"name", Column::Type::kString},
                 {"has_flu", Column::Type::kBool}});
  Table table(schema);
  for (const auto& [name, flu] :
       std::initializer_list<std::pair<const char*, bool>>{
           {"ada", true}, {"bob", false}, {"cyd", true},
           {"dee", false}, {"eli", false}}) {
    Status s = table.Append({std::string(name), flu});
    if (!s.ok()) {
      std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  CountQuery query(Predicate::Equals("has_flu", true));
  Result<int64_t> truth = query.Evaluate(table);
  if (!truth.ok()) return 1;
  const int n = static_cast<int>(table.size());
  std::printf("database size n = %d, true count = %lld\n", n,
              static_cast<long long>(*truth));

  // 2. Deploy the geometric mechanism at privacy level alpha = 0.5
  //    (equivalently epsilon = ln 2).
  const double alpha = 0.5;
  Result<GeometricMechanism> geo = GeometricMechanism::Create(n, alpha);
  if (!geo.ok()) return 1;

  // 3. Release a perturbed count.
  Xoshiro256 rng(/*seed=*/20260613);
  Result<int> released = geo->Sample(static_cast<int>(*truth), rng);
  if (!released.ok()) return 1;
  std::printf("released (perturbed) count at alpha = %.2f: %d\n", alpha,
              *released);

  // 4. Verify the guarantee on the full mechanism matrix.
  Result<Mechanism> mechanism = geo->ToMechanism();
  if (!mechanism.ok()) return 1;
  Result<PrivacyCheck> check = CheckDifferentialPrivacy(*mechanism, alpha);
  if (!check.ok()) return 1;
  std::printf("mechanism is %.2f-differentially private: %s\n", alpha,
              check->is_private ? "yes" : "NO (bug!)");
  std::printf("strongest alpha it satisfies: %.6f\n",
              StrongestAlpha(*mechanism));
  std::printf("\nmechanism matrix (rows = true count, cols = output):\n%s",
              mechanism->ToString().c_str());
  return 0;
}

}  // namespace

int main() { return Run(); }
