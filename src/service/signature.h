// Canonical problem signatures for the mechanism service.
//
// A signature names one solvable problem: "the optimal alpha-DP mechanism
// for database size n, loss l and side information {lo..hi}" (kExactOptimal,
// the Section 2.5 optimum, served as G_{n,alpha} followed by the consumer's
// optimal interaction: Theorem 1) or "the range-restricted geometric
// mechanism G_{n,alpha}" (kGeometric, Definition 4's closed form).  Two
// textually different requests that mean the same problem must collide, so
// Create canonicalizes: alpha is reduced to lowest terms, the loss name to
// its catalog spelling, and the side interval validated against n.
//
// Two derived keys drive the solve cache (mechanism_cache.h):
//   * CanonicalKey() — the full identity; the cache's map key and the
//     persistence filename stem.
//   * StructuralKey() — only the parts that fix the LP's *shape* (n, side,
//     mode).  It selects the cache shard, so structurally identical
//     problems (same LP rows/columns, different alpha or loss) colocate
//     and a miss can warm-start from a neighbor without leaving its shard.
// Create builds the canonical key once; the structural key is its prefix.
// A cached query consults the key several times (executor check, batch
// grouping, cache lookup, reply), and none of them rebuilds it.

#ifndef GEOPRIV_SERVICE_SIGNATURE_H_
#define GEOPRIV_SERVICE_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/consumer.h"
#include "core/optimal_exact.h"
#include "exact/rational.h"
#include "util/result.h"

namespace geopriv {

/// Which family of mechanisms a signature asks the service for.
enum class ServeMode {
  kExactOptimal,  ///< per-consumer optimum: G_{n,alpha}·T* (Theorem 1)
  kGeometric,     ///< G_{n,alpha} (closed form; no LP solve)
};

/// Parses "exact" / "geometric"; fails on anything else.
Result<ServeMode> ServeModeFromString(const std::string& text);
const char* ServeModeName(ServeMode mode);

/// The canonical identity of one servable problem.  Construct only through
/// Create so the canonicalization invariants hold: the fields are never
/// modified afterwards, and the key Create stored is the one they spell.
struct MechanismSignature {
  int n = 0;
  Rational alpha;        ///< lowest terms, in [0, 1] ((0, 1) for geometric)
  std::string loss;      ///< "absolute" | "squared" | "zero-one"
  int lo = 0;            ///< side information S = {lo..hi}
  int hi = 0;
  ServeMode mode = ServeMode::kExactOptimal;

  /// Validates and canonicalizes.  `loss_name` accepts the CLI spellings
  /// ("zeroone" == "zero-one"); lo/hi must satisfy 0 <= lo <= hi <= n.
  static Result<MechanismSignature> Create(int n, Rational alpha,
                                           const std::string& loss_name,
                                           int lo, int hi, ServeMode mode);

  /// Full identity, e.g. "mode=exact;n=8;side=0..8;loss=absolute;alpha=1/2".
  /// Built by Create; empty for a default-constructed signature.
  const std::string& CanonicalKey() const { return canonical_key_; }

  /// Shape-only prefix, e.g. "mode=exact;n=8;side=0..8" — everything that
  /// fixes the LP's rows and columns, i.e. the warm-start compatibility
  /// class (ExactSimplexOptions::warm_start requires structural identity).
  /// A view into CanonicalKey(), valid while this signature is.
  std::string_view StructuralKey() const {
    return std::string_view(canonical_key_).substr(0, structural_size_);
  }

  bool operator==(const MechanismSignature& o) const {
    return mode == o.mode && n == o.n && lo == o.lo && hi == o.hi &&
           loss == o.loss && alpha == o.alpha;
  }

  /// The exact loss function the canonical name denotes.
  Result<ExactLossFunction> ResolveLoss() const;

  /// The side-information set {lo..hi}.
  Result<SideInformation> ResolveSide() const;

 private:
  std::string canonical_key_;
  size_t structural_size_ = 0;  ///< length of the StructuralKey prefix
};

/// FNV-1a over the key bytes: stable across platforms and restarts (unlike
/// std::hash), so shard selection and persistence filenames never move
/// between runs.
uint64_t SignatureHash(std::string_view key);

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_SIGNATURE_H_
