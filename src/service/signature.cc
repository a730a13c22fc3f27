#include "service/signature.h"

#include <utility>

namespace geopriv {

Result<ServeMode> ServeModeFromString(const std::string& text) {
  if (text == "exact" || text.empty()) return ServeMode::kExactOptimal;
  if (text == "geometric") return ServeMode::kGeometric;
  return Status::InvalidArgument("unknown mode '" + text +
                                 "' (exact|geometric)");
}

const char* ServeModeName(ServeMode mode) {
  return mode == ServeMode::kGeometric ? "geometric" : "exact";
}

namespace {

Result<std::string> CanonicalLossName(const std::string& name) {
  if (name == "absolute" || name.empty()) return std::string("absolute");
  if (name == "squared") return std::string("squared");
  if (name == "zero-one" || name == "zeroone") return std::string("zero-one");
  return Status::InvalidArgument("unknown loss '" + name +
                                 "' (absolute|squared|zero-one)");
}

}  // namespace

Result<MechanismSignature> MechanismSignature::Create(
    int n, Rational alpha, const std::string& loss_name, int lo, int hi,
    ServeMode mode) {
  if (n < 0) return Status::InvalidArgument("n must be non-negative");
  if (alpha.IsNegative() || alpha > Rational(1)) {
    return Status::InvalidArgument("alpha must lie in [0, 1]");
  }
  if (mode == ServeMode::kGeometric && alpha == Rational(1)) {
    return Status::InvalidArgument(
        "geometric mode needs alpha < 1 (alpha == 1 has no mechanism)");
  }
  if (lo < 0 || hi < lo || hi > n) {
    return Status::InvalidArgument(
        "side interval must satisfy 0 <= lo <= hi <= n");
  }
  GEOPRIV_ASSIGN_OR_RETURN(std::string canonical_loss,
                           CanonicalLossName(loss_name));
  MechanismSignature sig;
  sig.n = n;
  sig.alpha = std::move(alpha);
  // Force the lazy reduction now so the key is lowest-terms even if alpha
  // arrived from arithmetic.
  (void)sig.alpha.numerator();
  sig.loss = std::move(canonical_loss);
  sig.lo = lo;
  sig.hi = hi;
  sig.mode = mode;
  std::string& key = sig.canonical_key_;
  key.reserve(64);
  key += "mode=";
  key += ServeModeName(mode);
  key += ";n=";
  key += std::to_string(n);
  key += ";side=";
  key += std::to_string(lo);
  key += "..";
  key += std::to_string(hi);
  sig.structural_size_ = key.size();
  key += ";loss=";
  key += sig.loss;
  key += ";alpha=";
  key += sig.alpha.ToString();
  return sig;
}

Result<ExactLossFunction> MechanismSignature::ResolveLoss() const {
  if (loss == "absolute") return ExactLossFunction::AbsoluteError();
  if (loss == "squared") return ExactLossFunction::SquaredError();
  if (loss == "zero-one") return ExactLossFunction::ZeroOne();
  return Status::Internal("non-canonical loss name '" + loss + "'");
}

Result<SideInformation> MechanismSignature::ResolveSide() const {
  return SideInformation::Interval(lo, hi, n);
}

uint64_t SignatureHash(std::string_view key) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (unsigned char c : key) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace geopriv
