#include "workload.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "exact/rational.h"
#include "rng/engine.h"
#include "service/signature.h"

namespace perfbench {

namespace {

using geopriv::Xoshiro256;

// The budget floor every workload runs under (see the --budget flags
// below).  Generators keep each consumer's level above 2^kMinLog2Level,
// far from the floor and from subnormal doubles, so no query is refused.
constexpr double kMinLog2Level = -900.0;

Signature MakeSig(int n, int lo, int hi, const std::string& alpha,
                  const std::string& loss, bool geometric) {
  Signature s;
  s.n = n;
  s.lo = lo;
  s.hi = hi;
  s.alpha = alpha;
  s.loss = loss;
  s.geometric = geometric;
  const geopriv::Rational a = *geopriv::Rational::FromString(alpha);
  s.alpha_value = a.ToDouble();
  geopriv::Result<geopriv::MechanismSignature> sig =
      geopriv::MechanismSignature::Create(
          n, a, loss, lo, hi,
          geometric ? geopriv::ServeMode::kGeometric
                    : geopriv::ServeMode::kExactOptimal);
  if (sig.ok()) s.key = sig->CanonicalKey();
  return s;
}

// Stream of round `round` (or of a set-up step) under `seed`.
Xoshiro256 Stream(uint64_t seed, uint64_t salt) {
  return Xoshiro256(seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL);
}

int Uniform(Xoshiro256& rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

std::vector<std::string> MakeConsumers(Xoshiro256& rng, int count) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(count));
  char buf[32];
  for (int i = 0; i < count; ++i) {
    // Fixed-width names: the ledger's size does not depend on the seed.
    std::snprintf(buf, sizeof(buf), "c%05d-%08llx", i,
                  static_cast<unsigned long long>(rng.Next() & 0xffffffffULL));
    names.emplace_back(buf);
  }
  return names;
}

// ---- hot_release ----------------------------------------------------------

void BuildHotRelease(Workload* w, Xoshiro256& rng) {
  w->flags = {"--threads", "1", "--workers", "2", "--budget", "1e-300"};
  w->open_loop = true;
  w->connections = 4;
  w->rate_qps = 10000.0;
  w->tail_window = 500;
  w->sigs = {
      MakeSig(5, 0, 5, "1/2", "squared", false),
      MakeSig(6, 0, 6, "1/3", "absolute", false),
      MakeSig(8, 2, 6, "1/2", "zero-one", false),
      MakeSig(10, 3, 8, "1/2", "absolute", false),
      // Same structural class as the one before it, so its prewarm is a
      // warm-started miss.
      MakeSig(10, 3, 8, "1/3", "absolute", false),
      MakeSig(12, 4, 9, "1/4", "zero-one", false),
      MakeSig(7, 0, 7, "1/2", "absolute", true),
      MakeSig(10, 2, 8, "2/3", "squared", true),
      MakeSig(12, 0, 12, "1/3", "zero-one", true),
  };
  for (int i = 0; i < static_cast<int>(w->sigs.size()); ++i) {
    w->setup_sigs.push_back(i);
  }
  w->consumers = MakeConsumers(rng, 4000);
  w->start_level.assign(w->consumers.size(), 1.0);
}

std::vector<Request> HotReleaseRound(const Workload& w, Xoshiro256& rng,
                                     double seconds) {
  // Popularity: a seeded permutation of a fixed skewed weight vector.
  std::vector<double> weights = {0.30, 0.22, 0.15, 0.11, 0.08,
                                 0.06, 0.04, 0.02, 0.02};
  for (size_t i = weights.size(); i > 1; --i) {
    std::swap(weights[i - 1], weights[rng.NextBounded(i)]);
  }
  std::vector<double> log2_level(w.consumers.size(), 0.0);
  std::vector<Request> out;
  const double mean_gap_ns = 1e9 / w.rate_qps;
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    if (t >= end_ns) break;
    Request r;
    r.due_ns = static_cast<int64_t>(t);
    double u = rng.NextDouble();
    r.sig = static_cast<int>(weights.size()) - 1;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (u < weights[i]) {
        r.sig = static_cast<int>(i);
        break;
      }
      u -= weights[i];
    }
    const Signature& s = w.sigs[static_cast<size_t>(r.sig)];
    r.consumer = Uniform(rng, 0, static_cast<int>(w.consumers.size()) - 1);
    r.conn = r.consumer % w.connections;
    r.count = Uniform(rng, 0, s.n);
    r.seed = rng.Next() >> 16;
    r.samples = rng.NextDouble() < 0.03 ? Uniform(rng, 20, 200) : 1;
    double& level = log2_level[static_cast<size_t>(r.consumer)];
    const double step = std::log2(s.alpha_value);
    if (level + step * r.samples < kMinLog2Level) r.samples = 1;
    if (level + step < kMinLog2Level) continue;  // retire the consumer
    level += step * r.samples;
    out.push_back(r);
  }
  return out;
}

// ---- ledger_churn ---------------------------------------------------------

void BuildLedgerChurn(Workload* w, Xoshiro256& rng) {
  w->flags = {"--threads", "1", "--workers", "2", "--budget", "1e-300"};
  w->persist = true;
  w->connections = 4;
  w->round_seconds = 2.0;
  w->sigs = {
      MakeSig(6, 0, 6, "1/2", "absolute", false),
      MakeSig(8, 2, 6, "1/3", "squared", false),
      MakeSig(9, 0, 9, "1/2", "absolute", true),
  };
  for (int i = 0; i < static_cast<int>(w->sigs.size()); ++i) {
    w->setup_sigs.push_back(i);
  }
  w->consumers = MakeConsumers(rng, 5000);
  for (size_t c = 0; c < w->consumers.size(); ++c) {
    const int sig = static_cast<int>(rng.NextBounded(w->sigs.size()));
    w->prepared_sig.push_back(sig);
    w->start_level.push_back(w->sigs[static_cast<size_t>(sig)].alpha_value);
  }
}

std::vector<Request> LedgerChurnRound(const Workload& w, Xoshiro256& rng) {
  // Every query charges a consumer no earlier query of the round charged;
  // consumer k of the permutation goes to connection k mod 4, so each
  // consumer's charges arrive in one connection's order.
  std::vector<int> order(w.consumers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<Request> out;
  out.reserve(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    Request r;
    r.consumer = order[k];
    r.conn = static_cast<int>(k % static_cast<size_t>(w.connections));
    r.sig = static_cast<int>(rng.NextBounded(w.sigs.size()));
    r.count = Uniform(rng, 0, w.sigs[static_cast<size_t>(r.sig)].n);
    r.seed = rng.Next() >> 16;
    out.push_back(r);
  }
  return out;
}

void AppendField(std::string* out, const char* key, long long value) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
}

std::string Line(const Signature& s, const std::string& consumer, int count,
                 uint64_t seed, int samples, bool trace) {
  std::string out = "{\"op\":\"query\",\"consumer\":\"" + consumer + "\"";
  AppendField(&out, "n", s.n);
  out += ",\"alpha\":\"" + s.alpha + "\",\"loss\":\"" + s.loss + "\"";
  AppendField(&out, "lo", s.lo);
  AppendField(&out, "hi", s.hi);
  out += s.geometric ? ",\"mode\":\"geometric\"" : ",\"mode\":\"exact\"";
  AppendField(&out, "count", count);
  AppendField(&out, "seed", static_cast<long long>(seed));
  if (samples > 1) AppendField(&out, "samples", samples);
  if (trace) out += ",\"trace\":true";
  out += "}";
  return out;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Xoshiro256 rng = Stream(seed, 0);
  if (name == "hot_release") {
    BuildHotRelease(&w, rng);
  } else if (name == "ledger_churn") {
    BuildLedgerChurn(&w, rng);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::vector<Request> Workload::RoundRequests(int round, double seconds) const {
  Xoshiro256 rng = Stream(seed, 1000 + static_cast<uint64_t>(round));
  if (name == "hot_release") return HotReleaseRound(*this, rng, seconds);
  return LedgerChurnRound(*this, rng);
}

std::string QueryLine(const Workload& w, const Request& r, bool trace) {
  return Line(w.sigs[static_cast<size_t>(r.sig)],
              w.consumers[static_cast<size_t>(r.consumer)], r.count, r.seed,
              r.samples, trace);
}

std::string SetupLine(const Workload& w, int sig, bool trace) {
  const Signature& s = w.sigs[static_cast<size_t>(sig)];
  return Line(s, "setup", s.lo, 1, 1, trace);
}

}  // namespace perfbench
