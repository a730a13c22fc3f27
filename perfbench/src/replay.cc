#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/geometric.h"
#include "core/optimal_exact.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_flags.h"
#include "service/signature.h"
#include "stats.h"
#include "util/arg_parser.h"

namespace perfbench {

namespace fs = std::filesystem;
using geopriv::MechanismService;
using geopriv::MechanismSignature;
using geopriv::Rational;
using geopriv::ServiceOptions;
using geopriv::ServiceQuery;
using geopriv::ServiceReply;
using geopriv::ServiceRequest;

// ---- Tracer ---------------------------------------------------------------

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  spans_.push_back(Span{name, parent, request, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t id) { spans_[id].end_ns = NowNs(); }

void Tracer::Add(const char* name, uint32_t parent, uint64_t request,
                 int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::string Tracer::SelfTimeTable() const {
  // Children of one parent run one after another, so the part of a span
  // its children cover is the sum of their durations.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent) covered[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::vector<double> us;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = rows.try_emplace(s.name);
    if (inserted) order.push_back(s.name);
    const int64_t dur = s.end_ns - s.start_ns;
    it->second.us.push_back(static_cast<double>(dur) / 1e3);
    it->second.total_ms += static_cast<double>(dur) / 1e6;
    it->second.self_ms += static_cast<double>(dur - covered[i]) / 1e6;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-30s %9s %12s %12s %12s\n", "span", "calls",
                "median_us", "total_ms", "self_ms");
  out += buf;
  for (const std::string& name : order) {
    Row& row = rows[name];
    std::snprintf(buf, sizeof(buf), "%-30s %9zu %12.3f %12.3f %12.3f\n",
                  name.c_str(), row.us.size(), Median(row.us), row.total_ms,
                  row.self_ms);
    out += buf;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":";
    if (s.parent == Span::kNoParent) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- services -------------------------------------------------------------

bool CopyState(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

namespace {

// The daemon's options, from the same flag table the daemon parses.
bool Options(const Workload& w, const std::string& persist_dir,
             ServiceOptions* out, std::string* error) {
  geopriv::ServiceFlags flags;
  geopriv::ArgParser parser;
  geopriv::RegisterServiceFlags(&parser, &flags);
  std::vector<std::string> args = {"replay"};
  args.insert(args.end(), w.flags.begin(), w.flags.end());
  if (!persist_dir.empty()) {
    args.push_back("--persist");
    args.push_back(persist_dir);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const geopriv::Status parsed =
      parser.Parse(static_cast<int>(argv.size()), argv.data(), 1);
  if (!parsed.ok()) {
    *error = parsed.ToString();
    return false;
  }
  *out = geopriv::ToServiceOptions(flags);
  return true;
}

// A fresh service for one replay: its own state copy, loaded, warmed.
std::unique_ptr<MechanismService> MakeService(const Workload& w,
                                              const std::string& state_template,
                                              const std::string& dir,
                                              double* load_ms,
                                              std::string* error) {
  std::string persist;
  if (!state_template.empty()) {
    if (!CopyState(state_template, dir)) {
      *error = "cannot copy state to " + dir;
      return nullptr;
    }
    persist = dir;
  }
  ServiceOptions options;
  if (!Options(w, persist, &options, error)) return nullptr;
  auto service = std::make_unique<MechanismService>(options);
  const int64_t t0 = NowNs();
  geopriv::Result<int> loaded = service->LoadPersisted();
  if (load_ms != nullptr) *load_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!loaded.ok()) {
    *error = loaded.status().ToString();
    return nullptr;
  }
  return service;
}

bool Ok(const std::string& reply) {
  return reply.find("\"ok\":true") != std::string::npos;
}

}  // namespace

bool PrepareState(const Workload& w, const std::string& dir,
                  std::string* error) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ServiceOptions options;
  if (!Options(w, dir, &options, error)) return false;
  MechanismService service(options);
  bool shutdown = false;
  for (int sig : w.setup_sigs) {
    if (!Ok(service.HandleLine(SetupLine(w, sig, false), &shutdown))) {
      *error = "preparing state: set-up query failed";
      return false;
    }
  }
  // One batch window per 4096 consumers: one ledger rewrite per batch.
  Request r;
  for (size_t c = 0; c < w.consumers.size(); c += 4096) {
    service.HandleLine("{\"op\":\"batch_begin\"}", &shutdown);
    for (size_t k = c; k < std::min(w.consumers.size(), c + 4096); ++k) {
      r.sig = w.prepared_sig[k];
      r.consumer = static_cast<int>(k);
      service.HandleLine(QueryLine(w, r, false), &shutdown);
    }
    const std::string replies = service.HandleLine("{\"op\":\"batch_end\"}", &shutdown);
    if (replies.find("\"ok\":false") != std::string::npos) {
      *error = "preparing state: a ledger charge failed";
      return false;
    }
  }
  const geopriv::Status persisted = service.Persist();
  if (!persisted.ok()) {
    *error = persisted.ToString();
    return false;
  }
  return true;
}

// ---- replay ---------------------------------------------------------------

namespace {

struct Replayer {
  const Workload& w;
  Tracer* tracer;
  MechanismService* service;
  ReplayResult* result;
  int64_t pivots_phase1 = 0;
  int64_t pivots_phase2 = 0;
  int64_t samples = 0;
  int64_t sample_ns = 0;

  void Fail(const std::string& why) {
    ++result->failures;
    if (result->first_failure.empty()) result->first_failure = why;
  }

  // One request through the layer calls, in pipeline order.  Returns the
  // released values (empty on failure).
  std::vector<int32_t> Run(const std::string& line, uint64_t id) {
    const uint32_t root = tracer->Begin("request", Span::kNoParent, id);
    uint32_t s = tracer->Begin("protocol.parse", root, id);
    geopriv::Result<ServiceRequest> parsed = geopriv::ParseRequestLine(line);
    tracer->End(s);
    if (!parsed.ok()) {
      Fail("in-process parse failed: " + parsed.status().ToString());
      return {};
    }
    const ServiceQuery& q = parsed->query;

    s = tracer->Begin("signature.key", root, id);
    geopriv::Result<MechanismSignature> sig = MechanismSignature::Create(
        q.signature.n, q.signature.alpha, q.signature.loss, q.signature.lo,
        q.signature.hi, q.signature.mode);
    const std::string key = sig.ok() ? sig->CanonicalKey() : std::string();
    tracer->End(s);
    if (!sig.ok() || key != q.signature.CanonicalKey()) {
      Fail("in-process signature differs from the parsed one");
      return {};
    }

    s = tracer->Begin("mechanism_cache.get", root, id);
    bool hit = false;
    auto entry = service->cache().GetOrSolve(*sig, &hit);
    tracer->End(s);
    if (!entry.ok()) {
      Fail("in-process GetOrSolve failed: " + entry.status().ToString());
      return {};
    }
    const geopriv::ServedMechanism& served = **entry;
    if (hit) {
      tracer->Rename(s, "mechanism_cache.hit");
    } else {
      tracer->Rename(s, served.warm_started ? "mechanism_cache.miss_warm"
                                            : "mechanism_cache.miss_cold");
      pivots_phase1 += served.phase1_iterations;
      pivots_phase2 += served.phase2_iterations;
    }

    s = tracer->Begin("budget_ledger.charge", root, id);
    auto decision = service->ledger().ChargeMany(
        q.consumer, q.signature.alpha.ToDouble(), static_cast<uint64_t>(q.samples));
    tracer->End(s);
    if (!decision.ok() || !decision->allowed) {
      Fail("in-process charge refused");
      return {};
    }

    std::vector<int32_t> released(static_cast<size_t>(q.samples));
    s = tracer->Begin("batch_sampler.sample", root, id);
    geopriv::Status sampled;
    if (q.samples == 1) {
      sampled = served.mechanism.SampleBatch(&q.seed, q.true_count, 1,
                                             released.data());
    } else {
      const int32_t count = q.samples;
      const size_t offset = 0;
      sampled = served.mechanism.SampleRuns(&q.seed, &count, &offset,
                                            q.true_count, 1, released.data());
    }
    tracer->End(s);
    sample_ns += tracer->spans()[s].end_ns - tracer->spans()[s].start_ns;
    samples += q.samples;
    if (!sampled.ok()) {
      Fail("in-process sampling failed");
      return {};
    }

    if (w.persist) {
      s = tracer->Begin("server.persist", root, id);
      const geopriv::Status persisted = service->Persist();
      tracer->End(s);
      if (!persisted.ok()) Fail("in-process persist failed");
    }

    s = tracer->Begin("protocol.format", root, id);
    ServiceReply reply;
    reply.released = released[0];
    if (q.samples > 1) reply.released_values = released;
    reply.level_after = decision->composed_level;
    reply.composed_level = decision->composed_level;
    reply.budget = decision->budget;
    reply.optimal_loss = served.loss;
    reply.cache = hit ? "hit" : (served.warm_started ? "warm" : "cold");
    reply.charged = true;
    std::string out;
    geopriv::AppendQueryReply(q, reply, &out);
    tracer->End(s);
    tracer->End(root);
    return released;
  }
};

// Exact loss of `s` solved cold in process, and the solve time.
geopriv::Result<Rational> SolveCold(const Signature& s, double* ms) {
  GEOPRIV_ASSIGN_OR_RETURN(Rational alpha, Rational::FromString(s.alpha));
  GEOPRIV_ASSIGN_OR_RETURN(
      MechanismSignature sig,
      MechanismSignature::Create(s.n, alpha, s.loss, s.lo, s.hi,
                                 s.geometric ? geopriv::ServeMode::kGeometric
                                             : geopriv::ServeMode::kExactOptimal));
  GEOPRIV_ASSIGN_OR_RETURN(geopriv::ExactLossFunction loss, sig.ResolveLoss());
  GEOPRIV_ASSIGN_OR_RETURN(geopriv::SideInformation side, sig.ResolveSide());
  const int64_t t0 = NowNs();
  if (s.geometric) {
    GEOPRIV_ASSIGN_OR_RETURN(
        geopriv::RationalMatrix g,
        geopriv::GeometricMechanism::BuildExactMatrix(s.n, alpha));
    GEOPRIV_ASSIGN_OR_RETURN(Rational worst,
                             geopriv::ExactWorstCaseLoss(g, loss, side));
    *ms = static_cast<double>(NowNs() - t0) / 1e6;
    return worst;
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      geopriv::ExactOptimalResult solved,
      geopriv::SolveOptimalMechanismExact(s.n, alpha, loss, side));
  *ms = static_cast<double>(NowNs() - t0) / 1e6;
  return solved.loss;
}

// Requests replayed per instance: enough for steady medians, bounded so
// the traced run stays well inside its time limit.
constexpr size_t kMaxReplay = 20000;

}  // namespace

ReplayResult Replay(const Workload& w, const std::vector<Request>& requests,
                    const PhaseResult& phase, const Checker& checker,
                    const std::string& state_template,
                    const std::string& work_dir, Tracer* tracer) {
  ReplayResult result;
  std::string error;
  std::vector<size_t> sent;  // request ids, in request order
  for (size_t i = 0; i < requests.size() && sent.size() < kMaxReplay; ++i) {
    if (phase.attempted[i]) sent.push_back(i);
  }
  const size_t count = sent.size();
  std::vector<std::string> lines(count);
  for (size_t k = 0; k < count; ++k) lines[k] = QueryLine(w, requests[sent[k]], false);
  bool shutdown = false;

  // 1. Decomposed: one child span per layer call.
  double load_ms = 0.0;
  std::unique_ptr<MechanismService> a =
      MakeService(w, state_template, work_dir + "/replay-a", &load_ms, &error);
  if (a == nullptr) {
    result.failures = 1;
    result.first_failure = error;
    return result;
  }
  Replayer replayer{w, tracer, a.get(), &result};
  if (!w.persist) {
    for (size_t k = 0; k < w.setup_sigs.size(); ++k) {
      replayer.Run(SetupLine(w, w.setup_sigs[k], false), 1000000000ULL + k);
    }
  }
  for (size_t k = 0; k < count; ++k) {
    const std::vector<int32_t> released = replayer.Run(lines[k], sent[k]);
    const std::vector<int64_t>& wire = phase.info[sent[k]].released;
    if (released.size() != wire.size() ||
        !std::equal(released.begin(), released.end(), wire.begin())) {
      replayer.Fail("request " + std::to_string(sent[k]) +
                    ": in-process draw differs from the wire reply");
    }
  }
  std::uintmax_t ledger_bytes = 0;
  if (w.persist) {
    std::error_code ec;
    ledger_bytes = fs::file_size(work_dir + "/replay-a/ledger.jsonl", ec);
    if (ec) ledger_bytes = 0;
  }
  a.reset();

  // 2. QueryPipeline::ExecuteBatch on each single query.
  std::vector<double> execute_us, execute_k_us;
  {
    std::unique_ptr<MechanismService> b =
        MakeService(w, state_template, work_dir + "/replay-b", nullptr, &error);
    if (b == nullptr) {
      result.failures = 1;
      result.first_failure = error;
      return result;
    }
    if (!w.persist) {
      for (int sig : w.setup_sigs) b->HandleLine(SetupLine(w, sig, false), &shutdown);
    }
    for (size_t i = 0; i < count; ++i) {
      geopriv::Result<ServiceRequest> parsed = geopriv::ParseRequestLine(lines[i]);
      if (!parsed.ok()) continue;
      const int64_t t0 = NowNs();
      std::vector<ServiceReply> replies =
          b->pipeline().ExecuteBatch({parsed->query});
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      (parsed->query.samples > 1 ? execute_k_us : execute_us).push_back(us);
      if (replies.size() != 1 || !replies[0].status.ok()) {
        replayer.Fail("in-process ExecuteBatch failed");
      }
    }
  }

  // 3. MechanismService::HandleLine on each raw line.
  std::vector<double> handle_us;
  {
    std::unique_ptr<MechanismService> c =
        MakeService(w, state_template, work_dir + "/replay-c", nullptr, &error);
    if (c == nullptr) {
      result.failures = 1;
      result.first_failure = error;
      return result;
    }
    if (!w.persist) {
      for (int sig : w.setup_sigs) c->HandleLine(SetupLine(w, sig, false), &shutdown);
    }
    geopriv::BatchWindow window;
    for (size_t i = 0; i < count; ++i) {
      const int64_t t0 = NowNs();
      const std::string reply = c->HandleLine(lines[i], &window, &shutdown);
      handle_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!Ok(reply)) replayer.Fail("in-process HandleLine failed");
    }
  }
  std::error_code ec;
  for (const char* d : {"/replay-a", "/replay-b", "/replay-c"}) {
    fs::remove_all(work_dir + d, ec);
  }

  // 4. Every signature solved cold; the wire loss must equal it exactly.
  std::vector<double> solve_ms;
  for (size_t k = 0; k < w.sigs.size(); ++k) {
    const std::string& wire_loss = checker.losses()[k];
    if (wire_loss.empty()) continue;  // not served on the wire this run
    double ms = 0.0;
    geopriv::Result<Rational> exact = SolveCold(w.sigs[k], &ms);
    geopriv::Result<Rational> served = Rational::FromString(wire_loss);
    if (!exact.ok() || !served.ok() || !(*exact == *served)) {
      replayer.Fail("wire loss " + wire_loss + " for " + w.sigs[k].key +
                    " is not the in-process optimum");
    }
    if (!w.sigs[k].geometric) solve_ms.push_back(ms);
  }

  auto median_of = [&](const char* name) { return Median(tracer->DurationsUs(name)); };
  auto& m = result.metrics;
  m["protocol.parse_us"] = median_of("protocol.parse");
  m["protocol.format_us"] = median_of("protocol.format");
  m["signature.key_us"] = median_of("signature.key");
  m["mechanism_cache.hit_us"] = median_of("mechanism_cache.hit");
  m["mechanism_cache.miss_cold_ms"] = median_of("mechanism_cache.miss_cold") / 1e3;
  m["mechanism_cache.miss_warm_ms"] = median_of("mechanism_cache.miss_warm") / 1e3;
  m["mechanism_cache.load_ms"] = load_ms;
  m["budget_ledger.charge_us"] = median_of("budget_ledger.charge");
  m["batch_sampler.ns_per_sample"] =
      replayer.samples > 0
          ? static_cast<double>(replayer.sample_ns) / static_cast<double>(replayer.samples)
          : 0.0;
  m["batch_sampler.samples"] = static_cast<double>(replayer.samples);
  m["server.persist_ms"] = median_of("server.persist") / 1e3;
  m["server.ledger_bytes"] = static_cast<double>(ledger_bytes);
  m["server.handle_line_us"] = Median(handle_us);
  m["query_pipeline.execute_us"] = Median(execute_us);
  m["query_pipeline.execute_k_us"] = Median(execute_k_us);
  m["optimal_exact.solve_ms"] = Median(solve_ms);
  m["exact_simplex.pivots_phase1"] = static_cast<double>(replayer.pivots_phase1);
  m["exact_simplex.pivots_phase2"] = static_cast<double>(replayer.pivots_phase2);
  return result;
}

}  // namespace perfbench
