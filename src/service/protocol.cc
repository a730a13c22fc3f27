#include "service/protocol.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <utility>

#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

// Cursor over the request line; the parse functions advance `pos`.
struct Cursor {
  const std::string& text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }
  char Peek() { return pos < text.size() ? text[pos] : '\0'; }
};

Result<std::string> ParseJsonString(Cursor& c) {
  // c.Peek() == '"' on entry.
  ++c.pos;
  std::string out;
  while (c.pos < c.text.size()) {
    char ch = c.text[c.pos++];
    if (ch == '"') return out;
    if (ch == '\\') {
      if (c.pos >= c.text.size()) break;
      char esc = c.text[c.pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // \uXXXX must round-trip: JsonEscape emits it for control
          // characters, and a persisted ledger the parser cannot re-read
          // would brick the daemon's restart.
          if (c.pos + 4 > c.text.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char hex = c.text[c.pos++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              return Status::InvalidArgument("malformed \\u escape");
            }
          }
          if (code >= 0xd800 && code <= 0xdfff) {
            return Status::InvalidArgument(
                "surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Status::InvalidArgument(
              std::string("unsupported string escape '\\") + esc + "'");
      }
      continue;
    }
    out.push_back(ch);
  }
  return Status::InvalidArgument("unterminated string");
}

Result<std::string> ParseJsonNumber(Cursor& c) {
  // Accepts JSON number syntax including exponents ("1e-05") — values the
  // service itself emits (composed levels, %.17g) must re-parse.
  const size_t begin = c.pos;
  if (c.Peek() == '-' || c.Peek() == '+') ++c.pos;
  bool digits = false, dot = false, exponent = false;
  while (c.pos < c.text.size()) {
    char ch = c.text[c.pos];
    if (ch >= '0' && ch <= '9') {
      digits = true;
      ++c.pos;
    } else if (ch == '.' && !dot && !exponent) {
      dot = true;
      ++c.pos;
    } else if ((ch == 'e' || ch == 'E') && !exponent && digits) {
      exponent = true;
      ++c.pos;
      if (c.Peek() == '-' || c.Peek() == '+') ++c.pos;
      digits = false;  // the exponent needs its own digits
    } else {
      break;
    }
  }
  if (!digits) return Status::InvalidArgument("malformed number");
  return c.text.substr(begin, c.pos - begin);
}

}  // namespace

Result<JsonObject> JsonObject::Parse(const std::string& line) {
  Cursor c{line};
  c.SkipSpace();
  if (c.Peek() != '{') {
    return Status::InvalidArgument("expected a JSON object ('{...}')");
  }
  ++c.pos;
  JsonObject object;
  c.SkipSpace();
  if (c.Peek() == '}') {
    ++c.pos;
  } else {
    for (;;) {
      c.SkipSpace();
      if (c.Peek() != '"') {
        return Status::InvalidArgument("expected a quoted key");
      }
      GEOPRIV_ASSIGN_OR_RETURN(std::string key, ParseJsonString(c));
      c.SkipSpace();
      if (c.Peek() != ':') {
        return Status::InvalidArgument("expected ':' after key '" + key +
                                       "'");
      }
      ++c.pos;
      c.SkipSpace();
      Value value;
      char head = c.Peek();
      if (head == '"') {
        GEOPRIV_ASSIGN_OR_RETURN(value.token, ParseJsonString(c));
        value.kind = Kind::kString;
      } else if (head == 't' && c.text.compare(c.pos, 4, "true") == 0) {
        c.pos += 4;
        value = {Kind::kBool, "true"};
      } else if (head == 'f' && c.text.compare(c.pos, 5, "false") == 0) {
        c.pos += 5;
        value = {Kind::kBool, "false"};
      } else if (head == '{' || head == '[') {
        return Status::InvalidArgument(
            "nested objects/arrays are not part of the protocol");
      } else if (head == 'n') {
        return Status::InvalidArgument("null values are not accepted");
      } else {
        GEOPRIV_ASSIGN_OR_RETURN(value.token, ParseJsonNumber(c));
        value.kind = Kind::kNumber;
      }
      if (!object.values_.emplace(key, std::move(value)).second) {
        return Status::InvalidArgument("duplicate key '" + key + "'");
      }
      c.SkipSpace();
      if (c.Peek() == ',') {
        ++c.pos;
        continue;
      }
      if (c.Peek() == '}') {
        ++c.pos;
        break;
      }
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
  }
  if (!c.AtEnd()) {
    return Status::InvalidArgument("trailing content after object");
  }
  return object;
}

Result<std::string> JsonObject::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (it->second.kind != Kind::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return it->second.token;
}

Result<int64_t> JsonObject::GetInt(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (it->second.kind != Kind::kNumber ||
      it->second.token.find_first_of(".eE") != std::string::npos) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an integer");
  }
  // strtoll, not atoll: out-of-range input is a reported error, never the
  // undefined behavior / silent saturation the caller's range checks would
  // then be built on.
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.token.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("field '" + key +
                                   "' is out of integer range");
  }
  return static_cast<int64_t>(value);
}

Result<double> JsonObject::GetDouble(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (it->second.kind != Kind::kNumber) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return std::atof(it->second.token.c_str());
}

Result<bool> JsonObject::GetBool(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (it->second.kind != Kind::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return it->second.token == "true";
}

Result<std::string> JsonObject::GetRawToken(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  return it->second.token;
}

void AppendJsonEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char ch = static_cast<unsigned char>(text[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[ch >> 4],
                               kHex[ch & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  AppendJsonEscaped(text, &out);
  return out;
}

Result<ServiceRequest> ParseRequestLine(const std::string& line) {
  GEOPRIV_ASSIGN_OR_RETURN(JsonObject object, JsonObject::Parse(line));
  GEOPRIV_ASSIGN_OR_RETURN(std::string op, object.GetString("op"));
  ServiceRequest request;
  if (op == "ping") {
    request.op = ServiceOp::kPing;
    return request;
  }
  if (op == "shutdown") {
    request.op = ServiceOp::kShutdown;
    return request;
  }
  if (op == "stats") {
    request.op = ServiceOp::kStats;
    return request;
  }
  if (op == "metrics") {
    request.op = ServiceOp::kMetrics;
    return request;
  }
  if (op == "batch_begin") {
    request.op = ServiceOp::kBatchBegin;
    return request;
  }
  if (op == "batch_end") {
    request.op = ServiceOp::kBatchEnd;
    return request;
  }
  if (op == "budget") {
    request.op = ServiceOp::kBudget;
    GEOPRIV_ASSIGN_OR_RETURN(request.consumer, object.GetString("consumer"));
    return request;
  }
  if (op != "query") {
    return Status::InvalidArgument("unknown op '" + op + "'");
  }

  request.op = ServiceOp::kQuery;
  ServiceQuery& query = request.query;
  GEOPRIV_ASSIGN_OR_RETURN(query.consumer, object.GetString("consumer"));

  // Optional fields are strict when present: a mistyped value is an error,
  // never a silent default.  Integer fields are bounded BEFORE the cast to
  // int so out-of-range values cannot truncate into a different, valid
  // problem (n=2^32+5 must not quietly become n=5).
  std::string mode_name = "exact";
  if (object.Has("mode")) {
    GEOPRIV_ASSIGN_OR_RETURN(mode_name, object.GetString("mode"));
  }
  GEOPRIV_ASSIGN_OR_RETURN(ServeMode mode, ServeModeFromString(mode_name));
  // The n ceiling is a denial-of-service guard sized to what one entry
  // actually COSTS, in CPU as well as memory: exact LP solves serialize
  // on one solver mutex and grow superlinearly (n=16 is seconds, n=32 is
  // the practical edge), so the exact cap keeps one request from parking
  // the solve mutex for hours; a geometric entry is closed-form but holds
  // (n+1)^2 exact rationals plus samplers — n=1024 is ~50 MB, n=10^6
  // would be an unauthenticated one-line OOM.
  const int64_t max_n = mode == ServeMode::kGeometric ? 1024 : 32;
  GEOPRIV_ASSIGN_OR_RETURN(int64_t n, object.GetInt("n"));
  if (n < 0 || n > max_n) {
    return Status::InvalidArgument("field 'n' must lie in [0, " +
                                   std::to_string(max_n) + "] for mode " +
                                   mode_name);
  }
  GEOPRIV_ASSIGN_OR_RETURN(int64_t count, object.GetInt("count"));
  if (count < 0 || count > n) {
    return Status::InvalidArgument("field 'count' must lie in [0, n]");
  }
  GEOPRIV_ASSIGN_OR_RETURN(std::string alpha_token,
                           object.GetRawToken("alpha"));
  Result<Rational> alpha = Rational::FromString(alpha_token);
  if (!alpha.ok()) {
    return Status::InvalidArgument("field 'alpha': " +
                                   alpha.status().message());
  }
  std::string loss_name = "absolute";
  if (object.Has("loss")) {
    GEOPRIV_ASSIGN_OR_RETURN(loss_name, object.GetString("loss"));
  }
  int64_t lo = 0, hi = n;
  if (object.Has("lo")) {
    GEOPRIV_ASSIGN_OR_RETURN(lo, object.GetInt("lo"));
  }
  if (object.Has("hi")) {
    GEOPRIV_ASSIGN_OR_RETURN(hi, object.GetInt("hi"));
  }
  if (lo < 0 || lo > n || hi < 0 || hi > n) {
    return Status::InvalidArgument("fields 'lo'/'hi' must lie in [0, n]");
  }
  int64_t seed = 1;
  if (object.Has("seed")) {
    GEOPRIV_ASSIGN_OR_RETURN(seed, object.GetInt("seed"));
  }
  int64_t samples = 1;
  if (object.Has("samples")) {
    // K draws from the one per-request stream, charged as K releases
    // atomically (all admitted or the query is rejected whole).  The cap
    // bounds reply size and per-query ledger work the same way the batch
    // window cap bounds daemon memory.
    GEOPRIV_ASSIGN_OR_RETURN(samples, object.GetInt("samples"));
    if (samples < 1 || samples > 4096) {
      return Status::InvalidArgument(
          "field 'samples' must lie in [1, 4096]");
    }
  }
  int64_t deadline_ms = 0;
  if (object.Has("deadline_ms")) {
    GEOPRIV_ASSIGN_OR_RETURN(deadline_ms, object.GetInt("deadline_ms"));
    // Capped at 10 minutes: a huge "deadline" is a typo, not a bound, and
    // 0 (= none) is the spelling for unbounded.
    if (deadline_ms < 0 || deadline_ms > 600000) {
      return Status::InvalidArgument(
          "field 'deadline_ms' must lie in [0, 600000]");
    }
  }
  if (object.Has("trace")) {
    // Per-request tracing: the reply carries a per-stage timing breakdown
    // (trace_*_us fields) and the pipeline times its stages for this
    // batch.  "trace":false is tolerated and means untraced.
    GEOPRIV_ASSIGN_OR_RETURN(query.trace, object.GetBool("trace"));
  }
  if (object.Has("chained")) {
    // Min-composition is only sound for an actual Algorithm-1 chain; a
    // client-declared flag on independent samples would be a budget
    // bypass (min never drops, product does).  Rejected until a real
    // multilevel-serving op exists; "chained":false is tolerated.
    GEOPRIV_ASSIGN_OR_RETURN(const bool chained, object.GetBool("chained"));
    if (chained) {
      return Status::InvalidArgument(
          "'chained' accounting is not available for independent query "
          "sampling (it would discount releases that do not form an "
          "Algorithm-1 chain)");
    }
  }
  GEOPRIV_ASSIGN_OR_RETURN(
      query.signature,
      MechanismSignature::Create(static_cast<int>(n), std::move(*alpha),
                                 loss_name, static_cast<int>(lo),
                                 static_cast<int>(hi), mode));
  query.true_count = static_cast<int>(count);
  query.seed = static_cast<uint64_t>(seed);
  query.samples = static_cast<int>(samples);
  query.deadline_ms = deadline_ms;
  return request;
}

namespace {

// to_chars-based integer append: the sampling path serializes one (or
// samples-many) integers per reply, and a per-value std::to_string heap
// string is measurable at batch sizes the columnar pipeline reaches.
template <typename Int>
void AppendInt(Int value, std::string* out) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, end.ptr);
}

// Appends `value` exactly as printf("%.17g") spells it: to_chars with
// chars_format::general and a precision is defined as that conversion,
// minus the format-string parse and the locale lookup.
void AppendDouble(double value, std::string* out) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  out->append(buf, end.ptr);
}

}  // namespace

void AppendQueryReply(const ServiceQuery& query, const ServiceReply& reply,
                      std::string* out) {
  // Every query reply — pipeline-executed or shed at the transport —
  // passes through here, so this is the one place the reply-result
  // counters can be made to match what clients actually received.
  if (metrics::Enabled()) {
    metrics::Registry* registry = metrics::Registry::Default();
    static metrics::Counter* const replies_ok = registry->GetCounter(
        "geopriv_query_replies_total", "Query replies by result",
        {{"result", "ok"}});
    static metrics::Counter* const replies_rejected = registry->GetCounter(
        "geopriv_query_replies_total", "Query replies by result",
        {{"result", "rejected"}});
    static metrics::Counter* const replies_shed = registry->GetCounter(
        "geopriv_query_replies_total", "Query replies by result",
        {{"result", "shed"}});
    static metrics::Counter* const replies_error = registry->GetCounter(
        "geopriv_query_replies_total", "Query replies by result",
        {{"result", "error"}});
    if (reply.status.ok()) {
      replies_ok->Increment();
    } else if (reply.status.IsFailedPrecondition()) {
      replies_rejected->Increment();
    } else if (reply.status.IsUnavailable()) {
      replies_shed->Increment();
    } else {
      replies_error->Increment();
    }
  }
  Stopwatch serialize_watch;
  *out += "{\"op\":\"query\",\"ok\":";
  *out += reply.status.ok() ? "true" : "false";
  *out += ",\"consumer\":\"";
  AppendJsonEscaped(query.consumer, out);
  *out += "\",\"signature\":\"";
  AppendJsonEscaped(query.signature.CanonicalKey(), out);
  *out += "\"";
  if (reply.status.ok()) {
    if (reply.released_values.size() > 1) {
      // Multi-draw query: all values, in stream order.  Single-draw
      // replies keep the historical scalar field byte for byte.
      *out += ",\"released\":[";
      for (size_t j = 0; j < reply.released_values.size(); ++j) {
        if (j > 0) out->push_back(',');
        AppendInt(reply.released_values[j], out);
      }
      out->push_back(']');
    } else {
      *out += ",\"released\":";
      AppendInt(reply.released, out);
    }
    *out += ",\"loss\":\"";
    AppendJsonEscaped(reply.optimal_loss.ToString(), out);
    *out += "\"";
  } else {
    *out += ",\"error\":\"";
    AppendJsonEscaped(StatusCodeToString(reply.status.code()), out);
    *out += "\",\"message\":\"";
    AppendJsonEscaped(reply.status.message(), out);
    *out += "\"";
  }
  *out += ",\"level\":";
  AppendDouble(reply.level_after, out);
  *out += ",\"composed_level\":";
  AppendDouble(reply.composed_level, out);
  *out += ",\"budget\":";
  AppendDouble(reply.budget, out);
  if (reply.retry_after_ms > 0) {
    *out += ",\"retry_after_ms\":";
    AppendInt(reply.retry_after_ms, out);
  }
  *out += ",\"cache\":\"";
  *out += reply.cache;
  *out += "\"";
  if (reply.traced) {
    // Flat keys by protocol rule (no nesting).  The serialize span covers
    // the formatting up to this point; the send span happens after the
    // reply leaves this function and is recorded to histograms only.
    *out += ",\"trace_parse_us\":";
    AppendInt(reply.trace_parse_us, out);
    *out += ",\"trace_queue_us\":";
    AppendInt(reply.trace_queue_us, out);
    *out += ",\"trace_solve_us\":";
    AppendInt(reply.trace_solve_us, out);
    *out += ",\"trace_charge_us\":";
    AppendInt(reply.trace_charge_us, out);
    *out += ",\"trace_sample_us\":";
    AppendInt(reply.trace_sample_us, out);
    *out += ",\"trace_persist_us\":";
    AppendInt(reply.trace_persist_us, out);
    *out += ",\"trace_serialize_us\":";
    AppendInt(static_cast<int64_t>(serialize_watch.ElapsedMicros()), out);
  }
  *out += "}";
}

std::string FormatQueryReply(const ServiceQuery& query,
                             const ServiceReply& reply) {
  std::string out;
  out.reserve(192);
  AppendQueryReply(query, reply, &out);
  return out;
}

std::string FormatErrorReply(const std::string& op, const Status& status) {
  return "{\"op\":\"" + JsonEscape(op) + "\",\"ok\":false,\"error\":\"" +
         JsonEscape(std::string(StatusCodeToString(status.code()))) +
         "\",\"message\":\"" + JsonEscape(status.message()) + "\"}";
}

}  // namespace geopriv
