#include "service/protocol.h"

#include <charconv>
#include <cstdlib>
#include <forward_list>
#include <unordered_set>
#include <utility>

#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

// isspace() in the "C" locale: ' ', \t, \n, \v, \f, \r.
bool IsJsonSpace(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

int HexValue(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

unsigned HexCode(std::string_view four) {
  unsigned code = 0;
  for (char hex : four) code = code << 4 | static_cast<unsigned>(HexValue(hex));
  return code;
}

// Decodes a string body ScanString accepted, so it cannot fail.
void DecodeJsonString(std::string_view raw, std::string* out) {
  out->clear();
  out->reserve(raw.size());
  for (size_t i = 0; i < raw.size();) {
    const char ch = raw[i++];
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    switch (raw[i++]) {
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        const unsigned code = HexCode(raw.substr(i, 4));
        i += 4;
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xc0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          out->push_back(static_cast<char>(0xe0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        break;
      }
      default: out->push_back(raw[i - 1]); break;  // '"', '\\', '/'
    }
  }
}

// Keys seen so far in one object, for the duplicate check: a linear scan
// over the first few (request and ledger lines have at most 14 keys), a
// hash set beyond them, so a line of thousands of keys stays linear.
class KeySet {
 public:
  bool Insert(std::string_view key) {
    if (count_ < kInline) {
      for (size_t i = 0; i < count_; ++i) {
        if (inline_[i] == key) return false;
      }
      inline_[count_++] = key;
      return true;
    }
    if (spill_.empty()) spill_.insert(inline_.begin(), inline_.end());
    return spill_.insert(key).second;
  }

 private:
  static constexpr size_t kInline = 16;
  std::array<std::string_view, kInline> inline_;
  size_t count_ = 0;
  std::unordered_set<std::string_view> spill_;
};

// One pass over one line; each Scan* advances pos_ past what it accepts.
// A failed step records its message and returns false, so the accepting
// path builds no Status per token.
class FlatJsonReader {
 public:
  explicit FlatJsonReader(std::string_view text) : text_(text) {}

  Status Read(const std::string_view* names, JsonSlot* values,
              size_t count) {
    if (!ReadObject(names, values, count)) {
      return Status::InvalidArgument(std::move(error_));
    }
    return Status::OK();
  }

 private:
  bool ReadObject(const std::string_view* names, JsonSlot* values,
                  size_t count) {
    SkipSpace();
    if (Peek() != '{') return Fail("expected a JSON object ('{...}')");
    ++pos_;
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
    } else {
      KeySet keys;
      // Escaped keys are rare; their decoded bytes must outlive the loop
      // for the duplicate check, and a forward_list never moves them.
      std::forward_list<std::string> decoded_keys;
      for (;;) {
        SkipSpace();
        if (Peek() != '"') return Fail("expected a quoted key");
        JsonValue key_token;
        if (!ScanString(&key_token)) return false;
        std::string_view key = key_token.raw;
        if (key_token.escaped) {
          DecodeJsonString(key, &decoded_keys.emplace_front());
          key = decoded_keys.front();
        }
        SkipSpace();
        if (Peek() != ':') {
          return Fail("expected ':' after key '" + std::string(key) + "'");
        }
        ++pos_;
        SkipSpace();
        JsonValue value;
        const char head = Peek();
        if (head == '"') {
          if (!ScanString(&value)) return false;
        } else if (head == 't' && text_.compare(pos_, 4, "true") == 0) {
          value = {JsonValue::Kind::kBool, text_.substr(pos_, 4), false};
          pos_ += 4;
        } else if (head == 'f' && text_.compare(pos_, 5, "false") == 0) {
          value = {JsonValue::Kind::kBool, text_.substr(pos_, 5), false};
          pos_ += 5;
        } else if (head == '{' || head == '[') {
          return Fail("nested objects/arrays are not part of the protocol");
        } else if (head == 'n') {
          return Fail("null values are not accepted");
        } else if (!ScanNumber(&value)) {
          return false;
        }
        if (!keys.Insert(key)) {
          return Fail("duplicate key '" + std::string(key) + "'");
        }
        for (size_t i = 0; i < count; ++i) {
          if (names[i] == key) {
            values[i] = value;
            break;
          }
        }
        SkipSpace();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        if (Peek() == '}') {
          ++pos_;
          break;
        }
        return Fail("expected ',' or '}' in object");
      }
    }
    SkipSpace();
    if (pos_ < text_.size()) return Fail("trailing content after object");
    return true;
  }

  bool Fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < text_.size() && IsJsonSpace(text_[pos_])) ++pos_;
  }

  // Peek() == '"' on entry.  Checks every escape but decodes none: most
  // strings hold no backslash and are handed out as views.
  bool ScanString(JsonValue* out) {
    const size_t begin = ++pos_;
    bool escaped = false;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_++];
      if (ch == '"') {
        *out = {JsonValue::Kind::kString,
                text_.substr(begin, pos_ - 1 - begin), escaped};
        return true;
      }
      if (ch != '\\') continue;
      escaped = true;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': case '\\': case '/': case 'b': case 'f': case 'n':
        case 'r': case 't':
          break;
        case 'u': {
          // \uXXXX must round-trip: JsonEscape emits it for control
          // characters, and a persisted ledger the reader cannot re-read
          // would brick the daemon's restart.
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const int hex = HexValue(text_[pos_++]);
            if (hex < 0) return Fail("malformed \\u escape");
            code = code << 4 | static_cast<unsigned>(hex);
          }
          if (code >= 0xd800 && code <= 0xdfff) {
            return Fail("surrogate \\u escapes are not supported");
          }
          break;
        }
        default:
          return Fail(std::string("unsupported string escape '\\") + esc +
                      "'");
      }
    }
    return Fail("unterminated string");
  }

  // JSON number syntax plus a leading '+', ".5" and "5.", exponents
  // included ("1e-05"): values the service itself emits (composed
  // levels, %.17g) must re-read.
  bool ScanNumber(JsonValue* out) {
    const size_t begin = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    bool digits = false, dot = false, exponent = false;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch >= '0' && ch <= '9') {
        digits = true;
        ++pos_;
      } else if (ch == '.' && !dot && !exponent) {
        dot = true;
        ++pos_;
      } else if ((ch == 'e' || ch == 'E') && !exponent && digits) {
        exponent = true;
        ++pos_;
        if (Peek() == '-' || Peek() == '+') ++pos_;
        digits = false;  // the exponent needs its own digits
      } else {
        break;
      }
    }
    if (!digits) return Fail("malformed number");
    *out = {JsonValue::Kind::kNumber, text_.substr(begin, pos_ - begin),
            false};
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

Status MissingField(std::string_view field) {
  return Status::InvalidArgument("missing field '" + std::string(field) +
                                 "'");
}

Status FieldError(std::string_view field, const char* what) {
  return Status::InvalidArgument("field '" + std::string(field) + "' " +
                                 what);
}

// from_chars takes no leading '+'; the grammar allows one.
std::string_view WithoutPlus(std::string_view token) {
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  return token;
}

}  // namespace

Status ReadFlatJson(std::string_view line, const std::string_view* names,
                    JsonSlot* values, size_t count) {
  return FlatJsonReader(line).Read(names, values, count);
}

Result<std::string_view> JsonString(std::string_view field,
                                    const JsonSlot& value,
                                    std::string* scratch) {
  if (!value) return MissingField(field);
  if (value->kind != JsonValue::Kind::kString) {
    return FieldError(field, "must be a string");
  }
  if (!value->escaped) return value->raw;
  DecodeJsonString(value->raw, scratch);
  return std::string_view(*scratch);
}

Result<int64_t> JsonInt(std::string_view field, const JsonSlot& value) {
  if (!value) return MissingField(field);
  if (value->kind != JsonValue::Kind::kNumber ||
      value->raw.find_first_of(".eE") != std::string_view::npos) {
    return FieldError(field, "must be an integer");
  }
  // Out-of-range input is a reported error, never the silent saturation
  // the caller's range checks would then be built on.
  const std::string_view digits = WithoutPlus(value->raw);
  int64_t out = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), out);
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    return FieldError(field, "is out of integer range");
  }
  return out;
}

Result<double> JsonDouble(std::string_view field, const JsonSlot& value) {
  if (!value) return MissingField(field);
  if (value->kind != JsonValue::Kind::kNumber) {
    return FieldError(field, "must be a number");
  }
  const std::string_view text = WithoutPlus(value->raw);
  double out = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec == std::errc() && end == text.data() + text.size()) return out;
  // from_chars reports overflow and underflow where strtod rounds them
  // (to ±HUGE_VAL, or to the nearest subnormal or zero); the ledger has
  // always read levels with strtod's rounding.
  return std::strtod(std::string(value->raw).c_str(), nullptr);
}

Result<bool> JsonBool(std::string_view field, const JsonSlot& value) {
  if (!value) return MissingField(field);
  if (value->kind != JsonValue::Kind::kBool) {
    return FieldError(field, "must be a boolean");
  }
  return value->raw == "true";
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

Result<ServiceRequest> ParseRequestLine(std::string_view line) {
  enum Field {
    kOp, kConsumer, kMode, kN, kCount, kAlpha, kLoss, kLo, kHi, kSeed,
    kSamples, kDeadlineMs, kTrace, kChained, kFieldCount
  };
  static constexpr std::array<std::string_view, kFieldCount> kNames = {
      "op",   "consumer", "mode", "n",    "count",   "alpha",       "loss",
      "lo",   "hi",       "seed", "samples", "deadline_ms", "trace",
      "chained"};
  std::array<JsonSlot, kFieldCount> fields;
  GEOPRIV_RETURN_IF_ERROR(ReadFlatJson(line, kNames, &fields));
  const auto string_field = [&](Field f, std::string* scratch) {
    return JsonString(kNames[f], fields[f], scratch);
  };
  const auto int_field = [&](Field f) { return JsonInt(kNames[f], fields[f]); };

  std::string scratch;
  GEOPRIV_ASSIGN_OR_RETURN(const std::string_view op,
                           string_field(kOp, &scratch));
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
    GEOPRIV_ASSIGN_OR_RETURN(const std::string_view consumer,
                             string_field(kConsumer, &scratch));
    request.consumer.assign(consumer);
    return request;
  }
  if (op != "query") {
    return Status::InvalidArgument("unknown op '" + std::string(op) + "'");
  }

  request.op = ServiceOp::kQuery;
  ServiceQuery& query = request.query;
  GEOPRIV_ASSIGN_OR_RETURN(const std::string_view consumer,
                           string_field(kConsumer, &scratch));
  query.consumer.assign(consumer);

  // Optional fields are strict when present: a mistyped value is an error,
  // never a silent default.  Integer fields are bounded BEFORE the cast to
  // int so out-of-range values cannot truncate into a different, valid
  // problem (n=2^32+5 must not quietly become n=5).
  std::string mode_name = "exact";
  if (fields[kMode]) {
    GEOPRIV_ASSIGN_OR_RETURN(mode_name, string_field(kMode, &scratch));
  }
  GEOPRIV_ASSIGN_OR_RETURN(ServeMode mode, ServeModeFromString(mode_name));
  // The n ceiling is a denial-of-service guard sized to what one entry
  // actually COSTS, in CPU as well as memory: exact solves serialize on
  // one solver mutex and grow superlinearly.  A cold interaction-LP solve
  // (absolute loss, S = {0..n}) on one thread of a 4-core x86 host took
  // ~1.5 s at n=24, ~4.5 s at n=32 and ~20 s at n=40 (~11 s on two
  // threads) at alpha=1/2; larger denominators cost more (n=32: ~15 s at
  // alpha=31/32, and ~4 s at alpha=9/10 with squared loss), so the exact
  // cap bounds how long one request can park the solve mutex; a
  // geometric entry is closed-form but holds (n+1)^2
  // exact rationals plus samplers — n=1024 is ~50 MB, n=10^6 would be an
  // unauthenticated one-line OOM.
  const int64_t max_n = mode == ServeMode::kGeometric ? 1024 : 32;
  GEOPRIV_ASSIGN_OR_RETURN(int64_t n, int_field(kN));
  if (n < 0 || n > max_n) {
    return Status::InvalidArgument("field 'n' must lie in [0, " +
                                   std::to_string(max_n) + "] for mode " +
                                   mode_name);
  }
  GEOPRIV_ASSIGN_OR_RETURN(int64_t count, int_field(kCount));
  if (count < 0 || count > n) {
    return Status::InvalidArgument("field 'count' must lie in [0, n]");
  }
  // "alpha" is its raw token — a decoded string or a number verbatim —
  // which is what Rational::FromString wants: both 0.3 and "1/3" work.
  const JsonSlot& alpha_field = fields[kAlpha];
  if (!alpha_field) return Status::InvalidArgument("missing field 'alpha'");
  std::string_view alpha_token = alpha_field->raw;
  if (alpha_field->kind == JsonValue::Kind::kString) {
    GEOPRIV_ASSIGN_OR_RETURN(alpha_token, string_field(kAlpha, &scratch));
  }
  Result<Rational> alpha = Rational::FromString(alpha_token);
  if (!alpha.ok()) {
    return Status::InvalidArgument("field 'alpha': " +
                                   alpha.status().message());
  }
  std::string loss_name = "absolute";
  if (fields[kLoss]) {
    GEOPRIV_ASSIGN_OR_RETURN(loss_name, string_field(kLoss, &scratch));
  }
  int64_t lo = 0, hi = n;
  if (fields[kLo]) {
    GEOPRIV_ASSIGN_OR_RETURN(lo, int_field(kLo));
  }
  if (fields[kHi]) {
    GEOPRIV_ASSIGN_OR_RETURN(hi, int_field(kHi));
  }
  if (lo < 0 || lo > n || hi < 0 || hi > n) {
    return Status::InvalidArgument("fields 'lo'/'hi' must lie in [0, n]");
  }
  int64_t seed = 1;
  if (fields[kSeed]) {
    GEOPRIV_ASSIGN_OR_RETURN(seed, int_field(kSeed));
  }
  int64_t samples = 1;
  if (fields[kSamples]) {
    // K draws from the one per-request stream, charged as K releases
    // atomically (all admitted or the query is rejected whole).  The cap
    // bounds reply size and per-query ledger work the same way the batch
    // window cap bounds daemon memory.
    GEOPRIV_ASSIGN_OR_RETURN(samples, int_field(kSamples));
    if (samples < 1 || samples > 4096) {
      return Status::InvalidArgument(
          "field 'samples' must lie in [1, 4096]");
    }
  }
  int64_t deadline_ms = 0;
  if (fields[kDeadlineMs]) {
    GEOPRIV_ASSIGN_OR_RETURN(deadline_ms, int_field(kDeadlineMs));
    // Capped at 10 minutes: a huge "deadline" is a typo, not a bound, and
    // 0 (= none) is the spelling for unbounded.
    if (deadline_ms < 0 || deadline_ms > 600000) {
      return Status::InvalidArgument(
          "field 'deadline_ms' must lie in [0, 600000]");
    }
  }
  if (fields[kTrace]) {
    // Per-request tracing: the reply carries a per-stage timing breakdown
    // (trace_*_us fields) and the pipeline times its stages for this
    // batch.  "trace":false is tolerated and means untraced.
    GEOPRIV_ASSIGN_OR_RETURN(query.trace,
                             JsonBool(kNames[kTrace], fields[kTrace]));
  }
  if (fields[kChained]) {
    // Min-composition is only sound for an actual Algorithm-1 chain; a
    // client-declared flag on independent samples would be a budget
    // bypass (min never drops, product does).  Rejected until a real
    // multilevel-serving op exists; "chained":false is tolerated.
    GEOPRIV_ASSIGN_OR_RETURN(const bool chained,
                             JsonBool(kNames[kChained], fields[kChained]));
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

void AppendJsonDouble(double value, std::string* out) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  out->append(buf, end.ptr);
}

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
        AppendJsonInt(reply.released_values[j], out);
      }
      out->push_back(']');
    } else {
      *out += ",\"released\":";
      AppendJsonInt(reply.released, out);
    }
    // A rendered Rational is digits, '-' and '/': nothing to escape.
    *out += ",\"loss\":\"";
    if (reply.served != nullptr) {
      *out += reply.served->loss_text;
    } else {
      *out += reply.optimal_loss.ToString();
    }
    *out += "\"";
  } else {
    *out += ",\"error\":\"";
    AppendJsonEscaped(StatusCodeToString(reply.status.code()), out);
    *out += "\",\"message\":\"";
    AppendJsonEscaped(reply.status.message(), out);
    *out += "\"";
  }
  *out += ",\"level\":";
  AppendJsonDouble(reply.level_after, out);
  *out += ",\"composed_level\":";
  AppendJsonDouble(reply.composed_level, out);
  *out += ",\"budget\":";
  AppendJsonDouble(reply.budget, out);
  if (reply.retry_after_ms > 0) {
    *out += ",\"retry_after_ms\":";
    AppendJsonInt(reply.retry_after_ms, out);
  }
  *out += ",\"cache\":\"";
  *out += reply.cache;
  *out += "\"";
  if (reply.traced) {
    // Flat keys by protocol rule (no nesting).  The serialize span covers
    // the formatting up to this point; the send span happens after the
    // reply leaves this function and is recorded to histograms only.
    *out += ",\"trace_parse_us\":";
    AppendJsonInt(reply.trace_parse_us, out);
    *out += ",\"trace_queue_us\":";
    AppendJsonInt(reply.trace_queue_us, out);
    *out += ",\"trace_solve_us\":";
    AppendJsonInt(reply.trace_solve_us, out);
    *out += ",\"trace_charge_us\":";
    AppendJsonInt(reply.trace_charge_us, out);
    *out += ",\"trace_sample_us\":";
    AppendJsonInt(reply.trace_sample_us, out);
    *out += ",\"trace_persist_us\":";
    AppendJsonInt(reply.trace_persist_us, out);
    *out += ",\"trace_serialize_us\":";
    AppendJsonInt(static_cast<int64_t>(serialize_watch.ElapsedMicros()), out);
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
