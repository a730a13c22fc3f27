// The geopriv_serve line protocol: one JSON object per line, in and out.
//
// Dependency-free on purpose — the parser below understands exactly the
// subset the protocol needs (flat objects, string / number / boolean
// values, no nesting) and rejects everything else with a useful message.
// The full grammar, request catalog and examples live in docs/SERVICE.md.
//
// Requests (one per line):
//   {"op":"query","consumer":C,"n":N,"alpha":A,"count":K, ...}
//   {"op":"batch_begin"} ... {"op":"batch_end"}
//   {"op":"budget","consumer":C}
//   {"op":"stats"} | {"op":"ping"} | {"op":"shutdown"}
//
// `alpha` may be a JSON number (parsed as an exact decimal: 0.3 means
// 3/10, not the nearest double) or a string rational like "1/3" — the
// latter is the only lossless spelling for non-dyadic levels.

#ifndef GEOPRIV_SERVICE_PROTOCOL_H_
#define GEOPRIV_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "service/query_pipeline.h"
#include "util/result.h"

namespace geopriv {

/// A parsed flat JSON object: keys mapped to raw value tokens.
class JsonObject {
 public:
  /// Parses one flat JSON object.  Rejects nested objects/arrays, null,
  /// duplicate keys, and trailing content.
  static Result<JsonObject> Parse(const std::string& line);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// The decoded string value; fails when absent or not a string.
  /// There are deliberately no silently-defaulting getters: a field that
  /// is present with the wrong type is a protocol error, never a default
  /// (a mistyped "hi" must not quietly serve the unrestricted mechanism).
  Result<std::string> GetString(const std::string& key) const;

  /// Integer value; fails when absent, not a number, or fractional.
  Result<int64_t> GetInt(const std::string& key) const;

  Result<double> GetDouble(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;

  /// The raw token (string values decoded, numbers verbatim) — what
  /// Rational::FromString wants for "alpha": both 0.3 and "1/3" work.
  Result<std::string> GetRawToken(const std::string& key) const;

 private:
  enum class Kind { kString, kNumber, kBool };
  struct Value {
    Kind kind;
    std::string token;  // decoded string / verbatim number / "true"/"false"
  };
  std::map<std::string, Value> values_;
};

/// Escapes a string for embedding in a JSON response line.
std::string JsonEscape(const std::string& text);

/// JsonEscape's bytes, appended straight to `out` (no temporary string).
void AppendJsonEscaped(std::string_view text, std::string* out);

/// The service operations a request line can name.
enum class ServiceOp {
  kQuery,
  kBatchBegin,
  kBatchEnd,
  kBudget,
  kStats,
  kMetrics,
  kPing,
  kShutdown,
};

/// One parsed request line.
struct ServiceRequest {
  ServiceOp op = ServiceOp::kPing;
  ServiceQuery query;    ///< populated for kQuery
  std::string consumer;  ///< populated for kBudget
  /// Transport-filled trace spans, microseconds: time spent parsing the
  /// request line, and (event-loop transport) waiting in the executor
  /// queue.  Copied into traced replies and the slow-query log.
  int64_t parse_us = 0;
  int64_t queue_us = 0;
};

/// Parses and validates one request line (including the signature
/// canonicalization for queries).
Result<ServiceRequest> ParseRequestLine(const std::string& line);

/// Response formatting: every reply is one JSON line.
///
/// AppendQueryReply is the batch-aware form: it serializes straight into
/// `out` (numbers via to_chars, strings escaped in place), so a
/// batch_end response builds one reserved buffer instead of
/// concatenating per-reply strings.  Every query reply — batched,
/// single, or shed at the transport — passes through it, which keeps
/// the geopriv_query_replies_total choke-point accounting exact.
void AppendQueryReply(const ServiceQuery& query, const ServiceReply& reply,
                      std::string* out);
std::string FormatQueryReply(const ServiceQuery& query,
                             const ServiceReply& reply);
std::string FormatErrorReply(const std::string& op, const Status& status);

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_PROTOCOL_H_
