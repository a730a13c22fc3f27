// The geopriv_serve line protocol: one JSON object per line, in and out.
//
// Dependency-free on purpose — the reader below understands exactly the
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

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/query_pipeline.h"
#include "util/result.h"

namespace geopriv {

/// One field value of a flat JSON line, viewed where it sits in the line.
struct JsonValue {
  enum class Kind : uint8_t { kString, kNumber, kBool };
  Kind kind = Kind::kString;
  /// A string's bytes between its quotes (escapes still encoded), a
  /// number's token verbatim, or "true" / "false".
  std::string_view raw;
  bool escaped = false;  ///< a string holding a backslash; decoded on read
};

/// A field collected by ReadFlatJson; empty when the line lacks it.
using JsonSlot = std::optional<JsonValue>;

/// The one reader for every flat-JSON line the service reads: request
/// lines and the ledger's snapshot and journal.  One pass over `line`
/// checks the whole grammar — one object of string / number / boolean
/// values; no nesting, null, duplicate keys (compared decoded) or
/// trailing bytes — and stores the value of each field whose key equals
/// names[i] in values[i].  Other fields are checked, then dropped.
Status ReadFlatJson(std::string_view line, const std::string_view* names,
                    JsonSlot* values, size_t count);

template <size_t N>
Status ReadFlatJson(std::string_view line,
                    const std::array<std::string_view, N>& names,
                    std::array<JsonSlot, N>* values) {
  return ReadFlatJson(line, names.data(), values->data(), N);
}

/// Typed reads of a collected field, named `field` in their errors.
/// There are deliberately no silently-defaulting reads: a field that is
/// present with the wrong type is a protocol error, never a default (a
/// mistyped "hi" must not quietly serve the unrestricted mechanism).
///
/// JsonString is a view of the line itself unless the string holds
/// escapes, which are decoded into `scratch`.
Result<std::string_view> JsonString(std::string_view field,
                                    const JsonSlot& value,
                                    std::string* scratch);
/// An integer; fails when fractional or out of int64 range.
Result<int64_t> JsonInt(std::string_view field, const JsonSlot& value);
/// Rounded as strtod rounds: overflow is ±inf, underflow a subnormal or 0.
Result<double> JsonDouble(std::string_view field, const JsonSlot& value);
Result<bool> JsonBool(std::string_view field, const JsonSlot& value);

/// Escapes a string for embedding in a JSON response line.
std::string JsonEscape(const std::string& text);

/// JsonEscape's bytes, appended straight to `out` (no temporary string).
void AppendJsonEscaped(std::string_view text, std::string* out);

/// Appends `value` exactly as printf("%.17g") spells it: to_chars with
/// chars_format::general and a precision is defined as that conversion,
/// minus the format-string parse and the locale lookup.
void AppendJsonDouble(double value, std::string* out);

/// Appends an integer in decimal, without a temporary string.
template <typename Int>
void AppendJsonInt(Int value, std::string* out) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, end.ptr);
}

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
Result<ServiceRequest> ParseRequestLine(std::string_view line);

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
