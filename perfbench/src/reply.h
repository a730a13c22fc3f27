// A strict JSON reader for one reply line.
//
// The library's own JsonObject (service/protocol.h) reads flat request
// objects only; replies carry arrays ("released":[...]), so the benchmark
// validates them with this reader instead: the whole line must be one
// well-formed JSON object, and its top-level fields are returned as views
// into the line.

#ifndef PERFBENCH_REPLY_H_
#define PERFBENCH_REPLY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct JsonField {
  enum class Kind { kString, kNumber, kBool, kNull, kArray, kObject };
  std::string_view key;
  Kind kind = Kind::kNull;
  std::string_view text;  ///< string contents (unescaped only if no '\'),
                          ///< or the raw number/array/literal token
  bool truth = false;     ///< kBool
};

class ReplyObject {
 public:
  /// Parses `line` (must outlive the object).  False when the line is not
  /// exactly one well-formed JSON object.
  bool Parse(std::string_view line);

  const JsonField* Find(std::string_view key) const;
  /// String field value, or empty when absent / not a string.
  std::string_view Str(std::string_view key) const;
  bool Bool(std::string_view key, bool* value) const;
  bool Number(std::string_view key, double* value) const;
  bool Int(std::string_view key, int64_t* value) const;
  /// An integer array field, or a lone integer read as a one-element array.
  bool Ints(std::string_view key, std::vector<int64_t>* values) const;

  const std::vector<JsonField>& fields() const { return fields_; }

 private:
  std::vector<JsonField> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLY_H_
