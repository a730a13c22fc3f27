#include "reply.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace perfbench {

namespace {

class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r' || s_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // A string token; `out` is the raw contents between the quotes.
  bool String(std::string_view* out) {
    if (!Consume('"')) return false;
    const size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        *out = s_.substr(start, pos_ - start);
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (++pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (++pos_ >= s_.size() || !std::isxdigit(
                                           static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number(std::string_view* out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ >= s_.size() || !IsDigit(s_[pos_])) return false;
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < s_.size() && IsDigit(s_[pos_])) ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() || !IsDigit(s_[pos_])) return false;
      while (pos_ < s_.size() && IsDigit(s_[pos_])) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || !IsDigit(s_[pos_])) return false;
      while (pos_ < s_.size() && IsDigit(s_[pos_])) ++pos_;
    }
    *out = s_.substr(start, pos_ - start);
    return true;
  }

  bool Literal(std::string_view word) {
    SkipSpace();
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Any JSON value; fills `field` (kind + text) when non-null.
  bool Value(JsonField* field, int depth) {
    if (depth > 32) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const size_t start = pos_;
    const char c = s_[pos_];
    JsonField unused;
    JsonField* f = field != nullptr ? field : &unused;
    if (c == '"') {
      f->kind = JsonField::Kind::kString;
      return String(&f->text);
    }
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      ++pos_;
      if (!Consume(object ? '}' : ']')) {
        do {
          if (object) {
            std::string_view key;
            if (!String(&key) || !Consume(':')) return false;
          }
          if (!Value(nullptr, depth + 1)) return false;
        } while (Consume(','));
        if (!Consume(object ? '}' : ']')) return false;
      }
      f->kind = object ? JsonField::Kind::kObject : JsonField::Kind::kArray;
      f->text = s_.substr(start, pos_ - start);
      return true;
    }
    if (Literal("true")) {
      f->kind = JsonField::Kind::kBool;
      f->truth = true;
      return true;
    }
    if (Literal("false")) {
      f->kind = JsonField::Kind::kBool;
      f->truth = false;
      return true;
    }
    if (Literal("null")) {
      f->kind = JsonField::Kind::kNull;
      return true;
    }
    f->kind = JsonField::Kind::kNumber;
    return Number(&f->text);
  }

 private:
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  std::string_view s_;
  size_t pos_ = 0;
};

bool ParseInt(std::string_view text, int64_t* value) {
  if (text.empty() || text.find_first_of(".eE") != std::string_view::npos) {
    return false;
  }
  const std::string copy(text);
  char* end = nullptr;
  *value = std::strtoll(copy.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

bool ReplyObject::Parse(std::string_view line) {
  fields_.clear();
  Reader r(line);
  if (!r.Consume('{')) return false;
  if (!r.Consume('}')) {
    do {
      JsonField field;
      if (!r.String(&field.key) || !r.Consume(':') || !r.Value(&field, 1)) {
        return false;
      }
      fields_.push_back(field);
    } while (r.Consume(','));
    if (!r.Consume('}')) return false;
  }
  return r.AtEnd();
}

const JsonField* ReplyObject::Find(std::string_view key) const {
  for (const JsonField& f : fields_) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::string_view ReplyObject::Str(std::string_view key) const {
  const JsonField* f = Find(key);
  if (f == nullptr || f->kind != JsonField::Kind::kString) return {};
  return f->text;
}

bool ReplyObject::Bool(std::string_view key, bool* value) const {
  const JsonField* f = Find(key);
  if (f == nullptr || f->kind != JsonField::Kind::kBool) return false;
  *value = f->truth;
  return true;
}

bool ReplyObject::Number(std::string_view key, double* value) const {
  const JsonField* f = Find(key);
  if (f == nullptr || f->kind != JsonField::Kind::kNumber) return false;
  *value = std::strtod(std::string(f->text).c_str(), nullptr);
  return true;
}

bool ReplyObject::Int(std::string_view key, int64_t* value) const {
  const JsonField* f = Find(key);
  return f != nullptr && f->kind == JsonField::Kind::kNumber &&
         ParseInt(f->text, value);
}

bool ReplyObject::Ints(std::string_view key,
                       std::vector<int64_t>* values) const {
  values->clear();
  const JsonField* f = Find(key);
  if (f == nullptr) return false;
  if (f->kind == JsonField::Kind::kNumber) {
    int64_t v = 0;
    if (!ParseInt(f->text, &v)) return false;
    values->push_back(v);
    return true;
  }
  if (f->kind != JsonField::Kind::kArray) return false;
  std::string_view body = f->text.substr(1, f->text.size() - 2);
  while (!body.empty()) {
    const size_t comma = body.find(',');
    std::string_view item = body.substr(0, comma);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    int64_t v = 0;
    if (!ParseInt(item, &v)) return false;
    values->push_back(v);
    if (comma == std::string_view::npos) break;
    body.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace perfbench
