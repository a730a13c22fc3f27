#include "core/io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "exact/rational.h"
#include "util/fault_injection.h"

namespace geopriv {

namespace {
constexpr char kHeaderV1[] = "geopriv-mechanism v1";
constexpr char kHeaderV2[] = "geopriv-mechanism v2";
constexpr char kHeaderV3[] = "geopriv-mechanism v3";
constexpr char kBasisHeader[] = "geopriv-basis v3";
constexpr char kBasisHeaderV1[] = "geopriv-basis v1";
constexpr char kBasisHeaderV2[] = "geopriv-basis v2";

// Reads a "checksum <16 hex>" line from `in` and verifies it against the
// FNV-1a digest of everything that follows it.  On success leaves `in`
// positioned at the body.
Status ConsumeChecksumLine(std::istringstream& in, const std::string& what) {
  std::string line;
  if (!std::getline(in, line) || line.size() != 9 + 16 ||
      line.compare(0, 9, "checksum ") != 0) {
    return Status::InvalidArgument("missing 'checksum <16 hex>' line in " +
                                   what);
  }
  const std::string stored = line.substr(9);
  const std::string body = in.str().substr(static_cast<size_t>(in.tellg()));
  if (Fnv1a64Hex(body) != stored) {
    return Status::InvalidArgument(what + " checksum mismatch: stored " +
                                   stored + ", computed " + Fnv1a64Hex(body));
  }
  return Status::OK();
}

// Shared v1/v2 body scaffolding: reads "n <n>" then n+1 "row ..." lines,
// handing each entry token to `parse_entry(i, r)`; rejects trailing content.
template <typename ParseEntry>
Status ParseBody(std::istringstream& in, int* n_out, ParseEntry&& parse_entry) {
  std::string keyword;
  int n = -1;
  if (!(in >> keyword >> n) || keyword != "n" || n < 0) {
    return Status::InvalidArgument("missing or malformed 'n <size>' line");
  }
  *n_out = n;
  const size_t size = static_cast<size_t>(n) + 1;
  for (size_t i = 0; i < size; ++i) {
    if (!(in >> keyword) || keyword != "row") {
      return Status::InvalidArgument("expected 'row' line " +
                                     std::to_string(i));
    }
    for (size_t r = 0; r < size; ++r) {
      GEOPRIV_RETURN_IF_ERROR(parse_entry(i, r));
    }
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::InvalidArgument("trailing content after last row");
  }
  return Status::OK();
}

Result<RationalMatrix> ParseExactBody(std::istringstream& in) {
  // Entries arrive before the shape is known per row, so collect them
  // flat; ParseBody fixes the iteration order to row-major.
  int n = -1;
  std::vector<Rational> entries;
  GEOPRIV_RETURN_IF_ERROR(ParseBody(in, &n, [&](size_t i, size_t r) {
    std::string token;
    if (!(in >> token)) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " has too few probabilities");
    }
    Result<Rational> value = Rational::FromString(token);
    if (!value.ok()) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " entry " + std::to_string(r) +
          ": " + value.status().message());
    }
    entries.push_back(std::move(*value));
    return Status::OK();
  }));
  const size_t size = static_cast<size_t>(n) + 1;
  GEOPRIV_ASSIGN_OR_RETURN(RationalMatrix matrix, RationalMatrix::FromRows(
                                                      size, size,
                                                      std::move(entries)));
  if (!matrix.IsRowStochastic()) {
    return Status::InvalidArgument(
        "v2 mechanism must be exactly row-stochastic (rows sum to 1, "
        "entries >= 0)");
  }
  return matrix;
}

}  // namespace

std::string SerializeMechanism(const Mechanism& mechanism) {
  std::string out = kHeaderV1;
  out += "\nn " + std::to_string(mechanism.n()) + "\n";
  char buf[40];
  for (int i = 0; i <= mechanism.n(); ++i) {
    out += "row";
    for (int r = 0; r <= mechanism.n(); ++r) {
      std::snprintf(buf, sizeof(buf), " %.17g", mechanism.Probability(i, r));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

Result<Mechanism> ParseMechanism(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(
        "missing 'geopriv-mechanism v1' (or v2) header");
  }
  if (line == kHeaderV2 || line == kHeaderV3) {
    if (line == kHeaderV3) {
      GEOPRIV_RETURN_IF_ERROR(ConsumeChecksumLine(in, "v3 mechanism"));
    }
    GEOPRIV_ASSIGN_OR_RETURN(RationalMatrix exact, ParseExactBody(in));
    return Mechanism::FromExact(exact);
  }
  if (line != kHeaderV1) {
    return Status::InvalidArgument(
        "missing 'geopriv-mechanism v1' (or v2) header");
  }
  int n = -1;
  Matrix probs;
  bool sized = false;
  GEOPRIV_RETURN_IF_ERROR(ParseBody(in, &n, [&](size_t i, size_t r) {
    if (!sized) {
      const size_t size = static_cast<size_t>(n) + 1;
      probs = Matrix(size, size);
      sized = true;
    }
    double v = 0.0;
    if (!(in >> v)) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " has too few probabilities");
    }
    probs.At(i, r) = v;
    return Status::OK();
  }));
  return Mechanism::Create(std::move(probs));
}

Status SaveMechanism(const Mechanism& mechanism, const std::string& path) {
  // Fired before the file is opened: unlike the service's write-then-
  // rename persistence, these CLI-facing saves truncate in place, so the
  // only crash-safe point to inject is before the destination is touched.
  GEOPRIV_INJECT_FAULT("io.save.write");
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << SerializeMechanism(mechanism);
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

Result<Mechanism> LoadMechanism(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseMechanism(buffer.str());
}

std::string SerializeExactMechanism(const RationalMatrix& mechanism) {
  std::string out = kHeaderV2;
  out += "\nn " + std::to_string(mechanism.rows() == 0
                                     ? -1
                                     : static_cast<int>(mechanism.rows()) - 1);
  out += "\n";
  for (size_t i = 0; i < mechanism.rows(); ++i) {
    out += "row";
    for (size_t r = 0; r < mechanism.cols(); ++r) {
      out += " " + mechanism.At(i, r).ToString();
    }
    out += "\n";
  }
  return out;
}

std::string SerializeExactMechanismV3(const RationalMatrix& mechanism) {
  // Reuse the v2 serializer for the body so v3 stays byte-compatible with
  // the format ParseExactBody already understands.
  const std::string v2 = SerializeExactMechanism(mechanism);
  const std::string body = v2.substr(std::string(kHeaderV2).size() + 1);
  std::string out = kHeaderV3;
  out += "\nchecksum " + Fnv1a64Hex(body) + "\n";
  out += body;
  return out;
}

Result<RationalMatrix> ParseExactMechanism(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || (line != kHeaderV2 && line != kHeaderV3)) {
    return Status::InvalidArgument(
        "missing 'geopriv-mechanism v2' (or v3) header");
  }
  if (line == kHeaderV3) {
    GEOPRIV_RETURN_IF_ERROR(ConsumeChecksumLine(in, "v3 mechanism"));
  }
  return ParseExactBody(in);
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Fnv1a64Hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  return std::string(buf);
}

std::string SerializeBasisDoc(const std::string& key,
                              const std::vector<size_t>& basic_columns) {
  std::string body = "key " + key + "\n";
  body += "columns " + std::to_string(basic_columns.size());
  for (const size_t column : basic_columns) {
    body += " " + std::to_string(column);
  }
  body += "\n";
  std::string out = kBasisHeader;
  out += "\nchecksum " + Fnv1a64Hex(body) + "\n";
  out += body;
  return out;
}

Result<std::vector<size_t>> ParseBasisDoc(const std::string& text,
                                          std::string* key_out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kBasisHeader) {
    if (line == kBasisHeaderV1 || line == kBasisHeaderV2) {
      // v1: a Section 2.5 LP basis; v2: an unreduced interaction LP basis.
      return Status::FailedPrecondition(
          "'" + line + "' holds a basis of an LP whose columns differ from "
          "the reduced interaction LP");
    }
    return Status::InvalidArgument("missing 'geopriv-basis v3' header");
  }
  GEOPRIV_RETURN_IF_ERROR(ConsumeChecksumLine(in, "basis document"));
  if (!std::getline(in, line) || line.compare(0, 4, "key ") != 0) {
    return Status::InvalidArgument("missing 'key <canonical key>' line in "
                                   "basis document");
  }
  if (key_out != nullptr) *key_out = line.substr(4);
  std::string keyword;
  long long count = -1;
  if (!(in >> keyword >> count) || keyword != "columns" || count < 0) {
    return Status::InvalidArgument(
        "missing or malformed 'columns <k> ...' line in basis document");
  }
  std::vector<size_t> columns;
  columns.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    long long column = -1;
    if (!(in >> column) || column < 0) {
      return Status::InvalidArgument("basis document has fewer than " +
                                     std::to_string(count) + " columns");
    }
    if (!columns.empty() && static_cast<size_t>(column) <= columns.back()) {
      return Status::InvalidArgument(
          "basis columns must be strictly increasing");
    }
    columns.push_back(static_cast<size_t>(column));
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::InvalidArgument("trailing content after basis columns");
  }
  return columns;
}

Status SaveExactMechanism(const RationalMatrix& mechanism,
                          const std::string& path) {
  // Empty and rectangular matrices can pass IsRowStochastic (vacuously /
  // row-sums only) yet serialize to documents the parser rejects; refuse
  // them here instead of round-tripping a successful save into a hard
  // load error.
  if (mechanism.rows() == 0 || mechanism.rows() != mechanism.cols() ||
      !mechanism.IsRowStochastic()) {
    return Status::InvalidArgument(
        "refusing to save an empty, non-square or non-row-stochastic "
        "exact mechanism");
  }
  GEOPRIV_INJECT_FAULT("io.save.write");
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << SerializeExactMechanism(mechanism);
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

Result<RationalMatrix> LoadExactMechanism(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseExactMechanism(buffer.str());
}

}  // namespace geopriv
