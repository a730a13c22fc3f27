// Text serialization for mechanisms and interaction matrices.
//
// A deployed mechanism is an artifact that gets reviewed, versioned and
// shipped between the data owner and consumers, so the library provides a
// stable, human-readable format.  Three versions exist:
//
//   geopriv-mechanism v1
//   n <n>
//   row <p_0> <p_1> ... <p_n>     (n+1 rows, each a distribution)
//
// with probabilities written with 17 significant digits (round-trip safe
// for doubles),
//
//   geopriv-mechanism v2
//   n <n>
//   row <p_0> <p_1> ... <p_n>     (entries are exact rationals "p/q")
//
// whose entries round-trip *losslessly*, and
//
//   geopriv-mechanism v3
//   checksum <16 hex digits>
//   n <n>
//   row <p_0> <p_1> ... <p_n>     (body identical to v2)
//
// which adds an FNV-1a-64 checksum over the canonical body bytes
// (everything after the checksum line).  v3 is what the mechanism
// service's durable store persists: an exact LP optimum reloaded after a
// restart is bit-identical (operator==) to the freshly solved one, and a
// bit-flipped or torn file is *detected* rather than trusted.  Parsing
// validates shape and stochasticity; ParseMechanism accepts all three
// versions (rational entries are converted to doubles),
// ParseExactMechanism accepts v2 and v3 and verifies the v3 checksum.

#ifndef GEOPRIV_CORE_IO_H_
#define GEOPRIV_CORE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "exact/rational_matrix.h"
#include "util/result.h"

namespace geopriv {

/// Serializes a mechanism to the v1 text format.
std::string SerializeMechanism(const Mechanism& mechanism);

/// Parses the v1, v2 or v3 text format; validates header, shape and
/// stochasticity (and the checksum for v3).  Rational entries are
/// converted to the closest doubles.
Result<Mechanism> ParseMechanism(const std::string& text);

/// Writes a mechanism to `path` (overwrites).  Fails on I/O errors.
Status SaveMechanism(const Mechanism& mechanism, const std::string& path);

/// Reads a mechanism from `path`.
Result<Mechanism> LoadMechanism(const std::string& path);

// ---- exact (v2/v3) format ---------------------------------------------------

/// Serializes an exact row-stochastic matrix to the v2 text format with
/// lossless "p/q" entries (lowest terms).
std::string SerializeExactMechanism(const RationalMatrix& mechanism);

/// Serializes to the v3 text format: the v2 body prefixed by a
/// "checksum <16 hex>" FNV-1a-64 digest of the body bytes.  This is the
/// format the service's durable store writes.
std::string SerializeExactMechanismV3(const RationalMatrix& mechanism);

/// Parses the v2 or v3 text format; validates the header, shape, *exact*
/// row-stochasticity (every row sums to exactly 1, entries >= 0), and —
/// for v3 — that the stored checksum matches the body bytes.
Result<RationalMatrix> ParseExactMechanism(const std::string& text);

// ---- checksums --------------------------------------------------------------

/// FNV-1a 64-bit digest of `bytes` (the checksum primitive used by the v3
/// mechanism format, basis documents and the service manifest).
uint64_t Fnv1a64(const std::string& bytes);

/// `Fnv1a64` formatted as exactly 16 lowercase hex digits.
std::string Fnv1a64Hex(const std::string& bytes);

// ---- LP basis documents -----------------------------------------------------
//
// The service persists the optimal LP basis next to each cached mechanism
// so a restarted daemon warm-starts exactly as a live cache does.  The
// format mirrors v3's checksum discipline:
//
//   geopriv-basis v3
//   checksum <16 hex digits>
//   key <canonical signature key>
//   columns <k> <c_0> <c_1> ... <c_{k-1}>
//
// where the checksum covers everything after its own line and the columns
// are the basic column indices of an LpBasis, sorted and duplicate-free.
// The column vector is passed as plain indices so core/ stays independent
// of lp/.  v3 bases belong to the reduced Section 2.4.3 interaction LP
// (outputs on hull(S), one output per row eliminated; see
// SolveOptimalInteractionExact).  v2 bases belonged to the unreduced
// interaction LP and v1 bases to the Section 2.5 LP; both shapes differ.

/// Serializes a basis document for `key` with the given basic columns.
std::string SerializeBasisDoc(const std::string& key,
                              const std::vector<size_t>& basic_columns);

/// Parses a basis document; validates header, checksum, and that the
/// columns are sorted and duplicate-free.  Returns the basic columns and
/// stores the embedded canonical key in `*key_out` (if non-null).  A v1 or
/// v2 document is not corrupt but stale: it fails with FailedPrecondition.
Result<std::vector<size_t>> ParseBasisDoc(const std::string& text,
                                          std::string* key_out);

/// Writes an exact mechanism to `path` (overwrites).  Fails on I/O errors
/// and on non-stochastic input.
Status SaveExactMechanism(const RationalMatrix& mechanism,
                          const std::string& path);

/// Reads an exact mechanism from `path`.
Result<RationalMatrix> LoadExactMechanism(const std::string& path);

}  // namespace geopriv

#endif  // GEOPRIV_CORE_IO_H_
