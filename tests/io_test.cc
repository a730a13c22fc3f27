// Tests for mechanism text serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/geometric.h"
#include "core/io.h"

namespace geopriv {
namespace {

TEST(IoTest, RoundTripPreservesEveryProbability) {
  auto geo = *GeometricMechanism::Create(7, 0.37)->ToMechanism();
  std::string text = SerializeMechanism(geo);
  auto back = ParseMechanism(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->n(), 7);
  for (int i = 0; i <= 7; ++i) {
    for (int r = 0; r <= 7; ++r) {
      EXPECT_DOUBLE_EQ(back->Probability(i, r), geo.Probability(i, r));
    }
  }
}

TEST(IoTest, HeaderIsRequired) {
  EXPECT_FALSE(ParseMechanism("").ok());
  EXPECT_FALSE(ParseMechanism("wrong header\nn 1\nrow 1 0\nrow 0 1\n").ok());
}

TEST(IoTest, ShapeErrorsAreCaught) {
  std::string base = "geopriv-mechanism v1\n";
  EXPECT_FALSE(ParseMechanism(base + "m 1\n").ok());        // wrong keyword
  EXPECT_FALSE(ParseMechanism(base + "n -2\n").ok());       // negative n
  EXPECT_FALSE(ParseMechanism(base + "n 1\nrow 1\n").ok()); // short row
  EXPECT_FALSE(
      ParseMechanism(base + "n 1\nrow 1 0\n").ok());        // missing row
  EXPECT_FALSE(
      ParseMechanism(base + "n 0\nrow 1\nrow 1\n").ok());   // extra row
}

TEST(IoTest, StochasticityIsValidatedOnParse) {
  std::string text =
      "geopriv-mechanism v1\nn 1\nrow 0.9 0.3\nrow 0.5 0.5\n";
  auto parsed = ParseMechanism(text);
  EXPECT_FALSE(parsed.ok());
}

TEST(IoTest, SaveAndLoadFile) {
  auto geo = *GeometricMechanism::Create(4, 0.5)->ToMechanism();
  std::string path = ::testing::TempDir() + "/geopriv_io_test.mech";
  ASSERT_TRUE(SaveMechanism(geo, path).ok());
  auto back = LoadMechanism(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->n(), 4);
  EXPECT_DOUBLE_EQ(back->Probability(2, 2), geo.Probability(2, 2));
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  auto missing = LoadMechanism("/nonexistent/path/x.mech");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(IoTest, SerializedFormIsStable) {
  Mechanism id = Mechanism::Identity(1);
  std::string text = SerializeMechanism(id);
  EXPECT_EQ(text, "geopriv-mechanism v1\nn 1\nrow 1 0\nrow 0 1\n");
}

// ---- v2 (exact rational) format ---------------------------------------------

RationalMatrix ThirdsMatrix() {
  RationalMatrix m(2, 2);
  m.At(0, 0) = *Rational::FromInts(1, 3);
  m.At(0, 1) = *Rational::FromInts(2, 3);
  m.At(1, 0) = *Rational::FromInts(2, 7);
  m.At(1, 1) = *Rational::FromInts(5, 7);
  return m;
}

TEST(IoTest, ExactRoundTripIsLossless) {
  // 1/3 and 2/7 have no finite binary expansion: only the v2 format can
  // round-trip them; operator== is exact equality over Q.
  RationalMatrix m = ThirdsMatrix();
  std::string text = SerializeExactMechanism(m);
  EXPECT_EQ(text,
            "geopriv-mechanism v2\nn 1\nrow 1/3 2/3\nrow 2/7 5/7\n");
  auto back = ParseExactMechanism(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == m);
}

TEST(IoTest, ExactGeometricMechanismRoundTrips) {
  auto g = GeometricMechanism::BuildExactMatrix(6, *Rational::FromInts(1, 3));
  ASSERT_TRUE(g.ok());
  auto back = ParseExactMechanism(SerializeExactMechanism(*g));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == *g);
}

TEST(IoTest, ParseMechanismAcceptsV2) {
  // The v1 entry point reads v2 documents too (converted to doubles), so
  // every existing consumer of saved mechanisms understands cache files.
  auto m = ParseMechanism(SerializeExactMechanism(ThirdsMatrix()));
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_DOUBLE_EQ(m->Probability(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m->Probability(1, 1), 5.0 / 7.0);
}

TEST(IoTest, V2MalformedInputsAreRejected) {
  const std::string base = "geopriv-mechanism v2\n";
  // v1 header is not a v2 document.
  EXPECT_FALSE(ParseExactMechanism("geopriv-mechanism v1\nn 0\nrow 1\n").ok());
  EXPECT_FALSE(ParseExactMechanism(base + "m 1\n").ok());
  EXPECT_FALSE(ParseExactMechanism(base + "n -2\n").ok());
  EXPECT_FALSE(ParseExactMechanism(base + "n 1\nrow 1/2\n").ok());  // short
  EXPECT_FALSE(
      ParseExactMechanism(base + "n 1\nrow 1/2 1/2\n").ok());  // missing row
  EXPECT_FALSE(ParseExactMechanism(base + "n 0\nrow x/y\n").ok());  // token
  EXPECT_FALSE(ParseExactMechanism(base + "n 0\nrow 1/0\n").ok());  // div 0
  // Exactly stochastic is required: 1/3 + 1/3 != 1.
  EXPECT_FALSE(
      ParseExactMechanism(base + "n 1\nrow 1/3 1/3\nrow 0 1\n").ok());
  // Negative entries are not probabilities.
  EXPECT_FALSE(
      ParseExactMechanism(base + "n 1\nrow -1/2 3/2\nrow 0 1\n").ok());
  // Trailing content after the last row.
  EXPECT_FALSE(
      ParseExactMechanism(base + "n 0\nrow 1\nrow 1\n").ok());
}

// ---- v3 (checksummed) format ------------------------------------------------

TEST(IoTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors; the checksum lines in v3 / basis docs
  // and the persistence filenames all key off this exact function.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1a64Hex("foobar"), "85944171f73967e8");
  EXPECT_EQ(Fnv1a64Hex("").size(), 16u);
}

TEST(IoTest, V3RoundTripsWithChecksum) {
  RationalMatrix m = ThirdsMatrix();
  const std::string text = SerializeExactMechanismV3(m);
  // The v3 document is the v2 body behind a header + checksum line.
  EXPECT_EQ(text.compare(0, 20, "geopriv-mechanism v3"), 0);
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
  EXPECT_NE(text.find("row 1/3 2/3"), std::string::npos);
  auto back = ParseExactMechanism(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == m);
  // The double-precision entry point reads v3 too.
  auto doubles = ParseMechanism(text);
  ASSERT_TRUE(doubles.ok()) << doubles.status().ToString();
  EXPECT_DOUBLE_EQ(doubles->Probability(0, 0), 1.0 / 3.0);
}

TEST(IoTest, V3DetectsCorruptionThatV2CannotSee) {
  // Swapping two digits keeps the document parseable and stochastic —
  // only the checksum catches it.
  std::string text = SerializeExactMechanismV3(ThirdsMatrix());
  const size_t pos = text.find("2/7 5/7");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "5/7 2/7");
  auto back = ParseExactMechanism(text);
  EXPECT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("checksum"), std::string::npos)
      << back.status().ToString();
}

TEST(IoTest, V3MalformedChecksumLinesAreRejected) {
  const std::string good = SerializeExactMechanismV3(ThirdsMatrix());
  // Truncated mid-checksum line.
  EXPECT_FALSE(ParseExactMechanism("geopriv-mechanism v3\nchecksum 0123")
                   .ok());
  // Missing checksum line entirely (a v2 body behind a v3 header).
  EXPECT_FALSE(
      ParseExactMechanism("geopriv-mechanism v3\nn 1\nrow 1 0\nrow 0 1\n")
          .ok());
  // Wrong checksum value.
  std::string bad = good;
  const size_t pos = bad.find("checksum ") + 9;
  bad[pos] = bad[pos] == '0' ? '1' : '0';
  EXPECT_FALSE(ParseExactMechanism(bad).ok());
}

// ---- basis sidecar documents ------------------------------------------------

TEST(IoTest, BasisDocRoundTrips) {
  const std::string key = "mode=exact;n=4;side=0..4;loss=absolute;alpha=1/2";
  const std::vector<size_t> columns = {0, 3, 7, 12, 13};
  const std::string doc = SerializeBasisDoc(key, columns);
  EXPECT_EQ(doc.compare(0, 16, "geopriv-basis v3"), 0);
  std::string key_out;
  auto back = ParseBasisDoc(doc, &key_out);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, columns);
  EXPECT_EQ(key_out, key);
}

TEST(IoTest, BasisDocRejectsCorruptionAndMalformedShapes) {
  const std::string key = "mode=exact;n=4;side=0..4;loss=absolute;alpha=1/2";
  const std::string doc = SerializeBasisDoc(key, {1, 2, 5});
  std::string key_out;

  // A flipped digit in the column list breaks the checksum.
  std::string flipped = doc;
  flipped[flipped.size() - 2] = '9';
  EXPECT_FALSE(ParseBasisDoc(flipped, &key_out).ok());

  // Truncation breaks it too — a torn basis can never be half-loaded.
  EXPECT_FALSE(
      ParseBasisDoc(doc.substr(0, doc.size() - 1), &key_out).ok());

  // Hand-built documents with a correct checksum but a bad body: the
  // column list must be strictly increasing and complete.
  const auto with_checksum = [](const std::string& body) {
    return "geopriv-basis v3\nchecksum " + Fnv1a64Hex(body) + "\n" + body;
  };
  EXPECT_FALSE(ParseBasisDoc(with_checksum("key k\ncolumns 3 1 2\n"),
                             &key_out).ok());  // count < list... short list
  EXPECT_FALSE(ParseBasisDoc(with_checksum("key k\ncolumns 2 5 5\n"),
                             &key_out).ok());  // not strictly increasing
  EXPECT_FALSE(ParseBasisDoc(with_checksum("key k\ncolumns 2 5 3\n"),
                             &key_out).ok());  // decreasing
  EXPECT_FALSE(ParseBasisDoc(with_checksum("columns 1 0\n"),
                             &key_out).ok());  // missing key line
  EXPECT_TRUE(ParseBasisDoc(with_checksum("key k\ncolumns 2 3 5\n"),
                            &key_out).ok());
  EXPECT_EQ(key_out, "k");

  // An intact v1 document (a Section 2.5 LP basis) or v2 document (a basis
  // of the unreduced interaction LP) is stale, not corrupt: the loader
  // tells the two apart by the status code.
  const std::string old_body = "key k\ncolumns 2 3 5\n";
  for (const char* header : {"geopriv-basis v1", "geopriv-basis v2"}) {
    const auto stale = ParseBasisDoc(std::string(header) + "\nchecksum " +
                                         Fnv1a64Hex(old_body) + "\n" +
                                         old_body,
                                     &key_out);
    ASSERT_FALSE(stale.ok()) << header;
    EXPECT_TRUE(stale.status().IsFailedPrecondition())
        << header << ": " << stale.status().ToString();
  }
}

TEST(IoTest, SaveAndLoadExactFile) {
  RationalMatrix m = ThirdsMatrix();
  std::string path = ::testing::TempDir() + "/geopriv_io_test.mech2";
  ASSERT_TRUE(SaveExactMechanism(m, path).ok());
  auto back = LoadExactMechanism(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == m);
  std::remove(path.c_str());

  RationalMatrix bogus(1, 1);
  bogus.At(0, 0) = *Rational::FromInts(2, 1);
  EXPECT_FALSE(SaveExactMechanism(bogus, path).ok());
  // The empty matrix would serialize to an unparseable document.
  EXPECT_FALSE(SaveExactMechanism(RationalMatrix(0, 0), path).ok());
}

}  // namespace
}  // namespace geopriv
