#include "h2priv/tls/record.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "h2priv/util/hex.hpp"

namespace h2priv::tls {
namespace {

constexpr std::uint64_t kSecret = 0x1234;

TEST(TlsRecord, SealOpenRoundTrip) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(1'000, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  EXPECT_EQ(wire.size(), 1'000 + kHeaderBytes + kAeadOverhead);
  std::size_t consumed = 0;
  const auto rec = open.open_one(wire, consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(rec.type, ContentType::kApplicationData);
  EXPECT_EQ(util::Bytes(rec.plaintext.begin(), rec.plaintext.end()), plaintext);
}

TEST(TlsRecord, CiphertextIsScrambled) {
  SealContext seal(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(100, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  // The body (after the 5-byte header) must not equal the plaintext.
  EXPECT_FALSE(std::equal(plaintext.begin(), plaintext.end(), wire.begin() +
               kHeaderBytes));
}

TEST(TlsRecord, LargePlaintextChunksIntoMultipleRecords) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(40'000, 2);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  // 40000 = 16384 + 16384 + 7232 -> 3 records.
  EXPECT_EQ(wire.size(), 40'000 + 3 * (kHeaderBytes + kAeadOverhead));
  EXPECT_EQ(seal.records_sealed(), 3u);

  util::Bytes reassembled;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t consumed = 0;
    const auto rec =
        open.open_one(util::BytesView(wire.data() + pos, wire.size() - pos), consumed);
    reassembled.insert(reassembled.end(), rec.plaintext.begin(), rec.plaintext.end());
    pos += consumed;
  }
  EXPECT_EQ(reassembled, plaintext);
}

TEST(TlsRecord, SealedSizePredictsExactly) {
  SealContext seal(kSecret, 0);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{16'384},
                              std::size_t{16'385}, std::size_t{50'000}}) {
    SealContext fresh(kSecret, 0);
    EXPECT_EQ(
        fresh.seal(ContentType::kApplicationData, util::patterned_bytes(n, 3)).size(),
        SealContext::sealed_size(n))
        << "n=" << n;
  }
  (void)seal;
}

TEST(TlsRecord, TamperedCiphertextFailsAuthentication) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  util::Bytes wire = seal.seal(ContentType::kApplicationData,
                               util::patterned_bytes(64, 4));
  wire[kHeaderBytes + 10] ^= 0x01;
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, OutOfOrderOpenFailsAuthentication) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes first = seal.seal(ContentType::kApplicationData,
                                      util::patterned_bytes(8, 1));
  const util::Bytes second = seal.seal(ContentType::kApplicationData,
                                       util::patterned_bytes(8, 2));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(second, consumed), TlsError)
      << "record sequence numbers key the cipher";
}

TEST(TlsRecord, WrongSecretFails) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret + 1, 0);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(8, 1));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, WrongDirectionDomainFails) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(8, 1));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, ParseHeaderExposesTypeAndLength) {
  SealContext seal(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kHandshake,
                                     util::patterned_bytes(100, 5));
  RecordHeader hdr{};
  ASSERT_TRUE(parse_header(wire, hdr));
  EXPECT_EQ(hdr.type, ContentType::kHandshake);
  EXPECT_EQ(hdr.ciphertext_len, 100 + kAeadOverhead);
}

TEST(TlsRecord, ParseHeaderNeedsFiveBytes) {
  RecordHeader hdr{};
  const util::Bytes four = {23, 3, 3, 0};
  EXPECT_FALSE(parse_header(four, hdr));
}

TEST(TlsRecord, ParseHeaderRejectsBadType) {
  RecordHeader hdr{};
  const util::Bytes bad = {99, 3, 3, 0, 10};
  EXPECT_THROW((void)parse_header(bad, hdr), TlsError);
}

TEST(TlsRecord, OpenTruncatedThrows) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  util::Bytes wire = seal.seal(ContentType::kApplicationData,
                               util::patterned_bytes(64, 4));
  wire.resize(wire.size() - 1);
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, EmptyPlaintextSealsOneRecord) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kAlert, util::BytesView{});
  EXPECT_EQ(wire.size(), kHeaderBytes + kAeadOverhead);
  std::size_t consumed = 0;
  const auto rec = open.open_one(wire, consumed);
  EXPECT_TRUE(rec.plaintext.empty());
  EXPECT_EQ(rec.type, ContentType::kAlert);
}

TEST(TlsRecord, EveryTagByteIsAuthenticated) {
  SealContext seal(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(64, 4));
  for (std::size_t i = 0; i < kAeadOverhead; ++i) {
    util::Bytes bad = wire;
    bad[wire.size() - kAeadOverhead + i] ^= 0x01;
    OpenContext open(kSecret, 0);
    std::size_t consumed = 0;
    EXPECT_THROW((void)open.open_one(bad, consumed), TlsError) << "tag byte " << i;
  }
}

// Seal -> open over every length around a keystream block edge and around
// the record-size limit, plain and quantized.
TEST(TlsRecord, RoundTripsBlockAndRecordEdgeLengths) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {16'383, 16'384, 16'385});
  for (const std::size_t bucket : {std::size_t{0}, std::size_t{64}}) {
    for (const std::size_t n : lengths) {
      SealContext seal(kSecret, 0);
      OpenContext open(kSecret, 0);
      seal.set_pad_bucket(bucket);
      open.set_unpad(bucket > 0);
      const util::Bytes plaintext = util::patterned_bytes(n, 9);
      const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
      util::Bytes reassembled;
      for (std::size_t pos = 0; pos < wire.size();) {
        std::size_t consumed = 0;
        const auto rec = open.open_one(util::BytesView(wire).subspan(pos), consumed);
        reassembled.insert(reassembled.end(), rec.plaintext.begin(), rec.plaintext.end());
        pos += consumed;
      }
      EXPECT_EQ(reassembled, plaintext) << "n=" << n << " bucket=" << bucket;
    }
  }
}

// Known answers: a change to the keystream, the tag or the body pattern must
// fail here by name, not only through the golden-trace wire digests.
TEST(TlsRecord, KnownAnswerWireBytes) {
  EXPECT_EQ(util::to_hex(util::patterned_bytes(13, 7)), "0185f893369c77ec9de36d93b4");
  SealContext seal(kSecret, 0);
  EXPECT_EQ(util::to_hex(seal.seal(ContentType::kApplicationData,
                                   util::patterned_bytes(13, 7))),
            "170303001d6f63932d66b26b4a03db674dfbd98feb9bb4cc99c247cffe0bda3a1cdf");
}

}  // namespace
}  // namespace h2priv::tls
