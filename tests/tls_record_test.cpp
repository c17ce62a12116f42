#include "h2priv/tls/record.hpp"

#include <random>
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

// Sealing pieces reads them where they lie and gathers only the words that
// straddle a piece boundary (the quantization marker and filler are pieces
// too); the wire bytes must equal seal() of the joined plaintext for random
// splits, empty pieces, every header length mod 8, plaintexts above one
// record and quantized buckets.
TEST(TlsSealPieces, MatchesSealOfJoinedPlaintext) {
  std::mt19937 rng(0x5ea1);
  const util::Bytes source = util::patterned_bytes(3 * kMaxPlaintext + 100, 11);
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 15, 100, 4'105, kMaxPlaintext - 1,
                               kMaxPlaintext, kMaxPlaintext + 9, 40'000};
  for (const std::size_t bucket : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                   std::size_t{512}, std::size_t{4'096}, kMaxPlaintext}) {
    for (int trial = 0; trial < 64; ++trial) {
      const auto t = static_cast<std::size_t>(trial);
      const std::size_t total = sizes[t % std::size(sizes)];
      // Header lengths 0..15 cover every residue mod 8, empty heads included.
      const std::size_t head = std::min<std::size_t>(total, t / 4 % 16);
      const std::size_t zeros =
          std::min<std::size_t>(total - head, rng() % 3 == 0 ? 0 : rng() % 300);
      const std::size_t payload = total - head - zeros;
      const std::size_t at = rng() % 1'000;
      const util::Pieces pieces{
          .head = util::BytesView(source).subspan(at, head),
          .payload = util::BytesView(source).subspan(at + head, payload),
          .zeros = zeros};
      const util::Bytes joined = pieces.joined();
      const auto type =
          t % 8 == 7 ? ContentType::kHandshake : ContentType::kApplicationData;
      SealContext by_pieces(kSecret, 1);
      SealContext by_joined(kSecret, 1);
      by_pieces.set_pad_bucket(bucket);
      by_joined.set_pad_bucket(bucket);
      for (int skip = trial % 3; skip > 0; --skip) {  // later sequence numbers too
        (void)by_pieces.seal(type, {});
        (void)by_joined.seal(type, {});
      }
      const util::SharedBytes got = by_pieces.seal_shared(type, pieces);
      const util::Bytes want = by_joined.seal(type, joined);
      ASSERT_EQ(util::Bytes(got.begin(), got.end()), want)
          << "bucket " << bucket << " total " << total << " head " << head << " zeros "
          << zeros;
    }
  }
}

}  // namespace
}  // namespace h2priv::tls
