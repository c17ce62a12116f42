#include "h2priv/tls/record.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/narrow.hpp"

namespace h2priv::tls {

namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

static_assert(std::endian::native == std::endian::little,
              "the word-wide record pass equals the per-byte definition only on "
              "little-endian hosts");

constexpr std::uint64_t kP = 31;  // checksum multiplier: h = h*31 + byte
constexpr std::uint64_t kP2 = kP * kP, kP4 = kP2 * kP2, kP8 = kP4 * kP4;

/// Folds one 8-byte plaintext word (byte 0 first) into the checksum:
/// h*31^8 + b0*31^7 + ... + b7. Byte pairs fold in 16-bit lanes
/// (b0*31 + b1 <= 8160), pairs of pairs in 32-bit lanes (< 2^23), so no lane
/// carries into the next and the sum equals the per-byte form mod 2^64.
std::uint64_t fold_word(std::uint64_t h, std::uint64_t w) noexcept {
  constexpr std::uint64_t kLo8 = 0x00ff00ff00ff00ffull;
  constexpr std::uint64_t kLo16 = 0x0000ffff0000ffffull;
  const std::uint64_t pairs = (w & kLo8) * kP + ((w >> 8) & kLo8);
  const std::uint64_t quads = (pairs & kLo16) * kP2 + ((pairs >> 16) & kLo16);
  return h * kP8 + (quads & 0xffffffffu) * kP4 + (quads >> 32);
}

/// Per-record key material: the keystream base, the tag key k and the
/// checksum seed mix(k ^ domain).
///
/// Keystream: byte i of a record body is XORed with byte (i % 8) of
/// mix(base ^ i/8), base = secret ^ domain<<56 ^ seq*golden. Tag: h2 ||
/// mix(k ^ h2), each half little-endian, k = mix(secret ^ "tag" ^ seq), h2 the
/// checksum h = 31h + byte over the plaintext from the seed.
struct RecordKeys {
  std::uint64_t base;
  std::uint64_t k;
  std::uint64_t seed;
};

RecordKeys record_keys(std::uint64_t secret, std::uint8_t domain,
                       std::uint64_t seq) noexcept {
  const std::uint64_t base = secret ^ (static_cast<std::uint64_t>(domain) << 56) ^
                             (seq * 0x9e3779b97f4a7c15ull);
  const std::uint64_t k = mix(secret ^ 0x746167u ^ seq);  // "tag"
  return {base, k, mix(k ^ domain)};
}

/// The one pass over `words` whole 8-byte words of a body, starting at word
/// index `first`: dst = src XOR keystream, with the plaintext side (src when
/// sealing, dst when opening) folded into the checksum `h` in the same loop.
/// src == dst is allowed.
/// Always inlined, so each caller gets its own loop with `opening` folded.
[[gnu::always_inline]] inline std::uint64_t crypt_words(
    std::uint64_t base, std::uint64_t first, std::uint64_t h,
    const std::uint8_t* src, std::uint8_t* dst, std::size_t words,
    bool opening) noexcept {
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t in = 0;
    std::memcpy(&in, src + 8 * i, 8);
    const std::uint64_t out = in ^ mix(base ^ (first + i));
    std::memcpy(dst + 8 * i, &out, 8);
    h = fold_word(h, opening ? out : in);
  }
  return h;
}

/// XORs n bytes that start at byte `at` of keystream word `word` (at + n <=
/// 8). The checksum folds them once their word is whole (or the body ends).
void crypt_bytes(std::uint64_t base, std::uint64_t word, std::size_t at,
                 const std::uint8_t* src, std::uint8_t* dst, std::size_t n) noexcept {
  if (n == 0) return;
  const std::uint64_t ks = mix(base ^ word) >> (8 * at);
  for (std::size_t j = 0; j < n; ++j) {
    dst[j] = static_cast<std::uint8_t>(src[j] ^ (ks >> (8 * j)));
  }
}

/// Folds the body's final n < 8 bytes into the checksum, byte by byte.
std::uint64_t fold_bytes(std::uint64_t h, const std::uint8_t* p, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) h = h * kP + p[j];
  return h;
}

std::uint64_t load_word(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, 8);
  return w;
}

std::array<std::uint8_t, kAeadOverhead> make_tag(std::uint64_t k,
                                                 std::uint64_t h2) noexcept {
  const std::uint64_t h1 = mix(k ^ h2);
  std::array<std::uint8_t, kAeadOverhead> tag{};
  std::memcpy(tag.data(), &h2, 8);
  std::memcpy(tag.data() + 8, &h1, 8);
  return tag;
}

ContentType check_type(std::uint8_t raw) {
  switch (raw) {
    case 20: return ContentType::kChangeCipherSpec;
    case 21: return ContentType::kAlert;
    case 22: return ContentType::kHandshake;
    case 23: return ContentType::kApplicationData;
    default: throw TlsError("invalid TLS content type " + std::to_string(raw));
  }
}

}  // namespace

namespace {

constexpr std::array<std::uint8_t, 1> kContentMarker = {0x17};

/// Plaintext bytes of a quantized record holding `chunk` content bytes:
/// content || 0x17 marker || zero filler, rounded up to the bucket (capped
/// at the record-size limit).
std::size_t quantized_len(std::size_t chunk, std::size_t bucket) noexcept {
  const std::size_t rem = (chunk + 1) % bucket;
  return std::min(chunk + 1 + (rem == 0 ? 0 : bucket - rem), kMaxPlaintext);
}

/// Hands out the plaintext of one seal call front to back as views: the
/// head, the payload, then the zeros as a view of the zero page.
class PieceCursor {
 public:
  explicit PieceCursor(const util::Pieces& p)
      : views_{p.head, p.payload, util::zero_bytes(p.zeros)} {}

  /// Appends views of the next `n` bytes (at most what is left) to `out`
  /// from `at` on; returns the index past the last view written.
  std::size_t take(std::size_t n, util::BytesView* out, std::size_t at) noexcept {
    while (n > 0) {
      while (views_[next_].empty()) ++next_;
      const std::size_t m = std::min(n, views_[next_].size());
      out[at++] = views_[next_].first(m);
      views_[next_] = views_[next_].subspan(m);
      n -= m;
    }
    return at;
  }

 private:
  std::array<util::BytesView, 3> views_;
  std::size_t next_ = 0;
};

/// crypt_words for sealing, kept out of line so the word loop has the
/// registers to itself: inlined into seal_parts, whose piece state is live
/// across it, gcc reloads the multiplier constants on every word.
[[gnu::noinline]] std::uint64_t seal_words(std::uint64_t base, std::uint64_t first,
                                           std::uint64_t h, const std::uint8_t* src,
                                           std::uint8_t* dst,
                                           std::size_t words) noexcept {
  return crypt_words(base, first, h, src, dst, words, false);
}

/// Seals one record body whose plaintext is the concatenation of `parts`
/// into `out`; returns the checksum folded from `h`. Whole words run
/// straight from each part through crypt_words; only a word that straddles
/// two parts, or the record's last n < 8 bytes, is gathered first.
std::uint64_t seal_parts(std::uint64_t base, std::uint64_t h,
                         const util::BytesView* parts, std::size_t count,
                         std::uint8_t* out) noexcept {
  std::size_t pos = 0;   // body offset; a multiple of 8 until the tail
  std::size_t next = 0;  // parts[next] is the first part not yet started
  util::BytesView cur;
  const auto advance = [&] {
    while (cur.empty() && next < count) cur = parts[next++];
    return !cur.empty();
  };
  while (advance()) {
    if (cur.size() >= 8) {
      const std::size_t words = cur.size() / 8;
      h = seal_words(base, pos / 8, h, cur.data(), out + pos, words);
      pos += 8 * words;
      cur = cur.subspan(8 * words);
      continue;
    }
    std::array<std::uint8_t, 8> word{};
    std::size_t have = 0;
    do {
      const std::size_t m = std::min(8 - have, cur.size());
      for (std::size_t j = 0; j < m; ++j) word[have + j] = cur[j];
      have += m;
      cur = cur.subspan(m);
    } while (have < 8 && advance());
    if (have == 8) {
      h = seal_words(base, pos / 8, h, word.data(), out + pos, 1);
    } else {
      crypt_bytes(base, pos / 8, 0, word.data(), out + pos, have);
      h = fold_bytes(h, word.data(), have);
    }
    pos += have;
  }
  return h;
}

}  // namespace

void SealContext::seal_into(util::ByteWriter& w, ContentType type,
                            const util::Pieces& plaintext) {
  // Record quantization applies to application data only — the handshake
  // preamble must keep its recognizable flight sizes.
  const bool quantize = quantizes(type);
  // Quantized chunks leave one byte of headroom for the content marker.
  const std::size_t chunk_limit = quantize ? kMaxPlaintext - 1 : kMaxPlaintext;
  const std::size_t total = plaintext.size();
  PieceCursor cursor(plaintext);
  std::size_t off = 0;
  do {
    const std::size_t chunk = std::min(total - off, chunk_limit);
    // Up to three slices of the pieces, then the marker and filler.
    std::array<util::BytesView, 5> parts{};
    std::size_t count = cursor.take(chunk, parts.data(), 0);
    std::size_t content_len = chunk;
    if (quantize) {
      // TLS 1.3-style inner framing: content || 0x17 marker || zero filler.
      content_len = quantized_len(chunk, pad_bucket_);
      parts[count++] = kContentMarker;
      parts[count++] = util::zero_bytes(content_len - chunk - 1);
      obs::count(obs::Counter::kTlsPadBytesSealed, content_len - chunk);
    }
    const std::uint64_t seq = seq_++;

    w.u8(static_cast<std::uint8_t>(type));
    w.u16(kVersionTls12);
    w.u16(util::narrow<std::uint16_t>(content_len + kAeadOverhead));
    const RecordKeys keys = record_keys(secret_, domain_, seq);
    std::uint8_t* const out = w.append(content_len);
    const std::uint64_t h2 = seal_parts(keys.base, keys.seed, parts.data(), count, out);
    const auto tag = make_tag(keys.k, h2);
    w.bytes(util::BytesView(tag.data(), tag.size()));
    obs::count(obs::Counter::kTlsRecordsSealed);
    obs::sample(obs::Hist::kTlsRecordBytes, content_len);
    off += chunk;
  } while (off < total);
}

util::Bytes SealContext::seal(ContentType type, util::BytesView plaintext) {
  util::ByteWriter w(wire_size(type, plaintext.size()));
  seal_into(w, type, util::Pieces{.payload = plaintext});
  return w.take();
}

util::SharedBytes SealContext::seal_shared(ContentType type,
                                           const util::Pieces& plaintext) {
  util::ByteWriter w(util::default_pool(), wire_size(type, plaintext.size()));
  seal_into(w, type, plaintext);
  return w.take_shared();
}

std::size_t SealContext::wire_size(ContentType type,
                                   std::size_t plaintext_len) const noexcept {
  if (!quantizes(type)) return sealed_size(plaintext_len);
  std::size_t size = 0;
  std::size_t off = 0;
  do {
    const std::size_t chunk = std::min(plaintext_len - off, kMaxPlaintext - 1);
    size += kHeaderBytes + quantized_len(chunk, pad_bucket_) + kAeadOverhead;
    off += chunk;
  } while (off < plaintext_len);
  return size;
}

std::size_t SealContext::sealed_size(std::size_t plaintext_len) noexcept {
  const std::size_t records =
      plaintext_len == 0 ? 1 : (plaintext_len + kMaxPlaintext - 1) / kMaxPlaintext;
  return plaintext_len + records * (kHeaderBytes + kAeadOverhead);
}

OpenContext::Record OpenContext::open_one(util::BytesView wire, std::size_t& consumed) {
  RecordHeader hdr{};
  if (!parse_header(wire, hdr)) throw TlsError("open_one: truncated header");
  if (wire.size() < kHeaderBytes +
      hdr.ciphertext_len) throw TlsError("open_one: truncated body");
  if (hdr.ciphertext_len < kAeadOverhead) throw TlsError("open_one: body below tag size");
  consumed = kHeaderBytes + hdr.ciphertext_len;
  header_have_ = 0;  // a whole record: start at its boundary
  util::BytesView record = wire.first(consumed);
  return open_next(record).value();
}

std::optional<OpenContext::Record> OpenContext::open_next(util::BytesView& wire) {
  if (header_have_ < kHeaderBytes) {
    const std::size_t n = std::min(kHeaderBytes - header_have_, wire.size());
    std::copy_n(wire.begin(), n,
                header_.begin() + static_cast<std::ptrdiff_t>(header_have_));
    header_have_ += n;
    wire = wire.subspan(n);
    if (header_have_ < kHeaderBytes) return std::nullopt;
    (void)parse_header(header_, hdr_);
    if (hdr_.ciphertext_len < kAeadOverhead) {
      throw TlsError("open_one: body below tag size");
    }
    const RecordKeys keys = record_keys(secret_, domain_, seq_++);
    base_ = keys.base;
    tag_key_ = keys.k;
    h2_ = keys.seed;
    body_have_ = 0;
    // The buffer only grows (to the largest record seen), so steady-state
    // opens neither allocate nor zero it.
    const std::size_t ptext_len = hdr_.ciphertext_len - kAeadOverhead;
    if (plaintext_.size() < ptext_len) plaintext_.resize(ptext_len);
  }
  const std::size_t ptext_len = hdr_.ciphertext_len - kAeadOverhead;
  if (body_have_ < ptext_len) {
    const std::size_t n = std::min(ptext_len - body_have_, wire.size());
    decrypt(wire.first(n));
    wire = wire.subspan(n);
    if (body_have_ < ptext_len) return std::nullopt;
  }
  const std::size_t tag_have = body_have_ - ptext_len;
  const std::size_t n = std::min(kAeadOverhead - tag_have, wire.size());
  std::copy_n(wire.begin(), n, tag_.begin() + static_cast<std::ptrdiff_t>(tag_have));
  body_have_ += n;
  wire = wire.subspan(n);
  if (body_have_ < hdr_.ciphertext_len) return std::nullopt;
  header_have_ = 0;  // the next byte starts the next record
  return finish();
}

void OpenContext::decrypt(util::BytesView chunk) {
  const std::uint8_t* src = chunk.data();
  std::uint8_t* const plain = plaintext_.data();
  std::size_t at = body_have_;
  const std::size_t end = at + chunk.size();
  if (at % 8 != 0) {  // finish the word an earlier chunk left partial
    const std::size_t n = std::min(end, at / 8 * 8 + 8) - at;
    crypt_bytes(base_, at / 8, at % 8, src, plain + at, n);
    src += n;
    at += n;
    if (at % 8 == 0) h2_ = fold_word(h2_, load_word(plain + at - 8));
  }
  const std::size_t words = (end - at) / 8;
  h2_ = crypt_words(base_, at / 8, h2_, src, plain + at, words, true);
  src += 8 * words;
  at += 8 * words;
  crypt_bytes(base_, at / 8, 0, src, plain + at, end - at);
  body_have_ = end;
  const std::size_t ptext_len = hdr_.ciphertext_len - kAeadOverhead;
  if (end == ptext_len) h2_ = fold_bytes(h2_, plain + end / 8 * 8, end % 8);
}

OpenContext::Record OpenContext::finish() {
  if (make_tag(tag_key_, h2_) != tag_) {
    throw TlsError("open_one: authentication failure (corrupted or out-of-order record)");
  }
  obs::count(obs::Counter::kTlsRecordsOpened);
  const std::uint8_t* const plain = plaintext_.data();
  std::size_t end = hdr_.ciphertext_len - kAeadOverhead;
  if (unpad_ && hdr_.type == ContentType::kApplicationData) {
    // Quantized record: strip the zero filler down to the 0x17 marker, a
    // word at a time while whole words are zero. The filler is
    // authenticated, so a missing or wrong marker is hostile input (a peer
    // padding with garbage), not corruption.
    while (end >= 8 && load_word(plain + end - 8) == 0) end -= 8;
    while (end > 0 && plain[end - 1] == 0) --end;
    if (end == 0 || plain[end - 1] != 0x17) {
      throw TlsError("open_one: quantized record has no content marker");
    }
    --end;
  }
  return Record{hdr_.type, util::BytesView(plain, end)};
}

bool parse_header(util::BytesView buf, RecordHeader& out) {
  if (buf.size() < kHeaderBytes) return false;
  out.type = check_type(buf[0]);
  const std::uint16_t version = static_cast<std::uint16_t>((buf[1] << 8) | buf[2]);
  if (version != kVersionTls12) throw TlsError("unsupported TLS version on wire");
  out.ciphertext_len = static_cast<std::uint16_t>((buf[3] << 8) | buf[4]);
  return true;
}

}  // namespace h2priv::tls
