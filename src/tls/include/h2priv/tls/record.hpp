// TLS record layer model.
//
// Real record framing (5-byte header: type, version, length) with a toy
// stream cipher + MAC standing in for AEAD. The point is not cryptographic
// strength — it is the *discipline*: payload bytes on the wire are
// scrambled, so nothing in this codebase can accidentally "cheat" by reading
// plaintext off a packet. An on-path observer sees exactly what tshark's
// `ssl.record.content_type` filter sees: type and length.
//
// Record `seq` of a direction: ciphertext = plaintext XOR keystream (one
// `mix` per 8-byte block), then a 16-byte tag `h2 || mix(k ^ h2)`, both
// halves little-endian, with k = mix(secret ^ "tag" ^ seq) and h2 the
// polynomial checksum h = 31h + byte over the plaintext, seeded with
// mix(k ^ direction). Seal and open each make one word-wide pass per record:
// keystream XOR and checksum step share the loop. open_one recomputes all 16
// tag bytes and rejects the record unless every one matches.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "h2priv/util/buffer_pool.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tls {

enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

inline constexpr std::size_t kHeaderBytes = 5;
inline constexpr std::size_t kMaxPlaintext = 16 * 1024;  // 2^14 (RFC 8446)
inline constexpr std::size_t kAeadOverhead = 16;         // tag bytes per record
inline constexpr std::uint16_t kVersionTls12 = 0x0303;

class TlsError : public std::runtime_error {
 public:
  explicit TlsError(const std::string& what) : std::runtime_error(what) {}
};

/// Seals plaintext into records / opens records back into plaintext. One
/// SealContext per (session, direction); record sequence numbers key the
/// keystream so replayed or reordered ciphertext fails authentication.
class SealContext {
 public:
  SealContext(std::uint64_t session_secret, std::uint8_t direction_domain) noexcept
      : secret_(session_secret), domain_(direction_domain) {}

  /// Chunks plaintext into >= 1 records and returns their concatenated wire
  /// bytes. Empty plaintext produces a single empty record.
  [[nodiscard]] util::Bytes seal(ContentType type, util::BytesView plaintext);

  /// Same wire bytes as seal() of the joined pieces, emitted into one pooled
  /// buffer — the hot-path variant used by tls::Session; tcp::SendBuffer
  /// then holds that buffer until the peer acknowledges it. The pieces are
  /// read where they lie: whole words go straight through the cipher pass,
  /// and only a word that straddles two pieces is gathered first.
  [[nodiscard]] util::SharedBytes seal_shared(ContentType type,
                                              const util::Pieces& plaintext);
  [[nodiscard]] util::SharedBytes seal_shared(ContentType type,
                                              util::BytesView plaintext) {
    return seal_shared(type, util::Pieces{.payload = plaintext});
  }

  [[nodiscard]] std::uint64_t records_sealed() const noexcept { return seq_; }

  /// Wire overhead added when sealing `n` plaintext bytes in maximal records.
  [[nodiscard]] static std::size_t sealed_size(std::size_t plaintext_len) noexcept;

  /// Record quantization (defense layer): application-data records are
  /// padded to a multiple of `bucket` plaintext bytes before sealing, TLS
  /// 1.3 style — content, then a 0x17 marker, then zero filler — so the
  /// lengths in the 5-byte headers stop tracking object boundaries. The
  /// peer's OpenContext must have set_unpad(true). 0 = off (the default;
  /// wire bytes stay bit-identical to the undefended path). Handshake and
  /// alert records are never padded.
  void set_pad_bucket(std::size_t bucket) noexcept {
    pad_bucket_ = std::min(bucket, kMaxPlaintext);
  }
  [[nodiscard]] std::size_t pad_bucket() const noexcept { return pad_bucket_; }

 private:
  [[nodiscard]] bool quantizes(ContentType type) const noexcept {
    return pad_bucket_ > 0 && type == ContentType::kApplicationData;
  }
  /// Exact wire size of sealing `plaintext_len` bytes of `type`, padding
  /// included, so the output buffer never grows mid-seal.
  [[nodiscard]] std::size_t wire_size(ContentType type,
                                      std::size_t plaintext_len) const noexcept;
  void seal_into(util::ByteWriter& w, ContentType type, const util::Pieces& plaintext);

  std::uint64_t secret_;
  std::uint8_t domain_;
  std::uint64_t seq_ = 0;
  std::size_t pad_bucket_ = 0;
};

/// A record's 5-byte header, as the adversary's monitor (which can read only
/// headers) and the receiving endpoint parse it.
struct RecordHeader {
  ContentType type;
  std::uint16_t ciphertext_len;  // record body length on the wire
};

class OpenContext {
 public:
  OpenContext(std::uint64_t session_secret, std::uint8_t direction_domain) noexcept
      : secret_(session_secret), domain_(direction_domain) {}

  struct Record {
    ContentType type;
    /// View into this context's plaintext buffer: valid until the next
    /// open_one / open_next on the same context (or its destruction).
    util::BytesView plaintext;
  };

  /// Opens exactly one record from the front of `wire`; sets `consumed`.
  /// Starts at a record boundary (drops whatever open_next has in flight).
  /// Throws TlsError on authentication failure or truncation.
  [[nodiscard]] Record open_one(util::BytesView wire, std::size_t& consumed);

  /// Streaming open, for a receiver that sees the record stream in arbitrary
  /// pieces. Consumes bytes from the front of `wire`: the header gathers in
  /// a 5-byte array, the body decrypts straight into the plaintext buffer as
  /// it arrives and the tag gathers in a 16-byte array, so no ciphertext is
  /// ever buffered. Returns the record once its last byte is consumed and
  /// its tag checks; nullopt once `wire` runs out first. Throws TlsError on
  /// a bad header, a failed tag or missing quantization marker.
  [[nodiscard]] std::optional<Record> open_next(util::BytesView& wire);

  /// Expect quantized application-data records (peer seals with a pad
  /// bucket): strip the zero filler and 0x17 content marker after
  /// authentication. A quantized record with no marker is hostile input and
  /// throws TlsError.
  void set_unpad(bool unpad) noexcept { unpad_ = unpad; }

 private:
  /// Decrypts the next body bytes of the record in flight (all within its
  /// plaintext part), folding each word into the checksum once it is whole.
  void decrypt(util::BytesView chunk);
  /// Checks the tag of the completed record and strips quantization.
  Record finish();

  std::uint64_t secret_;
  std::uint8_t domain_;
  std::uint64_t seq_ = 0;
  bool unpad_ = false;
  util::Bytes plaintext_;  // Record::plaintext points in here
  // The record in flight (open_next).
  std::array<std::uint8_t, kHeaderBytes> header_{};
  std::size_t header_have_ = 0;
  RecordHeader hdr_{};
  std::size_t body_have_ = 0;  // body bytes consumed: plaintext part, then tag
  std::uint64_t base_ = 0;     // keystream base
  std::uint64_t tag_key_ = 0;
  std::uint64_t h2_ = 0;  // checksum over the whole words decrypted so far
  std::array<std::uint8_t, kAeadOverhead> tag_{};
};

/// Parses the header at the front of `buf`. Returns false if fewer than 5
/// bytes are available. Throws TlsError on an invalid content type.
[[nodiscard]] bool parse_header(util::BytesView buf, RecordHeader& out);

}  // namespace h2priv::tls
