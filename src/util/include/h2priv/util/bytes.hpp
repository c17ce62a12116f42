// Byte-buffer primitives shared by every wire-format codec in the project.
//
// ByteWriter appends big-endian integers and raw spans to a growable buffer;
// ByteReader consumes them with bounds checking. All protocol encoders
// (TCP segment headers, TLS records, HTTP/2 frames, HPACK) are built on
// these two types so that framing bugs surface as exceptions, not UB.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace h2priv::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

class BufferPool;
class SharedBytes;
namespace detail {
struct ChunkHeader;
}

/// Thrown by ByteReader when a read would run past the end of the buffer.
class OutOfBounds : public std::runtime_error {
 public:
  explicit OutOfBounds(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
static_assert(std::endian::native == std::endian::little,
              "the big-endian accessors byte-swap native little-endian words");
/// Throws OutOfBounds for a read of `need` bytes with `have` left (cold).
[[noreturn]] void throw_out_of_bounds(std::size_t need, std::size_t have);
}  // namespace detail

/// Appends big-endian scalars and byte runs to an owned buffer.
///
/// Two backends share one write path: the default vector backend (take()
/// moves the Bytes out) and a pool backend (take_shared() hands the chunk
/// off zero-copy as a SharedBytes). Encoders that know their exact output
/// size should reserve() it up front so the hot path never grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { reserve(reserve_bytes); }
  /// Pool-backed writer; take_shared() is then allocation-free on reuse.
  ByteWriter(BufferPool& pool, std::size_t reserve_bytes);
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;
  ~ByteWriter();

  void u8(std::uint8_t v) {
    ensure(1);
    data_[len_++] = v;
  }
  void u16(std::uint16_t v) {
    ensure(2);
    data_[len_] = static_cast<std::uint8_t>(v >> 8);
    data_[len_ + 1] = static_cast<std::uint8_t>(v);
    len_ += 2;
  }
  void u24(std::uint32_t v);  ///< low 24 bits; throws std::invalid_argument if v >= 2^24
  void u32(std::uint32_t v) {
    ensure(4);
    const std::uint32_t be = __builtin_bswap32(v);
    std::memcpy(data_ + len_, &be, 4);
    len_ += 4;
  }
  void u64(std::uint64_t v) {
    ensure(8);
    const std::uint64_t be = __builtin_bswap64(v);
    std::memcpy(data_ + len_, &be, 8);
    len_ += 8;
  }
  void bytes(BytesView v) {
    ensure(v.size());
    if (!v.empty()) std::memcpy(data_ + len_, v.data(), v.size());
    len_ += v.size();
  }
  void bytes(std::string_view v);
  /// Appends `n` copies of `fill`.
  void fill(std::size_t n, std::uint8_t fill_byte);
  /// Appends `n` bytes the caller must write through the returned pointer
  /// before the next call on this writer (encoders that produce in place).
  [[nodiscard]] std::uint8_t* append(std::size_t n) {
    ensure(n);
    std::uint8_t* at = data_ + len_;
    len_ += n;
    return at;
  }

  /// Guarantees room for `n` more bytes without reallocation.
  void reserve(std::size_t n) { ensure(n); }
  /// Drops the contents but keeps the storage — for reusable scratch writers.
  void clear() noexcept { len_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] BytesView view() const noexcept { return {data_, len_}; }
  /// Moves the accumulated buffer out; the writer is empty afterwards.
  /// (Pool-backed writers copy here — use take_shared() on the hot path.)
  [[nodiscard]] Bytes take();
  /// Hands the contents off as a SharedBytes; the writer is empty afterwards.
  /// Zero-copy for pool-backed writers, one copy for vector-backed ones.
  [[nodiscard]] SharedBytes take_shared();

 private:
  void ensure(std::size_t extra) {
    if (cap_ - len_ < extra) grow(extra);
  }
  void grow(std::size_t need);

  BufferPool* pool_ = nullptr;           // nullptr => vector backend
  Bytes buf_;                            // vector backend storage (size == cap_)
  detail::ChunkHeader* chunk_ = nullptr; // pool backend storage (refs == 1)
  std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t cap_ = 0;
};

/// Consumes big-endian scalars and byte runs from a non-owned view.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  // The fixed-width reads are inline: one bounds check, then one
  // fixed-size load, byte-swapped from big-endian.
  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  /// Reads the next byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const;
  [[nodiscard]] std::uint16_t u16() {
    require(2);
    std::uint16_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 2);
    pos_ += 2;
    return __builtin_bswap16(v);
  }
  [[nodiscard]] std::uint32_t u24();
  [[nodiscard]] std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return __builtin_bswap32(v);
  }
  [[nodiscard]] std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return __builtin_bswap64(v);
  }
  [[nodiscard]] BytesView bytes(std::size_t n) {
    require(n);
    const BytesView v(data_.data() + pos_, n);
    pos_ += n;
    return v;
  }
  /// Returns everything not yet consumed and advances to the end.
  [[nodiscard]] BytesView rest() noexcept;

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  void skip(std::size_t n);

 private:
  void require(std::size_t n) const {
    if (remaining() < n) [[unlikely]] detail::throw_out_of_bounds(n, remaining());
  }
  BytesView data_;
  std::size_t pos_ = 0;
};

/// One write handed down in pieces instead of joined: header bytes, a
/// borrowed payload view, then `zeros` zero bytes (at most kZeroPageBytes).
/// h2::Connection hands each frame to its byte sink this way and the TLS
/// sealer reads the pieces where they lie, so a frame's payload is never
/// copied just to sit behind its header.
struct Pieces {
  BytesView head{};
  BytesView payload{};
  std::size_t zeros = 0;

  [[nodiscard]] std::size_t size() const noexcept {
    return head.size() + payload.size() + zeros;
  }
  /// The joined bytes (tests and cold callers).
  [[nodiscard]] Bytes joined() const;
};

inline constexpr std::size_t kZeroPageBytes = 16 * 1024;

/// A view of `n` zero bytes from one static page, so runs of zeros can be
/// read like any other bytes. Throws std::length_error if n > kZeroPageBytes.
[[nodiscard]] BytesView zero_bytes(std::size_t n);

/// Builds a Bytes from a string literal / string_view (ASCII payloads in tests).
[[nodiscard]] Bytes to_bytes(std::string_view s);

/// Builds a deterministic pseudo-content buffer of length `n` whose bytes are a
/// function of (`tag`, index). Used for synthetic web objects so that
/// reassembled payloads can be integrity-checked end to end.
[[nodiscard]] Bytes patterned_bytes(std::size_t n, std::uint32_t tag);

}  // namespace h2priv::util
