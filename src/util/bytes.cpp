#include "h2priv/util/bytes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "h2priv/util/buffer_pool.hpp"

namespace h2priv::util {

ByteWriter::ByteWriter(BufferPool& pool, std::size_t reserve_bytes) : pool_(&pool) {
  chunk_ = pool.acquire(std::max<std::size_t>(reserve_bytes, 1));
  data_ = chunk_->payload();
  cap_ = chunk_->cap;
}

ByteWriter::~ByteWriter() {
  if (chunk_ != nullptr) detail::release_chunk(chunk_);
}

void ByteWriter::grow(std::size_t need) {
  const std::size_t want = std::max({len_ + need, cap_ * 2, std::size_t{32}});
  if (pool_ != nullptr) {
    detail::ChunkHeader* bigger = pool_->acquire(want);
    if (len_ > 0) std::memcpy(bigger->payload(), data_, len_);
    if (chunk_ != nullptr) detail::release_chunk(chunk_);
    chunk_ = bigger;
    data_ = bigger->payload();
    cap_ = bigger->cap;
  } else {
    buf_.resize(want);
    data_ = buf_.data();
    cap_ = want;
  }
}

Bytes ByteWriter::take() {
  if (pool_ != nullptr) {
    Bytes out(data_, data_ + len_);
    len_ = 0;
    return out;
  }
  buf_.resize(len_);
  Bytes out = std::move(buf_);
  buf_ = Bytes{};
  data_ = nullptr;
  len_ = 0;
  cap_ = 0;
  return out;
}

SharedBytes ByteWriter::take_shared() {
  if (pool_ != nullptr) {
    if (chunk_ == nullptr) return SharedBytes{};
    SharedBytes out = SharedBytes::adopt(chunk_, len_);
    chunk_ = nullptr;  // next write re-acquires from the pool via grow()
    data_ = nullptr;
    len_ = 0;
    cap_ = 0;
    return out;
  }
  SharedBytes out = SharedBytes::copy_of(view());
  len_ = 0;
  return out;
}

void ByteWriter::u24(std::uint32_t v) {
  if (v >= (1u << 24)) throw std::invalid_argument("u24 value out of range");
  ensure(3);
  data_[len_] = static_cast<std::uint8_t>(v >> 16);
  data_[len_ + 1] = static_cast<std::uint8_t>(v >> 8);
  data_[len_ + 2] = static_cast<std::uint8_t>(v);
  len_ += 3;
}

void ByteWriter::bytes(std::string_view v) {
  ensure(v.size());
  if (!v.empty()) std::memcpy(data_ + len_, v.data(), v.size());
  len_ += v.size();
}

void ByteWriter::fill(std::size_t n, std::uint8_t fill_byte) {
  ensure(n);
  std::memset(data_ + len_, fill_byte, n);
  len_ += n;
}

void detail::throw_out_of_bounds(std::size_t need, std::size_t have) {
  throw OutOfBounds("ByteReader: need " + std::to_string(need) + " bytes, have " +
                    std::to_string(have));
}

std::uint8_t ByteReader::peek_u8() const {
  require(1);
  return data_[pos_];
}

std::uint32_t ByteReader::u24() {
  require(3);
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                          static_cast<std::uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

BytesView ByteReader::rest() noexcept {
  const BytesView v = data_.subspan(pos_);
  pos_ = data_.size();
  return v;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

Bytes Pieces::joined() const {
  Bytes out;
  out.reserve(size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), payload.begin(), payload.end());
  out.resize(out.size() + zeros, 0);
  return out;
}

BytesView zero_bytes(std::size_t n) {
  static constexpr std::array<std::uint8_t, kZeroPageBytes> kZeroPage{};
  if (n > kZeroPageBytes) throw std::length_error("zero_bytes: run above one page");
  return {kZeroPage.data(), n};
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

Bytes patterned_bytes(std::size_t n, std::uint32_t tag) {
  static_assert(std::endian::native == std::endian::little,
                "the word stores below write z's bytes least-significant first");
  Bytes out(n);
  // splitmix-style mixing keeps the pattern cheap yet position-sensitive, so
  // any reordering or truncation in transit changes the reassembled payload.
  // Each step yields eight bytes: byte i is byte (i % 8) of step i / 8.
  // Whole words are stored with a fixed-size copy; the tail once, after.
  std::uint64_t state = 0x9e3779b97f4a7c15ull ^ tag;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::uint8_t* const p = out.data();
  const std::size_t whole = n / 8 * 8;
  for (std::size_t i = 0; i < whole; i += 8) {
    const std::uint64_t z = next();
    std::memcpy(p + i, &z, 8);
  }
  if (whole < n) {
    const std::uint64_t z = next();
    std::memcpy(p + whole, &z, n - whole);
  }
  return out;
}

}  // namespace h2priv::util
