// Sender-side byte stream: application bytes keyed by absolute stream
// offset, with retransmission reads anywhere in the unacknowledged range.
//
// The buffer holds each appended write (a sealed TLS flight) by reference,
// as the pooled SharedBytes it arrived in, tagged with its stream offset:
// append() copies and compacts nothing, and ack() drops a write's
// reference once every byte of it is acknowledged, which sends its chunk
// back to the pool. A segment's payload may span writes, so copy_out()
// gathers it into the segment's own buffer — the one copy a body byte
// takes between the object and the wire. Segment boundaries, and therefore
// the wire bytes, are the same as with one contiguous buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "h2priv/util/buffer_pool.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

class SendBuffer {
 public:
  /// Appends a write by reference; returns the stream offset of its first
  /// byte. An empty write adds no bytes and is not kept.
  std::uint64_t append(util::SharedBytes data);

  /// Copies the `n` bytes at stream offsets [offset, offset + n) to `dst`,
  /// across as many writes as they span. Throws std::out_of_range unless
  /// the range lies within [acked(), end()).
  void copy_out(std::uint64_t offset, std::size_t n, std::uint8_t* dst) const;

  /// Up to `max_len` bytes from stream offset `offset` (tests and cold
  /// callers). Throws std::out_of_range if offset is below the acked
  /// watermark or past the end of enqueued data.
  [[nodiscard]] util::Bytes read(std::uint64_t offset, std::size_t max_len) const;

  /// Moves the acked watermark to `new_acked` (cumulative ACK advanced) and
  /// releases every write that lies wholly below it.
  void ack(std::uint64_t new_acked);

  [[nodiscard]] std::uint64_t acked() const noexcept { return acked_; }
  [[nodiscard]] std::uint64_t end() const noexcept { return end_; }
  /// Bytes enqueued and not yet acknowledged.
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return end_ - acked_; }
  /// Writes still held (not wholly acknowledged).
  [[nodiscard]] std::size_t writes_held() const noexcept {
    return writes_.size() - head_;
  }

 private:
  struct Write {
    std::uint64_t offset;  // stream offset of bytes[0]
    util::SharedBytes bytes;
  };

  std::vector<Write> writes_;  // released prefix [0, head_), then held writes
  std::size_t head_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t end_ = 0;
};

}  // namespace h2priv::tcp
