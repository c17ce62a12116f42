#include "h2priv/tcp/send_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace h2priv::tcp {

std::uint64_t SendBuffer::append(util::SharedBytes data) {
  const std::uint64_t offset = end_;
  if (data.empty()) return offset;
  // Reclaim the released prefix once it dominates the held writes; each
  // handle is moved at most once per time it is released (amortized O(1)).
  if (head_ > 0 && head_ >= writes_held()) {
    writes_.erase(writes_.begin(), writes_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  end_ += data.size();
  writes_.push_back(Write{offset, std::move(data)});
  return offset;
}

void SendBuffer::copy_out(std::uint64_t offset, std::size_t n, std::uint8_t* dst) const {
  if (offset < acked_ || offset > end_ || n > end_ - offset) {
    throw std::out_of_range("SendBuffer::read: offset outside buffered range");
  }
  if (n == 0) return;
  // The last held write that starts at or below `offset` holds its first byte.
  auto it = std::upper_bound(
      writes_.begin() + static_cast<std::ptrdiff_t>(head_), writes_.end(), offset,
      [](std::uint64_t off, const Write& w) { return off < w.offset; });
  --it;
  std::size_t at = static_cast<std::size_t>(offset - it->offset);
  while (n > 0) {
    const std::size_t m = std::min(n, it->bytes.size() - at);
    std::memcpy(dst, it->bytes.data() + at, m);
    dst += m;
    n -= m;
    at = 0;
    ++it;
  }
}

util::Bytes SendBuffer::read(std::uint64_t offset, std::size_t max_len) const {
  if (offset < acked_ || offset > end_) {
    throw std::out_of_range("SendBuffer::read: offset outside buffered range");
  }
  util::Bytes out(
      static_cast<std::size_t>(std::min<std::uint64_t>(max_len, end_ - offset)));
  copy_out(offset, out.size(), out.data());
  return out;
}

void SendBuffer::ack(std::uint64_t new_acked) {
  if (new_acked <= acked_) return;
  if (new_acked > end_) throw std::out_of_range("SendBuffer::ack: beyond enqueued data");
  acked_ = new_acked;
  while (head_ < writes_.size() &&
         writes_[head_].offset + writes_[head_].bytes.size() <= acked_) {
    writes_[head_++].bytes = util::SharedBytes{};
  }
}

}  // namespace h2priv::tcp
