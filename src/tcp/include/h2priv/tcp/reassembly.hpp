// Receiver-side out-of-order reassembly buffer.
//
// Holds segments above rcv_nxt, trims overlaps (first arrival wins), and
// hands the contiguous prefix up once the gap fills. Duplicate
// retransmissions are absorbed here — which is exactly why the paper's
// "extra object copies" have to come from the application layer (see
// DESIGN.md §2).
//
// Byte path: offer() hands deliverable bytes to a sink as views and copies
// nothing it can hand up as it stands. A segment at rcv_nxt that stops short
// of the held bytes (the in-order steady state) goes up as a view into the
// caller's own `data`. Bytes that arrive ahead of rcv_nxt are copied once,
// into a page store: fixed-size pages drawn from the thread's
// util::BufferPool, indexed by stream offset and returned to the pool as
// soon as they hold no undelivered byte, so memory follows the bytes held,
// not the distance to the furthest one. When a gap filler completes a run,
// the sink gets the filler's own bytes and then one view per page slice —
// no gather copy, no per-segment allocation and no map node. Like every
// pooled buffer, a Reassembly stays on the thread that uses it (a seeded run
// executes on one worker; see util/buffer_pool.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "h2priv/util/buffer_pool.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

class Reassembly {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  explicit Reassembly(std::uint64_t initial_rcv_nxt = 0) noexcept
      : rcv_nxt_(initial_rcv_nxt) {}

  /// Offers a segment at absolute stream offset `seq`. The bytes that become
  /// deliverable in order go to sink(util::BytesView), in stream order, in
  /// one or more pieces; each view is valid only during its call. The sink
  /// must not call back into this Reassembly.
  template <class Sink>
  void offer(std::uint64_t seq, util::BytesView data, Sink&& sink) {
    // Trim anything already delivered.
    if (data.empty() || seq + data.size() <= rcv_nxt_) return;
    if (seq < rcv_nxt_) {
      data = data.subspan(static_cast<std::size_t>(rcv_nxt_ - seq));
      seq = rcv_nxt_;
    }
    if (seq > rcv_nxt_) {  // a gap ahead of it: hold the bytes
      hold(seq, data);
      return;
    }
    // The segment starts at rcv_nxt. If it stops short of the held bytes it
    // goes up as it stands.
    if (held_.empty() || seq + data.size() < held_.front().begin) {
      rcv_nxt_ = seq + data.size();
      sink(data);
      return;
    }
    // It reaches the held front run: its own bytes up to that run go up
    // first, the rest is held (first arrival wins on overlap), then the run.
    const auto own = static_cast<std::size_t>(held_.front().begin - seq);
    hold(held_.front().begin, data.subspan(own));
    const Range run = take_front();
    if (own > 0) sink(data.first(own));
    for (std::uint64_t at = run.begin; at < run.end;) {
      const util::BytesView slice = page_slice(at, run.end);
      sink(slice);
      at += slice.size();
    }
    release_drained_pages();
  }

  [[nodiscard]] std::uint64_t rcv_nxt() const noexcept { return rcv_nxt_; }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffered_; }
  [[nodiscard]] bool has_gaps() const noexcept { return !held_.empty(); }
  /// Pages currently holding undelivered bytes (kPageBytes each).
  [[nodiscard]] std::size_t pages_in_use() const noexcept { return pages_.size(); }

 private:
  struct Range {
    std::uint64_t begin;
    std::uint64_t end;
  };
  struct ReleaseChunk {
    void operator()(util::detail::ChunkHeader* h) const noexcept {
      util::detail::release_chunk(h);
    }
  };
  struct Page {
    std::uint64_t index;  // stream offset / kPageBytes
    std::unique_ptr<util::detail::ChunkHeader, ReleaseChunk> chunk;
  };

  /// Copies the not-yet-held bytes of [begin, begin + data.size()) into the
  /// page store and merges the range into held_.
  void hold(std::uint64_t begin, util::BytesView data);
  void store(std::uint64_t at, util::BytesView bytes);
  [[nodiscard]] std::vector<Page>::const_iterator page_at_or_after(
      std::uint64_t index) const noexcept;
  /// The page with `index`, taken from the pool if it is not held yet.
  std::uint8_t* page_for(std::uint64_t index);
  /// Removes the held front run (which starts at rcv_nxt_) and advances
  /// rcv_nxt_ past it. Its bytes stay in their pages until
  /// release_drained_pages().
  Range take_front() noexcept;
  /// The stored bytes from `at` to the end of its page or `end`, whichever
  /// comes first.
  [[nodiscard]] util::BytesView page_slice(std::uint64_t at,
                                           std::uint64_t end) const noexcept;
  /// Returns the pages that hold no undelivered byte to the pool.
  void release_drained_pages() noexcept;

  std::uint64_t rcv_nxt_;
  std::size_t buffered_ = 0;
  std::vector<Range> held_;  // sorted, disjoint, non-adjacent, all above rcv_nxt_
  std::vector<Page> pages_;  // sorted by index
};

}  // namespace h2priv::tcp
