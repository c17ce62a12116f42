// Pooled wire buffers: a size-classed free-list allocator (BufferPool) and a
// ref-counted immutable view (SharedBytes) over its chunks.
//
// The hot wire path (TLS seal -> TCP segment encode -> link -> middlebox ->
// monitor -> receiver) allocates one pooled chunk per packet and passes the
// SharedBytes handle by value; when the last holder drops it the chunk goes
// back on the pool's free list, so a steady-state run recycles the same few
// chunks instead of hitting the heap per packet.
//
// Threading contract: a BufferPool and every SharedBytes carved from it stay
// on ONE thread. The refcount is deliberately non-atomic — each Monte-Carlo
// worker (core::ParallelRunner) owns its own thread_local default_pool(),
// and a seeded run_once executes entirely on one worker. A pool must outlive
// all SharedBytes allocated from it; oversize chunks (bigger than the
// largest class) are plain heap blocks and carry no pool pointer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {

class BufferPool;

namespace detail {

/// Header preceding every chunk payload. POD on purpose: chunks are reused
/// without re-construction, and the first 8 payload bytes double as the
/// free-list link while a chunk is parked in the pool.
struct ChunkHeader {
  std::uint32_t refs;
  std::uint32_t cap;
  BufferPool* pool;  ///< nullptr for oversize heap chunks

  [[nodiscard]] std::uint8_t* payload() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
};

/// Heap-allocates a chunk with `cap` payload bytes, refs = 1.
[[nodiscard]] ChunkHeader* new_chunk(std::size_t cap, BufferPool* pool);
/// Frees the chunk's memory outright (bypasses any pool).
void free_chunk(ChunkHeader* h) noexcept;
/// Drops one reference; at zero the chunk is recycled to its pool or freed.
void release_chunk(ChunkHeader* h) noexcept;

}  // namespace detail

/// Size-classed free-list allocator for wire buffers. Not thread-safe by
/// design — see the file comment for the one-pool-per-worker contract.
class BufferPool {
 public:
  /// Class sizes cover the wire path: TCP headers and ACKs (64), control
  /// frames (256), MTU-sized segments (2048), reassembly pages (4096), a
  /// sealed 4 KiB body chunk (8192; tcp::SendBuffer holds these until they
  /// are acknowledged, so they should not take a 17 KiB chunk each) and a
  /// full 16 KiB TLS record plus framing (17408). Requests above the largest
  /// class fall back to plain heap chunks that are freed, not recycled.
  static constexpr std::array<std::uint32_t, 7> kClassSizes = {
      64, 256, 1024, 2048, 4096, 8192, 17408};

  struct Stats {
    std::uint64_t served = 0;    ///< chunks handed out
    std::uint64_t reused = 0;    ///< ... of which came off a free list
    std::uint64_t fresh = 0;     ///< ... of which were newly heap-allocated
    std::uint64_t oversize = 0;  ///< ... of which bypassed the classes entirely
  };

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Hands out a chunk whose capacity is the smallest class >= size (or
  /// exactly `size` for oversize requests), refs = 1, payload uninitialised.
  [[nodiscard]] detail::ChunkHeader* acquire(std::size_t size);

  /// Parks a zero-ref pooled chunk on its size-class free list. Called by
  /// release_chunk(); not meant for direct use.
  void recycle(detail::ChunkHeader* h) noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::array<detail::ChunkHeader*, kClassSizes.size()> free_ = {};
  Stats stats_;
};

/// The calling thread's default pool. One per Monte-Carlo worker; lives
/// until thread exit, so any same-thread SharedBytes may safely outlive the
/// scope that allocated it.
[[nodiscard]] BufferPool& default_pool() noexcept;

/// Immutable, cheaply copyable, ref-counted view of a (usually pooled) byte
/// buffer. Two machine words; copying bumps a non-atomic refcount. The
/// implicit Bytes constructor keeps pre-pool call sites compiling — it
/// copies into a heap chunk and is fine anywhere off the per-packet path.
class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  SharedBytes(const SharedBytes& o) noexcept : hdr_(o.hdr_), size_(o.size_) {
    if (hdr_ != nullptr) ++hdr_->refs;
  }
  SharedBytes(SharedBytes&& o) noexcept : hdr_(o.hdr_), size_(o.size_) {
    o.hdr_ = nullptr;
    o.size_ = 0;
  }
  SharedBytes& operator=(const SharedBytes& o) noexcept;
  SharedBytes& operator=(SharedBytes&& o) noexcept;
  ~SharedBytes() {
    if (hdr_ != nullptr) detail::release_chunk(hdr_);
  }

  // NOLINTNEXTLINE(google-explicit-constructor): compat shim, see class doc.
  SharedBytes(const Bytes& b);

  /// Copies `v` into a fresh chunk — pooled when `pool` is given, otherwise
  /// a plain heap chunk.
  [[nodiscard]] static SharedBytes copy_of(BytesView v, BufferPool* pool = nullptr);

  /// Wraps an already-owned chunk (refs must include the adopted reference).
  /// Low-level; used by ByteWriter::take_shared().
  [[nodiscard]] static SharedBytes adopt(detail::ChunkHeader* h,
                                         std::size_t size) noexcept {
    SharedBytes s;
    s.hdr_ = h;
    s.size_ = size;
    return s;
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return hdr_ != nullptr ? hdr_->payload() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] BytesView view() const noexcept { return {data(), size_}; }
  // No conversion operator: SharedBytes is itself a contiguous range of
  // const bytes, so std::span's range constructor converts it implicitly
  // (a second path would trip -Wconversion's ambiguity check).
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept { return data() + size_; }

  /// Number of live references on the underlying chunk (0 for empty handles).
  /// Exposed for tests.
  [[nodiscard]] std::uint32_t ref_count() const noexcept {
    return hdr_ != nullptr ? hdr_->refs : 0;
  }

 private:
  detail::ChunkHeader* hdr_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace h2priv::util
