#include "h2priv/tcp/send_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <vector>

namespace h2priv::tcp {
namespace {

TEST(SendBuffer, AppendReturnsStreamOffsets) {
  SendBuffer buf;
  EXPECT_EQ(buf.append(util::patterned_bytes(10, 1)), 0u);
  EXPECT_EQ(buf.append(util::patterned_bytes(5, 2)), 10u);
  EXPECT_EQ(buf.end(), 15u);
  EXPECT_EQ(buf.outstanding(), 15u);
}

TEST(SendBuffer, ReadReturnsCorrectSlices) {
  SendBuffer buf;
  const util::Bytes a = util::patterned_bytes(100, 7);
  buf.append(a);
  const util::Bytes mid = buf.read(10, 20);
  ASSERT_EQ(mid.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(mid[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i) + 10]);
  }
}

TEST(SendBuffer, ReadClampsAtEnd) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 1));
  EXPECT_EQ(buf.read(8, 100).size(), 2u);
  EXPECT_EQ(buf.read(10, 100).size(), 0u);
}

TEST(SendBuffer, AckReleasesPrefix) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(100, 3));
  buf.ack(40);
  EXPECT_EQ(buf.acked(), 40u);
  EXPECT_EQ(buf.outstanding(), 60u);
  // Data above the ack point still readable and correct.
  const util::Bytes a = util::patterned_bytes(100, 3);
  const util::Bytes tail = buf.read(40, 60);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), a.begin() + 40));
}

TEST(SendBuffer, ReadBelowAckedThrows) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(100, 3));
  buf.ack(50);
  EXPECT_THROW((void)buf.read(49, 1), std::out_of_range);
  EXPECT_NO_THROW((void)buf.read(50, 1));
}

TEST(SendBuffer, AckBeyondEndThrows) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 3));
  EXPECT_THROW(buf.ack(11), std::out_of_range);
}

TEST(SendBuffer, DuplicateAckIsIgnored) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 3));
  buf.ack(5);
  buf.ack(5);
  buf.ack(3);  // old ack: no-op
  EXPECT_EQ(buf.acked(), 5u);
}

TEST(SendBuffer, HoldsWritesByReferenceUntilWhollyAcked) {
  SendBuffer buf;
  const util::SharedBytes a =
      util::SharedBytes::copy_of(util::patterned_bytes(200, 9), &util::default_pool());
  buf.append(a);
  EXPECT_EQ(a.ref_count(), 2u);  // held, not copied
  // A partly acknowledged write stays held and readable above the ack.
  buf.ack(150);
  EXPECT_EQ(a.ref_count(), 2u);
  const util::Bytes tail = buf.read(150, 100);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), a.begin() + 150));
  buf.ack(200);
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_EQ(buf.writes_held(), 0u);
}

TEST(SendBuffer, ReadsSpanWrites) {
  SendBuffer buf;
  util::Bytes joined;
  for (const std::size_t n : {std::size_t{7}, std::size_t{1}, std::size_t{300},
                              std::size_t{2}, std::size_t{40}}) {
    const util::Bytes w = util::patterned_bytes(n, static_cast<std::uint32_t>(n));
    buf.append(w);
    joined.insert(joined.end(), w.begin(), w.end());
  }
  EXPECT_EQ(buf.writes_held(), 5u);
  for (std::size_t off = 0; off < joined.size(); off += 3) {
    for (const std::size_t len : {std::size_t{1}, std::size_t{9}, std::size_t{305}}) {
      const util::Bytes got = buf.read(off, len);
      ASSERT_EQ(got.size(), std::min(len, joined.size() - off));
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             joined.begin() + static_cast<std::ptrdiff_t>(off)))
          << off << "+" << len;
    }
  }
  std::vector<std::uint8_t> dst(joined.size());
  buf.copy_out(0, dst.size(), dst.data());
  EXPECT_EQ(dst, joined);
  EXPECT_THROW(buf.copy_out(5, joined.size(), dst.data()), std::out_of_range);
}

TEST(SendBuffer, AckReleasesWholeWritesOnly) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 1));   // [0, 10)
  buf.append(util::patterned_bytes(10, 2));   // [10, 20)
  buf.append(util::patterned_bytes(10, 3));   // [20, 30)
  buf.ack(9);
  EXPECT_EQ(buf.writes_held(), 3u);
  buf.ack(10);
  EXPECT_EQ(buf.writes_held(), 2u);
  buf.ack(29);
  EXPECT_EQ(buf.writes_held(), 1u);
  EXPECT_EQ(buf.read(29, 5), util::Bytes{util::patterned_bytes(10, 3).back()});
  buf.ack(30);
  EXPECT_EQ(buf.writes_held(), 0u);
  EXPECT_EQ(buf.outstanding(), 0u);
  EXPECT_EQ(buf.append(util::Bytes{}), 30u);  // an empty write is not kept
  EXPECT_EQ(buf.writes_held(), 0u);
}

TEST(SendBuffer, ReadBelowWatermarkInsideHeldWriteThrows) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(100, 3));
  buf.append(util::patterned_bytes(100, 4));
  buf.ack(150);  // the second write is held, but its first half is acked
  EXPECT_EQ(buf.writes_held(), 1u);
  EXPECT_THROW((void)buf.read(120, 1), std::out_of_range);
  std::uint8_t byte = 0;
  EXPECT_THROW(buf.copy_out(149, 1, &byte), std::out_of_range);
  EXPECT_NO_THROW(buf.copy_out(150, 1, &byte));
}

// Property test: the write-holding implementation must be observationally
// identical to the old std::deque<uint8_t> implementation under arbitrary
// interleavings of append / read / ack. The reference model below IS that
// old implementation (deque + erase-prefix on ack).
TEST(SendBuffer, RandomOpsMatchDequeReferenceModel) {
  struct Reference {
    std::uint64_t base = 0;
    std::deque<std::uint8_t> q;
  };
  std::mt19937 rng(0xc0ffee);
  for (int trial = 0; trial < 20; ++trial) {
    SendBuffer buf;
    Reference ref;
    for (int op = 0; op < 400; ++op) {
      switch (rng() % 3) {
        case 0: {  // append 1..3000 patterned bytes
          const std::size_t n = 1 + rng() % 3'000;
          const util::Bytes chunk =
              util::patterned_bytes(n, static_cast<std::uint32_t>(rng()));
          ASSERT_EQ(buf.append(chunk), ref.base + ref.q.size());
          ref.q.insert(ref.q.end(), chunk.begin(), chunk.end());
          break;
        }
        case 1: {  // read a random in-range window, compare byte-for-byte
          if (ref.q.empty()) break;
          const std::uint64_t off = ref.base + rng() % ref.q.size();
          const std::size_t len = 1 + rng() % 2'000;
          const util::Bytes got = buf.read(off, len);
          const std::size_t avail = ref.q.size() - (off - ref.base);
          ASSERT_EQ(got.size(), std::min(len, avail));
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], ref.q[off - ref.base + i]) << "trial " << trial;
          }
          break;
        }
        default: {  // ack a random prefix (possibly stale / duplicate)
          const std::uint64_t target = ref.base + rng() % (ref.q.size() + 1);
          buf.ack(target);
          if (target > ref.base) {
            ref.q.erase(ref.q.begin(),
                        ref.q.begin() + static_cast<std::ptrdiff_t>(target - ref.base));
            ref.base = target;
          }
          break;
        }
      }
      ASSERT_EQ(buf.acked(), ref.base);
      ASSERT_EQ(buf.end(), ref.base + ref.q.size());
      ASSERT_EQ(buf.outstanding(), ref.q.size());
    }
  }
}

TEST(SendBuffer, OffsetsSurviveManyAckCycles) {
  SendBuffer buf;
  std::uint64_t offset = 0;
  for (int round = 0; round < 50; ++round) {
    const util::Bytes chunk =
        util::patterned_bytes(1'000, static_cast<std::uint32_t>(round));
    EXPECT_EQ(buf.append(chunk), offset);
    const util::Bytes back = buf.read(offset, 1'000);
    EXPECT_EQ(back, chunk);
    offset += 1'000;
    buf.ack(offset);
    EXPECT_EQ(buf.outstanding(), 0u);
  }
}

}  // namespace
}  // namespace h2priv::tcp
