#include "h2priv/tcp/reassembly.hpp"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"

namespace h2priv::tcp {
namespace {

util::Bytes slice(const util::Bytes& all, std::size_t from, std::size_t len) {
  return util::Bytes(all.begin() + static_cast<std::ptrdiff_t>(from),
                     all.begin() + static_cast<std::ptrdiff_t>(from + len));
}

// Collects what one offer() delivers (its views die with the call).
util::Bytes deliver(Reassembly& r, std::uint64_t seq, util::BytesView data) {
  util::Bytes out;
  r.offer(seq, data,
          [&](util::BytesView v) { out.insert(out.end(), v.begin(), v.end()); });
  return out;
}

// Where each view one offer() hands up starts, and the bytes it held (copied
// during the call: a view into the page store dies with it).
struct Handed {
  const std::uint8_t* data;
  util::Bytes bytes;
};
std::vector<Handed> pieces_of(Reassembly& r, std::uint64_t seq, util::BytesView data) {
  std::vector<Handed> pieces;
  r.offer(seq, data, [&](util::BytesView v) {
    pieces.push_back({v.data(), util::Bytes(v.begin(), v.end())});
  });
  return pieces;
}

TEST(Reassembly, InOrderDeliversImmediately) {
  Reassembly r(0);
  const util::Bytes out = deliver(r, 0, util::to_bytes("hello"));
  EXPECT_EQ(out, util::to_bytes("hello"));
  EXPECT_EQ(r.rcv_nxt(), 5u);
  EXPECT_FALSE(r.has_gaps());
}

TEST(Reassembly, OutOfOrderBuffersUntilGapFills) {
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 5, util::to_bytes("world")).empty());
  EXPECT_TRUE(r.has_gaps());
  EXPECT_EQ(r.buffered_bytes(), 5u);
  const util::Bytes out = deliver(r, 0, util::to_bytes("hello"));
  EXPECT_EQ(out, util::to_bytes("helloworld"));
  EXPECT_EQ(r.rcv_nxt(), 10u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Reassembly, DuplicateSegmentsAreAbsorbed) {
  Reassembly r(0);
  (void)deliver(r, 0, util::to_bytes("abc"));
  EXPECT_TRUE(deliver(r, 0, util::to_bytes("abc")).empty());
  EXPECT_EQ(r.rcv_nxt(), 3u);
}

TEST(Reassembly, PartiallyOldSegmentDeliversOnlyNewTail) {
  Reassembly r(0);
  (void)deliver(r, 0, util::to_bytes("abc"));
  const util::Bytes out = deliver(r, 1, util::to_bytes("bcde"));
  EXPECT_EQ(out, util::to_bytes("de"));
  EXPECT_EQ(r.rcv_nxt(), 5u);
}

TEST(Reassembly, OverlapWithBufferedSegmentTrimsBothSides) {
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 4, util::to_bytes("efgh")).empty());
  // Overlaps buffered [4,8) on its left edge and extends right.
  EXPECT_TRUE(deliver(r, 6, util::to_bytes("ghij")).empty());
  const util::Bytes out = deliver(r, 0, util::to_bytes("abcd"));
  EXPECT_EQ(out, util::to_bytes("abcdefghij"));
}

TEST(Reassembly, SegmentBridgingTwoBufferedPieces) {
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 2, util::to_bytes("cd")).empty());
  EXPECT_TRUE(deliver(r, 6, util::to_bytes("gh")).empty());
  // Bridges both: covers [2,8).
  EXPECT_TRUE(deliver(r, 2, util::to_bytes("cdefgh")).empty());
  const util::Bytes out = deliver(r, 0, util::to_bytes("ab"));
  EXPECT_EQ(out, util::to_bytes("abcdefgh"));
}

TEST(Reassembly, FullyCoveredSegmentIsDropped) {
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 2, util::to_bytes("cdef")).empty());
  EXPECT_TRUE(deliver(r, 3, util::to_bytes("de")).empty());
  EXPECT_EQ(r.buffered_bytes(), 4u);
}

TEST(Reassembly, NonZeroInitialSequence) {
  Reassembly r(1'000);
  EXPECT_TRUE(deliver(r, 500, util::to_bytes("old")).empty()) << "below rcv_nxt: ignored";
  const util::Bytes out = deliver(r, 1'000, util::to_bytes("xy"));
  EXPECT_EQ(out, util::to_bytes("xy"));
  EXPECT_EQ(r.rcv_nxt(), 1'002u);
}

TEST(Reassembly, EmptyOfferIsHarmless) {
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 0, util::BytesView{}).empty());
  EXPECT_EQ(r.rcv_nxt(), 0u);
}

// Property: any segmentation of a buffer, delivered in any order with
// duplicates, reassembles to exactly the original bytes.
class ReassemblyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyProperty, RandomSegmentationReassemblesExactly) {
  sim::Rng rng(GetParam());
  const std::size_t total = 10'000;
  const util::Bytes data = util::patterned_bytes(total, 77);

  // Build random, possibly overlapping segments covering the buffer.
  struct Piece {
    std::size_t from;
    std::size_t len;
  };
  std::vector<Piece> pieces;
  std::size_t covered = 0;
  while (covered < total) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(1, 700));
    pieces.push_back({covered, std::min(len, total - covered)});
    covered += pieces.back().len;
  }
  // Duplicates and overlapping extras.
  const std::size_t base_count = pieces.size();
  for (std::size_t i = 0; i < base_count / 2; ++i) {
    // A copy, not a reference: push_back may reallocate `pieces`.
    const Piece p = pieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(base_count) - 1))];
    pieces.push_back(p);
    const std::size_t from = p.from / 2;
    pieces.push_back({from, std::min<std::size_t>(p.len + 13, total - from)});
  }
  rng.shuffle(pieces);

  Reassembly r(0);
  util::Bytes out;
  for (const Piece& p : pieces) {
    const util::Bytes delivered = deliver(r, p.from, slice(data, p.from, p.len));
    out.insert(out.end(), delivered.begin(), delivered.end());
  }
  EXPECT_EQ(out, data);
  EXPECT_EQ(r.rcv_nxt(), total);
  EXPECT_FALSE(r.has_gaps());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

// Differential oracle: a map-based reassembly (one owned buffer per held
// piece, first arrival wins), the reference offer() is checked against.
class MapReassembly {
 public:
  explicit MapReassembly(std::uint64_t rcv_nxt) : rcv_nxt_(rcv_nxt) {}

  util::Bytes offer(std::uint64_t seq, util::BytesView data) {
    std::uint64_t begin = seq;
    const std::uint64_t seg_end = seq + data.size();
    if (seg_end <= rcv_nxt_) return {};
    if (begin < rcv_nxt_) {
      data = data.subspan(static_cast<std::size_t>(rcv_nxt_ - begin));
      begin = rcv_nxt_;
    }
    if (auto it = segments_.upper_bound(begin); it != segments_.begin()) {
      auto prev = std::prev(it);
      const std::uint64_t prev_end = prev->first + prev->second.size();
      if (prev_end >= seg_end) return {};
      if (prev_end > begin) {
        data = data.subspan(static_cast<std::size_t>(prev_end - begin));
        begin = prev_end;
      }
    }
    while (!data.empty()) {
      auto it = segments_.lower_bound(begin);
      std::uint64_t piece_end = seg_end;
      if (it != segments_.end()) piece_end = std::min(piece_end, it->first);
      if (piece_end > begin) {
        const auto n = static_cast<std::size_t>(piece_end - begin);
        buffered_ += n;
        segments_.emplace(begin, util::Bytes(data.begin(), data.begin() +
                                             static_cast<std::ptrdiff_t>(n)));
        data = data.subspan(n);
        begin = piece_end;
      }
      if (data.empty() || it == segments_.end()) break;
      const std::uint64_t skip_to =
          std::min<std::uint64_t>(it->first + it->second.size(), seg_end);
      if (skip_to <= begin) break;
      data = data.subspan(static_cast<std::size_t>(skip_to - begin));
      begin = skip_to;
    }
    util::Bytes delivered;
    while (!segments_.empty() && segments_.begin()->first == rcv_nxt_) {
      auto node = segments_.extract(segments_.begin());
      buffered_ -= node.mapped().size();
      rcv_nxt_ += node.mapped().size();
      delivered.insert(delivered.end(), node.mapped().begin(), node.mapped().end());
    }
    return delivered;
  }

  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  std::size_t buffered_bytes() const { return buffered_; }
  bool has_gaps() const { return !segments_.empty(); }

 private:
  std::uint64_t rcv_nxt_;
  std::size_t buffered_ = 0;
  std::map<std::uint64_t, util::Bytes> segments_;
};

// Random segmentation with duplicates, overlaps and divergent retransmits
// (same range, different bytes: whichever arrives first must win), offered
// in random order to both implementations; every offer must deliver the same
// bytes and leave the same state. Segments run up to 5000 bytes and the
// stream starts at a seed-dependent offset, so pieces straddle page edges.
class ReassemblyDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyDifferential, MatchesMapOracleOnEveryOffer) {
  sim::Rng rng(GetParam() + 1'000);
  const std::size_t total = 40'000;
  const util::Bytes data = util::patterned_bytes(total, 11);
  const util::Bytes divergent = util::patterned_bytes(total, 12);
  const std::uint64_t base = static_cast<std::uint64_t>(rng.uniform_int(0, 9'000));

  struct Piece {
    std::size_t from;
    std::size_t len;
    bool diverge;
  };
  std::vector<Piece> pieces;
  for (std::size_t covered = 0; covered < total;) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 5'000));
    pieces.push_back({covered, std::min(len, total - covered), false});
    covered += pieces.back().len;
  }
  const std::size_t base_count = pieces.size();
  for (std::size_t i = 0; i < base_count; ++i) {
    const Piece p = pieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(base_count) - 1))];
    // A duplicate, a divergent retransmit, or an overlapping extra carrying
    // either stream's bytes.
    const std::int64_t kind = rng.uniform_int(0, 2);
    if (kind == 0) {
      pieces.push_back(p);
    } else if (kind == 1) {
      pieces.push_back({p.from, p.len, true});
    } else {
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 6'000));
      pieces.push_back({from, std::min(len, total - from), rng.uniform_int(0, 1) == 1});
    }
  }
  rng.shuffle(pieces);

  Reassembly r(base);
  MapReassembly oracle(base);
  util::Bytes out;
  for (const Piece& p : pieces) {
    const util::Bytes seg = slice(p.diverge ? divergent : data, p.from, p.len);
    const util::Bytes got = deliver(r, base + p.from, seg);
    ASSERT_EQ(got, oracle.offer(base + p.from, seg)) << "piece at " << p.from;
    ASSERT_EQ(r.rcv_nxt(), oracle.rcv_nxt());
    ASSERT_EQ(r.buffered_bytes(), oracle.buffered_bytes());
    ASSERT_EQ(r.has_gaps(), oracle.has_gaps());
    out.insert(out.end(), got.begin(), got.end());
  }
  EXPECT_EQ(out.size(), total);
  EXPECT_EQ(r.rcv_nxt(), base + total);
  EXPECT_EQ(r.pages_in_use(), 0u) << "every page is released once its bytes leave";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyDifferential,
                         ::testing::Range<std::uint64_t>(0, 32));

TEST(Reassembly, FarAheadSegmentCostsPagesNotDistance) {
  Reassembly r(1);
  const std::uint64_t far = 1 + (std::uint64_t{1} << 40);
  EXPECT_TRUE(deliver(r, far, util::patterned_bytes(1'000, 3)).empty());
  EXPECT_EQ(r.buffered_bytes(), 1'000u);
  EXPECT_EQ(r.pages_in_use(), 1u) << "memory follows the bytes held, not the distance";
  // In-order bytes short of the held ones still go up as they stand.
  const util::Bytes head = util::to_bytes("abc");
  const auto got = pieces_of(r, 1, head);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data, head.data()) << "a view into the offered segment, no copy";
  EXPECT_EQ(got[0].bytes, head);
  EXPECT_EQ(r.rcv_nxt(), 4u);
  EXPECT_TRUE(r.has_gaps());
}

TEST(Reassembly, InOrderSegmentIsHandedUpUncopied) {
  Reassembly r(0);
  const util::Bytes seg = util::patterned_bytes(1'460, 9);
  const auto got = pieces_of(r, 0, seg);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data, seg.data());
  EXPECT_EQ(got[0].bytes, seg);
  EXPECT_EQ(r.pages_in_use(), 0u);
}

TEST(Reassembly, GapFillerGoesUpFirstThenPageSlices) {
  const util::Bytes all = util::patterned_bytes(13'000, 4);
  Reassembly r(0);
  EXPECT_TRUE(deliver(r, 5'000, slice(all, 5'000, 8'000)).empty());
  EXPECT_EQ(r.pages_in_use(), 3u);  // [5000, 13000) spans pages 1..3

  const util::Bytes filler = slice(all, 0, 6'000);  // overlaps the held run
  const auto got = pieces_of(r, 0, filler);
  ASSERT_EQ(got.size(), 4u);  // the filler's 5000 bytes, then one slice per page
  EXPECT_EQ(got[0].data, filler.data()) << "the filler's own bytes, uncopied";
  EXPECT_EQ(got[0].bytes.size(), 5'000u);
  util::Bytes out;
  for (const Handed& p : got) {
    if (&p != &got[0]) {
      EXPECT_LE(p.bytes.size(), Reassembly::kPageBytes);
    }
    out.insert(out.end(), p.bytes.begin(), p.bytes.end());
  }
  EXPECT_EQ(out, all);
  EXPECT_EQ(r.pages_in_use(), 0u);
}

}  // namespace
}  // namespace h2priv::tcp
