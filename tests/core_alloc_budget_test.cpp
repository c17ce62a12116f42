// Allocation budget of an attacked page load: every heap allocation the
// stack makes during one seeded table2 load, per packet on the wire, must
// stay under a pinned bound. The receive path hands views up from TCP
// reassembly through TLS open to the h2 frame decoder; a per-segment or
// per-record allocation creeping back in (a buffer per out-of-order segment,
// a fresh plaintext vector per record) adds about one allocation per packet
// and fails this test.
//
// Counts come from a process-wide operator new override, so they cover every
// allocation (vectors, closures, pool refills, the simulator's own state).
// The load runs twice and the second run is measured, so lazily built
// statics and a cold buffer pool do not count.
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "h2priv/core/experiment.hpp"

namespace {
std::uint64_t g_allocs = 0;  // single-threaded test: a plain counter
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace h2priv::core {
namespace {

// Seed 1000 measures 1.24 allocations per packet (7076 over 5692 packets).
// The bound leaves a margin of 0.21 per packet: under the ~0.22 per packet
// that one allocation per TLS record adds (about 1250 records per load) and
// the ~0.6 that one per out-of-order segment adds.
constexpr double kMaxAllocsPerPacket = 1.45;

TEST(AllocBudget, AttackedTable2LoadStaysUnderPinnedAllocationsPerPacket) {
  RunConfig cfg;
  cfg.seed = 1000;
  cfg.attack_enabled = true;
  (void)run_once(cfg);  // warm-up: lazy statics, buffer pool

  const std::uint64_t before = g_allocs;
  const RunResult r = run_once(cfg);
  const std::uint64_t allocs = g_allocs - before;
  ASSERT_GT(r.monitor_packets, 0u);
  const double per_packet =
      static_cast<double>(allocs) / static_cast<double>(r.monitor_packets);
  std::printf("allocations %llu over %llu packets: %.3f per packet\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(r.monitor_packets), per_packet);
  EXPECT_LE(per_packet, kMaxAllocsPerPacket);
}

}  // namespace
}  // namespace h2priv::core
