// Microbenchmarks of the protocol substrates (google-benchmark): the
// simulator event queue (schedule/cancel/run mixes — the per-event hot
// path), HPACK coding, HTTP/2 framing, TLS record sealing, TCP loop
// throughput, and a whole simulated page load.
#include <array>
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/core/parallel_runner.hpp"
#include "h2priv/h2/frame.hpp"
#include "h2priv/hpack/codec.hpp"
#include "h2priv/hpack/huffman.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tls/record.hpp"

namespace {

using namespace h2priv;

// --- simulator event-queue hot path -----------------------------------------

/// Pure schedule->run churn: the floor cost of one event through the queue.
void BM_SimEventScheduleRun(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule(util::nanoseconds(i % 97), [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimEventScheduleRun);

/// Packet-delivery-shaped events: a 40-byte moved-in capture, like Link's
/// delivery lambda (exercises the small-buffer Task path; std::function
/// heap-allocated every one of these).
void BM_SimEventPacketCapture(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      std::array<std::uint64_t, 5> payload{};  // Packet-sized capture
      payload[0] = static_cast<std::uint64_t>(i);
      sim.schedule(util::nanoseconds(i % 97),
                   [&sink, payload] { sink += payload[0]; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimEventPacketCapture);

/// The schedule/cancel/run mix of a real run: half the scheduled events are
/// cancelled before they fire (delayed-ACK and RTO timers rearm constantly).
void BM_SimEventScheduleCancelRun(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  std::array<sim::EventId, kBatch> ids{};
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule(util::nanoseconds(i % 97), [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimEventScheduleCancelRun);

/// Timer churn: cancel-and-rearm a single pending timer (pure cancellation
/// cost; the tombstoned entries drain at the end).
void BM_SimEventTimerRearm(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventId id{};
    for (int i = 0; i < kBatch; ++i) {
      sim.cancel(id);
      id = sim.schedule(util::milliseconds(100), [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SimEventTimerRearm);

// --- batch layer -------------------------------------------------------------

/// Whole Monte-Carlo batch through core::run_many; Arg is the job count
/// (1 = serial loop, 0 = one worker per hardware thread).
void BM_RunManyBatch(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  core::RunConfig cfg;
  for (auto _ : state) {
    const auto results = core::run_many(cfg, 8, core::Parallelism{jobs});
    benchmark::DoNotOptimize(results);
  }
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 8.0, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RunManyBatch)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_HuffmanEncode(benchmark::State& state) {
  const std::string s = "/images/emblem-party-1.png?cache=31415926&v=20200316";
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpack::huffman_encode(s));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const util::Bytes wire =
      hpack::huffman_encode("/images/emblem-party-1.png?cache=31415926&v=20200316");
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpack::huffman_decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_HuffmanDecode);

void BM_HpackEncodeRequest(benchmark::State& state) {
  hpack::Encoder enc;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode({{":method", "GET"},
                                         {":scheme", "https"},
                                         {":authority", "www.isidewith.com"},
                                         {":path", "/obj/" + std::to_string(i++ % 50)},
                                         {"user-agent", "Mozilla/5.0 (sim)"}}));
  }
}
BENCHMARK(BM_HpackEncodeRequest);

void BM_HpackRoundTrip(benchmark::State& state) {
  hpack::Encoder enc;
  hpack::Decoder dec;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(enc.encode(
        {{":status", "200"}, {"content-type", "image/png"},
         {"content-length", std::to_string(5'000 + i++ % 100)}})));
  }
}
BENCHMARK(BM_HpackRoundTrip);

void BM_H2FrameEncodeData(benchmark::State& state) {
  h2::DataFrame f;
  f.stream_id = 5;
  f.data = util::patterned_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h2::encode_frame(f));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_H2FrameEncodeData)->Arg(1'024)->Arg(16'384);

void BM_H2FrameDecode(benchmark::State& state) {
  h2::DataFrame f;
  f.stream_id = 5;
  f.data = util::patterned_bytes(16'384, 1);
  const util::Bytes wire = h2::encode_frame(f);
  for (auto _ : state) {
    h2::FrameDecoder dec;
    dec.decode(wire, [](h2::Frame&& frame) { benchmark::DoNotOptimize(frame); });
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_H2FrameDecode);

void BM_TlsSealOpen(benchmark::State& state) {
  const util::Bytes plaintext =
      util::patterned_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    tls::SealContext seal(1, 0);
    tls::OpenContext open(1, 0);
    const util::Bytes wire = seal.seal(tls::ContentType::kApplicationData, plaintext);
    std::size_t consumed = 0;
    benchmark::DoNotOptimize(open.open_one(wire, consumed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TlsSealOpen)->Arg(1'024)->Arg(16'384);

void BM_SimulatedPageLoad(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(core::run_once(cfg));
  }
  state.counters["sim_pages_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatedPageLoad)->Unit(benchmark::kMillisecond);

void BM_SimulatedAttackRun(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::RunConfig cfg;
    cfg.seed = seed++;
    cfg.attack_enabled = true;
    benchmark::DoNotOptimize(core::run_once(cfg));
  }
}
BENCHMARK(BM_SimulatedAttackRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  h2priv::bench::emit_bench_json("micro_protocol");
  return 0;
}
