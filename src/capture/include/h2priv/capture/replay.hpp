// Replay: feed a stored .h2t trace back through the live adversary pipeline
// (analysis::MonitorStream reassembly + record extraction inside
// core::TrafficMonitor, then core::ObjectPredictor) and recompute the full
// attack verdict offline.
//
// The trace stores no payload bytes — only TCP header fields and TLS record
// boundaries — so the byte stream each direction carried is *synthesized*:
// real 5-byte TLS headers are planted at the recorded stream offsets (bodies
// are zeros; the scanner never reads bodies) and, if the stream ends inside
// an unfinished record, a phantom header with an unreachable length keeps
// the scanner waiting exactly like the live partial record did. Feeding the
// recorded packets over that stream drives the reassembler through the same
// states as the live run — retransmissions, reordering and all — so the
// recomputed records, GET count, verdicts and DoM values are bit-identical.
//
// One engine does the feeding, in a single walk over the packets: they
// stream off the mmap'd image through a PacketCursor (or off a demuxed fleet
// connection), and each packet's payload is synthesized into a reusable
// scratch buffer, so peak memory is O(records + one packet), never
// O(stream bytes). Each direction's stream extent is tracked during the
// walk; a packet that would complete the phantom's body is refused before
// it is fed, and the stored records are checked against the extents once
// the walk ends. Hostile lengths are refused with TraceError before
// anything is sized from them: record lengths are 16-bit, packet payloads
// fit an IPv4 datagram, and a packet's sequence range may not wrap. Only
// TraceError escapes: stored records that leave a gap in the stream (where
// the scanner would read zeros as a header) are refused with it too.
//
// Scoring and replay share one decode. decode_conn reads a trace's meta,
// ground truth, record sections and stored summary once into a StoredConn
// (demux_fleet yields one per fleet connection); score_conn runs
// core::score_verdict straight over its stored records, no reassembly at
// all, and replay() synthesizes the streams from the same stored records,
// walks the packets through a fresh monitor and re-scores from the
// monitor's own records, so the check stays independent of the scoring.
#pragma once

#include <optional>
#include <vector>

#include "h2priv/capture/trace_format.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/experiment.hpp"

namespace h2priv::capture {

struct ReplayResult {
  /// The verdict recomputed offline (same shape as the stored summary).
  TraceSummary summary;
  /// Recomputed record observations matched the stored sections exactly.
  bool records_match = true;
  /// Stored summary present and equal to the recomputed one.
  bool summary_matches = false;
};

/// One connection's stored verdict inputs, each section decoded once; the
/// records-direct score, the stored-summary check and replay all read these.
struct StoredConn {
  TraceMeta meta;
  analysis::GroundTruth truth;
  std::vector<analysis::RecordObservation> records_c2s;
  std::vector<analysis::RecordObservation> records_s2c;
  std::uint64_t packet_count = 0;
  /// The live run's verdict, when the trace stores one.
  std::optional<TraceSummary> summary;
};

/// Decodes a single-connection trace's verdict inputs. Throws TraceError
/// without ground truth.
[[nodiscard]] StoredConn decode_conn(const TraceFile& trace);

/// Records-direct scoring: core::score_verdict over the stored record
/// sections, with no reassembly and no monitor. Produces the same verdict
/// as replay() for every trace whose stored records are faithful (which
/// replay()'s records_match verifies). This is the corpus pipeline's fast
/// path; `site` must be built with conn.meta.pad_sensitive_objects.
[[nodiscard]] core::Verdict score_conn(const StoredConn& conn,
                                       const web::IsideWithSite& site);

/// decode_conn + score_conn of one trace.
[[nodiscard]] TraceSummary score_stored(const TraceFile& trace);

/// Full offline pipeline: feeds every packet of `trace` through a fresh
/// monitor (packet retention off, so memory stays bounded regardless of
/// trace length) over streams synthesized from `stored`'s records, then
/// re-scores from the monitor's own records with core::score_verdict.
/// Requires records sorted by stream offset (what TraceWriter emits); the
/// stored summary, when present, is the fidelity cross-check. Throws
/// TraceError if the trace's streams cannot be synthesized faithfully.
[[nodiscard]] ReplayResult replay(const TraceFile& trace, const StoredConn& stored,
                                  const web::IsideWithSite& site);

/// decode_conn + replay of one trace.
[[nodiscard]] ReplayResult replay(const TraceFile& trace);

/// One client connection demultiplexed out of a fleet trace. Observation
/// timestamps are rebased to client-local time (-start_offset_ns), and
/// `meta` is a synthesized single-connection view (client seed, party order
/// and horizon from the kFleet entry), so every single-connection replay and
/// scoring path applies to a demuxed connection unchanged.
struct DemuxedConn : StoredConn {
  /// The kFleet entry's provenance; its truth and summary are moved into the
  /// StoredConn fields.
  FleetConn info;
  std::vector<analysis::PacketObservation> packets;
};

/// Splits a fleet trace into per-connection observation streams via the
/// kConnIds columns. Throws TraceError if the trace is not a fleet trace or
/// any fleet/conn-id structure is malformed (out-of-range ids, column counts
/// disagreeing with the packet/record sections, ...).
[[nodiscard]] std::vector<DemuxedConn> demux_fleet(const TraceFile& trace);

/// replay() of one demultiplexed connection, walking its packets.
[[nodiscard]] ReplayResult replay(const DemuxedConn& conn,
                                  const web::IsideWithSite& site);

/// Demultiplexes and replays every connection of a fleet trace, in
/// connection-id order; each connection's stored summary is its fidelity
/// cross-check.
[[nodiscard]] std::vector<ReplayResult> replay_fleet(const TraceFile& trace);

}  // namespace h2priv::capture
