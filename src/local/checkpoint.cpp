#include "local/checkpoint.hpp"

#include <algorithm>
#include <ostream>
#include <span>

#include "io/serialize.hpp"
#include "util/hash.hpp"

namespace dmm::local {

namespace {

// Version 2: graph_fingerprint became an order-independent sum of per-edge
// hashes, so a version-1 file's fingerprint would no longer match its graph.
constexpr std::uint32_t kCheckpointVersion = 2;

void write_flags(io::ByteWriter& w, const std::vector<std::uint8_t>& flags) {
  w.bytes(std::string_view(reinterpret_cast<const char*>(flags.data()), flags.size()));
}

std::vector<std::uint8_t> read_flags(io::ByteReader& r, std::size_t expected,
                                     const char* what) {
  const std::string_view v = r.bytes();
  if (v.size() != expected) {
    throw CheckpointError(std::string(what) + " array has wrong length");
  }
  std::vector<std::uint8_t> flags(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto b = static_cast<std::uint8_t>(v[i]);
    if (b > 1) throw CheckpointError(std::string(what) + " flag is not 0/1");
    flags[i] = b;
  }
  return flags;
}

/// What every captured checkpoint satisfies, whatever the graph: array
/// shapes, flag consistency, and counts that agree with the flags.
void require_consistent(const EngineCheckpoint& cp) {
  if (cp.node_count < 0 || cp.k < 0 || cp.round < 0 || cp.running < 0 ||
      cp.running > cp.node_count) {
    throw CheckpointError("impossible header counters");
  }
  const auto n = static_cast<std::size_t>(cp.node_count);
  if (cp.outputs.size() != n || cp.halt_round.size() != n || cp.halted.size() != n ||
      cp.down.size() != n || cp.dead.size() != n) {
    throw CheckpointError("node arrays do not match the node count");
  }
  std::size_t live = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (cp.halted[v] && (cp.down[v] || cp.dead[v])) {
      throw CheckpointError("node is both halted and crashed");
    }
    if (!cp.halted[v] && !cp.dead[v]) ++live;
    if (cp.halted[v] != (cp.halt_round[v] >= 0)) {
      throw CheckpointError("halt_round disagrees with the halted flag");
    }
  }
  if (live != static_cast<std::size_t>(cp.running)) {
    throw CheckpointError("running count disagrees with the flags");
  }
  if (cp.program_state.size() != live) {
    throw CheckpointError("program state count does not match the live node set");
  }
}

}  // namespace

std::uint64_t graph_fingerprint(const graph::EdgeColouredGraph& g) {
  // Node indices are non-negative 31-bit values, so (lo, hi) packs into one
  // word without loss; the colour is mixed in after a first avalanche.
  std::uint64_t sum = 0;
  for (const graph::Edge& e : g.edges()) {
    const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
    const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
    sum += mix64(mix64(lo << 32 | hi) ^ e.colour);
  }
  const std::uint64_t shape = static_cast<std::uint64_t>(g.node_count()) << 32 |
                              static_cast<std::uint32_t>(g.k());
  return mix64(sum ^ mix64(shape));
}

void EngineCheckpoint::write(std::ostream& out) const {
  {
    io::ByteWriter w;
    w.svarint(node_count);
    w.svarint(k);
    w.varint(edge_hash);
    w.svarint(round);
    w.svarint(running);
    w.varint(crashes);
    w.varint(restarts);
    w.varint(messages_dropped);
    w.varint(max_message_bytes);
    w.varint(total_message_bytes);
    w.varint(messages_sent);
    io::write_frame(out, "CKPH", kCheckpointVersion, w.buffer());
  }
  {
    io::ByteWriter w;
    w.bytes(std::string_view(reinterpret_cast<const char*>(outputs.data()), outputs.size()));
    w.varint(halt_round.size());
    for (std::int32_t r : halt_round) w.svarint(r);
    write_flags(w, halted);
    write_flags(w, down);
    write_flags(w, dead);
    io::write_frame(out, "CKPN", kCheckpointVersion, w.buffer());
  }
  {
    io::ByteWriter w;
    w.varint(program_state.size());
    for (const std::string& blob : program_state) w.bytes(blob);
    io::write_frame(out, "CKPP", kCheckpointVersion, w.buffer());
  }
}

EngineCheckpoint EngineCheckpoint::read(std::istream& in) {
  EngineCheckpoint cp;
  {
    const io::Frame frame = io::read_frame(in, "CKPH");
    if (frame.version != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version " + std::to_string(frame.version));
    }
    io::ByteReader r(frame.payload);
    cp.node_count = static_cast<std::int32_t>(r.svarint());
    cp.k = static_cast<std::int32_t>(r.svarint());
    cp.edge_hash = r.varint();
    cp.round = static_cast<std::int32_t>(r.svarint());
    cp.running = static_cast<std::int32_t>(r.svarint());
    cp.crashes = r.varint();
    cp.restarts = r.varint();
    cp.messages_dropped = r.varint();
    cp.max_message_bytes = r.varint();
    cp.total_message_bytes = r.varint();
    cp.messages_sent = r.varint();
    r.expect_done("checkpoint header");
    if (cp.node_count < 0) throw CheckpointError("impossible header counters");
  }
  const auto n = static_cast<std::size_t>(cp.node_count);
  {
    const io::Frame frame = io::read_frame(in, "CKPN");
    io::ByteReader r(frame.payload);
    const std::string_view outs = r.bytes();
    if (outs.size() != n) throw CheckpointError("output array has wrong length");
    cp.outputs.assign(outs.begin(), outs.end());
    if (r.varint() != n) throw CheckpointError("halt_round array has wrong length");
    cp.halt_round.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cp.halt_round[i] = static_cast<std::int32_t>(r.svarint());
    }
    cp.halted = read_flags(r, n, "halted");
    cp.down = read_flags(r, n, "down");
    cp.dead = read_flags(r, n, "dead");
    r.expect_done("checkpoint node arrays");
  }
  {
    const io::Frame frame = io::read_frame(in, "CKPP");
    io::ByteReader r(frame.payload);
    const std::uint64_t count = r.varint();
    std::size_t expected = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!cp.halted[v] && !cp.dead[v]) ++expected;
    }
    if (count != expected) {
      throw CheckpointError("program state count does not match the live node set");
    }
    cp.program_state.reserve(expected);
    for (std::uint64_t i = 0; i < count; ++i) {
      cp.program_state.emplace_back(r.bytes());
    }
    r.expect_done("checkpoint program states");
  }
  require_consistent(cp);
  return cp;
}

void EngineCheckpoint::require_matches(const graph::EdgeColouredGraph& g) const {
  if (node_count != g.node_count() || k != g.k() || edge_hash != graph_fingerprint(g)) {
    throw CheckpointError(
        "checkpoint was captured on a different instance (fingerprint mismatch)");
  }
  // A checksum proves the bytes are as written, not that a run wrote them:
  // FNV-1a is no defence against crafted input.  So check for meaning
  // against the graph too, after the shape checks read() also makes (an
  // in-memory checkpoint never went through read()).
  require_consistent(*this);
  for (std::size_t v = 0; v < static_cast<std::size_t>(node_count); ++v) {
    if (halt_round[v] > round) throw CheckpointError("node halted after the checkpoint round");
    const Colour out = outputs[v];
    if (out == kUnmatched) continue;
    if (!halted[v]) throw CheckpointError("node has an output but has not halted");
    const std::span<const graph::HalfEdge> halves =
        g.half_edges(static_cast<graph::NodeIndex>(v));
    if (std::none_of(halves.begin(), halves.end(),
                     [out](const graph::HalfEdge& h) { return h.colour == out; })) {
      throw CheckpointError("output is not a colour incident to its node");
    }
  }
}

}  // namespace dmm::local
