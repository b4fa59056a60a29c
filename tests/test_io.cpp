// DOT export and text serialisation: round trips, independent re-checking
// of archived certificates, error handling on malformed input — plus the
// binary checkpoint frame layer: checksummed round trips, exhaustive
// byte-flip corruption fuzz, and the bounds-checked payload readers.
#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "algo/truncated_greedy.hpp"
#include "graph/generators.hpp"
#include "io/dot.hpp"
#include "lower/adversary.hpp"

namespace dmm::io {
namespace {

TEST(Serialize, GraphRoundTrip) {
  Rng rng(1101);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::EdgeColouredGraph g = graph::random_coloured_graph(
        static_cast<int>(rng.uniform(2, 40)), static_cast<int>(rng.uniform(1, 6)), 0.7, rng);
    const graph::EdgeColouredGraph back = read_graph(write_graph(g));
    EXPECT_EQ(back.node_count(), g.node_count());
    EXPECT_EQ(back.k(), g.k());
    ASSERT_EQ(back.edge_count(), g.edge_count());
    for (int i = 0; i < g.edge_count(); ++i) {
      EXPECT_EQ(back.edges()[static_cast<std::size_t>(i)].u, g.edges()[static_cast<std::size_t>(i)].u);
      EXPECT_EQ(back.edges()[static_cast<std::size_t>(i)].colour,
                g.edges()[static_cast<std::size_t>(i)].colour);
    }
  }
}

TEST(Serialize, GraphColoursAreRangeCheckedBeforeNarrowing) {
  // 257 and −255 both narrow to colour 1 in 8 bits, and k = 256 has no
  // 8-bit palette: all three must fail to parse rather than load.
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 3\ne 0 1 257\n"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 3\ne 0 1 -255\n"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 256\ne 0 1 1\n"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 0\n"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 3\ne 0 1 0\n"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 3\ne 0 1 4\n"), std::runtime_error);
  // Graph-level errors still surface from the bulk constructor.
  EXPECT_THROW(read_graph("dmm-graph 1\nn 3 k 2\ne 0 1 1\ne 0 2 1\n"), std::logic_error);
  EXPECT_THROW(read_graph("dmm-graph 1\nn 2 k 2\ne 0 5 1\n"), std::out_of_range);
  // The ends of the range load, in file order.
  const graph::EdgeColouredGraph g =
      read_graph("dmm-graph 1\nn 3 k 255\ne 1 2 255\ne 0 1 1\n");
  EXPECT_EQ(g.k(), 255);
  ASSERT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.edges()[0].colour, 255);
  EXPECT_EQ(g.edges()[1].u, 0);
  EXPECT_EQ(g.edges()[1].colour, 1);
}

TEST(Serialize, SystemRoundTripPreservesIdsAndRadius) {
  const colsys::ColourSystem g = colsys::cayley_ball(3, 4);
  const colsys::ColourSystem back = read_system(write_system(g));
  EXPECT_EQ(back.size(), g.size());
  EXPECT_EQ(back.valid_radius(), g.valid_radius());
  EXPECT_TRUE(colsys::ColourSystem::equal_to_radius(back, g, 4));
  // NodeIds survive (parents precede children in the format).
  for (colsys::NodeId v = 0; v < g.size(); ++v) {
    EXPECT_EQ(back.word_of(v), g.word_of(v));
  }
}

TEST(Serialize, ExactSystemStaysExact) {
  const colsys::ColourSystem g = colsys::path_system(4, {1, 2, 3});
  const colsys::ColourSystem back = read_system(write_system(g));
  EXPECT_TRUE(back.is_exact());
}

TEST(Serialize, TemplateRoundTrip) {
  colsys::ColourSystem edge(4);
  edge.add_child(colsys::ColourSystem::root(), 2);
  const lower::Template tmpl(edge, {1, 3}, 1);
  const lower::Template back = read_template(write_template(tmpl));
  EXPECT_EQ(back.h(), 1);
  EXPECT_EQ(back.tau(0), 1);
  EXPECT_EQ(back.tau(1), 3);
  EXPECT_TRUE(colsys::ColourSystem::equal_to_radius(back.tree(), tmpl.tree(), 1));
}

TEST(Serialize, CertificateRoundTripAndRecheck) {
  // Produce a real refutation, archive it, read it back, re-verify it
  // against a *fresh* evaluator — the full paper trail.
  const algo::TruncatedGreedy fast(4, 2);
  const lower::LowerBoundResult result = lower::run_adversary(4, fast);
  ASSERT_TRUE(result.refuted());
  const lower::Certificate& original = std::get<lower::Certificate>(result.outcome);

  const std::string archived = write_certificate(original);
  const lower::Certificate restored = read_certificate(archived);
  EXPECT_EQ(restored.kind, original.kind);
  EXPECT_EQ(restored.node, original.node);
  EXPECT_EQ(restored.colour, original.colour);
  EXPECT_EQ(restored.detail, original.detail);

  lower::Evaluator fresh(fast);
  EXPECT_TRUE(lower::certificate_holds(restored, fresh));
}

TEST(Serialize, FuzzRoundTripRandomSystems) {
  Rng rng(1103);
  for (int trial = 0; trial < 20; ++trial) {
    // Random exact trees of varying k.
    const int k = static_cast<int>(rng.uniform(2, 6));
    colsys::ColourSystem sys(k);
    std::vector<colsys::NodeId> pool{colsys::ColourSystem::root()};
    const int target = static_cast<int>(rng.uniform(1, 50));
    for (int step = 0; step < target * 4 && sys.size() < target; ++step) {
      const colsys::NodeId v = pool[rng.index(pool.size())];
      const gk::Colour c = static_cast<gk::Colour>(rng.uniform(1, k));
      if (sys.parent_colour(v) != c && sys.child(v, c) == colsys::kNullNode) {
        pool.push_back(sys.add_child(v, c));
      }
    }
    const colsys::ColourSystem back = read_system(write_system(sys));
    ASSERT_EQ(back.size(), sys.size());
    for (colsys::NodeId v = 0; v < sys.size(); ++v) {
      EXPECT_EQ(back.word_of(v), sys.word_of(v));
    }
  }
}

TEST(Serialize, TruncatedSystemKeepsRadius) {
  const colsys::ColourSystem g = colsys::regular_system(4, 3, 5);
  const colsys::ColourSystem back = read_system(write_system(g));
  EXPECT_FALSE(back.is_exact());
  EXPECT_EQ(back.valid_radius(), 5);
  EXPECT_TRUE(back.is_regular(3));
}

TEST(Serialize, MalformedInputRejected) {
  EXPECT_THROW(read_graph("nonsense"), std::runtime_error);
  EXPECT_THROW(read_graph("dmm-graph 2\nn 1 k 1\n"), std::runtime_error);
  EXPECT_THROW(read_system("dmm-system 1\nk 3 valid exact\nq 0 1\n"), std::runtime_error);
  EXPECT_THROW(read_template("dmm-template 1\nh 1\n"), std::runtime_error);
  EXPECT_THROW(read_certificate("dmm-certificate 1\nkind X\n"), std::runtime_error);
}

TEST(Frame, RoundTripPreservesTypeVersionPayload) {
  std::stringstream stream;
  write_frame(stream, "TSTA", 7, "hello frame");
  write_frame(stream, "TSTB", 1, "");  // empty payloads are legal
  const Frame a = read_frame(stream);
  EXPECT_EQ(a.type, "TSTA");
  EXPECT_EQ(a.version, 7u);
  EXPECT_EQ(a.payload, "hello frame");
  const Frame b = read_frame(stream, "TSTB");
  EXPECT_EQ(b.version, 1u);
  EXPECT_TRUE(b.payload.empty());
}

TEST(Frame, TypeMismatchRejected) {
  std::stringstream stream;
  write_frame(stream, "TSTA", 1, "x");
  EXPECT_THROW(read_frame(stream, "TSTB"), CorruptFrameError);
}

TEST(Frame, EveryByteFlipIsDetected) {
  // The headline corruption guarantee: damage *anywhere* in a frame —
  // magic, type, version, length, payload, checksum — is detected, never
  // silently accepted with the original content.
  std::stringstream clean;
  write_frame(clean, "TSTC", 3, "fault-injection payload \x01\x02\x03");
  const std::string bytes = clean.str();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char flip : {0x01u, 0x80u, 0xffu}) {
      std::string damaged = bytes;
      damaged[i] = static_cast<char>(static_cast<unsigned char>(damaged[i]) ^ flip);
      std::istringstream in(damaged);
      try {
        const Frame frame = read_frame(in, "TSTC");
        // A flip inside the length prefix can only *pass* the checksum if it
        // reproduced the original frame — impossible for a non-zero flip.
        ADD_FAILURE() << "byte " << i << " flip 0x" << std::hex << static_cast<int>(flip)
                      << " accepted; payload size " << frame.payload.size();
      } catch (const CorruptFrameError&) {
        // expected
      }
    }
  }
}

TEST(Frame, TruncationAtEveryPrefixIsDetected) {
  std::stringstream clean;
  write_frame(clean, "TSTD", 1, "truncate me");
  const std::string bytes = clean.str();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW(read_frame(in), CorruptFrameError) << "prefix " << keep;
  }
}

TEST(Frame, OversizedLengthPrefixRejectedBeforeAllocation) {
  // Hand-build a header claiming a payload beyond kMaxFramePayload: the
  // reader must reject it from the length field alone (no 1-GiB allocation,
  // no attempt to slurp the stream).
  std::string bytes = "DMMFTSTE";
  bytes.append(4, '\0');  // version 0
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((kMaxFramePayload + 1) >> (8 * i)));
  }
  std::istringstream in(bytes);
  EXPECT_THROW(read_frame(in), CorruptFrameError);
}

TEST(ByteLayer, VarintAndSvarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 0xffffffffull, ~0ull};
  const std::int64_t signed_values[] = {0, -1, 1, -64, 64, -1000000, 1000000};
  for (std::uint64_t v : values) w.varint(v);
  for (std::int64_t v : signed_values) w.svarint(v);
  w.u8(0xab);
  w.bytes("tail");
  ByteReader r(w.buffer());
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  for (std::int64_t v : signed_values) EXPECT_EQ(r.svarint(), v);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.bytes(), "tail");
  EXPECT_TRUE(r.done());
  r.expect_done("round trip");
}

TEST(ByteLayer, TruncatedReadsThrow) {
  ByteReader empty("");
  EXPECT_THROW(empty.u8(), CorruptFrameError);
  ByteReader unterminated("\xff\xff\xff");  // varint with no final byte
  EXPECT_THROW(unterminated.varint(), CorruptFrameError);
}

TEST(ByteLayer, ByteRunLengthPrefixBeyondBufferThrows) {
  ByteWriter w;
  w.varint(100);  // length prefix promising 100 bytes...
  std::string payload = w.take();
  payload += "only a few";  // ...but far fewer present
  ByteReader r(payload);
  EXPECT_THROW(r.bytes(), CorruptFrameError);
}

TEST(ByteLayer, TrailingGarbageRejectedByExpectDone) {
  ByteWriter w;
  w.varint(5);
  w.u8(9);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.varint(), 5u);
  EXPECT_THROW(r.expect_done("partial"), CorruptFrameError);
}

TEST(ByteLayer, OverlongVarintRejected) {
  // 11 continuation bytes: more than any 64-bit value needs.
  const std::string overlong(11, '\x80');
  ByteReader r(overlong);
  EXPECT_THROW(r.varint(), CorruptFrameError);
}

TEST(Dot, GraphExportMentionsAllEdges) {
  const graph::EdgeColouredGraph g = graph::path_graph(3, {1, 2, 3});
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph instance {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
  EXPECT_NE(dot.find("label=\"3\""), std::string::npos);
}

TEST(Dot, SystemExportUsesWords) {
  const colsys::ColourSystem g = colsys::cayley_ball(3, 2);
  const std::string dot = to_dot(g, 2);
  EXPECT_NE(dot.find("label=\"e\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"1.2\""), std::string::npos);
}

TEST(Dot, TemplateExportShowsTau) {
  colsys::ColourSystem edge(4);
  edge.add_child(colsys::ColourSystem::root(), 2);
  const lower::Template tmpl(edge, {1, 3}, 1);
  const std::string dot = to_dot(tmpl, 1);
  EXPECT_NE(dot.find("tau=1"), std::string::npos);
  EXPECT_NE(dot.find("tau=3"), std::string::npos);
}

}  // namespace
}  // namespace dmm::io
