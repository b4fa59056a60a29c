#include "io/serialize.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dmm::io {

namespace {

std::runtime_error parse_error(const std::string& what) {
  return std::runtime_error("dmm::io parse error: " + what);
}

/// Reads one whitespace token; throws on EOF.
std::string token(std::istringstream& in, const char* context) {
  std::string t;
  if (!(in >> t)) throw parse_error(std::string("unexpected end of input in ") + context);
  return t;
}

int int_token(std::istringstream& in, const char* context) {
  return std::stoi(token(in, context));
}

void expect(std::istringstream& in, const char* literal) {
  const std::string t = token(in, literal);
  if (t != literal) throw parse_error("expected '" + std::string(literal) + "', got '" + t + "'");
}

}  // namespace

std::string write_graph(const graph::EdgeColouredGraph& g) {
  std::ostringstream out;
  out << "dmm-graph 1\n";
  out << "n " << g.node_count() << " k " << g.k() << "\n";
  for (const graph::Edge& e : g.edges()) {
    out << "e " << e.u << " " << e.v << " " << static_cast<int>(e.colour) << "\n";
  }
  return out.str();
}

graph::EdgeColouredGraph read_graph(const std::string& text) {
  std::istringstream in(text);
  expect(in, "dmm-graph");
  if (int_token(in, "graph version") != 1) throw parse_error("unsupported graph version");
  expect(in, "n");
  const int n = int_token(in, "node count");
  expect(in, "k");
  const int k = int_token(in, "palette");
  // Range-check the ints before narrowing to the 8-bit Colour, which would
  // otherwise read colour 257 (or −255) as colour 1.
  if (k < 1 || k > 255) throw parse_error("palette k must be in [1, 255]");
  std::vector<graph::Edge> edges;
  std::string tag;
  while (in >> tag) {
    if (tag != "e") throw parse_error("expected edge line, got '" + tag + "'");
    const int u = int_token(in, "edge u");
    const int v = int_token(in, "edge v");
    const int c = int_token(in, "edge colour");
    if (c < 1 || c > k) throw parse_error("edge colour out of [1, k]");
    edges.push_back({u, v, static_cast<gk::Colour>(c)});
  }
  // The bulk constructor validates once in O(m log m) and keeps the file's
  // edge order as edges().
  return graph::EdgeColouredGraph(n, k, std::move(edges));
}

std::string write_system(const colsys::ColourSystem& system) {
  std::ostringstream out;
  out << "dmm-system 1\n";
  out << "k " << system.k() << " valid ";
  if (system.is_exact()) {
    out << "exact";
  } else {
    out << system.valid_radius();
  }
  out << "\n";
  for (colsys::NodeId v = 1; v < system.size(); ++v) {
    out << "p " << system.parent(v) << " " << static_cast<int>(system.parent_colour(v)) << "\n";
  }
  return out.str();
}

colsys::ColourSystem read_system(const std::string& text) {
  std::istringstream in(text);
  expect(in, "dmm-system");
  if (int_token(in, "system version") != 1) throw parse_error("unsupported system version");
  expect(in, "k");
  const int k = int_token(in, "palette");
  expect(in, "valid");
  const std::string valid = token(in, "valid radius");
  colsys::ColourSystem system(k, valid == "exact" ? colsys::kExactRadius : std::stoi(valid));
  std::string tag;
  while (in >> tag) {
    if (tag != "p") throw parse_error("expected node line, got '" + tag + "'");
    const int parent = int_token(in, "parent");
    const int colour = int_token(in, "colour");
    // Nodes are written in id order, so parents always precede children and
    // add_child reproduces the exact same NodeIds.
    system.add_child(parent, static_cast<gk::Colour>(colour));
  }
  return system;
}

std::string write_template(const lower::Template& tmpl) {
  std::ostringstream out;
  out << "dmm-template 1\n";
  out << "h " << tmpl.h() << "\n";
  out << write_system(tmpl.tree());
  out << "tau";
  for (colsys::NodeId v = 0; v < tmpl.tree().size(); ++v) {
    out << " " << static_cast<int>(tmpl.tau(v));
  }
  out << "\n";
  return out.str();
}

lower::Template read_template(const std::string& text) {
  const std::size_t tau_pos = text.rfind("tau");
  if (tau_pos == std::string::npos) throw parse_error("template missing tau line");
  std::istringstream head(text.substr(0, tau_pos));
  expect(head, "dmm-template");
  if (int_token(head, "template version") != 1) throw parse_error("unsupported template version");
  expect(head, "h");
  const int h = int_token(head, "regularity");
  // The rest of the head is the embedded system block.
  std::string system_block;
  std::getline(head, system_block, '\0');
  colsys::ColourSystem tree = read_system(system_block);

  std::istringstream tail(text.substr(tau_pos));
  expect(tail, "tau");
  std::vector<gk::Colour> tau;
  int value = 0;
  while (tail >> value) tau.push_back(static_cast<gk::Colour>(value));
  if (static_cast<int>(tau.size()) != tree.size()) throw parse_error("tau length mismatch");
  return lower::make_template_unchecked(std::move(tree), std::move(tau), h);
}

namespace {

const char* kind_name(lower::Certificate::Kind kind) {
  switch (kind) {
    case lower::Certificate::Kind::M1: return "M1";
    case lower::Certificate::Kind::M2: return "M2";
    case lower::Certificate::Kind::M3: return "M3";
    case lower::Certificate::Kind::L9: return "L9";
  }
  return "?";
}

lower::Certificate::Kind kind_from(const std::string& name) {
  if (name == "M1") return lower::Certificate::Kind::M1;
  if (name == "M2") return lower::Certificate::Kind::M2;
  if (name == "M3") return lower::Certificate::Kind::M3;
  if (name == "L9") return lower::Certificate::Kind::L9;
  throw parse_error("unknown certificate kind '" + name + "'");
}

}  // namespace

std::string write_certificate(const lower::Certificate& cert) {
  std::ostringstream out;
  out << "dmm-certificate 1\n";
  out << "kind " << kind_name(cert.kind) << "\n";
  out << "node " << cert.node << " other " << cert.other << " colour "
      << static_cast<int>(cert.colour) << " output " << static_cast<int>(cert.output)
      << " other_output " << static_cast<int>(cert.other_output) << "\n";
  out << "detail " << (cert.detail.empty() ? "-" : cert.detail) << "\n";
  out << write_template(cert.instance);
  return out.str();
}

lower::Certificate read_certificate(const std::string& text) {
  const std::size_t tmpl_pos = text.find("dmm-template");
  if (tmpl_pos == std::string::npos) throw parse_error("certificate missing template block");
  std::istringstream head(text.substr(0, tmpl_pos));
  expect(head, "dmm-certificate");
  if (int_token(head, "certificate version") != 1) {
    throw parse_error("unsupported certificate version");
  }
  expect(head, "kind");
  const lower::Certificate::Kind kind = kind_from(token(head, "kind"));
  expect(head, "node");
  const int node = int_token(head, "node");
  expect(head, "other");
  const int other = int_token(head, "other");
  expect(head, "colour");
  const int colour = int_token(head, "colour");
  expect(head, "output");
  const int output = int_token(head, "output");
  expect(head, "other_output");
  const int other_output = int_token(head, "other output");
  expect(head, "detail");
  std::string detail;
  std::getline(head, detail);
  if (!detail.empty() && detail.front() == ' ') detail.erase(0, 1);
  if (detail == "-") detail.clear();

  lower::Template instance = read_template(text.substr(tmpl_pos));
  return lower::Certificate{kind,
                            std::move(instance),
                            node,
                            other,
                            static_cast<gk::Colour>(colour),
                            static_cast<gk::Colour>(output),
                            static_cast<gk::Colour>(other_output),
                            std::move(detail)};
}

// ---------------------------------------------------------------------------
// Binary frame layer.
// ---------------------------------------------------------------------------

namespace {

constexpr char kFrameMagic[4] = {'D', 'M', 'M', 'F'};
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void put_u32(std::ostream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

void get_exact(std::istream& in, char* dst, std::size_t size, const char* context) {
  in.read(dst, static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) {
    throw CorruptFrameError(std::string("truncated input in ") + context);
  }
}

std::uint32_t get_u32(std::istream& in, const char* context) {
  char b[4];
  get_exact(in, b, 4, context);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::istream& in, const char* context) {
  char b[8];
  get_exact(in, b, 8, context);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

/// The checksum covers everything after the magic: type, version,
/// payload_len and the payload bytes, chained through one FNV state.
std::uint64_t frame_checksum(std::string_view type, std::uint32_t version,
                             std::string_view payload) {
  std::uint64_t sum = fnv1a64(type.data(), type.size());
  char header[12];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<char>((version >> (8 * i)) & 0xff);
  const auto len = static_cast<std::uint64_t>(payload.size());
  for (int i = 0; i < 8; ++i) header[4 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  sum = fnv1a64(header, sizeof(header), sum);
  return fnv1a64(payload.data(), payload.size(), sum);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void ByteWriter::svarint(std::int64_t v) {
  // Zigzag: small magnitudes of either sign stay short.
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::bytes(std::string_view v) {
  varint(v.size());
  buf_.append(v.data(), v.size());
}

std::uint8_t ByteReader::u8() {
  if (pos_ >= data_.size()) fail("unexpected end of payload");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    // The 10th byte may only carry the top bit of a 64-bit value; anything
    // larger is an overlong encoding, not a longer integer.
    if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  fail("varint longer than 10 bytes");
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t z = varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string_view ByteReader::bytes() {
  const std::uint64_t len = varint();
  if (len > remaining()) fail("length prefix overruns the payload");
  const std::string_view v = data_.substr(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return v;
}

void ByteReader::expect_done(const char* context) const {
  if (!done()) {
    throw CorruptFrameError(std::string("trailing bytes after ") + context);
  }
}

void ByteReader::fail(const std::string& what) const {
  throw CorruptFrameError(what + " (at offset " + std::to_string(pos_) + ")");
}

void write_frame(std::ostream& out, std::string_view type, std::uint32_t version,
                 std::string_view payload) {
  if (type.size() != 4) throw std::invalid_argument("write_frame: type must be 4 characters");
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("write_frame: payload exceeds kMaxFramePayload");
  }
  out.write(kFrameMagic, 4);
  out.write(type.data(), 4);
  put_u32(out, version);
  put_u64(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  put_u64(out, frame_checksum(type, version, payload));
  if (!out) throw std::runtime_error("write_frame: stream write failed");
}

Frame read_frame(std::istream& in, std::string_view expected_type) {
  char magic[4];
  get_exact(in, magic, 4, "frame magic");
  if (std::string_view(magic, 4) != std::string_view(kFrameMagic, 4)) {
    throw CorruptFrameError("bad frame magic");
  }
  Frame frame;
  char type[4];
  get_exact(in, type, 4, "frame type");
  frame.type.assign(type, 4);
  frame.version = get_u32(in, "frame version");
  const std::uint64_t len = get_u64(in, "frame length");
  if (len > kMaxFramePayload) {
    throw CorruptFrameError("declared payload length " + std::to_string(len) +
                            " exceeds the frame cap");
  }
  frame.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) get_exact(in, frame.payload.data(), frame.payload.size(), "frame payload");
  const std::uint64_t stored = get_u64(in, "frame checksum");
  if (stored != frame_checksum(frame.type, frame.version, frame.payload)) {
    throw CorruptFrameError("checksum mismatch in '" + frame.type + "' frame");
  }
  if (!expected_type.empty() && frame.type != expected_type) {
    throw CorruptFrameError("expected a '" + std::string(expected_type) + "' frame, found '" +
                            frame.type + "'");
  }
  return frame;
}

}  // namespace dmm::io
