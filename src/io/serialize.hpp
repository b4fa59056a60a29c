// Plain-text serialisation for instances, colour systems, templates and
// adversary certificates — so that counterexamples can be archived,
// diffed, and re-checked by an independent process.
//
// Formats are line-based and versioned:
//
//   dmm-graph 1          dmm-system 1            dmm-template 1
//   n <n> k <k>          k <k> valid <r|exact>   h <h>
//   e <u> <v> <c>        p <parent> <colour>     <dmm-system block>
//   ...                  ...  (one per non-root  tau <t0> <t1> ...
//                        node, in NodeId order)
//
// Certificates embed their template plus the violation metadata; reading
// one back and calling lower::certificate_holds on it re-verifies the
// refutation from nothing but the file contents.
//
// Below the text formats sits the binary *frame* layer (ISSUE 8): a
// versioned, checksummed envelope for checkpoint payloads (engine
// checkpoints, evaluator memos, adversary hunt state).  Every frame is
//
//   "DMMF" <type:4> <version:u32 LE> <payload_len:u64 LE> <payload> <fnv1a64:u64 LE>
//
// and every defect — truncation, a length prefix past the end of the
// stream or beyond kMaxFramePayload, a checksum mismatch — raises the
// typed CorruptFrameError, so a damaged checkpoint is reported, never
// silently resumed.  Payloads are assembled with ByteWriter and decoded
// with ByteReader, whose every read is bounds-checked (LEB128 varints
// reject overlong encodings; length-prefixed byte runs reject prefixes
// that overrun the buffer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/edge_coloured_graph.hpp"
#include "lower/realisation.hpp"

namespace dmm::io {

std::string write_graph(const graph::EdgeColouredGraph& g);
graph::EdgeColouredGraph read_graph(const std::string& text);

std::string write_system(const colsys::ColourSystem& system);
colsys::ColourSystem read_system(std::string_view text);

std::string write_template(const lower::Template& tmpl);
lower::Template read_template(const std::string& text);

std::string write_certificate(const lower::Certificate& cert);
lower::Certificate read_certificate(const std::string& text);

// ---------------------------------------------------------------------------
// Binary frame layer.
// ---------------------------------------------------------------------------

/// Any defect in binary frame input: truncation, bad magic, an oversized or
/// overrunning length prefix, an overlong varint, a checksum mismatch.
class CorruptFrameError : public std::runtime_error {
 public:
  explicit CorruptFrameError(const std::string& what)
      : std::runtime_error("dmm::io corrupt frame: " + what) {}
};

/// Hard cap on a single frame payload (1 GiB): a declared length beyond
/// this is rejected before any allocation, so a corrupted length prefix
/// cannot become a multi-terabyte resize.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

/// Append-only payload builder.  Integers are LEB128 varints (svarint
/// zigzags first); byte runs are varint-length-prefixed.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void varint(std::uint64_t v);
  void svarint(std::int64_t v);
  void bytes(std::string_view v);
  const std::string& buffer() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload decoder over a borrowed buffer.  Every read that
/// would pass the end of the buffer — including a length prefix larger than
/// what remains — throws CorruptFrameError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint64_t varint();
  std::int64_t svarint();
  /// A varint-length-prefixed byte run; the view borrows the buffer.
  std::string_view bytes();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  /// Throws unless the whole buffer has been consumed — trailing garbage in
  /// a payload is as corrupt as a truncated one.
  void expect_done(const char* context) const;

 private:
  [[noreturn]] void fail(const std::string& what) const;
  std::string_view data_;
  std::size_t pos_ = 0;
};

struct Frame {
  std::string type;  // exactly 4 characters
  std::uint32_t version = 0;
  std::string payload;
};

/// Writes one checksummed frame.  `type` must be exactly 4 characters.
void write_frame(std::ostream& out, std::string_view type, std::uint32_t version,
                 std::string_view payload);

/// Reads and verifies one frame.  Throws CorruptFrameError on any damage,
/// and on a type mismatch when `expected_type` is non-empty.
Frame read_frame(std::istream& in, std::string_view expected_type = {});

}  // namespace dmm::io
