#include "lower/realisation.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "io/serialize.hpp"

namespace dmm::lower {

namespace {
// Version 2: the orbit memo and its sections are gone, so a version-1
// payload would no longer parse; load() refuses it by version.
constexpr std::uint32_t kEvaluatorStateVersion = 2;
}  // namespace

void Evaluator::save(std::ostream& out) const {
  io::ByteWriter w;
  w.bytes(algorithm_.name());
  w.u8(memoise_ ? 1 : 0);
  w.varint(evaluations_);
  w.varint(memo_hits_);
  // The interned canonical views, in id order: re-interning them in the
  // same order on load reproduces the identical ViewId assignment.
  w.varint(static_cast<std::uint64_t>(store_.size()));
  for (colsys::ViewId id = 0; id < store_.size(); ++id) {
    const std::vector<std::uint8_t> key = store_.bytes(id);
    w.bytes(std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
  }
  w.bytes(std::string_view(reinterpret_cast<const char*>(memo_.data()), memo_.size()));
  io::write_frame(out, "EVAL", kEvaluatorStateVersion, w.buffer());
}

void Evaluator::load(std::istream& in) {
  if (evaluations_ != 0 || memo_hits_ != 0 || store_.size() != 0) {
    throw std::runtime_error("Evaluator::load: requires a freshly constructed evaluator");
  }
  const io::Frame frame = io::read_frame(in, "EVAL");
  if (frame.version != kEvaluatorStateVersion) {
    throw std::runtime_error("Evaluator::load: unsupported state version " +
                             std::to_string(frame.version));
  }
  io::ByteReader r(frame.payload);
  const std::string_view name = r.bytes();
  if (name != algorithm_.name()) {
    throw std::runtime_error("Evaluator::load: state was captured for algorithm '" +
                             std::string(name) + "', this evaluator runs '" +
                             algorithm_.name() + "'");
  }
  if ((r.u8() != 0) != memoise_) {
    throw std::runtime_error("Evaluator::load: memo-mode mismatch");
  }
  evaluations_ = r.varint();
  memo_hits_ = r.varint();
  const std::uint64_t views = r.varint();
  std::vector<std::uint8_t> key;
  for (std::uint64_t i = 0; i < views; ++i) {
    const std::string_view bytes = r.bytes();
    key.assign(bytes.begin(), bytes.end());
    store_.intern(key);
  }
  const std::string_view memo = r.bytes();
  if (memo.size() > static_cast<std::size_t>(store_.size())) {
    throw std::runtime_error("Evaluator::load: memo longer than the view store");
  }
  memo_.assign(memo.begin(), memo.end());
  r.expect_done("evaluator state");
}

ColourSystem realisation_ball(const Template& tmpl, NodeId t, int radius) {
  const ColourSystem& T = tmpl.tree();
  if (!T.is_exact() && T.depth(t) + radius > T.valid_radius()) {
    throw std::logic_error("realisation_ball: template truncation too shallow");
  }
  // The view is a truncation of the infinite d-regular realisation:
  // faithful exactly to `radius`.
  ColourSystem out(T.k(), radius);
  struct Item {
    NodeId label;    // p-label in T
    NodeId lift;     // node in the output ball
    Colour arrived;  // colour towards the ball parent
    int d;
  };
  std::deque<Item> queue{{t, ColourSystem::root(), gk::kNoColour, 0}};
  while (!queue.empty()) {
    const Item it = queue.front();
    queue.pop_front();
    if (it.d == radius) continue;
    const Colour forbidden = tmpl.tau(it.label);
    for (int c = 1; c <= T.k(); ++c) {
      if (c == forbidden || c == it.arrived) continue;
      const NodeId tree_next = T.neighbour(it.label, c);
      const NodeId label_next = tree_next != colsys::kNullNode ? tree_next : it.label;
      queue.push_back({label_next, out.add_child(it.lift, c), static_cast<Colour>(c), it.d + 1});
    }
  }
  return out;
}

void serialize_realisation_into(const Template& tmpl, NodeId t, int radius,
                                std::vector<std::uint8_t>& out) {
  const ColourSystem& T = tmpl.tree();
  if (!T.is_exact() && T.depth(t) + radius > T.valid_radius()) {
    throw std::logic_error("serialize_realisation_into: template truncation too shallow");
  }
  const int k = T.k();
  out.push_back(static_cast<std::uint8_t>(k));
  // Mirrors ColourSystem::serialize on the virtual ball: pre-order DFS,
  // children in colour order, 0xff at the truncation radius.  A virtual
  // node is (p-label, arrival colour); its child colours are
  // [k] − {τ(label), arrived}, each leading to the label's tree neighbour
  // or (free colour) to the label itself.
  struct Frame {
    NodeId label;
    Colour arrived;
    int depth;
  };
  std::vector<Frame> stack{{t, gk::kNoColour, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.depth == radius) {
      out.push_back(0xff);
      continue;
    }
    const Colour forbidden = tmpl.tau(f.label);
    const std::uint8_t count =
        static_cast<std::uint8_t>(k - 1 - (f.arrived != gk::kNoColour ? 1 : 0));
    out.push_back(count);
    // Push in reverse colour order so DFS visits ascending colours.
    for (Colour c = static_cast<Colour>(k); c >= 1; --c) {
      if (c == forbidden || c == f.arrived) continue;
      const NodeId tree_next = T.neighbour(f.label, c);
      stack.push_back({tree_next != colsys::kNullNode ? tree_next : f.label, c, f.depth + 1});
    }
    for (int c = 1; c <= k; ++c) {
      if (c != forbidden && c != f.arrived) out.push_back(c);
    }
  }
}

Colour Evaluator::operator()(const Template& tmpl, NodeId t) {
  if (!memoise_) {
    ++evaluations_;
    return algorithm_.evaluate(realisation_ball(tmpl, t, radius()));
  }
  buf_.clear();
  serialize_realisation_into(tmpl, t, radius(), buf_);
  const auto id = static_cast<std::size_t>(store_.intern(buf_));
  if (id >= memo_.size()) memo_.resize(static_cast<std::size_t>(store_.size()), kUnknownOutput);
  if (memo_[id] != kUnknownOutput) {
    ++memo_hits_;
    return memo_[id];
  }
  // Miss: materialise the ball and consult the algorithm.
  const Colour out = algorithm_.evaluate(realisation_ball(tmpl, t, radius()));
  ++evaluations_;
  memo_[id] = out;
  return out;
}

std::string Certificate::describe() const {
  const char* names[] = {"M1", "M2", "M3", "Lemma 9 (M3 against a free-copy)"};
  std::string out = std::string(names[static_cast<int>(kind)]) + " violation";
  out += " at node " + instance.tree().word_of(node).str();
  if (other != colsys::kNullNode) {
    out += " vs " + instance.tree().word_of(other).str();
  }
  if (colour != gk::kNoColour) out += ", colour " + std::to_string(static_cast<int>(colour));
  out += "; output=" + std::to_string(static_cast<int>(output));
  if (other != colsys::kNullNode || kind == Kind::M2) {
    out += ", partner output=" + std::to_string(static_cast<int>(other_output));
  }
  if (!detail.empty()) out += " — " + detail;
  return out;
}

CheckedOutput evaluate_checked(Evaluator& eval, const Template& tmpl, NodeId t) {
  CheckedOutput result;
  result.output = eval(tmpl, t);
  if (result.output == local::kUnmatched) return result;
  // (M1): in the realisation, t's copy is incident to exactly the colours
  // [k] − τ(t).
  if (result.output < 1 || result.output > static_cast<Colour>(tmpl.k()) ||
      result.output == tmpl.tau(t)) {
    Certificate cert{Certificate::Kind::M1, tmpl,          t,
                     colsys::kNullNode,     result.output, result.output,
                     gk::kNoColour,         ""};
    cert.detail = "output is not an incident colour of the realisation copy";
    result.violation = std::move(cert);
  }
  return result;
}

bool certificate_holds(const Certificate& cert, Evaluator& eval) {
  const Template& tmpl = cert.instance;
  const Colour out = eval(tmpl, cert.node);
  if (out != cert.output) return false;  // stored evidence stale
  switch (cert.kind) {
    case Certificate::Kind::M1:
      return out != local::kUnmatched &&
             (out < 1 || out > static_cast<Colour>(tmpl.k()) || out == tmpl.tau(cert.node));
    case Certificate::Kind::M2: {
      if (out != cert.colour) return false;
      const NodeId partner = tmpl.tree().neighbour(cert.node, cert.colour);
      if (partner == colsys::kNullNode || partner != cert.other) return false;
      return eval(tmpl, partner) != out;
    }
    case Certificate::Kind::M3: {
      const NodeId partner = tmpl.tree().neighbour(cert.node, cert.colour);
      if (partner == colsys::kNullNode || partner != cert.other) return false;
      return out == local::kUnmatched && eval(tmpl, partner) == local::kUnmatched;
    }
    case Certificate::Kind::L9: {
      // ⊥ at a node with a free colour c: the free-copy neighbour has, by
      // construction of realisation balls, the *same* view and hence the
      // same output ⊥ — two adjacent unmatched nodes.
      if (out != local::kUnmatched) return false;
      const std::vector<Colour> free = tmpl.free_colours(cert.node);
      return std::find(free.begin(), free.end(), cert.colour) != free.end();
    }
  }
  return false;
}

}  // namespace dmm::lower
