#include "lower/adversary.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/generators.hpp"
#include "io/serialize.hpp"
#include "local/view_engine.hpp"

namespace dmm::lower {

namespace {

bool contains(const std::vector<Colour>& colours, Colour c) {
  return std::find(colours.begin(), colours.end(), c) != colours.end();
}

}  // namespace

std::string LowerBoundResult::summary() const {
  std::string out = "adversary vs " + algorithm + " (k=" + std::to_string(k) + "): ";
  if (const auto* tp = std::get_if<TightPair>(&outcome)) {
    out += "tight pair found — U[" + std::to_string(tp->d) + "] = V[" + std::to_string(tp->d) +
           "], A(U,e)=" + std::to_string(static_cast<int>(tp->out_u)) +
           ", A(V,e)=⊥ ⇒ running time ≥ " + std::to_string(tp->d) + " = k-1";
  } else if (const auto* cert = std::get_if<Certificate>(&outcome)) {
    out += "algorithm refuted — " + cert->describe();
  } else {
    out += "inconclusive — " + std::get<Inconclusive>(outcome).reason;
  }
  out += " [" + std::to_string(stats.evaluations) + " evaluations, " +
         std::to_string(stats.memo_hits) + " memo hits, " + std::to_string(stats.memo_entries) +
         " memo entries, " + std::to_string(stats.memo_bytes / 1024) + " KiB resident";
  out += "]";
  return out;
}

std::optional<Certificate> hunt_violation(const Template& tmpl, Evaluator& eval,
                                          int norm_limit) {
  return hunt_violation(tmpl, eval, norm_limit, HuntControl{});
}

std::optional<Certificate> hunt_violation(const Template& tmpl, Evaluator& eval,
                                          int norm_limit, const HuntControl& control) {
  const int r = eval.algorithm().running_time();
  if (!tmpl.tree().is_exact()) {
    norm_limit = std::min(norm_limit, tmpl.valid_radius() - (r + 2));
  }
  const std::vector<NodeId> nodes = tmpl.tree().nodes_up_to(norm_limit);
  const std::size_t start = control.start_index;
  if (start != 0 && start >= nodes.size()) {
    throw std::invalid_argument("hunt_violation: start index " + std::to_string(start) +
                                " is past the sweep's " + std::to_string(nodes.size()) +
                                " nodes");
  }
  for (std::size_t i = start; i < nodes.size(); ++i) {
    // Checkpoint *before* probing node i, so `continue` paths below cannot
    // skew the cadence: resuming at i re-probes exactly the unvisited tail.
    if (control.checkpoint_every > 0 && control.sink && i > start &&
        (i - start) % control.checkpoint_every == 0) {
      control.sink(i);
    }
    const NodeId v = nodes[i];
    CheckedOutput co = evaluate_checked(eval, tmpl, v);
    if (co.violation) return co.violation;
    const std::vector<Colour> incident = tmpl.tree().colours_at(v);
    if (co.output == local::kUnmatched) {
      const std::vector<Colour> free = tmpl.free_colours(v);
      if (!free.empty()) {
        return Certificate{Certificate::Kind::L9, tmpl, v, colsys::kNullNode, free.front(),
                           local::kUnmatched, local::kUnmatched,
                           "unmatched node with a free colour"};
      }
      for (Colour c : incident) {
        const NodeId u = tmpl.tree().neighbour(v, c);
        CheckedOutput cu = evaluate_checked(eval, tmpl, u);
        if (cu.violation) return cu.violation;
        if (cu.output == local::kUnmatched) {
          return Certificate{Certificate::Kind::M3, tmpl, v, u, c, local::kUnmatched,
                             local::kUnmatched, "two adjacent unmatched nodes"};
        }
      }
      continue;
    }
    if (!contains(incident, co.output)) continue;  // matched to a free copy: fine
    const NodeId u = tmpl.tree().neighbour(v, co.output);
    CheckedOutput cu = evaluate_checked(eval, tmpl, u);
    if (cu.violation) return cu.violation;
    if (cu.output != co.output) {
      return Certificate{Certificate::Kind::M2, tmpl, v, u, co.output, co.output, cu.output,
                         "matched edge claimed by one endpoint only"};
    }
  }
  return std::nullopt;
}

namespace {

/// Rough upper bound on the largest template materialised by a full run
/// with the given scan cap: at each level h the step builds (h+1)-regular
/// trees to its internal depth D_X.
double estimate_max_nodes(int k, int r, int cap) {
  const int d = k - 1;
  double worst = 1.0;
  int need = std::max(d, r + 1);
  for (int h = d - 1; h >= 1; --h) {
    const int dx = std::max(need + cap, cap + r + 2);
    // (h+1)-regular tree of depth dx: (h+1) * h^(dx-1) frontier-dominated.
    double nodes = static_cast<double>(h + 1);
    for (int i = 1; i < dx; ++i) nodes *= std::max(1, h);
    worst = std::max(worst, nodes);
    need = dx + r;
  }
  return worst;
}

}  // namespace

LowerBoundResult run_adversary(int k, const local::LocalAlgorithm& algorithm,
                               const AdversaryOptions& options) {
  if (k < 3) throw std::invalid_argument("run_adversary: needs k >= 3 (use run_lemma4)");
  const int d = k - 1;
  const int r = algorithm.running_time();

  LowerBoundResult result;
  result.k = k;
  result.algorithm = algorithm.name();

  Evaluator eval(algorithm, options.memoise);
  auto finish = [&](std::variant<TightPair, Certificate, Inconclusive> outcome) {
    result.outcome = std::move(outcome);
    result.stats.evaluations = eval.evaluations();
    result.stats.memo_hits = eval.memo_hits();
    result.stats.memo_entries = eval.memo_entries();
    result.stats.memo_bytes = eval.memo_bytes();
    return result;
  };

  // §3.6: Lemma 10 colours.
  auto colours_or = choose_lemma10_colours(k, eval);
  if (std::holds_alternative<Certificate>(colours_or)) {
    return finish(std::get<Certificate>(std::move(colours_or)));
  }
  const Lemma10Colours colours = std::get<Lemma10Colours>(colours_or);

  // Scan-cap schedule: conservative only, or optimistic-then-growing.  The
  // memoised evaluator makes retries nearly free.
  std::vector<int> caps;
  if (options.optimistic) {
    for (int cap = 1; cap < r + 2; ++cap) caps.push_back(cap);
  }
  caps.push_back(-1);  // the proof-guaranteed cap r+2

  CriticalPair pair{Template(ColourSystem(k), std::vector<Colour>{1}, 0),
                    Template(ColourSystem(k), std::vector<Colour>{1}, 0), 0};
  bool decided = false;
  std::string last_reason = "no feasible scan cap";
  for (int cap : caps) {
    const int effective = cap < 0 ? r + 2 : cap;
    if (estimate_max_nodes(k, r, effective) > options.max_template_nodes) {
      last_reason = "scan cap " + std::to_string(effective) +
                    " exceeds the template size limit; result unknown at this scale";
      continue;
    }
    // §3.8: base case (cheap; redo per attempt for a clean pair).
    auto base_or = base_case(k, colours, eval);
    if (std::holds_alternative<Certificate>(base_or)) {
      return finish(std::get<Certificate>(std::move(base_or)));
    }
    pair = std::get<CriticalPair>(std::move(base_or));
    result.stats.steps.clear();

    // §3.9: inductive steps up to level d.
    bool retry = false;
    while (pair.level < d) {
      const int next_radius = required_radius(k, pair.level + 1, r, cap);
      StepTrace trace;
      StepOutcome step = inductive_step(pair, eval, next_radius, &trace, cap);
      result.stats.steps.push_back(trace);
      result.stats.max_template_nodes =
          std::max(result.stats.max_template_nodes, trace.x_size);
      if (std::holds_alternative<Certificate>(step)) {
        return finish(std::get<Certificate>(std::move(step)));
      }
      if (std::holds_alternative<Inconclusive>(step)) {
        last_reason = std::get<Inconclusive>(step).reason;
        if (cap >= 0) {
          retry = true;  // optimistic cap too small: grow it
          break;
        }
        return finish(std::get<Inconclusive>(std::move(step)));
      }
      pair = std::get<CriticalPair>(std::move(step));
    }
    if (!retry) {
      decided = true;
      break;
    }
  }
  if (!decided) {
    return finish(Inconclusive{last_reason});
  }

  // Theorem 5 final checks on U = S_d, V = T_d.
  if (!ColourSystem::equal_to_radius(pair.s.tree(), pair.t.tree(), d)) {
    throw std::logic_error("run_adversary: U[d] != V[d] (bug)");
  }
  CheckedOutput out_v = evaluate_checked(eval, pair.t, ColourSystem::root());
  if (out_v.violation) return finish(std::move(*out_v.violation));
  CheckedOutput out_u = evaluate_checked(eval, pair.s, ColourSystem::root());
  if (out_u.violation) return finish(std::move(*out_u.violation));

  const std::vector<Colour> c_u = pair.s.tree().colours_at(ColourSystem::root());
  if (out_v.output != local::kUnmatched) {
    // (C3) promised ∉ C(V, e), and at level d there are no free colours, so
    // a colour output here means the construction's evaluation changed —
    // impossible with a deterministic algorithm.
    throw std::logic_error("run_adversary: A(V, e) flipped (bug)");
  }
  if (out_u.output != local::kUnmatched && contains(c_u, out_u.output)) {
    // (M2) consistency of U's root matching, then success.
    const NodeId partner = pair.s.tree().neighbour(ColourSystem::root(), out_u.output);
    CheckedOutput pu = evaluate_checked(eval, pair.s, partner);
    if (pu.violation) return finish(std::move(*pu.violation));
    if (pu.output != out_u.output) {
      return finish(Certificate{Certificate::Kind::M2, pair.s, ColourSystem::root(), partner,
                                out_u.output, out_u.output, pu.output,
                                "U's root matching is inconsistent"});
    }
    TightPair tight{std::move(pair.s), std::move(pair.t), out_u.output, local::kUnmatched, d};
    return finish(std::move(tight));
  }
  // A(U, e) = ⊥ (or a non-incident colour, impossible at level d after the
  // M1 check): (C4) failed, so A must err somewhere concrete — hunt for it
  // on both sides within the remaining budget.
  const int limit = std::max(d, r + 2);
  if (auto cert = hunt_violation(pair.s, eval, limit)) return finish(std::move(*cert));
  if (auto cert = hunt_violation(pair.t, eval, limit)) return finish(std::move(*cert));
  return finish(Inconclusive{
      "final pair degenerate (A(U,e) = A(V,e)) and no local breach within budget"});
}

namespace {

constexpr std::uint32_t kHuntCheckpointVersion = 1;

}  // namespace

void save_hunt_checkpoint(std::ostream& out, const Template& tmpl, int norm_limit,
                          std::size_t next_index, const Evaluator& eval) {
  io::ByteWriter w;
  w.bytes(io::write_template(tmpl));
  w.svarint(norm_limit);
  w.varint(next_index);
  io::write_frame(out, "HUNT", kHuntCheckpointVersion, w.buffer());
  eval.save(out);
}

HuntCheckpoint load_hunt_checkpoint(std::istream& in, Evaluator& eval) {
  const io::Frame frame = io::read_frame(in, "HUNT");
  if (frame.version != kHuntCheckpointVersion) {
    throw std::runtime_error("load_hunt_checkpoint: unsupported hunt checkpoint version " +
                             std::to_string(frame.version));
  }
  io::ByteReader reader(frame.payload);
  Template tmpl = io::read_template(std::string(reader.bytes()));
  // Range-check before narrowing: a 64-bit limit would otherwise wrap to
  // an unrelated int (2^40 reads as 0).
  const std::int64_t norm_limit = reader.svarint();
  if (norm_limit < std::numeric_limits<int>::min() ||
      norm_limit > std::numeric_limits<int>::max()) {
    throw std::runtime_error("load_hunt_checkpoint: norm limit " + std::to_string(norm_limit) +
                             " is out of range");
  }
  const std::size_t next_index = static_cast<std::size_t>(reader.varint());
  reader.expect_done("hunt checkpoint");
  eval.load(in);
  return HuntCheckpoint{std::move(tmpl), static_cast<int>(norm_limit), next_index};
}

Lemma4Result run_lemma4(const local::LocalAlgorithm& algorithm) {
  Lemma4Result result{false, graph::EdgeColouredGraph(0, 2), {}, {}, ""};
  if (algorithm.running_time() >= 1) {
    result.summary = "lemma 4: bound k-1 = 1 not exceeded by a " +
                     std::to_string(algorithm.running_time()) + "-round algorithm; nothing to refute";
    return result;
  }
  // T = {e,1}, U = {e,2}, V = {e,1,2} as concrete graphs.
  const graph::EdgeColouredGraph t = graph::path_graph(2, {1});
  const graph::EdgeColouredGraph u = graph::path_graph(2, {2});
  graph::EdgeColouredGraph v(3, 2);
  v.add_edge(0, 1, 1);  // node 0 = e
  v.add_edge(0, 2, 2);
  const graph::EdgeColouredGraph& v_ref = v;
  for (const auto* g : {&t, &u, &v_ref}) {
    std::vector<Colour> outputs = local::run_views(*g, algorithm);
    verify::MatchingReport report = verify::check_outputs(*g, outputs);
    if (!report.ok()) {
      result.contradiction_found = true;
      result.instance = *g;
      result.outputs = std::move(outputs);
      result.report = std::move(report);
      result.summary = "lemma 4: 0-round algorithm " + algorithm.name() +
                       " violated on a 2-coloured instance: " + result.report.describe();
      return result;
    }
  }
  result.summary = "lemma 4: no violation found (impossible for a deterministic 0-round "
                   "algorithm — check the LocalAlgorithm implementation)";
  return result;
}

}  // namespace dmm::lower
