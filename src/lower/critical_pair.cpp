#include "lower/critical_pair.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace dmm::lower {

namespace {

bool contains(const std::vector<Colour>& colours, Colour c) {
  return std::find(colours.begin(), colours.end(), c) != colours.end();
}

/// The single-edge system {e, c}.
ColourSystem edge_system(int k, Colour c) {
  ColourSystem out(k, colsys::kExactRadius);
  out.add_child(ColourSystem::root(), c);
  return out;
}

}  // namespace

int required_radius(int k, int level, int r, int scan_norm_cap) {
  const int d = k - 1;
  const int cap = scan_norm_cap < 0 ? r + 2 : scan_norm_cap;
  int need = std::max(d, r + 1);  // final pair: U[d] = V[d] check + eval at e
  for (int h = d - 1; h >= level; --h) {
    // D_X: deep enough to (a) re-root at a witness of norm ≤ cap and still
    // have `need`, (b) evaluate scan nodes (norm ≤ cap) and their partners
    // (norm ≤ cap+1) with radius r+1 balls.
    const int dx = std::max(need + cap, cap + r + 2);
    need = dx + r;  // the guided picker evaluates T_h nodes up to D_X - 1
  }
  return need;
}

std::variant<CriticalPair, Certificate> base_case(int k, const Lemma10Colours& colours,
                                                  Evaluator& eval) {
  const Colour c1 = colours.c1, c2 = colours.c2, c3 = colours.c3;
  // K = L = X = {e, c2} as node sets; the τ assignments differ (Figure 6).
  Template K(edge_system(k, c2), {c1, c1}, 1);
  Template L(edge_system(k, c2), {c3, c3}, 1);
  Template X(edge_system(k, c2), {c1, c3}, 1);

  CheckedOutput at_e = evaluate_checked(eval, X, ColourSystem::root());
  if (at_e.violation) return std::move(*at_e.violation);

  if (at_e.output != c2) {
    // Case (i): (S1, σ1) = (K, κ), (T1, τ1) = (X, ξ).
    return CriticalPair{std::move(K), std::move(X), 1};
  }
  // Case (ii): re-root both at the node c2.
  const NodeId c2_node = X.tree().find(gk::Word::generator(c2));
  return CriticalPair{X.rerooted(c2_node), L.rerooted(c2_node), 1};
}

namespace {

/// Builds the algorithm-guided 1-colour picker Q for (T, τ) (§3.9(i)):
/// Q(t) = {A(T, τ, t)} when that output is free, else the smallest free
/// colour.  Evaluates only nodes with depth ≤ eval_depth (the ones an
/// extension to depth eval_depth+1 can expand); deeper stored nodes get the
/// canonical choice without consulting the algorithm.
std::variant<Picker, Certificate> guided_picker(const Template& tmpl, Evaluator& eval,
                                                int eval_depth) {
  Picker out;
  out.choices.resize(static_cast<std::size_t>(tmpl.tree().size()));
  for (NodeId t = 0; t < tmpl.tree().size(); ++t) {
    const std::vector<Colour> free = tmpl.free_colours(t);
    if (free.empty()) throw std::logic_error("guided_picker: no free colours (h = d?)");
    Colour choice = free.front();
    if (tmpl.tree().depth(t) <= eval_depth) {
      CheckedOutput co = evaluate_checked(eval, tmpl, t);
      if (co.violation) return std::move(*co.violation);
      if (co.output != local::kUnmatched && contains(free, co.output)) choice = co.output;
    }
    out.choices[static_cast<std::size_t>(t)] = {choice};
  }
  return out;
}

/// P for (S, σ) (§3.9(ii)): copy Q on the shared prefix S[h-1] = T[h-1],
/// canonical smallest free colour elsewhere.
Picker prefix_copy_picker(const Template& s, const Template& t, const Picker& q, int h) {
  Picker out;
  out.choices.resize(static_cast<std::size_t>(s.tree().size()));
  for (NodeId v = 0; v < s.tree().size(); ++v) {
    const std::vector<Colour> free = s.free_colours(v);
    if (free.empty()) throw std::logic_error("prefix_copy_picker: no free colours");
    Colour choice = free.front();
    if (s.tree().depth(v) <= h - 1) {
      const NodeId tv = t.tree().find(s.tree().word_of(v));
      if (tv == colsys::kNullNode) {
        throw std::logic_error("prefix_copy_picker: compatibility violated (bug)");
      }
      choice = q.at(tv).front();
    }
    out.choices[static_cast<std::size_t>(v)] = {choice};
  }
  return out;
}

}  // namespace

std::variant<StepParts, Certificate> build_step_parts(const CriticalPair& pair, Evaluator& eval,
                                                      int d_x) {
  const int h = pair.level;
  const int r = eval.algorithm().running_time();
  for (const Template* tm : {&pair.s, &pair.t}) {
    if (!tm->tree().is_exact() && tm->valid_radius() < d_x + r) {
      throw std::logic_error("build_step_parts: input pair valid radius " +
                             std::to_string(tm->valid_radius()) + " < required " +
                             std::to_string(d_x + r));
    }
  }

  // χ = A(T_h, τ_h, e); by (C3) ∉ C(T_h, e), so (M1) + Lemma 9 put it in F.
  CheckedOutput chi_out = evaluate_checked(eval, pair.t, ColourSystem::root());
  if (chi_out.violation) return std::move(*chi_out.violation);
  if (chi_out.output == local::kUnmatched) {
    const std::vector<Colour> free = pair.t.free_colours(ColourSystem::root());
    if (free.empty()) throw std::logic_error("build_step_parts: called at level d (bug)");
    Certificate cert{Certificate::Kind::L9, pair.t, ColourSystem::root(), colsys::kNullNode,
                     free.front(), local::kUnmatched, local::kUnmatched,
                     "Lemma 9 fails at the root of T_h"};
    return cert;
  }
  const Colour chi = chi_out.output;
  if (contains(pair.t.tree().colours_at(ColourSystem::root()), chi)) {
    // (C3) of the input pair is broken; that can only come from a caller
    // bug, not from the algorithm (previous steps established it).
    throw std::logic_error("build_step_parts: input pair violates (C3) (bug)");
  }

  // Colour pickers (§3.9 (i)-(ii)).  Labels expanded by extend(·, d_x) have
  // depth ≤ d_x - 1.
  auto q_or = guided_picker(pair.t, eval, d_x - 1);
  if (std::holds_alternative<Certificate>(q_or)) return std::get<Certificate>(std::move(q_or));
  Picker q = std::get<Picker>(std::move(q_or));
  Picker p = prefix_copy_picker(pair.s, pair.t, q, h);

  // (K, κ) = ext(S_h, σ_h, P), (L, λ) = ext(T_h, τ_h, Q).
  Extension ke = extend(pair.s, p, d_x);
  Extension le = extend(pair.t, q, d_x);

  // Both roots must carry the χ-edge: Q(e) = {χ} and P(e) copies it.
  if (ke.result.tree().child(ColourSystem::root(), chi) == colsys::kNullNode ||
      le.result.tree().child(ColourSystem::root(), chi) == colsys::kNullNode) {
    throw std::logic_error("build_step_parts: χ-edge missing after extension (bug)");
  }

  // X = K₁ ∪ L₁: K without its χ-subtree, plus L's χ-subtree (§3.9).
  std::vector<NodeId> k_to_x, l_to_x;
  ColourSystem x_tree = ke.result.tree().grafted(chi, le.result.tree(), &k_to_x, &l_to_x);
  std::vector<Colour> xi(static_cast<std::size_t>(x_tree.size()), gk::kNoColour);
  for (NodeId v = 0; v < ke.result.tree().size(); ++v) {
    if (k_to_x[static_cast<std::size_t>(v)] != colsys::kNullNode) {
      xi[static_cast<std::size_t>(k_to_x[static_cast<std::size_t>(v)])] = ke.result.tau(v);
    }
  }
  for (NodeId v = 0; v < le.result.tree().size(); ++v) {
    if (l_to_x[static_cast<std::size_t>(v)] != colsys::kNullNode) {
      xi[static_cast<std::size_t>(l_to_x[static_cast<std::size_t>(v)])] = le.result.tau(v);
    }
  }
  Template x = make_template_unchecked(std::move(x_tree), std::move(xi), h + 1);
  return StepParts{chi, std::move(q), std::move(p), std::move(ke), std::move(le), std::move(x)};
}

Lemma12Partition lemma12_partition(const StepParts& parts, Evaluator& eval, int r) {
  Lemma12Partition out;
  // Walk both sides: matched near pairs of M(K, K₁, κ) and M(L, L₁, λ).
  auto collect = [&](const Template& side, bool l_side) {
    std::vector<NodeId>& bucket = l_side ? out.l2 : out.k2;
    std::set<NodeId> seen;
    for (NodeId v : side.tree().nodes_up_to(r + 2)) {
      const gk::Word w = side.tree().word_of(v);
      const bool in_part = l_side ? (!w.is_identity() && w.head() == parts.chi)
                                  : (w.is_identity() || w.head() != parts.chi);
      if (!in_part) continue;
      const Colour out_v = eval(side, v);
      const std::vector<Colour> incident = side.tree().colours_at(v);
      if (std::find(incident.begin(), incident.end(), out_v) == incident.end()) continue;
      const NodeId partner = side.tree().neighbour(v, out_v);
      if (eval(side, partner) != out_v) continue;  // not a consistent pair
      // Partner must be in the same part (the proof: M(K,κ) edges never
      // cross the χ-cut; for L only {e, χ} crosses and e ∉ L₁).
      const gk::Word pw = side.tree().word_of(partner);
      const bool partner_in = l_side ? (!pw.is_identity() && pw.head() == parts.chi)
                                     : (pw.is_identity() || pw.head() != parts.chi);
      if (!partner_in) continue;
      // Near edge: at least one endpoint within norm r+1.
      if (side.tree().depth(v) > r + 1 && side.tree().depth(partner) > r + 1) continue;
      // Record both endpoints in X coordinates (shared words).
      for (const gk::Word& word : {w, pw}) {
        const NodeId in_x = parts.x.tree().find(word);
        if (in_x != colsys::kNullNode && seen.insert(in_x).second) bucket.push_back(in_x);
      }
    }
  };
  collect(parts.k.result, /*l_side=*/false);
  collect(parts.l.result, /*l_side=*/true);
  // L₂ additionally contains χ itself (its M(L, λ) partner is e ∉ L₁).
  const NodeId chi_node = parts.x.tree().find(gk::Word::generator(parts.chi));
  if (chi_node != colsys::kNullNode &&
      std::find(out.l2.begin(), out.l2.end(), chi_node) == out.l2.end()) {
    out.l2.push_back(chi_node);
  }
  return out;
}

StepOutcome inductive_step(const CriticalPair& pair, Evaluator& eval, int result_radius,
                           StepTrace* trace, int scan_norm_cap) {
  const int h = pair.level;
  const int r = eval.algorithm().running_time();
  const int cap = scan_norm_cap < 0 ? r + 2 : scan_norm_cap;
  const int d_x = std::max(result_radius + cap, cap + r + 2);

  auto parts_or = build_step_parts(pair, eval, d_x);
  if (std::holds_alternative<Certificate>(parts_or)) {
    return std::get<Certificate>(std::move(parts_or));
  }
  StepParts parts = std::get<StepParts>(std::move(parts_or));
  const Colour chi = parts.chi;
  const Template& K = parts.k.result;
  const Template& L = parts.l.result;
  const Template& X = parts.x;

  if (trace) {
    trace->h = h;
    trace->chi = chi;
    trace->k_size = K.tree().size();
    trace->l_size = L.tree().size();
    trace->x_size = X.tree().size();
    trace->scanned = 0;
  }

  // Lemma 12 scan: find y with A(X, ξ, y) ∉ C(X, y) among nodes of norm
  // ≤ r+2 (that is where the parity argument places one), checking (M1),
  // (M2), (M3) and Lemma 9 as we go.
  NodeId y = colsys::kNullNode;
  Colour y_output = gk::kNoColour;
  for (NodeId v : X.tree().nodes_up_to(cap)) {
    if (trace) ++trace->scanned;
    CheckedOutput co = evaluate_checked(eval, X, v);
    if (co.violation) return std::move(*co.violation);
    const std::vector<Colour> incident = X.tree().colours_at(v);
    if (co.output == local::kUnmatched) {
      const std::vector<Colour> free = X.free_colours(v);
      if (!free.empty()) {
        // Lemma 9 breach: the identically-viewed free-copy is also ⊥.
        Certificate cert{Certificate::Kind::L9, X, v, colsys::kNullNode, free.front(),
                         local::kUnmatched, local::kUnmatched,
                         "unmatched node with a free colour (Lemma 9)"};
        return cert;
      }
      // No free colours (level d): check the tree neighbours for (M3).
      for (Colour c : incident) {
        const NodeId u = X.tree().neighbour(v, c);
        CheckedOutput cu = evaluate_checked(eval, X, u);
        if (cu.violation) return std::move(*cu.violation);
        if (cu.output == local::kUnmatched) {
          Certificate cert{Certificate::Kind::M3, X, v, u, c, local::kUnmatched,
                           local::kUnmatched, "two adjacent unmatched nodes"};
          return cert;
        }
      }
      y = v;
      y_output = co.output;
      break;
    }
    if (!contains(incident, co.output)) {
      // Matched along a free colour: unmatched in the tree matching M(X, ξ)
      // — a valid Lemma 12 witness.
      y = v;
      y_output = co.output;
      break;
    }
    // Matched along a tree edge: (M2) consistency with the partner.
    const NodeId u = X.tree().neighbour(v, co.output);
    CheckedOutput cu = evaluate_checked(eval, X, u);
    if (cu.violation) return std::move(*cu.violation);
    if (cu.output != co.output) {
      Certificate cert{Certificate::Kind::M2, X, v, u, co.output, co.output, cu.output,
                       "matched edge claimed by one endpoint only"};
      return cert;
    }
  }
  if (y == colsys::kNullNode) {
    if (cap < r + 2) {
      return Inconclusive{"no Lemma 12 witness within the optimistic scan cap " +
                          std::to_string(cap) + "; retry with a larger cap"};
    }
    return Inconclusive{
        "no Lemma 12 witness within norm r+2 and no local (M1)/(M2)/(M3) breach; "
        "for a correct algorithm this is impossible (parity argument)"};
  }

  if (trace) {
    trace->y_found = true;
    trace->y = X.tree().word_of(y);
    trace->y_output = y_output;
  }

  // Which side does y live on?  L₁ is exactly the χ-subtree (head(y) = χ);
  // everything else, including e, is K₁.
  const gk::Word y_word = X.tree().word_of(y);
  const bool on_l_side = !y_word.is_identity() && y_word.head() == chi;
  if (trace) trace->y_on_k_side = !on_l_side;

  Template t_next = X.rerooted(y);
  if (on_l_side) {
    const NodeId y_in_l = L.tree().find(y_word);
    if (y_in_l == colsys::kNullNode) throw std::logic_error("inductive_step: y not in L (bug)");
    return CriticalPair{L.rerooted(y_in_l), std::move(t_next), h + 1};
  }
  const NodeId y_in_k = K.tree().find(y_word);
  if (y_in_k == colsys::kNullNode) throw std::logic_error("inductive_step: y not in K (bug)");
  return CriticalPair{K.rerooted(y_in_k), std::move(t_next), h + 1};
}

std::optional<std::string> verify_critical_pair(const CriticalPair& pair, Evaluator& eval,
                                                int scan_radius) {
  const int h = pair.level;
  if (pair.s.h() != h || pair.t.h() != h) return "levels disagree with template regularity";
  if (!compatible(pair.s, pair.t, h)) return "(C1)/(C2) compatibility fails";
  // (C3).
  CheckedOutput at_e = evaluate_checked(eval, pair.t, ColourSystem::root());
  if (at_e.violation) return "(M1) breach while checking (C3): " + at_e.violation->describe();
  if (contains(pair.t.tree().colours_at(ColourSystem::root()), at_e.output)) {
    return "(C3) fails: A(T, tau, e) is an incident colour";
  }
  // (C4) within the scan radius.
  for (NodeId s : pair.s.tree().nodes_up_to(scan_radius)) {
    CheckedOutput co = evaluate_checked(eval, pair.s, s);
    if (co.violation) return "(M1) breach while checking (C4): " + co.violation->describe();
    if (!contains(pair.s.tree().colours_at(s), co.output)) {
      return "(C4) fails at " + pair.s.tree().word_of(s).str();
    }
  }
  return std::nullopt;
}

}  // namespace dmm::lower
