// Finite, anonymous, properly edge-coloured graphs (the paper's problem
// instances and network topologies, §1.2).
//
// Node indices exist only as simulation handles: no algorithm in this
// library may branch on them (anonymity).  The initial knowledge of a node
// is exactly the multiset of colours on its incident edges, as in §2.3.
//
// EdgeColouredGraph is a value type implemented as a handle over
// reference-counted storage with copy-on-write: a copy shares the
// adjacency and the edge list in O(1), and the first add_edge/remove_edge
// on a handle whose storage is shared gives that handle a private deep
// copy first.  A handle that owns its storage alone mutates in place at
// the documented O(Δ) cost, with one atomic load added.  The storage also
// carries the graph's colour-sorted CSR (csr()), built on first use and
// shared by every copy and every flat-engine run over that graph version,
// and, the same way, the graph's fingerprint (fingerprint()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gk/word.hpp"

namespace dmm::graph {

using gk::Colour;
using NodeIndex = std::int32_t;

struct Edge {
  NodeIndex u = 0;
  NodeIndex v = 0;
  Colour colour = gk::kNoColour;
};

/// One endpoint's view of an edge: the node at the other end, the edge's
/// index in edges() (its slot), and its colour.
struct HalfEdge {
  NodeIndex to = 0;
  std::int32_t slot = 0;
  Colour colour = gk::kNoColour;
};

/// The colour-sorted CSR (compressed sparse row) form of one graph
/// version, laid out as the flat engine's slot plane: node v's ports are
/// the slots [row[v], row[v + 1]) in ascending colour order, and slot s
/// carries its edge's colour and the node at the other end.  Immutable;
/// EdgeColouredGraph::csr() builds it and hands out shared references.
struct Csr {
  std::vector<std::size_t> row;      // n + 1 offsets
  std::vector<Colour> port_colour;   // per slot
  std::vector<NodeIndex> peer_node;  // per slot

  int degree(NodeIndex v) const noexcept {
    return static_cast<int>(row[static_cast<std::size_t>(v) + 1] -
                            row[static_cast<std::size_t>(v)]);
  }
  std::size_t slot_count() const noexcept { return port_colour.size(); }
};

/// Exclusive prefix sum of per-node degrees into CSR row offsets.
/// Accumulates in std::size_t from the first addition, so an n·Δ slot count
/// beyond 2³¹ cannot wrap — pinned by the 64-bit regression test in
/// tests/test_flat_engine.cpp.  Throws std::invalid_argument on a negative degree.
std::vector<std::size_t> csr_row_offsets(const std::vector<int>& degrees);

class EdgeColouredGraph {
 public:
  /// An empty graph on n nodes with palette [k], 1 ≤ k ≤ gk::kMaxColours.
  EdgeColouredGraph(int n, int k);

  /// Bulk construction: takes the whole edge list at once and validates it
  /// in O(m log m) by sorting the half-edge list, instead of add_edge's
  /// O(deg) linear scan per edge — which is O(d²) per node and makes
  /// hub-heavy (star / power-law) instances quadratic to build.  Throws
  /// exactly the same errors as the add_edge path would (bad node index,
  /// self-loop, colour out of range, colour reused at an endpoint,
  /// parallel edge), just not necessarily on the same offending edge.
  EdgeColouredGraph(int n, int k, std::vector<Edge> edges);

  /// Copies share the storage (and its CSR) in O(1); a moved-from graph is
  /// the empty graph EdgeColouredGraph(0, 1).  Handles are thread-safe the
  /// way standard containers are: distinct handles may be used from
  /// different threads even when they share storage, one handle may not be
  /// mutated while another thread uses that same handle.
  EdgeColouredGraph(const EdgeColouredGraph& other) noexcept;
  EdgeColouredGraph(EdgeColouredGraph&& other) noexcept;
  EdgeColouredGraph& operator=(const EdgeColouredGraph& other) noexcept;
  EdgeColouredGraph& operator=(EdgeColouredGraph&& other) noexcept;
  ~EdgeColouredGraph();

  int node_count() const noexcept { return n_; }
  int edge_count() const noexcept { return static_cast<int>(s_->edges.size()); }
  int k() const noexcept { return k_; }

  /// Adds the edge {u, v} with the given colour.  Throws if the colouring
  /// would stop being proper at either endpoint, if u == v, or if the edge
  /// already exists.
  void add_edge(NodeIndex u, NodeIndex v, Colour colour);

  /// Removes the edge {u, v} (given in either orientation; the colour is
  /// whatever the live edge carries).  Throws std::invalid_argument when no
  /// such edge exists, and std::logic_error, with the graph unchanged, if
  /// the half-edges and the edge list disagree.  The colouring stays
  /// proper by construction — removing an edge can only free colours.
  /// Cost: O(deg(u) + deg(v) + deg(a) + deg(b)) = O(Δ), where {a, b} is
  /// the last edge of edges(); nothing scans the edge list.  Order
  /// contract: if {u, v} sits at edges()[i], the last edge moves into slot
  /// i and the list shrinks by one (edges()[i] = edges().back(), then
  /// pop); the half-edge lists of u and v are swap-popped the same way.
  /// Callers indexing into edges() must re-read after a removal.
  void remove_edge(NodeIndex u, NodeIndex v);

  /// Colour of the edge {u, v}, if present (either orientation).
  std::optional<Colour> edge_colour(NodeIndex u, NodeIndex v) const;

  /// Neighbour of v along colour c, if any.
  std::optional<NodeIndex> neighbour(NodeIndex v, Colour c) const;

  /// True iff {u, v} is already an edge (of any colour).
  bool has_edge(NodeIndex u, NodeIndex v) const;

  /// Sorted colours incident to v (the node's entire initial knowledge).
  std::vector<Colour> incident_colours(NodeIndex v) const;

  /// v's half-edges in adjacency order (insertion order, permuted by
  /// removals' swap-pops; not colour order).  Like edges(), the span
  /// stays valid until the next add_edge, remove_edge, assignment or
  /// destruction of this handle — whatever other copies do.
  std::span<const HalfEdge> half_edges(NodeIndex v) const;

  int degree(NodeIndex v) const;
  int max_degree() const;

  const std::vector<Edge>& edges() const noexcept { return s_->edges; }

  /// The colour-sorted CSR of this graph version.  Built from the
  /// adjacency on the first call for the version (O(n + m)), published
  /// under a lock so concurrent first calls through different copies
  /// build it once, and shared by every copy until one of them mutates:
  /// add_edge/remove_edge drop the handle's reference to it.  The returned
  /// pointer keeps this version's CSR alive for as long as its holder
  /// needs it, whatever happens to the graph afterwards.
  std::shared_ptr<const Csr> csr() const;

  /// The identity a checkpoint is pinned to (local::EngineCheckpoint):
  /// (node_count, k) mixed with the wrap-around sum of a 64-bit hash of
  /// each edge's (min(u, v), max(u, v), colour).  It depends only on the
  /// edge set, not on edge order or orientation, so the same graph reached
  /// by different insert/delete histories fingerprints equal; a different
  /// instance practically never does.  Cached like csr(): one pass over
  /// edges() on the first call for a graph version, under the same lock,
  /// shared by every copy, and dropped by add_edge/remove_edge.
  std::uint64_t fingerprint() const;

  /// Checks that no node has two incident edges of the same colour.  Always
  /// true for graphs built through add_edge; exposed for generator tests.
  bool is_properly_coloured() const;

  std::string str() const;

 private:
  /// One graph version, shared by every handle that copied it.  `refs`
  /// counts those handles; the CSR and fingerprint slots are filled by
  /// csr() and fingerprint() under `csr_mutex` and emptied only by a sole
  /// owner's mutation.
  struct Storage {
    Storage(int n, int k);
    /// Deep copy of the graph (adjacency and edges); refs = 1, no CSR and
    /// no fingerprint.
    Storage(const Storage& other);

    std::atomic<long> refs{1};
    int k;
    std::vector<std::vector<HalfEdge>> adjacency;
    std::vector<Edge> edges;
    std::mutex csr_mutex;
    std::shared_ptr<const Csr> csr;
    std::optional<std::uint64_t> fingerprint;
  };

  static Storage* empty_storage() noexcept;
  static void release(Storage* s) noexcept;
  /// Points the handle at `s`, refreshing the cached row array, n and k.
  void bind(Storage* s) noexcept {
    s_ = s;
    rows_ = s->adjacency.data();
    n_ = static_cast<int>(s->adjacency.size());
    k_ = s->k;
  }

  /// The storage, owned by this handle alone and without a CSR or a
  /// fingerprint: the entry of every mutation.  The sole-owner check is
  /// one acquire load, inline; only a shared handle pays for the
  /// out-of-line deep copy.
  Storage& mutable_storage() {
    if (s_->refs.load(std::memory_order_acquire) != 1) detach();
    s_->csr.reset();
    s_->fingerprint.reset();
    return *s_;
  }
  void detach();
  void check_node(NodeIndex v) const;

  Storage* s_;
  // Copies of what never changes for a storage's lifetime (its row array
  // is sized once), so the per-op reads of churn and of the sync oracle
  // stay one load from the handle instead of two (reading rows through s_
  // cost perfbench churn ~5% of its ops/s on a 4-vCPU x86 host).  bind()
  // keeps them in step with s_.
  std::vector<HalfEdge>* rows_;
  int n_;
  int k_;
};

}  // namespace dmm::graph
