// Interference topologies: the graph that decides WHO contends with whom.
//
// The paper assumes a single collision domain — every user's radios share
// every channel with every other user's, so channel load is one global
// column sum. Real deployments (mesh, multi-AP) have an interference
// *graph*: user i's radios on channel c contend only with radios of i's
// graph neighbors, so the load i perceives is the CLOSED-neighborhood sum
//
//   P_i(c) = k_{i,c} + sum_{j adjacent to i} k_{j,c}.
//
// `Topology` is that graph as an immutable value (CSR adjacency, sorted
// neighbor lists), plus a deterministic DSATUR proper coloring computed at
// construction — the spatial-reuse certificate behind
// GameModel::coloring_bound(). `TopologySpec` is the parsed, canonical
// round-trip description (like RateSpec/ScenarioSpec) that surfaces
// topologies as the `topology=<spec>` scenario axis:
//
//   complete            single collision domain (the paper's game)
//   ring:<d>            N users on a cycle, adjacent iff cyclic distance <= d
//   grid:<W>x<H>:<d>    W*H users row-major on a non-wrapping grid,
//                       adjacent iff Chebyshev distance <= d
//   edges:<a>-<b>:...   explicit undirected edge list on user ids
//
// The complete graph is the degenerate fast path: GameModel drops a
// topology whose is_complete() holds, so complete-topology models are the
// SAME object as global-load models and stay bit-identical by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"

namespace mrca {

class Topology {
 public:
  static Topology complete(std::size_t num_users);
  /// Cycle adjacency: i ~ j iff the cyclic distance min(|i-j|, n-|i-j|) is
  /// in [1, distance]. Requires distance >= 1.
  static Topology ring(std::size_t num_users, int distance);
  /// Non-wrapping grid, users numbered row-major: (x, y) ~ (x', y') iff
  /// max(|x-x'|, |y-y'|) is in [1, distance]. Requires distance >= 1.
  static Topology grid(std::size_t width, std::size_t height, int distance);
  /// Explicit undirected edges; duplicates collapse, self-loops rejected,
  /// endpoints must be < num_users.
  static Topology from_edges(
      std::size_t num_users,
      const std::vector<std::pair<UserId, UserId>>& edges);

  std::size_t num_users() const noexcept { return offsets_.size() - 1; }

  /// User's neighbors, sorted ascending, self excluded.
  std::span<const UserId> neighbors(UserId user) const;
  std::size_t degree(UserId user) const;
  std::size_t max_degree() const noexcept { return max_degree_; }
  bool adjacent(UserId a, UserId b) const;
  /// True when every user neighbors every other — the single collision
  /// domain, which GameModel normalizes to "no topology".
  bool is_complete() const noexcept {
    return max_degree_ + 1 == num_users() &&
           neighbors_.size() == num_users() * max_degree_;
  }

  /// Proper coloring computed at construction by DSATUR (deterministic:
  /// ties break toward higher degree, then lower user id), so num_colors()
  /// is a repeatable upper bound on the chromatic number — the number of
  /// channel blocks the spatial-reuse bound partitions the band into.
  std::size_t num_colors() const noexcept { return num_colors_; }
  std::size_t color(UserId user) const;

 private:
  /// Takes finished CSR arrays (rows sorted, de-duplicated, self-free),
  /// then colors the graph.
  Topology(std::vector<std::size_t> offsets, std::vector<UserId> neighbors);
  void check_user(UserId user) const;
  void color_dsatur();

  /// CSR adjacency: neighbors of user u are
  /// neighbors_[offsets_[u] .. offsets_[u+1]). Each generator writes these
  /// arrays itself, rows already sorted: ring and complete rows have a
  /// fixed length, grid counts its clipped windows before filling them, and
  /// from_edges counts and fills from the sorted, de-duplicated edge list,
  /// so building a graph allocates only these two arrays.
  std::vector<std::size_t> offsets_;
  std::vector<UserId> neighbors_;
  std::vector<std::size_t> colors_;
  std::size_t num_colors_ = 0;
  std::size_t max_degree_ = 0;
};

/// Value-type description of a topology, parsed from / printed to the
/// canonical spec grammar above. parse(name()) is the identity, so
/// distinct topologies never collide as CSV/JSON scenario keys.
struct TopologySpec {
  enum class Kind { kComplete, kRing, kGrid, kEdges };

  Kind kind = Kind::kComplete;
  /// Cyclic neighbor distance (kRing; >= 1).
  int ring_distance = 1;
  /// Grid shape and Chebyshev neighbor distance (kGrid; all >= 1).
  std::size_t grid_width = 0;
  std::size_t grid_height = 0;
  int grid_distance = 1;
  /// Undirected edges, each stored lo-hi (kEdges).
  std::vector<std::pair<UserId, UserId>> edges;

  /// Canonical spec string: "complete", "ring:2", "grid:4x3:1",
  /// "edges:0-1:1-2".
  std::string name() const;

  /// Parses one canonical spec string; throws std::invalid_argument on
  /// malformed input (garbage kinds, zero distances, out-of-range values,
  /// malformed grids, self-loop edges).
  static TopologySpec parse(const std::string& text);

  /// True when the spec can describe a game with `users` users. Grids pin
  /// their own user count (W*H) and edge lists bound theirs by the largest
  /// endpoint, so incompatible sweep cells are skipped during expansion —
  /// the same treatment k > |C| combinations get.
  bool compatible(std::size_t users) const noexcept;

  /// Builds the graph for `users` users. Throws std::invalid_argument when
  /// !compatible(users).
  std::shared_ptr<const Topology> materialize(std::size_t users) const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

}  // namespace mrca
