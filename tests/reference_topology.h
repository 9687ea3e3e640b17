// Reference construction of the interference topologies.
//
// The straightforward way to build a Topology: every generator fills one
// heap-allocated neighbor row per user, each row is sorted and
// de-duplicated into CSR, and DSATUR picks through a lazy-deletion
// max-heap of (saturation, degree, id) snapshots. Topology builds its CSR
// arrays directly and colors through a saturation bucket queue; a graph and
// coloring that agree with this reference bit for bit have both shortcuts
// checked against an independent evaluation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.h"

namespace mrca::testing {

struct ReferenceTopology {
  std::vector<std::size_t> offsets;
  std::vector<UserId> neighbors;
  std::vector<std::size_t> colors;
  std::size_t num_colors = 0;
  std::size_t max_degree = 0;

  std::size_t degree(UserId user) const {
    return offsets[user + 1] - offsets[user];
  }
};

/// DSATUR by full priority: highest saturation, then highest degree, then
/// lowest id. Every saturation bump pushes a fresh snapshot; pops discard
/// snapshots that are stale or already colored.
inline void reference_color_dsatur(ReferenceTopology& graph) {
  constexpr std::size_t kUncolored = static_cast<std::size_t>(-1);
  const std::size_t n = graph.offsets.size() - 1;
  graph.colors.assign(n, kUncolored);
  const std::size_t palette = graph.max_degree + 1;
  std::vector<char> seen(n * palette, 0);
  std::vector<std::size_t> saturation(n, 0);
  struct Snapshot {
    std::size_t saturation;
    std::size_t degree;
    UserId user;
    bool operator<(const Snapshot& other) const {
      if (saturation != other.saturation) {
        return saturation < other.saturation;
      }
      if (degree != other.degree) return degree < other.degree;
      return user > other.user;  // max-heap: the lowest id wins ties
    }
  };
  std::priority_queue<Snapshot> candidates;
  for (UserId u = 0; u < n; ++u) {
    candidates.push({0, graph.degree(u), u});
  }
  for (std::size_t round = 0; round < n; ++round) {
    UserId pick = 0;
    for (;;) {
      const Snapshot top = candidates.top();
      candidates.pop();
      if (graph.colors[top.user] == kUncolored &&
          saturation[top.user] == top.saturation) {
        pick = top.user;
        break;
      }
    }
    std::size_t color = 0;
    while (seen[pick * palette + color] != 0) ++color;
    graph.colors[pick] = color;
    graph.num_colors = std::max(graph.num_colors, color + 1);
    for (std::size_t e = graph.offsets[pick]; e < graph.offsets[pick + 1];
         ++e) {
      const UserId v = graph.neighbors[e];
      char& mark = seen[v * palette + color];
      if (mark == 0) {
        mark = 1;
        ++saturation[v];
        if (graph.colors[v] == kUncolored) {
          candidates.push({saturation[v], graph.degree(v), v});
        }
      }
    }
  }
}

/// Sorts and de-duplicates each row into CSR, then colors.
inline ReferenceTopology reference_topology(
    const std::vector<std::vector<UserId>>& adjacency) {
  ReferenceTopology graph;
  graph.offsets.push_back(0);
  for (std::vector<UserId> row : adjacency) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    graph.neighbors.insert(graph.neighbors.end(), row.begin(), row.end());
    graph.offsets.push_back(graph.neighbors.size());
    graph.max_degree = std::max(graph.max_degree, row.size());
  }
  reference_color_dsatur(graph);
  return graph;
}

inline ReferenceTopology reference_complete(std::size_t num_users) {
  std::vector<std::vector<UserId>> adjacency(num_users);
  for (UserId i = 0; i < num_users; ++i) {
    for (UserId j = 0; j < num_users; ++j) {
      if (j != i) adjacency[i].push_back(j);
    }
  }
  return reference_topology(adjacency);
}

inline ReferenceTopology reference_ring(std::size_t num_users, int distance) {
  std::vector<std::vector<UserId>> adjacency(num_users);
  for (UserId i = 0; i < num_users; ++i) {
    for (int t = 1; t <= distance; ++t) {
      const auto step = static_cast<std::size_t>(t) % num_users;
      if (step == 0) continue;  // wrapped all the way back to i
      adjacency[i].push_back((i + step) % num_users);
      adjacency[i].push_back((i + num_users - step) % num_users);
    }
  }
  return reference_topology(adjacency);
}

inline ReferenceTopology reference_grid(std::size_t width, std::size_t height,
                                        int distance) {
  std::vector<std::vector<UserId>> adjacency(width * height);
  const auto d = static_cast<std::ptrdiff_t>(distance);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const UserId i = y * width + x;
      for (std::ptrdiff_t dy = -d; dy <= d; ++dy) {
        const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(y) + dy;
        if (ny < 0 || ny >= static_cast<std::ptrdiff_t>(height)) continue;
        for (std::ptrdiff_t dx = -d; dx <= d; ++dx) {
          const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(x) + dx;
          if (nx < 0 || nx >= static_cast<std::ptrdiff_t>(width)) continue;
          if (dx == 0 && dy == 0) continue;
          adjacency[i].push_back(static_cast<std::size_t>(ny) * width +
                                 static_cast<std::size_t>(nx));
        }
      }
    }
  }
  return reference_topology(adjacency);
}

/// Edges must be valid (no self-loops, endpoints in range); duplicates
/// collapse.
inline ReferenceTopology reference_from_edges(
    std::size_t num_users,
    const std::vector<std::pair<UserId, UserId>>& edges) {
  std::vector<std::vector<UserId>> adjacency(num_users);
  for (const auto& [a, b] : edges) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  return reference_topology(adjacency);
}

}  // namespace mrca::testing
