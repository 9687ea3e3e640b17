#include "core/topology.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/format.h"

namespace mrca {
namespace {

constexpr std::size_t kUncolored = static_cast<std::size_t>(-1);

/// Every numeric field of a topology spec (distances, grid dimensions,
/// edge endpoints) is a small structural integer; anything huge is a typo
/// that would otherwise materialize a gigantic graph, so the parse rejects
/// it the way ScenarioSpec bounds radio counts.
constexpr int kMaxSpecValue = 1024;

int parse_bounded_int(const std::string& text, const std::string& context,
                      const char* what, int lo) {
  const std::optional<std::uint64_t> value = parse_unsigned(text);
  if (!value) {
    throw std::invalid_argument(std::string("TopologySpec: bad ") + what +
                                " '" + text + "' in '" + context + "'");
  }
  if (*value < static_cast<std::uint64_t>(lo) || *value > kMaxSpecValue) {
    throw std::invalid_argument(
        std::string("TopologySpec: ") + what + " must be in [" +
        std::to_string(lo) + ", " + std::to_string(kMaxSpecValue) +
        "] in '" + context + "'");
  }
  return static_cast<int>(*value);
}

}  // namespace

Topology::Topology(std::vector<std::size_t> offsets,
                   std::vector<UserId> neighbors)
    : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
  for (std::size_t u = 0; u + 1 < offsets_.size(); ++u) {
    max_degree_ = std::max(max_degree_, offsets_[u + 1] - offsets_[u]);
  }
  color_dsatur();
}

Topology Topology::complete(std::size_t num_users) {
  if (num_users == 0) {
    throw std::invalid_argument("Topology: need at least one user");
  }
  const std::size_t row_length = num_users - 1;
  std::vector<std::size_t> offsets(num_users + 1);
  std::vector<UserId> neighbors(num_users * row_length);
  auto out = neighbors.begin();
  for (UserId i = 0; i < num_users; ++i) {
    offsets[i] = i * row_length;
    for (UserId j = 0; j < num_users; ++j) {
      if (j != i) *out++ = j;
    }
  }
  offsets[num_users] = neighbors.size();
  return Topology(std::move(offsets), std::move(neighbors));
}

Topology Topology::ring(std::size_t num_users, int distance) {
  if (num_users == 0) {
    throw std::invalid_argument("Topology: need at least one user");
  }
  if (distance < 1) {
    throw std::invalid_argument("Topology: ring distance must be >= 1");
  }
  const auto d = static_cast<std::size_t>(distance);
  // No cyclic distance exceeds n/2, so a ring with n <= 2d is complete;
  // above that the 2d offsets +-1..+-d land on distinct users.
  if (num_users <= 2 * d) return complete(num_users);
  const std::size_t n = num_users;
  std::vector<std::size_t> offsets(n + 1);
  std::vector<UserId> neighbors(n * 2 * d);
  auto out = neighbors.begin();
  for (UserId i = 0; i < n; ++i) {
    offsets[i] = i * 2 * d;
    // Ascending: the forward arc wrapped past n-1, the unwrapped window
    // [i-d, i+d] minus i, then the backward arc wrapped below 0.
    for (UserId v = 0; v + n <= i + d; ++v) *out++ = v;
    for (UserId v = i < d ? 0 : i - d; v < i; ++v) *out++ = v;
    for (UserId v = i + 1; v <= i + d && v < n; ++v) *out++ = v;
    if (i < d) {
      for (UserId v = n + i - d; v < n; ++v) *out++ = v;
    }
  }
  offsets[n] = neighbors.size();
  return Topology(std::move(offsets), std::move(neighbors));
}

Topology Topology::grid(std::size_t width, std::size_t height, int distance) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("Topology: grid dimensions must be >= 1");
  }
  if (distance < 1) {
    throw std::invalid_argument("Topology: grid distance must be >= 1");
  }
  const std::size_t num_users = width * height;
  const auto d = static_cast<std::size_t>(distance);
  // The Chebyshev window [coord - d, coord + d] clipped to [0, extent).
  const auto lo = [d](std::size_t coord) { return coord < d ? 0 : coord - d; };
  const auto hi = [d](std::size_t coord, std::size_t extent) {
    return std::min(coord + d, extent - 1);
  };
  // Pass 1: a row holds its clipped window minus the user itself.
  std::vector<std::size_t> offsets(num_users + 1, 0);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const UserId i = y * width + x;
      offsets[i + 1] = offsets[i] + (hi(x, width) - lo(x) + 1) *
                                        (hi(y, height) - lo(y) + 1) -
                       1;
    }
  }
  // Pass 2: walking the window row-major visits ids in ascending order.
  std::vector<UserId> neighbors(offsets[num_users]);
  auto out = neighbors.begin();
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      for (std::size_t ny = lo(y); ny <= hi(y, height); ++ny) {
        for (std::size_t nx = lo(x); nx <= hi(x, width); ++nx) {
          if (nx != x || ny != y) *out++ = ny * width + nx;
        }
      }
    }
  }
  return Topology(std::move(offsets), std::move(neighbors));
}

Topology Topology::from_edges(
    std::size_t num_users,
    const std::vector<std::pair<UserId, UserId>>& edges) {
  if (num_users == 0) {
    throw std::invalid_argument("Topology: need at least one user");
  }
  std::vector<std::pair<UserId, UserId>> sorted;
  sorted.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    if (a == b) {
      throw std::invalid_argument("Topology: self-loop edge on user " +
                                  std::to_string(a));
    }
    if (a >= num_users || b >= num_users) {
      throw std::invalid_argument(
          "Topology: edge endpoint " + std::to_string(std::max(a, b)) +
          " out of range for " + std::to_string(num_users) + " user(s)");
    }
    sorted.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Pass 1: count each endpoint's distinct edges.
  std::vector<std::size_t> offsets(num_users + 1, 0);
  for (const auto& [a, b] : sorted) {
    ++offsets[a + 1];
    ++offsets[b + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // Pass 2: in (lo, hi) order a user first meets the edges to its lower
  // neighbors (ascending lo), then those to its higher ones (ascending
  // hi), so every row fills already sorted.
  std::vector<UserId> neighbors(offsets[num_users]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [a, b] : sorted) {
    neighbors[cursor[a]++] = b;
    neighbors[cursor[b]++] = a;
  }
  return Topology(std::move(offsets), std::move(neighbors));
}

void Topology::check_user(UserId user) const {
  if (user >= num_users()) {
    throw std::out_of_range("Topology: user out of range");
  }
}

std::span<const UserId> Topology::neighbors(UserId user) const {
  check_user(user);
  return {neighbors_.data() + offsets_[user],
          offsets_[user + 1] - offsets_[user]};
}

std::size_t Topology::degree(UserId user) const {
  check_user(user);
  return offsets_[user + 1] - offsets_[user];
}

bool Topology::adjacent(UserId a, UserId b) const {
  const auto list = neighbors(a);
  check_user(b);
  return std::binary_search(list.begin(), list.end(), b);
}

void Topology::color_dsatur() {
  const std::size_t n = num_users();
  colors_.assign(n, kUncolored);
  // seen[u][c]: a neighbor of u already wears color c. A proper coloring
  // needs at most max_degree + 1 colors, so the palette is fixed up front.
  const std::size_t palette = max_degree_ + 1;
  std::vector<char> seen(n * palette, 0);
  std::vector<std::size_t> saturation(n, 0);
  // DSATUR selection: highest saturation, then highest degree, then lowest
  // id — all deterministic, so the coloring (and every bound derived from
  // it) is a pure function of the graph. The last two keys never change,
  // so a counting sort fixes them once as a static rank (degree
  // descending, then id ascending), and the pick is the lowest-ranked
  // uncolored user of the highest saturation. A bucket queue indexed by
  // saturation (at most max_degree, so max_degree + 1 buckets) holds each
  // user's ranks: bucket 0 is the static rank order itself, scanned by a
  // cursor, since saturation only grows and nothing re-enters it; every
  // higher bucket is a lazy min-heap of ranks. A saturation bump pushes
  // the user into its new bucket and leaves the old entry stale; pops
  // discard entries whose user is colored or has moved up. Every bump
  // comes from a newly colored neighbor, so there are at most |E| pushes:
  // O(n + max_degree + |E| log n) time and O(n + max_degree) queue memory
  // beyond the pushed entries and the n * palette color marks.
  std::vector<std::size_t> rank_start(palette + 1, 0);
  for (UserId u = 0; u < n; ++u) {
    ++rank_start[max_degree_ - (offsets_[u + 1] - offsets_[u]) + 1];
  }
  std::partial_sum(rank_start.begin(), rank_start.end(), rank_start.begin());
  std::vector<std::size_t> rank(n);
  std::vector<UserId> by_rank(n);
  for (UserId u = 0; u < n; ++u) {
    const std::size_t r =
        rank_start[max_degree_ - (offsets_[u + 1] - offsets_[u])]++;
    rank[u] = r;
    by_rank[r] = u;
  }
  std::vector<std::vector<std::size_t>> buckets(palette);
  std::size_t top = 0;     // no bucket above `top` holds an entry
  std::size_t cursor = 0;  // bucket 0: ranks below `cursor` are colored
  for (std::size_t round = 0; round < n; ++round) {
    UserId pick = 0;
    for (;;) {
      if (top == 0) {
        // With every higher bucket empty, no uncolored user has a
        // nonzero saturation: the next uncolored rank is the pick.
        while (colors_[by_rank[cursor]] != kUncolored) ++cursor;
        pick = by_rank[cursor];
        break;
      }
      std::vector<std::size_t>& heap = buckets[top];
      if (heap.empty()) {
        --top;
        continue;
      }
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const UserId user = by_rank[heap.back()];
      heap.pop_back();
      if (colors_[user] == kUncolored && saturation[user] == top) {
        pick = user;
        break;
      }
    }
    const char* marks = seen.data() + pick * palette;
    std::size_t color = 0;
    while (marks[color] != 0) ++color;
    colors_[pick] = color;
    num_colors_ = std::max(num_colors_, color + 1);
    for (std::size_t e = offsets_[pick]; e < offsets_[pick + 1]; ++e) {
      const UserId v = neighbors_[e];
      if (colors_[v] != kUncolored) continue;
      char& mark = seen[v * palette + color];
      if (mark != 0) continue;
      mark = 1;
      const std::size_t s = ++saturation[v];
      std::vector<std::size_t>& heap = buckets[s];
      heap.push_back(rank[v]);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      top = std::max(top, s);
    }
  }
}

std::size_t Topology::color(UserId user) const {
  check_user(user);
  return colors_[user];
}

std::string TopologySpec::name() const {
  switch (kind) {
    case Kind::kComplete:
      return "complete";
    case Kind::kRing:
      return "ring:" + std::to_string(ring_distance);
    case Kind::kGrid:
      return "grid:" + std::to_string(grid_width) + "x" +
             std::to_string(grid_height) + ":" +
             std::to_string(grid_distance);
    case Kind::kEdges: {
      std::string out = "edges";
      for (const auto& [a, b] : edges) {
        out += ':' + std::to_string(a) + '-' + std::to_string(b);
      }
      return out;
    }
  }
  throw std::logic_error("TopologySpec: unknown kind");
}

TopologySpec TopologySpec::parse(const std::string& text) {
  TopologySpec spec;
  if (text == "complete") return spec;
  if (text.rfind("ring:", 0) == 0) {
    spec.kind = Kind::kRing;
    spec.ring_distance =
        parse_bounded_int(text.substr(5), text, "neighbor distance", 1);
    return spec;
  }
  if (text.rfind("grid:", 0) == 0) {
    const std::string rest = text.substr(5);
    const std::size_t colon = rest.find(':');
    const std::size_t cross = rest.find('x');
    if (colon == std::string::npos || cross == std::string::npos ||
        cross > colon) {
      throw std::invalid_argument(
          "TopologySpec: malformed grid '" + text +
          "' (expected grid:<W>x<H>:<d>)");
    }
    spec.kind = Kind::kGrid;
    spec.grid_width = static_cast<std::size_t>(
        parse_bounded_int(rest.substr(0, cross), text, "grid dimension", 1));
    spec.grid_height = static_cast<std::size_t>(parse_bounded_int(
        rest.substr(cross + 1, colon - cross - 1), text, "grid dimension",
        1));
    spec.grid_distance =
        parse_bounded_int(rest.substr(colon + 1), text, "neighbor distance",
                          1);
    return spec;
  }
  if (text.rfind("edges:", 0) == 0) {
    spec.kind = Kind::kEdges;
    for (const std::string& part : split_fields(text.substr(6), ':')) {
      const std::size_t dash = part.find('-');
      if (dash == std::string::npos) {
        throw std::invalid_argument("TopologySpec: bad edge '" + part +
                                    "' in '" + text +
                                    "' (expected <a>-<b>)");
      }
      const auto a = static_cast<UserId>(parse_bounded_int(
          part.substr(0, dash), text, "edge endpoint", 0));
      const auto b = static_cast<UserId>(parse_bounded_int(
          part.substr(dash + 1), text, "edge endpoint", 0));
      if (a == b) {
        throw std::invalid_argument(
            "TopologySpec: self-loop edge in '" + text + "'");
      }
      spec.edges.emplace_back(std::min(a, b), std::max(a, b));
    }
    // Canonicalize (sorted, deduped) so parse(name()) is the identity and
    // equal graphs compare equal as specs.
    std::sort(spec.edges.begin(), spec.edges.end());
    spec.edges.erase(std::unique(spec.edges.begin(), spec.edges.end()),
                     spec.edges.end());
    return spec;
  }
  throw std::invalid_argument(
      "TopologySpec: unknown topology '" + text +
      "' (expected complete | ring:<d> | grid:<W>x<H>:<d> | "
      "edges:<a>-<b>:..)");
}

bool TopologySpec::compatible(std::size_t users) const noexcept {
  if (users == 0) return false;
  switch (kind) {
    case Kind::kComplete:
    case Kind::kRing:
      return true;
    case Kind::kGrid:
      return grid_width * grid_height == users;
    case Kind::kEdges:
      for (const auto& [a, b] : edges) {
        if (a >= users || b >= users) return false;
      }
      return true;
  }
  return false;
}

std::shared_ptr<const Topology> TopologySpec::materialize(
    std::size_t users) const {
  if (!compatible(users)) {
    throw std::invalid_argument(
        "TopologySpec: topology '" + name() + "' cannot describe " +
        std::to_string(users) + " user(s)" +
        (kind == Kind::kGrid ? " (grid pins W*H users)" : ""));
  }
  switch (kind) {
    case Kind::kComplete:
      return std::make_shared<const Topology>(Topology::complete(users));
    case Kind::kRing:
      return std::make_shared<const Topology>(
          Topology::ring(users, ring_distance));
    case Kind::kGrid:
      return std::make_shared<const Topology>(
          Topology::grid(grid_width, grid_height, grid_distance));
    case Kind::kEdges:
      return std::make_shared<const Topology>(
          Topology::from_edges(users, edges));
  }
  throw std::logic_error("TopologySpec: unknown kind");
}

}  // namespace mrca
