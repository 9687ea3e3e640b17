// Interference-graph topologies as a first-class load layer.
//
// Covers the Topology graph kernel (construction, DSATUR coloring,
// complete-graph detection, bit-identity with the row-by-row reference
// build of reference_topology.h), the TopologySpec round-trip grammar, the
// GameModel LoadView (perceived loads, complete-graph normalization,
// bit-identity with the single collision domain), a brute-force
// Definition-1 Nash oracle on a small ring against the model's
// neighborhood-aware best response, the coloring bound's spatial-reuse
// property (it can BEAT the single-domain optimum), and the UtilityCache
// topology path: incremental perceived loads, the O(degree) repricing
// witness, and the matrix pairing guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/alloc/utility_cache.h"
#include "core/analysis/nash.h"
#include "core/game_model.h"
#include "core/rate_function.h"
#include "core/strategy.h"
#include "core/topology.h"
#include "reference_topology.h"
#include "test_util.h"

namespace {

using namespace mrca;

GameModel ring_model(std::size_t users, std::size_t channels,
                     RadioCount radios, std::size_t distance,
                     std::shared_ptr<const RateFunction> rate,
                     double cost = 0.0) {
  return GameModel(
      channels, std::vector<RadioCount>(users, radios), {std::move(rate)},
      cost, /*utility_weights=*/{},
      std::make_shared<const Topology>(Topology::ring(users, distance)));
}

// ---------------------------------------------------------------------------
// Graph construction

TEST(Topology, RingAdjacencyIsSymmetricWithDegreeTwoD) {
  const auto ring = Topology::ring(8, 2);
  ASSERT_EQ(ring.num_users(), 8u);
  EXPECT_EQ(ring.max_degree(), 4u);
  for (UserId u = 0; u < 8; ++u) {
    EXPECT_EQ(ring.degree(u), 4u);
    EXPECT_TRUE(ring.adjacent(u, (u + 1) % 8));
    EXPECT_TRUE(ring.adjacent(u, (u + 2) % 8));
    EXPECT_FALSE(ring.adjacent(u, (u + 3) % 8));
    EXPECT_FALSE(ring.adjacent(u, u));
  }
}

TEST(Topology, GridUsesChebyshevNeighborhoodsRowMajor) {
  // 3x3, distance 1: corners see 3 cells, edges 5, the center all 8.
  const auto grid = Topology::grid(3, 3, 1);
  ASSERT_EQ(grid.num_users(), 9u);
  EXPECT_EQ(grid.degree(0), 3u);  // corner (0,0)
  EXPECT_EQ(grid.degree(1), 5u);  // edge (1,0)
  EXPECT_EQ(grid.degree(4), 8u);  // center (1,1)
  EXPECT_TRUE(grid.adjacent(0, 4));   // diagonal within Chebyshev 1
  EXPECT_FALSE(grid.adjacent(0, 2));  // (0,0) vs (2,0): distance 2
  EXPECT_FALSE(grid.adjacent(0, 8));  // opposite corners, non-wrapping
}

TEST(Topology, EdgeListDedupsAndRejectsBadEndpoints) {
  const auto graph =
      Topology::from_edges(4, {{0, 1}, {1, 0}, {2, 3}, {0, 1}});
  EXPECT_EQ(graph.degree(0), 1u);
  EXPECT_EQ(graph.degree(1), 1u);
  EXPECT_TRUE(graph.adjacent(2, 3));
  EXPECT_FALSE(graph.adjacent(1, 2));
  EXPECT_THROW(Topology::from_edges(4, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology::from_edges(4, {{0, 4}}), std::invalid_argument);
}

TEST(Topology, CompleteDetectionCoversSaturatedRings) {
  EXPECT_TRUE(Topology::complete(5).is_complete());
  EXPECT_FALSE(Topology::ring(5, 1).is_complete());
  // ring distance d with 2d >= n-1 reaches everyone: complete in disguise.
  EXPECT_TRUE(Topology::ring(5, 2).is_complete());
  EXPECT_TRUE(Topology::ring(2, 1).is_complete());
  // 2x2 grid at Chebyshev distance 1 is K4.
  EXPECT_TRUE(Topology::grid(2, 2, 1).is_complete());
}

// ---------------------------------------------------------------------------
// DSATUR coloring

TEST(Topology, ColoringIsProperAndHitsKnownChromaticNumbers) {
  const auto check_proper = [](const Topology& graph) {
    for (UserId u = 0; u < graph.num_users(); ++u) {
      EXPECT_LT(graph.color(u), graph.num_colors());
      for (const UserId v : graph.neighbors(u)) {
        EXPECT_NE(graph.color(u), graph.color(v)) << u << "~" << v;
      }
    }
    EXPECT_LE(graph.num_colors(), graph.max_degree() + 1);
  };
  const auto even_cycle = Topology::ring(8, 1);
  check_proper(even_cycle);
  EXPECT_EQ(even_cycle.num_colors(), 2u);

  const auto odd_cycle = Topology::ring(7, 1);
  check_proper(odd_cycle);
  EXPECT_EQ(odd_cycle.num_colors(), 3u);

  const auto clique = Topology::complete(5);
  check_proper(clique);
  EXPECT_EQ(clique.num_colors(), 5u);

  check_proper(Topology::grid(4, 4, 1));
  check_proper(Topology::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}));
}

// ---------------------------------------------------------------------------
// Reference oracle: Topology's direct CSR generators and bucket-queue DSATUR
// against the per-user-row build and heap DSATUR of reference_topology.h.

void expect_matches_reference(const Topology& graph,
                              const mrca::testing::ReferenceTopology& want,
                              const std::string& label) {
  ASSERT_EQ(graph.num_users(), want.offsets.size() - 1) << label;
  EXPECT_EQ(graph.max_degree(), want.max_degree) << label;
  EXPECT_EQ(graph.num_colors(), want.num_colors) << label;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    const auto row = graph.neighbors(u);
    ASSERT_TRUE(std::equal(row.begin(), row.end(),
                           want.neighbors.begin() + want.offsets[u],
                           want.neighbors.begin() + want.offsets[u + 1]))
        << label << " neighbors of user " << u;
    ASSERT_EQ(graph.color(u), want.colors[u]) << label << " user " << u;
  }
}

TEST(TopologyReference, GeneratedFamiliesMatchTheRowByRowBuild) {
  // Small rings cover the wrap and the n <= 2d duplicates (n=2 with d=1,
  // n=3 with d=2); grids cover clipped windows wider than the grid.
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int d = 1; d <= 6; ++d) {
      expect_matches_reference(
          Topology::ring(n, d), mrca::testing::reference_ring(n, d),
          "ring n=" + std::to_string(n) + " d=" + std::to_string(d));
    }
  }
  for (std::size_t w = 1; w <= 6; ++w) {
    for (std::size_t h = 1; h <= 6; ++h) {
      for (int d = 1; d <= 3; ++d) {
        expect_matches_reference(
            Topology::grid(w, h, d), mrca::testing::reference_grid(w, h, d),
            "grid " + std::to_string(w) + "x" + std::to_string(h) +
                " d=" + std::to_string(d));
      }
    }
  }
  for (std::size_t n = 1; n <= 20; ++n) {
    expect_matches_reference(Topology::complete(n),
                             mrca::testing::reference_complete(n),
                             "complete n=" + std::to_string(n));
  }
}

TEST(TopologyReference, RandomEdgeListsWithDuplicatesMatch) {
  // Densities from near-empty to near-complete, so degree ties and
  // saturation ties both occur; every list repeats some edges, half of
  // them reversed.
  Rng rng(20260601);
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n = 1 + rng.next_below(40);
    const double density = rng.next_double();
    std::vector<std::pair<UserId, UserId>> edges;
    for (UserId a = 0; a < n; ++a) {
      for (UserId b = a + 1; b < n; ++b) {
        if (rng.bernoulli(density)) edges.emplace_back(b, a);
      }
    }
    const std::size_t distinct = edges.size();
    for (std::size_t k = 0; k < distinct / 3 + 1 && distinct > 0; ++k) {
      const auto [a, b] = edges[rng.next_below(distinct)];
      if (rng.bernoulli(0.5)) {
        edges.emplace_back(a, b);
      } else {
        edges.emplace_back(b, a);
      }
    }
    // Shuffle so rows do not arrive in id order.
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.next_below(i)]);
    }
    expect_matches_reference(Topology::from_edges(n, edges),
                             mrca::testing::reference_from_edges(n, edges),
                             "trial " + std::to_string(trial));
  }
}

TEST(TopologyReference, LargeRingMatches) {
  expect_matches_reference(Topology::ring(100000, 2),
                           mrca::testing::reference_ring(100000, 2),
                           "ring n=100000 d=2");
}

// ---------------------------------------------------------------------------
// TopologySpec grammar

TEST(TopologySpec, NameParseRoundTrips) {
  for (const char* text :
       {"complete", "ring:1", "ring:3", "grid:4x3:2", "edges:0-3:1-2"}) {
    const TopologySpec spec = TopologySpec::parse(text);
    EXPECT_EQ(spec.name(), text);
    EXPECT_EQ(TopologySpec::parse(spec.name()), spec);
  }
  // Edge lists canonicalize: endpoints low-high, edges sorted, dups folded.
  EXPECT_EQ(TopologySpec::parse("edges:2-1:3-0:1-2").name(),
            "edges:0-3:1-2");
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "bogus", "ring", "ring:", "ring:0", "ring:x", "ring:2x",
        "ring:9999", "grid:3x3", "grid:3x:1", "grid:x3:1", "grid:0x3:1",
        "grid:3x3:0", "edges:", "edges:1", "edges:1-1", "edges:1-x",
        "edges:0-1:", "complete:2"}) {
    EXPECT_THROW(TopologySpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(TopologySpec, CompatiblePinsGridAndBoundsEdgeEndpoints) {
  EXPECT_TRUE(TopologySpec::parse("ring:2").compatible(3));
  EXPECT_FALSE(TopologySpec::parse("ring:2").compatible(0));
  EXPECT_TRUE(TopologySpec::parse("grid:3x4:1").compatible(12));
  EXPECT_FALSE(TopologySpec::parse("grid:3x4:1").compatible(11));
  EXPECT_TRUE(TopologySpec::parse("edges:0-3").compatible(4));
  EXPECT_FALSE(TopologySpec::parse("edges:0-3").compatible(3));
  EXPECT_THROW(TopologySpec::parse("grid:3x4:1").materialize(6),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GameModel LoadView

TEST(TopologyModel, CompleteGraphNormalizesAwayAndStaysBitIdentical) {
  const auto rate = std::make_shared<PowerLawRate>(1.0, 0.5);
  const GameModel base(3, std::vector<RadioCount>(4, 2), {rate}, 0.1);
  const GameModel complete(
      3, std::vector<RadioCount>(4, 2), {rate}, 0.1, /*utility_weights=*/{},
      std::make_shared<const Topology>(Topology::complete(4)));
  EXPECT_EQ(complete.topology(), nullptr);

  const StrategyMatrix matrix = StrategyMatrix::from_rows(
      base.config(), {{1, 1, 0}, {0, 2, 0}, {1, 0, 1}, {0, 1, 1}});
  for (UserId u = 0; u < 4; ++u) {
    EXPECT_EQ(base.utility(matrix, u), complete.utility(matrix, u));
    for (ChannelId c = 0; c < 3; ++c) {
      // Null topology: perceived load IS the global column sum.
      EXPECT_EQ(complete.perceived_load(matrix, u, c),
                matrix.channel_load(c));
    }
  }
  EXPECT_EQ(base.welfare(matrix), complete.welfare(matrix));
}

TEST(TopologyModel, PerceivedLoadIsTheClosedNeighborhoodSum) {
  const GameModel model =
      ring_model(4, 3, 2, 1, std::make_shared<ConstantRate>(1.0));
  ASSERT_NE(model.topology(), nullptr);
  const StrategyMatrix matrix = StrategyMatrix::from_rows(
      model.config(), {{2, 0, 0}, {1, 1, 0}, {0, 0, 2}, {0, 1, 1}});
  // User 0's neighbors on the 4-ring are 1 and 3 (not 2).
  EXPECT_EQ(model.perceived_load(matrix, 0, 0), 3);  // 2 + 1 + 0
  EXPECT_EQ(model.perceived_load(matrix, 0, 1), 2);  // 0 + 1 + 1
  EXPECT_EQ(model.perceived_load(matrix, 0, 2), 1);  // 0 + 0 + 1
  // User 2 does not hear user 0 at all.
  EXPECT_EQ(model.perceived_load(matrix, 2, 0), 1);  // 0 + u1 + u3
  EXPECT_EQ(model.perceived_load(matrix, 2, 2), 3);  // 2 + 0 + 1
}

TEST(TopologyModel, SpatialReuseLiftsUtilityAboveTheGlobalDomain) {
  // Two non-adjacent users on a 4-ring share a channel without sharing
  // its capacity: each perceives load 1 and gets the full rate.
  const GameModel model =
      ring_model(4, 2, 1, 1, std::make_shared<PowerLawRate>(1.0, 1.0));
  const StrategyMatrix matrix = StrategyMatrix::from_rows(
      model.config(), {{1, 0}, {0, 1}, {1, 0}, {0, 1}});
  for (UserId u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ(model.utility(matrix, u), 1.0);
  }
  EXPECT_DOUBLE_EQ(model.welfare(matrix), 4.0);
  // The single collision domain caps the same matrix at R(2) shares.
  const GameModel global(2, std::vector<RadioCount>(4, 1),
                         {std::make_shared<PowerLawRate>(1.0, 1.0)});
  EXPECT_DOUBLE_EQ(global.welfare(matrix), 1.0);
}

TEST(TopologyModel, ClosedFormsAbstainWithNaNUnderATopology) {
  const GameModel model =
      ring_model(6, 3, 1, 1, std::make_shared<ConstantRate>(1.0));
  EXPECT_TRUE(std::isnan(model.optimal_welfare()));
}

// ---------------------------------------------------------------------------
// Coloring bound

TEST(TopologyModel, ColoringBoundBeatsTheSingleDomainOptimum) {
  // Even 6-cycle: chi = 2, so 2 channels split into two 1-channel blocks
  // and every user earns the uncontended rate — welfare 6. The single
  // collision domain can only fill 2 channels once: optimum 2.
  const GameModel model =
      ring_model(6, 2, 1, 1, std::make_shared<ConstantRate>(1.0));
  EXPECT_DOUBLE_EQ(model.coloring_bound(), 6.0);
  const GameModel global(2, std::vector<RadioCount>(6, 1),
                         {std::make_shared<ConstantRate>(1.0)});
  EXPECT_DOUBLE_EQ(global.optimal_welfare(), 2.0);
  EXPECT_GT(model.coloring_bound(), global.optimal_welfare());
}

TEST(TopologyModel, ColoringBoundIsNaNWhenTheConstructionDoesNotApply) {
  // No topology: the bound has no graph to color.
  const GameModel global(2, std::vector<RadioCount>(6, 1),
                         {std::make_shared<ConstantRate>(1.0)});
  EXPECT_TRUE(std::isnan(global.coloring_bound()));
  // Budget 2 exceeds the 1-channel block of a chi=2 split over 2 channels.
  const GameModel tight =
      ring_model(6, 2, 2, 1, std::make_shared<ConstantRate>(1.0));
  EXPECT_TRUE(std::isnan(tight.coloring_bound()));
}

TEST(TopologyModel, ColoringBoundSubtractsTheEnergyPriceAndWeighs) {
  // chi(C6)=2 over 4 channels: blocks of 2, budget 2 fits. Each radio
  // earns max(R(1) - cost, 0) = 0.75; user 0 is weighted 2x.
  GameModel model(4, std::vector<RadioCount>(6, 2),
                  {std::make_shared<ConstantRate>(1.0)}, /*radio_cost=*/0.25,
                  {2.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                  std::make_shared<const Topology>(Topology::ring(6, 1)));
  EXPECT_DOUBLE_EQ(model.coloring_bound(), 2 * 0.75 * 7);
}

// ---------------------------------------------------------------------------
// Brute-force Definition-1 Nash oracle on a small ring

TEST(TopologyNash, ModelAgreesWithTheBruteForceOracleOnAFourRing) {
  // 4-ring, 2 channels, budget 1, strictly decreasing rate plus a small
  // energy price so deploy/park decisions are non-trivial. 81 matrices,
  // every one judged both by the model's neighborhood-aware best response
  // and by a fully hand-rolled Definition-1 scan over perceived loads.
  const double cost = 0.05;
  const GameModel model =
      ring_model(4, 2, 1, 1, std::make_shared<PowerLawRate>(1.0, 1.0), cost);
  ASSERT_NE(model.topology(), nullptr);

  const auto hand_utility = [&](const std::vector<std::vector<RadioCount>>&
                                    rows,
                                UserId user) {
    double total = 0.0;
    RadioCount deployed = 0;
    for (ChannelId c = 0; c < 2; ++c) {
      const RadioCount own = rows[user][c];
      deployed += own;
      if (own == 0) continue;
      // Closed neighborhood of user on the 4-ring: user, user+-1.
      const RadioCount load = own + rows[(user + 1) % 4][c] +
                              rows[(user + 3) % 4][c];
      total += (static_cast<double>(own) / load) / load;  // share * 1/load
    }
    return total - cost * deployed;
  };
  const auto alternatives = enumerate_strategy_rows(2, 1);

  std::size_t equilibria = 0;
  std::size_t visited = for_each_strategy_matrix(
      model, [&](const StrategyMatrix& matrix) {
        std::vector<std::vector<RadioCount>> rows(4,
                                                  std::vector<RadioCount>(2));
        for (UserId u = 0; u < 4; ++u) {
          for (ChannelId c = 0; c < 2; ++c) rows[u][c] = matrix.at(u, c);
        }
        bool oracle_stable = true;
        for (UserId u = 0; u < 4 && oracle_stable; ++u) {
          const double current = hand_utility(rows, u);
          auto deviated = rows;
          for (const auto& alternative : alternatives) {
            deviated[u] = alternative;
            if (hand_utility(deviated, u) > current + kUtilityTolerance) {
              oracle_stable = false;
              break;
            }
          }
        }
        EXPECT_EQ(model.is_nash_equilibrium(matrix), oracle_stable)
            << "disagreement on a 4-ring matrix";
        if (oracle_stable) ++equilibria;
        return true;
      });
  EXPECT_EQ(visited, 81u);
  // The alternating spatial-reuse profile must be among the equilibria.
  EXPECT_GT(equilibria, 0u);
  const StrategyMatrix alternating = StrategyMatrix::from_rows(
      model.config(), {{1, 0}, {0, 1}, {1, 0}, {0, 1}});
  EXPECT_TRUE(model.is_nash_equilibrium(alternating));
  EXPECT_FALSE(find_nash_violation(model, alternating).has_value());
}

// ---------------------------------------------------------------------------
// UtilityCache under a topology

TEST(TopologyCache, IncrementalPerceivedLoadsTrackTheModel) {
  const GameModel model =
      ring_model(12, 4, 2, 2, std::make_shared<PowerLawRate>(1.0, 0.7),
                 /*cost=*/0.02);
  StrategyMatrix matrix(model.config());
  UtilityCache cache(model, matrix);

  SplitMix64 rng(42);
  for (int step = 0; step < 2000; ++step) {
    const UserId user = rng.next() % 12;
    const ChannelId channel = rng.next() % 4;
    const RadioCount deployed = matrix.user_total(user);
    if (deployed < 2 && rng.next() % 2 == 0) {
      cache.add_radio(matrix, user, channel);
    } else if (matrix.at(user, channel) > 0 && rng.next() % 3 == 0) {
      cache.remove_radio(matrix, user, channel);
    } else if (matrix.at(user, channel) > 0) {
      cache.move_radio(matrix, user, channel, rng.next() % 4);
    }
  }
  EXPECT_LT(cache.welfare_drift(matrix), 1e-10);
  for (UserId u = 0; u < 12; ++u) {
    EXPECT_EQ(cache.utility(u), model.raw_utility(matrix, u));
    for (ChannelId c = 0; c < 4; ++c) {
      EXPECT_EQ(cache.load_seen(u, c), model.perceived_load(matrix, u, c));
    }
  }
}

TEST(TopologyCache, SparseGraphRepricesOnlyTheMoversNeighborhood) {
  // 32 users all camped on channel 0. In the single collision domain a
  // move reprices every occupant of both touched channels (~N updates);
  // on the degree-2 ring it must touch ONLY the mover's closed
  // neighborhood — 3 users per channel, 6 total.
  constexpr std::size_t kUsers = 32;
  const auto rate = std::make_shared<PowerLawRate>(1.0, 1.0);
  const GameModel ring(
      4, std::vector<RadioCount>(kUsers, 1), {rate}, /*radio_cost=*/0.0,
      /*utility_weights=*/{},
      std::make_shared<const Topology>(Topology::ring(kUsers, 1)));
  const GameModel global(4, std::vector<RadioCount>(kUsers, 1), {rate});

  const auto touches_for_one_move = [](const GameModel& model) {
    StrategyMatrix matrix(model.config());
    UtilityCache cache(model, matrix);
    for (UserId u = 0; u < kUsers; ++u) cache.add_radio(matrix, u, 0);
    const std::size_t before = cache.reprice_touches();
    cache.move_radio(matrix, 5, 0, 1);
    return cache.reprice_touches() - before;
  };
  const std::size_t ring_touches = touches_for_one_move(ring);
  const std::size_t global_touches = touches_for_one_move(global);
  EXPECT_LE(ring_touches, 6u);
  EXPECT_GE(global_touches, kUsers);
  EXPECT_LT(ring_touches, global_touches);
}

TEST(TopologyCache, PairingGuardRejectsMutationsThroughAForeignMatrix) {
  const GameModel model =
      ring_model(6, 3, 1, 1, std::make_shared<ConstantRate>(1.0));
  StrategyMatrix tracked(model.config());
  StrategyMatrix foreign(model.config());
  UtilityCache cache(model, tracked);

  EXPECT_THROW(cache.add_radio(foreign, 0, 0), std::logic_error);
  EXPECT_THROW(cache.move_radio(foreign, 0, 0, 1), std::logic_error);
  EXPECT_THROW(cache.remove_radio(foreign, 0, 0), std::logic_error);
  const RadioCount row[] = {1, 0, 0};
  EXPECT_THROW(cache.set_row(foreign, 0, row), std::logic_error);

  // The tracked matrix stays mutable, and rebuild() re-pairs.
  cache.add_radio(tracked, 0, 0);
  cache.rebuild(foreign);
  cache.add_radio(foreign, 0, 0);
  EXPECT_THROW(cache.add_radio(tracked, 0, 1), std::logic_error);
}

}  // namespace
