#include "core/alloc/utility_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/sequential.h"
#include "core/dynamics/engine.h"
#include "core/rate_table.h"
#include "core/topology.h"
#include "engine/scenario.h"
#include "reference_dynamics.h"
#include "test_util.h"

namespace mrca {
namespace {

using testing::constant_game;
using testing::figure1_rows;
using testing::matrix_of;
using testing::power_law_game;
using testing::rate_families;
using testing::reference_models;

TEST(RateTable, BitIdenticalToFunctionOverTabulatedRange) {
  for (const auto& rate_fn : rate_families()) {
    const RateTable table(*rate_fn, 24);
    for (RadioCount k = 0; k <= 24; ++k) {
      EXPECT_EQ(table.rate(k), rate_fn->rate(k)) << rate_fn->name();
      EXPECT_EQ(table.per_radio(k), rate_fn->per_radio(k)) << rate_fn->name();
    }
  }
}

TEST(RateTable, FallsBackToFunctionBeyondTabulatedRange) {
  const PowerLawRate rate_fn(1.0, 1.0);
  const RateTable table(rate_fn, 4);
  EXPECT_EQ(table.rate(9), rate_fn.rate(9));
  EXPECT_EQ(table.per_radio(9), rate_fn.per_radio(9));
}

TEST(UtilityCache, MatchesFullRecomputeOnFigure1) {
  const GameModel game = power_law_game(4, 5, 4);
  const StrategyMatrix matrix = matrix_of(game, figure1_rows());
  const UtilityCache cache(game, matrix);
  for (UserId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(cache.utility(i), game.utility(matrix, i));
  }
  EXPECT_DOUBLE_EQ(cache.welfare(), game.welfare(matrix));
}

/// One applied mutation: its mover and the (channel, load delta) pairs.
struct Mutation {
  UserId user = 0;
  std::vector<std::pair<ChannelId, RadioCount>> deltas;
};

/// One seeded random mutation through the cache (add / remove / move /
/// set_row); mutations the matrix cannot take are skipped (no deltas).
Mutation random_mutation(const GameModel& model, StrategyMatrix& matrix,
                         UtilityCache& cache, Rng& rng) {
  const std::size_t channels = model.num_channels();
  Mutation mutation;
  const UserId user = mutation.user =
      static_cast<UserId>(rng.index(model.num_users()));
  const ChannelId a = static_cast<ChannelId>(rng.index(channels));
  const ChannelId b = static_cast<ChannelId>(rng.index(channels));
  switch (rng.index(4)) {
    case 0:
      if (matrix.user_total(user) >= model.budget(user)) break;
      cache.add_radio(matrix, user, a);
      mutation.deltas = {{a, +1}};
      break;
    case 1:
      if (matrix.at(user, a) <= 0) break;
      cache.remove_radio(matrix, user, a);
      mutation.deltas = {{a, -1}};
      break;
    case 2:
      if (matrix.at(user, a) <= 0) break;
      cache.move_radio(matrix, user, a, b);
      if (a != b) mutation.deltas = {{a, -1}, {b, +1}};
      break;
    default: {
      std::vector<RadioCount> row(channels, 0);
      RadioCount budget = model.budget(user);
      while (budget > 0 && rng.bernoulli(0.7)) {
        ++row[rng.index(channels)];
        --budget;
      }
      for (ChannelId c = 0; c < channels; ++c) {
        if (row[c] != matrix.at(user, c)) {
          mutation.deltas.emplace_back(c, row[c] - matrix.at(user, c));
        }
      }
      cache.set_row(matrix, user, row);
    }
  }
  return mutation;
}

/// Every user's cached utility equals the full recompute bit for bit.
void expect_exact_utilities(const GameModel& model,
                            const StrategyMatrix& matrix,
                            const UtilityCache& cache) {
  for (UserId i = 0; i < model.num_users(); ++i) {
    EXPECT_EQ(cache.utility(i), model.raw_utility(matrix, i)) << "user " << i;
  }
}

/// A long randomized trajectory of single-radio deltas and whole-row
/// rewrites keeps the utilities exact and the incremental welfare in
/// agreement with the full recompute.
TEST(UtilityCache, TracksRandomTrajectoriesWithinTolerance) {
  for (const auto& rate_fn : rate_families()) {
    const GameModel game(GameConfig(8, 6, 3), rate_fn);
    Rng rng(2024);
    StrategyMatrix matrix = random_partial_allocation(game, rng);
    UtilityCache cache(game, matrix);
    for (int step = 0; step < 4000; ++step) {
      random_mutation(game, matrix, cache, rng);
    }
    expect_exact_utilities(game, matrix, cache);
    EXPECT_LT(cache.welfare_drift(matrix), 1e-10) << rate_fn->name();
  }
}

/// Models spanning every rate family x energy price x budget profile x
/// valuation weights, all in the single collision domain.
std::vector<GameModel> single_domain_models() {
  std::vector<GameModel> models;
  const std::vector<std::vector<RadioCount>> budgets = {
      std::vector<RadioCount>(8, 3), {1, 3, 0, 2, 3, 1, 2, 3}};
  const std::vector<std::vector<double>> weights = {
      {}, {2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0}};
  for (const auto& rate_fn : rate_families()) {
    for (const double cost : {0.0, 0.2}) {
      for (const auto& budget : budgets) {
        for (const auto& weight : weights) {
          models.emplace_back(6, budget,
                              std::vector<std::shared_ptr<const RateFunction>>{
                                  rate_fn},
                              cost, weight);
        }
      }
    }
  }
  return models;
}

std::size_t column_occupants(const StrategyMatrix& matrix, ChannelId c) {
  std::size_t occupants = 0;
  for (UserId i = 0; i < matrix.num_users(); ++i) {
    if (matrix.at(i, c) > 0) ++occupants;
  }
  return occupants;
}

/// reprice_touches' definition, counted from the matrix BEFORE the change:
/// per changed channel, the mover plus — when the per-radio share moves —
/// every occupant (single domain), or the mover's closed neighborhood.
std::size_t brute_force_touches(
    const GameModel& model, const StrategyMatrix& before,
    const Mutation& mutation) {
  std::size_t touches = 0;
  for (const auto& [c, delta] : mutation.deltas) {
    if (model.topology()) {
      touches += 1 + model.topology()->neighbors(mutation.user).size();
      continue;
    }
    const RadioCount load = before.channel_load(c);
    touches += 1;
    if (model.per_radio(c, load + delta) != model.per_radio(c, load)) {
      touches += column_occupants(before, c);
    }
  }
  return touches;
}

/// The single-domain models plus all six scenario kinds, ring:1 to
/// ring:3 included, each ring also under an energy price.
std::vector<GameModel> every_domain_models() {
  std::vector<GameModel> models = single_domain_models();
  for (const std::string scenario :
       {"base", "energy=0.2", "het=2:1", "budgets=1:3", "weights=2:1",
        "topology=ring:1", "topology=ring:2", "topology=ring:3"}) {
    for (const auto& rate_fn : rate_families()) {
      models.push_back(
          engine::ScenarioSpec::parse(scenario).make_model(9, 5, 3, rate_fn));
    }
  }
  for (const int distance : {1, 2, 3}) {
    models.push_back(GameModel(
        5, std::vector<RadioCount>(9, 3), {rate_families()[1]}, 0.2, {},
        std::make_shared<const Topology>(Topology::ring(9, distance))));
  }
  return models;
}

/// The contract: utility(i) IS the model's formula over exact integer
/// loads, so it equals raw_utility bit for bit after every change of any
/// trajectory, in the single domain and under a topology alike — no
/// tolerance. Only welfare is incremental.
TEST(UtilityCacheContract, UtilitiesEqualTheFullRecomputeExactly) {
  for (const GameModel& model : every_domain_models()) {
    Rng rng(2026);
    StrategyMatrix matrix = random_partial_allocation(model, rng);
    UtilityCache cache(model, matrix);
    for (int step = 0; step < 600; ++step) {
      random_mutation(model, matrix, cache, rng);
      for (UserId i = 0; i < model.num_users(); ++i) {
        ASSERT_EQ(cache.utility(i), model.raw_utility(matrix, i))
            << "step " << step << " user " << i;
      }
    }
    EXPECT_NEAR(cache.welfare(), model.raw_welfare(matrix), 1e-12);
  }
}

/// Every mutation's reprice_touches delta matches the brute-force count,
/// and every occupant count matches a column scan — in the single domain
/// and under a ring topology alike.
TEST(UtilityCacheContract, TouchesAndOccupantCountsMatchBruteForce) {
  std::vector<GameModel> models = single_domain_models();
  // Past load 2 this rate is 0, so the per-radio share stays flat and such
  // changes move only the mover's utility.
  models.emplace_back(GameConfig(8, 3, 3),
                      std::make_shared<LinearDecayRate>(1.0, 0.5));
  models.push_back(GameModel(
      5, std::vector<RadioCount>(8, 3), {rate_families()[1]}, 0.1, {},
      std::make_shared<const Topology>(Topology::ring(8, 1))));
  for (const GameModel& model : models) {
    Rng rng(77);
    StrategyMatrix matrix = random_partial_allocation(model, rng);
    UtilityCache cache(model, matrix);
    for (int step = 0; step < 600; ++step) {
      const StrategyMatrix before = matrix;
      const std::size_t touches = cache.reprice_touches();
      const Mutation mutation = random_mutation(model, matrix, cache, rng);
      ASSERT_EQ(cache.reprice_touches() - touches,
                brute_force_touches(model, before, mutation))
          << "step " << step;
      for (ChannelId c = 0; c < model.num_channels(); ++c) {
        ASSERT_EQ(cache.occupant_count(c), column_occupants(matrix, c))
            << "step " << step << " channel " << c;
      }
    }
  }
}

TEST(UtilityCache, OccupantCountsTrackMembership) {
  const GameModel game = constant_game(3, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  UtilityCache cache(game, matrix);
  EXPECT_EQ(cache.occupant_count(0), 0u);
  cache.add_radio(matrix, 1, 0);
  EXPECT_EQ(cache.occupant_count(0), 1u);
  cache.add_radio(matrix, 1, 0);  // second radio, still one occupant
  EXPECT_EQ(cache.occupant_count(0), 1u);
  cache.remove_radio(matrix, 1, 0);
  EXPECT_EQ(cache.occupant_count(0), 1u);
  cache.remove_radio(matrix, 1, 0);
  EXPECT_EQ(cache.occupant_count(0), 0u);
}

TEST(UtilityCache, InvalidMutationsThrowWithoutCorruptingTheCache) {
  const GameModel game = power_law_game(3, 3, 2);
  StrategyMatrix matrix = game.empty_strategy();
  UtilityCache cache(game, matrix);
  cache.add_radio(matrix, 0, 0);
  cache.add_radio(matrix, 1, 0);

  EXPECT_THROW(cache.remove_radio(matrix, 0, 2), std::logic_error);
  EXPECT_THROW(cache.move_radio(matrix, 1, 2, 0), std::logic_error);
  EXPECT_THROW(cache.add_radio(matrix, 5, 0), std::out_of_range);
  std::vector<RadioCount> over_budget{2, 2, 2};
  EXPECT_THROW(cache.set_row(matrix, 0, over_budget), std::invalid_argument);
  std::vector<RadioCount> wrong_width{1, 0};
  EXPECT_THROW(cache.set_row(matrix, 0, wrong_width), std::invalid_argument);
  // User 0 has both radios deployed: one more must throw before any update.
  cache.add_radio(matrix, 0, 1);
  EXPECT_THROW(cache.add_radio(matrix, 0, 2), std::logic_error);

  // Every failed mutation must have left cache and matrix untouched.
  expect_exact_utilities(game, matrix, cache);
  EXPECT_EQ(cache.welfare_drift(matrix), 0.0);
}

TEST(UtilityCache, RebuildResetsDrift) {
  const GameModel game = power_law_game(4, 4, 2);
  Rng rng(7);
  StrategyMatrix matrix = random_full_allocation(game, rng);
  UtilityCache cache(game, matrix);
  ChannelId occupied = 0;
  while (matrix.at(0, occupied) == 0) ++occupied;
  cache.move_radio(matrix, 0, occupied, (occupied + 1) % matrix.num_channels());
  cache.rebuild(matrix);
  EXPECT_EQ(cache.welfare_drift(matrix), 0.0);
}

TEST(UtilityCache, SequentialAllocationThreadsTheCache) {
  for (const auto& rate_fn : rate_families()) {
    const GameModel game(GameConfig(6, 5, 3), rate_fn);
    StrategyMatrix matrix = game.empty_strategy();
    UtilityCache cache(game, matrix);
    for (UserId user = 0; user < 6; ++user) {
      allocate_user_sequentially(game, matrix, user, TieBreak::kLowestIndex,
                                 nullptr, &cache);
    }
    // Same allocation as the plain API, and utilities already current.
    EXPECT_TRUE(matrix == sequential_allocation(game));
    expect_exact_utilities(game, matrix, cache);
    EXPECT_LT(cache.welfare_drift(matrix), 1e-12) << rate_fn->name();
  }
}

/// End-to-end: every cached engine must walk the exact trajectory of its
/// full-recompute reference (tests/reference_dynamics.h) — same states,
/// counts and Rng draws — on testing::reference_models().
void expect_same_run(const DynamicsResult& cached,
                     const DynamicsResult& reference) {
  EXPECT_TRUE(cached.final_state == reference.final_state);
  EXPECT_EQ(cached.activations, reference.activations);
  EXPECT_EQ(cached.improving_steps, reference.improving_steps);
  EXPECT_EQ(cached.converged, reference.converged);
  ASSERT_EQ(cached.welfare_trace.size(), reference.welfare_trace.size());
  for (std::size_t i = 0; i < cached.welfare_trace.size(); ++i) {
    EXPECT_NEAR(cached.welfare_trace[i], reference.welfare_trace[i], 1e-10);
  }
}

TEST(UtilityCache, IncrementalDynamicsMatchFullRecomputePath) {
  for (const GameModel& model : reference_models()) {
    for (const auto granularity : {ResponseGranularity::kBestResponse,
                                   ResponseGranularity::kBestSingleMove,
                                   ResponseGranularity::kRandomImprovingMove}) {
      Rng start_rng(404);
      for (int trial = 0; trial < 5; ++trial) {
        const StrategyMatrix start = random_full_allocation(model, start_rng);
        DynamicsOptions options;
        options.granularity = granularity;
        options.record_welfare_trace = true;
        Rng rng_a(1234);
        Rng rng_b(1234);
        expect_same_run(
            run_response_dynamics(model, start, options, &rng_a),
            testing::reference_response_dynamics(model, start, options,
                                                 &rng_b));
      }
    }
  }
}

TEST(UtilityCache, LearnersMatchTheirFullRecomputeReferences) {
  const DynamicsSpec log_linear = DynamicsSpec::parse("log_linear:0.5:0.01");
  const DynamicsSpec trial_error = DynamicsSpec::parse("trial_error:0.3");
  std::size_t accepted_changes = 0;
  for (const GameModel& model : reference_models()) {
    Rng start_rng(505);
    for (int trial = 0; trial < 3; ++trial) {
      const StrategyMatrix start = random_full_allocation(model, start_rng);
      DynamicsOptions options;
      options.max_activations = 40 * model.num_users();
      options.record_welfare_trace = true;
      Rng rng_a(99);
      Rng rng_b(99);
      const DynamicsResult annealed =
          run_dynamics(log_linear, model, start, options, &rng_a);
      expect_same_run(annealed, testing::reference_log_linear_dynamics(
                                    log_linear, model, start, options, rng_b));
      Rng rng_c(77);
      Rng rng_d(77);
      const DynamicsResult tried =
          run_dynamics(trial_error, model, start, options, &rng_c);
      expect_same_run(tried, testing::reference_trial_error_dynamics(
                                 trial_error, model, start, options, rng_d));
      accepted_changes += annealed.improving_steps + tried.improving_steps;
    }
  }
  EXPECT_GT(accepted_changes, 0u);  // the runs actually moved
}

// The §3 protocol keeps no cache, but its run-owned stability check and
// shared plan scratch must leave every field exactly as the stateless,
// allocate-per-scan reference computes it, welfare-trace bits included.
TEST(UtilityCache, DistributedMatchesItsFullRecomputeReference) {
  std::size_t moves = 0;
  std::size_t unconverged = 0;
  for (const char* name : {"distributed:0.3", "distributed:1"}) {
    const DynamicsSpec spec = DynamicsSpec::parse(name);
    for (const GameModel& model : reference_models()) {
      Rng start_rng(606);
      for (int trial = 0; trial < 3; ++trial) {
        const StrategyMatrix start = random_full_allocation(model, start_rng);
        DynamicsOptions options;
        options.max_activations = 2 * model.num_users();
        options.record_welfare_trace = true;
        Rng rng_a(31);
        Rng rng_b(31);
        const DynamicsResult run =
            run_dynamics(spec, model, start, options, &rng_a);
        const DynamicsResult reference =
            testing::reference_distributed_dynamics(spec, model, start,
                                                    options, rng_b);
        EXPECT_TRUE(run.final_state == reference.final_state) << name;
        EXPECT_EQ(run.converged, reference.converged) << name;
        EXPECT_EQ(run.activations, reference.activations) << name;
        EXPECT_EQ(run.improving_steps, reference.improving_steps) << name;
        EXPECT_EQ(run.scan_skips, reference.scan_skips) << name;
        EXPECT_EQ(run.reprice_touches, reference.reprice_touches) << name;
        EXPECT_EQ(run.welfare_trace, reference.welfare_trace) << name;
        EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64()) << name;
        moves += run.improving_steps;
        unconverged += run.converged ? 0 : 1;
      }
    }
  }
  EXPECT_GT(moves, 0u);        // the protocol actually moved
  EXPECT_GT(unconverged, 0u);  // and some runs stopped on the round budget
}

}  // namespace
}  // namespace mrca
