// Dirty-channel scan pruning: the million-user hot-path lever.
//
// The load-bearing property is BIT-IDENTITY: pruning may only remove work
// the unpruned dynamics would have done for nothing, never change what
// happens. The oracle tests here run every scenario kind x granularity x
// activation order x seed from the same start with pruning on and off and
// demand byte-identical trajectories (final state, activation counts,
// every welfare-trace sample compared as exact doubles). The witness tests
// pin the operation-count story: scan_skips() grows superlinearly with N
// on sparse graphs (more users AND more skips per user), and the plan_scan
// unit tests walk the epoch/bitmask bookkeeping state machine directly.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/alloc/best_response.h"
#include "core/alloc/random_alloc.h"
#include "core/alloc/utility_cache.h"
#include "core/game_model.h"
#include "core/topology.h"
#include "engine/scenario.h"
#include "reference_dynamics.h"
#include "test_util.h"

namespace mrca {
namespace {

GameModel scenario_model(const std::string& spec, std::size_t users,
                         std::size_t channels, RadioCount radios) {
  return engine::ScenarioSpec::parse(spec).make_model(
      users, channels, radios, std::make_shared<PowerLawRate>(1.0, 1.0));
}

DynamicsResult run_once(const GameModel& model, const StrategyMatrix& start,
                        ResponseGranularity granularity,
                        ActivationOrder order, bool pruned,
                        std::uint64_t seed) {
  DynamicsOptions options;
  options.granularity = granularity;
  options.order = order;
  options.record_welfare_trace = true;
  options.use_dirty_channel_pruning = pruned;
  Rng rng(seed);
  return run_response_dynamics(model, start, options, &rng);
}

/// The brute-force oracle: pruned and unpruned runs from the same start
/// must agree on EVERYTHING observable, bitwise.
void expect_bit_identical(const GameModel& model, const StrategyMatrix& start,
                          ResponseGranularity granularity,
                          ActivationOrder order, std::uint64_t seed) {
  const DynamicsResult pruned =
      run_once(model, start, granularity, order, /*pruned=*/true, seed);
  const DynamicsResult full =
      run_once(model, start, granularity, order, /*pruned=*/false, seed);
  EXPECT_TRUE(pruned.final_state == full.final_state);
  EXPECT_EQ(pruned.converged, full.converged);
  EXPECT_EQ(pruned.activations, full.activations);
  EXPECT_EQ(pruned.improving_steps, full.improving_steps);
  // Exact double equality on every sample: same moves in the same order
  // through the same incremental welfare arithmetic.
  EXPECT_EQ(pruned.welfare_trace, full.welfare_trace);
  // Pruning changes which scans run, never which changes apply — so the
  // repricing work is identical; the skip counter only moves when pruning.
  EXPECT_EQ(pruned.reprice_touches, full.reprice_touches);
  EXPECT_EQ(full.scan_skips, 0u);
}

TEST(ScanPruningOracle, BitIdenticalAcrossScenarioKindsOrdersGranularities) {
  const std::vector<std::string> scenarios = {
      "base",          "energy=0.2",       "het=2:1",
      "budgets=1:4",   "weights=2:1",      "topology=ring:2",
      "topology=grid:6x6:1"};
  const ResponseGranularity granularities[] = {
      ResponseGranularity::kBestResponse,
      ResponseGranularity::kBestSingleMove,
      ResponseGranularity::kRandomImprovingMove};
  const ActivationOrder orders[] = {ActivationOrder::kRoundRobin,
                                    ActivationOrder::kUniformRandom};
  for (const std::string& scenario : scenarios) {
    const GameModel model = scenario_model(scenario, 36, 6, 3);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng start_rng(97 * seed + 11);
      // Odd seeds start from partial allocations so deploys and parks are
      // live candidates, not just moves.
      const StrategyMatrix start =
          seed % 2 == 1 ? random_partial_allocation(model, start_rng)
                        : random_full_allocation(model, start_rng);
      for (const ResponseGranularity granularity : granularities) {
        for (const ActivationOrder order : orders) {
          SCOPED_TRACE(scenario + " seed=" + std::to_string(seed));
          expect_bit_identical(model, start, granularity, order, seed);
        }
      }
    }
  }
}

TEST(ScanPruningOracle, SparseStorageWalksTheSameTrajectory) {
  // The sparse strategy representation rides the same mutator surface, so
  // a sparse start must produce the dense start's exact trajectory.
  const GameModel model = scenario_model("topology=ring:2", 40, 8, 3);
  StrategyMatrix dense(model.config(), StrategyMatrix::Storage::kDense);
  StrategyMatrix sparse(model.config(), StrategyMatrix::Storage::kSparse);
  Rng fill_rng(5);
  for (UserId user = 0; user < 40; ++user) {
    for (int radio = 0; radio < 3; ++radio) {
      const auto channel = static_cast<ChannelId>(fill_rng.index(8));
      dense.add_radio(user, channel);
      sparse.add_radio(user, channel);
    }
  }
  ASSERT_TRUE(dense == sparse);
  const DynamicsResult from_dense =
      run_once(model, dense, ResponseGranularity::kBestSingleMove,
               ActivationOrder::kRoundRobin, /*pruned=*/true, 1);
  const DynamicsResult from_sparse =
      run_once(model, sparse, ResponseGranularity::kBestSingleMove,
               ActivationOrder::kRoundRobin, /*pruned=*/true, 1);
  EXPECT_TRUE(from_dense.final_state == from_sparse.final_state);
  EXPECT_EQ(from_dense.activations, from_sparse.activations);
  EXPECT_EQ(from_dense.welfare_trace, from_sparse.welfare_trace);
}

TEST(ScanPruningWitness, ResultCountersTrackTheWork) {
  const GameModel model = scenario_model("topology=ring:2", 64, 8, 3);
  Rng start_rng(7);
  const StrategyMatrix start = random_full_allocation(model, start_rng);
  const DynamicsResult pruned =
      run_once(model, start, ResponseGranularity::kBestSingleMove,
               ActivationOrder::kRoundRobin, /*pruned=*/true, 1);
  ASSERT_TRUE(pruned.converged);
  EXPECT_GT(pruned.scan_skips, 0u);
  EXPECT_GT(pruned.reprice_touches, 0u);

  DynamicsOptions reference;
  reference.granularity = ResponseGranularity::kBestSingleMove;
  const DynamicsResult raw =
      testing::reference_response_dynamics(model, start, reference, nullptr);
  EXPECT_EQ(raw.scan_skips, 0u);
  EXPECT_EQ(raw.reprice_touches, 0u);
  EXPECT_TRUE(raw.final_state == pruned.final_state);
  EXPECT_EQ(raw.activations, pruned.activations);
}

TEST(ScanPruningWitness, SkipsGrowSuperlinearlyOnSparseGraphs) {
  // On a bounded-degree graph the dynamics settle region by region, but
  // convergence is gated by the SLOWEST region — so a bigger ring takes
  // more passes, and every extra pass is almost entirely proven no-ops.
  // Skips therefore grow superlinearly in N: more users AND more skips
  // per user. (Deterministic: round-robin order, fixed seed.)
  const auto skips_at = [](std::size_t users) {
    const GameModel model = scenario_model("topology=ring:2", users, 12, 4);
    Rng start_rng(13);
    const StrategyMatrix start = random_full_allocation(model, start_rng);
    DynamicsOptions options;
    options.granularity = ResponseGranularity::kBestSingleMove;
    options.max_activations = 64 * users;
    const DynamicsResult result = run_response_dynamics(model, start, options);
    EXPECT_TRUE(result.converged);
    return result.scan_skips;
  };
  const std::size_t small = skips_at(1000);
  const std::size_t large = skips_at(64000);
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, 64 * small);  // 64x the users, more than 64x the skips
}

TEST(ScanPruningWitness, HundredThousandUserCellsMatchTheUnprunedRun) {
  // The scale gate: 100,000 users on ring:2 and on the complete graph
  // (12 channels, k = 4, R(k) = 1/k, start seed 42, best single move in
  // round-robin order, a budget of 64 passes). Both runs converge, and
  // pruning changes nothing observable.
  constexpr std::size_t kUsers = 100000;
  for (const std::string spec : {"topology=ring:2", "base"}) {
    const GameModel model = scenario_model(spec, kUsers, 12, 4);
    Rng start_rng(42);
    const StrategyMatrix start = random_full_allocation(model, start_rng);
    DynamicsOptions options;
    options.granularity = ResponseGranularity::kBestSingleMove;
    options.max_activations = 64 * kUsers;
    options.record_welfare_trace = true;
    const DynamicsResult pruned = run_response_dynamics(model, start, options);
    options.use_dirty_channel_pruning = false;
    const DynamicsResult full = run_response_dynamics(model, start, options);
    EXPECT_TRUE(pruned.converged) << spec;
    EXPECT_TRUE(full.converged) << spec;
    EXPECT_TRUE(pruned.final_state == full.final_state) << spec;
    EXPECT_EQ(pruned.welfare_trace, full.welfare_trace) << spec;
    EXPECT_EQ(pruned.activations, full.activations) << spec;
    EXPECT_EQ(pruned.improving_steps, full.improving_steps) << spec;
  }
}

TEST(ScanPruningPlan, GlobalDomainEpochStateMachine) {
  const GameModel model = testing::power_law_game(3, 4, 2);
  StrategyMatrix matrix = model.empty_strategy();
  matrix.add_radio(0, 0);
  matrix.add_radio(1, 2);
  UtilityCache cache(model, matrix);
  cache.enable_scan_pruning();
  EXPECT_TRUE(cache.scan_pruning_enabled());
  std::vector<ChannelId> dirty;

  // No memo yet: every user plans a full scan.
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kFull);
  EXPECT_TRUE(dirty.empty());

  // A certified no-change scan makes the user skippable...
  cache.note_scan(0, false);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kSkip);
  EXPECT_EQ(cache.scan_skips(), 1u);

  // ...until any load changes: then only the changed channels are dirty.
  cache.add_radio(matrix, 1, 3);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kDirtyChannels);
  EXPECT_EQ(dirty, std::vector<ChannelId>({3}));

  // A move dirties both endpoints, reported ascending.
  cache.note_scan(0, false);
  cache.move_radio(matrix, 1, 3, 1);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kDirtyChannels);
  EXPECT_EQ(dirty, std::vector<ChannelId>({1, 3}));

  // A user whose own scan found a change has no memo: full scan.
  cache.note_scan(1, true);
  EXPECT_EQ(cache.plan_scan(1, dirty), UtilityCache::ScanPlan::kFull);

  // rebuild() voids every memo.
  cache.note_scan(0, false);
  cache.rebuild(matrix);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kFull);
}

TEST(ScanPruningPlan, TopologyDomainSeesOnlyNeighborhoodChanges) {
  // Path 0 - 1 - 2 plus an isolated user 3: user 0 sees changes by itself
  // and user 1 only; users 2 and 3 are invisible to it.
  const auto topology = std::make_shared<Topology>(
      Topology::from_edges(4, {{0, 1}, {1, 2}}));
  const GameModel model(
      6, std::vector<RadioCount>(4, 2),
      {std::make_shared<PowerLawRate>(1.0, 1.0)}, 0.0, {}, topology);
  StrategyMatrix matrix(model.config());
  UtilityCache cache(model, matrix);
  cache.enable_scan_pruning();
  std::vector<ChannelId> dirty;

  cache.note_scan(0, false);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kSkip);

  // Changes outside the closed neighborhood leave the memo valid.
  cache.add_radio(matrix, 2, 1);
  cache.add_radio(matrix, 3, 4);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kSkip);

  // A neighbor's change dirties exactly the touched channel.
  cache.add_radio(matrix, 1, 5);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kDirtyChannels);
  EXPECT_EQ(dirty, std::vector<ChannelId>({5}));

  // The middle user sees both endpoint users.
  cache.note_scan(1, false);
  cache.add_radio(matrix, 0, 0);
  cache.add_radio(matrix, 2, 3);
  EXPECT_EQ(cache.plan_scan(1, dirty), UtilityCache::ScanPlan::kDirtyChannels);
  EXPECT_EQ(dirty, std::vector<ChannelId>({0, 3}));
}

TEST(ScanPruningPlan, HighChannelsShareTheOverflowBit) {
  // Channels >= 63 fold into one dirty-mask bit under a topology: a change
  // there can only plan a full rescan (correct, just not narrowed), while
  // low channels still narrow exactly.
  const auto topology =
      std::make_shared<Topology>(Topology::from_edges(3, {{0, 1}}));
  const GameModel model(
      70, std::vector<RadioCount>(3, 2),
      {std::make_shared<PowerLawRate>(1.0, 1.0)}, 0.0, {}, topology);
  StrategyMatrix matrix(model.config());
  UtilityCache cache(model, matrix);
  cache.enable_scan_pruning();
  std::vector<ChannelId> dirty;

  cache.note_scan(0, false);
  cache.add_radio(matrix, 1, 62);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kDirtyChannels);
  EXPECT_EQ(dirty, std::vector<ChannelId>({62}));

  cache.note_scan(0, false);
  cache.add_radio(matrix, 1, 65);
  EXPECT_EQ(cache.plan_scan(0, dirty), UtilityCache::ScanPlan::kFull);
}

}  // namespace
}  // namespace mrca
