// The streaming session API (engine/session.h + engine/sinks.h): shard
// partitions cover the plan exactly; legacy run_sweep, the
// plan+AggregatingSink path and every shard/merge composition are
// byte-identical through the writers at any thread count; JSONL records
// stream deterministically and validate line by line; the JSON document
// round-trips through sweep_from_json; and `mrca merge` (driven end to end
// through the real binary) rejects mismatched specs with exit 2.
#include "engine/session.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_harness.h"
#include "engine/sinks.h"
#include "engine/sweep_io.h"
#include "strict_json.h"

namespace mrca {
namespace {

using engine::AggregatingSink;
using engine::CellResult;
using engine::ProgressSink;
using engine::RateSpec;
using engine::RecordSink;
using engine::RunRecord;
using engine::RunSink;
using engine::ScenarioSpec;
using engine::SessionOptions;
using engine::SessionStats;
using engine::SweepOptions;
using engine::SweepPlan;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

SweepSpec session_spec() {
  SweepSpec spec;
  spec.users = {3, 4, 5};
  spec.channels = {3, 4};
  spec.radios = {1, 2};
  spec.rates = {RateSpec{}, RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.scenarios = {ScenarioSpec{}, ScenarioSpec::parse("energy=0.2"),
                    ScenarioSpec::parse("weights=2:1")};
  spec.metrics = MetricSet::parse_list("nash,poa");
  spec.replicates = 2;
  spec.base_seed = 421;
  return spec;
}

/// Runs one (possibly sharded) plan through an AggregatingSink.
SweepResult run_shard(const SweepPlan& plan, std::size_t threads) {
  AggregatingSink sink;
  engine::run_session(plan, sink, SessionOptions{threads});
  return std::move(sink).take_result();
}

TEST(SweepPlan, ShardsPartitionTheCellRangeExactly) {
  const SweepPlan plan = SweepPlan::build(session_spec());
  ASSERT_GT(plan.total_cells(), 0u);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        plan.total_cells() + 5}) {
    std::set<std::size_t> covered;
    std::size_t expected_begin = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const SweepPlan shard = plan.shard(i, count);
      EXPECT_EQ(shard.cell_begin(), expected_begin);
      expected_begin = shard.cell_end();
      EXPECT_EQ(shard.total_cells(), plan.total_cells());
      EXPECT_EQ(shard.num_runs(),
                shard.num_cells() * plan.spec().replicates);
      for (std::size_t c = shard.cell_begin(); c < shard.cell_end(); ++c) {
        EXPECT_TRUE(covered.insert(c).second) << "cell covered twice";
      }
    }
    EXPECT_EQ(expected_begin, plan.total_cells());
    EXPECT_EQ(covered.size(), plan.total_cells());
  }
}

TEST(SweepPlan, CellIndicesStayAbsoluteUnderSharding) {
  const SweepPlan plan = SweepPlan::build(session_spec());
  const SweepPlan shard = plan.shard(2, 3);
  ASSERT_GT(shard.num_cells(), 0u);
  // A shard's first cell is NOT cell 0: seeds derive from the absolute
  // index, so the shard reproduces exactly the runs the full plan assigns
  // to that range.
  EXPECT_EQ(plan.cells()[shard.cell_begin()].index, shard.cell_begin());
  const SweepResult result = run_shard(shard, 2);
  ASSERT_EQ(result.cells.size(), shard.num_cells());
  EXPECT_EQ(result.cells.front().cell.index, shard.cell_begin());
}

TEST(SweepPlan, ShardingAShardSubdividesItsRange) {
  const SweepPlan plan = SweepPlan::build(session_spec());
  const SweepPlan half = plan.shard(0, 2);
  const SweepPlan quarter = half.shard(1, 2);
  EXPECT_EQ(quarter.cell_begin(), half.cell_begin() + half.num_cells() / 2);
  EXPECT_EQ(quarter.cell_end(), half.cell_end());
}

TEST(SweepPlan, RejectsInvalidShardsAndBadSpecs) {
  const SweepPlan plan = SweepPlan::build(session_spec());
  EXPECT_THROW(plan.shard(0, 0), std::invalid_argument);
  EXPECT_THROW(plan.shard(3, 3), std::invalid_argument);
  SweepSpec bad = session_spec();
  bad.replicates = 0;
  EXPECT_THROW(SweepPlan::build(bad), std::invalid_argument);
}

/// The tentpole acceptance: legacy run_sweep, the plan+AggregatingSink
/// path, and every shard/merge composition serialize byte-identically at
/// 1 and 8 threads.
TEST(SweepSession, ShardMergeIsByteIdenticalToLegacyRunSweep) {
  const SweepSpec spec = session_spec();
  const SweepResult legacy = engine::run_sweep(spec, SweepOptions{1});
  const std::string legacy_csv = engine::sweep_to_csv(legacy);
  const std::string legacy_json = engine::sweep_to_json(legacy);

  const SweepPlan plan = SweepPlan::build(spec);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    // Full plan through the sink directly.
    const SweepResult full = run_shard(plan, threads);
    EXPECT_EQ(engine::sweep_to_csv(full), legacy_csv);
    EXPECT_EQ(engine::sweep_to_json(full), legacy_json);
    // 1-shard and 3-shard merges.
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}}) {
      std::vector<SweepResult> shards;
      for (std::size_t i = 0; i < count; ++i) {
        shards.push_back(run_shard(plan.shard(i, count), threads));
      }
      const SweepResult merged = engine::merge_sweep_results(shards);
      EXPECT_EQ(engine::sweep_to_csv(merged), legacy_csv)
          << count << " shards, " << threads << " threads";
      EXPECT_EQ(engine::sweep_to_json(merged), legacy_json)
          << count << " shards, " << threads << " threads";
    }
  }
}

TEST(SweepSession, JsonDocumentRoundTripsThroughSweepFromJson) {
  const SweepSpec spec = session_spec();
  const SweepResult result = engine::run_sweep(spec);
  const std::string json = engine::sweep_to_json(result);
  const SweepResult parsed = engine::sweep_from_json(json);
  EXPECT_EQ(parsed.spec_fingerprint, spec.fingerprint());
  EXPECT_EQ(parsed.total_runs, result.total_runs);
  ASSERT_EQ(parsed.cells.size(), result.cells.size());
  // Byte-identical re-serialization: every count, mean, m2 and extremum
  // was restored exactly (CSV exercises stddev/min/max reprinting too).
  EXPECT_EQ(engine::sweep_to_json(parsed), json);
  EXPECT_EQ(engine::sweep_to_csv(parsed), engine::sweep_to_csv(result));
  EXPECT_THROW(engine::sweep_from_json("{\"not\":\"a sweep\"}"),
               std::invalid_argument);
  EXPECT_THROW(engine::sweep_from_json("nonsense"), std::invalid_argument);
  // Adversarially deep nesting must be rejected up front (invalid_argument
  // -> CLI exit 2), never recursed into until the stack dies.
  EXPECT_THROW(engine::sweep_from_json(std::string(200000, '[')),
               std::invalid_argument);
  // Hand-edited documents: a radio count past RadioCount (it used to wrap
  // to 1), a metric list that is not an array (it used to read as "no
  // metrics"), and a count no size_t holds (a float-to-integer cast UB).
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"radios", "4294967297"},
           {"metric_columns", "\"x\""},
           {"cells_total", "1e300"},
           {"cells_total", "-1"},
           {"cell_begin", "2.5"}}) {
    const std::string edited =
        mrca::testing::with_json_value(json, key, value);
    ASSERT_NE(edited, json) << key;
    try {
      engine::sweep_from_json(edited);
      ADD_FAILURE() << key << ":" << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
          << error.what();
    }
  }
}

TEST(SweepSession, AllSkippedEfficiencyPrintsNanNeverZero) {
  // A weighted cell beyond the one-radio-per-channel regime: the optimum
  // is unknown, every efficiency/anarchy sample is NaN-skipped, and the
  // fixed CSV/table columns must say so (nan / "-"), not claim 0%.
  SweepSpec spec;
  spec.users = {4};
  spec.channels = {3};
  spec.radios = {2};
  spec.scenarios = {ScenarioSpec::parse("weights=2:1")};
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].efficiency.empty());
  const std::string csv = engine::sweep_to_csv(result);
  EXPECT_NE(csv.find(",nan,nan,"), std::string::npos);  // efficiency,anarchy
  const std::string table = engine::sweep_to_table(result);
  EXPECT_NE(table.find("-"), std::string::npos);
  EXPECT_EQ(table.find("0.0000 | 0.0000"), std::string::npos);
}

TEST(SweepSession, MergeAcceptsEmptyShardsInAnyArgumentOrder) {
  // Shard counts beyond the cell count produce documented-legal EMPTY
  // shards; merging must not depend on where they appear in the argument
  // list (an empty [x, x) range constrains nothing).
  SweepSpec spec;
  spec.users = {3};
  spec.channels = {3};
  spec.radios = {1};  // 1 cell
  const SweepPlan plan = SweepPlan::build(spec);
  ASSERT_EQ(plan.total_cells(), 1u);
  const std::string expected_json =
      engine::sweep_to_json(engine::run_sweep(spec));
  std::vector<SweepResult> shards;
  for (std::size_t i = 0; i < 5; ++i) {
    shards.push_back(run_shard(plan.shard(i, 5), 1));
  }
  // The non-empty shard last, first, and in the middle.
  for (const auto& order :
       std::vector<std::vector<std::size_t>>{{0, 1, 2, 3, 4},
                                             {4, 0, 1, 2, 3},
                                             {0, 4, 1, 3, 2}}) {
    std::vector<SweepResult> shuffled;
    for (const std::size_t i : order) shuffled.push_back(shards[i]);
    const SweepResult merged = engine::merge_sweep_results(shuffled);
    EXPECT_EQ(engine::sweep_to_json(merged), expected_json);
  }
}

TEST(SweepSession, MergeRejectsForeignOverlappingAndGappyShards) {
  const SweepSpec spec = session_spec();
  const SweepPlan plan = SweepPlan::build(spec);
  const SweepResult s0 = run_shard(plan.shard(0, 2), 1);
  const SweepResult s1 = run_shard(plan.shard(1, 2), 1);

  EXPECT_NO_THROW(engine::merge_sweep_results({s0, s1}));
  // Gap: half the plan missing.
  EXPECT_THROW(engine::merge_sweep_results({s0}), std::invalid_argument);
  // Overlap: the same range twice.
  EXPECT_THROW(engine::merge_sweep_results({s0, s0, s1}),
               std::invalid_argument);
  // Foreign spec: same shape, different seed.
  SweepSpec other = spec;
  other.base_seed = spec.base_seed + 1;
  const SweepResult foreign =
      run_shard(SweepPlan::build(other).shard(1, 2), 1);
  EXPECT_THROW(engine::merge_sweep_results({s0, foreign}),
               std::invalid_argument);
  EXPECT_THROW(engine::merge_sweep_results({}), std::invalid_argument);
}

TEST(SweepSession, RecordStreamIsDeterministicAndStrictJsonPerLine) {
  const SweepSpec spec = session_spec();
  const SweepPlan plan = SweepPlan::build(spec);
  std::string first_stream;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    std::ostringstream out;
    RecordSink records(out);
    AggregatingSink aggregate;  // both sinks on one session
    engine::run_session(plan, {&records, &aggregate},
                        SessionOptions{threads});
    EXPECT_EQ(records.records_written(), plan.total_runs());
    if (first_stream.empty()) {
      first_stream = out.str();
    } else {
      // In-order delivery: the JSONL bytes do not depend on scheduling.
      EXPECT_EQ(out.str(), first_stream);
    }
  }
  // Line-by-line: every row is strict RFC-8259 JSON with the
  // self-describing fields.
  std::istringstream lines(first_stream);
  std::string line;
  std::size_t count = 0;
  std::size_t previous_cell = 0;
  while (std::getline(lines, line)) {
    ++count;
    std::string why;
    ASSERT_TRUE(mrca::testing::is_strict_json(line, &why))
        << why << " in: " << line;
    for (const char* key :
         {"\"cell\":", "\"replicate\":", "\"seed\":", "\"scenario\":",
          "\"welfare\":", "\"converged\":", "\"metrics\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in: " << line;
    }
    // Task order: cell indices are non-decreasing along the stream.
    const std::size_t cell = std::stoul(line.substr(line.find(':') + 1));
    EXPECT_GE(cell, previous_cell);
    previous_cell = cell;
  }
  EXPECT_EQ(count, plan.total_runs());
}

TEST(SweepSession, SingleThreadDeliversInlineWithoutBuffering) {
  const SweepPlan plan = SweepPlan::build(session_spec());
  AggregatingSink sink;
  const SessionStats stats = engine::run_session(plan, sink);
  EXPECT_EQ(stats.runs, plan.total_runs());
  EXPECT_EQ(stats.threads_used, 1u);
  // Inline execution is already in order: nothing ever parks in the
  // reorder buffer (the multi-thread high-water mark is scheduling-
  // dependent, so only the deterministic case asserts a number).
  EXPECT_EQ(stats.max_buffered, 0u);
}

TEST(SweepSession, ProgressSinkDrawsAndTerminatesItsLine) {
  const SweepPlan plan = SweepPlan::build(session_spec()).shard(0, 2);
  std::ostringstream out;
  ProgressSink progress(out);
  AggregatingSink aggregate;
  engine::run_session(plan, {&aggregate, &progress}, SessionOptions{2});
  const std::string text = out.str();
  // 0-based, matching the CLI's --shard 0/2 spelling.
  EXPECT_NE(text.find("shard 0/2"), std::string::npos);
  EXPECT_NE(text.find("(100%)"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(RunningStatsState, FromStateInvertsSerialization) {
  RunningStats stats;
  for (const double x : {0.25, -1.5, 3.75, 100.0}) stats.add(x);
  const RunningStats restored = RunningStats::from_state(
      stats.count(), stats.mean(), stats.m2(), stats.min(), stats.max());
  EXPECT_EQ(restored.count(), stats.count());
  EXPECT_EQ(restored.mean(), stats.mean());
  EXPECT_EQ(restored.m2(), stats.m2());
  EXPECT_EQ(restored.stddev(), stats.stddev());
  EXPECT_EQ(restored.min(), stats.min());
  EXPECT_EQ(restored.max(), stats.max());
  // Empty state round-trips to the default object regardless of moments.
  const RunningStats empty = RunningStats::from_state(0, 9.0, 9.0, 9.0, 9.0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.mean(), 0.0);
}

// ---------------------------------------------------------------- CLI ----
// `mrca merge` end to end through the real binary (tests/cli_harness.h).

using mrca::testing::CliResult;
using mrca::testing::run_cli;

/// Writes `text` to a unique temp file and returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "mrca_session_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

constexpr const char* kShardArgs =
    "sweep --users 3,4 --channels 3 --radios 1 --metrics nash "
    "--replicates 2 --seed 11 --format json";

TEST(CliMerge, RecombinesShardsIntoTheFullDocument) {
  const CliResult full = run_cli(std::string(kShardArgs));
  ASSERT_EQ(full.exit_code, 0);
  const CliResult a = run_cli(std::string(kShardArgs) + " --shard 0/2");
  const CliResult b = run_cli(std::string(kShardArgs) + " --shard 1/2");
  ASSERT_EQ(a.exit_code, 0);
  ASSERT_EQ(b.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(a.output, &why)) << why;
  const std::string path_a = write_temp("shard_a", a.output);
  const std::string path_b = write_temp("shard_b", b.output);
  const CliResult merged =
      run_cli("merge " + path_a + " " + path_b + " --format json");
  ASSERT_EQ(merged.exit_code, 0);
  EXPECT_EQ(merged.output, full.output);
}

TEST(CliMerge, RejectsMismatchedSpecsWithExit2) {
  const CliResult a = run_cli(std::string(kShardArgs) + " --shard 0/2");
  // Same grid, different seed: a different experiment entirely.
  const CliResult b = run_cli(std::string(kShardArgs) +
                              " --shard 1/2 --seed 12");
  ASSERT_EQ(a.exit_code, 0);
  ASSERT_EQ(b.exit_code, 0);
  const std::string path_a = write_temp("mismatch_a", a.output);
  const std::string path_b = write_temp("mismatch_b", b.output);
  const CliResult merged = run_cli("merge " + path_a + " " + path_b);
  EXPECT_EQ(merged.exit_code, 2);
  EXPECT_NE(merged.output.find("fingerprint"), std::string::npos);
  // A gap (missing shard) is exit 2 too.
  const CliResult gappy = run_cli("merge " + path_a);
  EXPECT_EQ(gappy.exit_code, 2);
  // And a file that is not a sweep document names itself.
  const std::string junk = write_temp("junk", "{\"hello\":1}");
  const CliResult bad = run_cli("merge " + junk + " " + path_a);
  EXPECT_EQ(bad.exit_code, 2);
}

}  // namespace
}  // namespace mrca
