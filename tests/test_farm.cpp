// The sweep farm (engine/farm.h): retry backoff is a pure function of the
// farm seed; missing-range planning and artifact scanning re-plan exactly
// the uncovered cells; SweepPlan::slice carves arbitrary absolute ranges;
// the --progress-json stream is strict JSON; and — through the real binary
// via MRCA_CLI_PATH — a multi-process farm is byte-identical to the
// single-process sweep, including after an injected crash with retries,
// and after a crash-without-retries followed by `farm --resume`. Merge
// ergonomics ride along: directory arguments, torn-file rejection, and
// fingerprint mismatches that name both offending files.
#include "engine/farm.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_harness.h"
#include "common/json.h"
#include "engine/sinks.h"
#include "engine/sweep_io.h"
#include "strict_json.h"

namespace mrca {
namespace {

namespace fs = std::filesystem;

using engine::AggregatingSink;
using engine::ArtifactScan;
using engine::CellRange;
using engine::FarmSpec;
using engine::ProgressSink;
using engine::RateSpec;
using engine::ScenarioSpec;
using engine::SessionOptions;
using engine::SweepPlan;
using engine::SweepResult;
using engine::SweepSpec;
using mrca::testing::is_strict_json;
using mrca::testing::run_cli;

SweepSpec farm_spec() {
  SweepSpec spec;
  spec.users = {3, 4, 5};
  spec.channels = {3, 4};
  spec.radios = {1, 2};
  spec.rates = {RateSpec{}, RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.scenarios = {ScenarioSpec{}, ScenarioSpec::parse("energy=0.2")};
  spec.metrics = MetricSet::parse_list("nash,poa");
  spec.replicates = 2;
  spec.base_seed = 421;
  return spec;
}

/// Fresh, unique scratch directory (ctest may run test binaries in
/// parallel, so the name embeds the pid).
std::string scratch_dir(const std::string& label) {
  const std::string path = ::testing::TempDir() + "mrca_farm_" + label + "_" +
                           std::to_string(::getpid());
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

SweepResult run_range(const SweepPlan& plan) {
  AggregatingSink sink;
  engine::run_session(plan, sink, SessionOptions{1});
  return std::move(sink).take_result();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ------------------------------------------------------------ pure logic --

TEST(RetryBackoff, IsAPureFunctionOfTheFarmSeed) {
  FarmSpec spec;
  spec.seed = 99;
  spec.backoff_base = std::chrono::milliseconds(100);
  spec.backoff_cap = std::chrono::milliseconds(1000);
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(engine::retry_backoff(spec, 7, attempt),
              engine::retry_backoff(spec, 7, attempt))
        << "attempt " << attempt;
  }
}

TEST(RetryBackoff, FirstAttemptIsImmediate) {
  FarmSpec spec;
  EXPECT_EQ(engine::retry_backoff(spec, 0, 1).count(), 0);
}

TEST(RetryBackoff, DoublesThenSaturatesWithJitterBelowBase) {
  FarmSpec spec;
  spec.seed = 5;
  spec.backoff_base = std::chrono::milliseconds(100);
  spec.backoff_cap = std::chrono::milliseconds(1000);
  // attempt k (k >= 2) sits in [min(cap, base*2^(k-2)),
  //                             min(cap, base*2^(k-2)) + base).
  const std::vector<std::int64_t> expected = {100, 200, 400, 800, 1000, 1000};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto delay = engine::retry_backoff(spec, 3, i + 2).count();
    EXPECT_GE(delay, expected[i]) << "attempt " << i + 2;
    EXPECT_LT(delay, expected[i] + 100) << "attempt " << i + 2;
  }
}

TEST(RetryBackoff, SeedAndJobIdentityDecorrelateTheJitter) {
  FarmSpec a;
  a.backoff_base = std::chrono::milliseconds(1 << 20);  // wide jitter range
  a.backoff_cap = std::chrono::milliseconds(1 << 20);
  FarmSpec b = a;
  b.seed = a.seed + 1;
  bool seed_differs = false;
  bool job_differs = false;
  for (std::size_t attempt = 2; attempt <= 6; ++attempt) {
    seed_differs |= engine::retry_backoff(a, 0, attempt) !=
                    engine::retry_backoff(b, 0, attempt);
    job_differs |= engine::retry_backoff(a, 0, attempt) !=
                   engine::retry_backoff(a, 64, attempt);
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(job_differs);
}

TEST(MissingRanges, ComplementsCoverage) {
  const auto whole = engine::missing_ranges({}, 10);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].begin, 0u);
  EXPECT_EQ(whole[0].end, 10u);

  EXPECT_TRUE(engine::missing_ranges({{0, 4}, {4, 10}}, 10).empty());

  // Unordered input with interior + trailing gaps (and an ignored empty
  // range).
  const auto gaps =
      engine::missing_ranges({{6, 8}, {0, 2}, {3, 3}, {4, 5}}, 10);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0].begin, 2u);
  EXPECT_EQ(gaps[0].end, 4u);
  EXPECT_EQ(gaps[1].begin, 5u);
  EXPECT_EQ(gaps[1].end, 6u);
  EXPECT_EQ(gaps[2].begin, 8u);
  EXPECT_EQ(gaps[2].end, 10u);
}

TEST(MissingRanges, RejectsOverlapsAndOutOfBounds) {
  EXPECT_THROW(engine::missing_ranges({{0, 5}, {4, 8}}, 10),
               std::invalid_argument);
  EXPECT_THROW(engine::missing_ranges({{0, 11}}, 10), std::invalid_argument);
  EXPECT_THROW(engine::missing_ranges({{5, 4}}, 10), std::invalid_argument);
}

TEST(SweepPlanSlice, CarvesAbsoluteRangesAndRejectsEscapes) {
  const SweepPlan plan = SweepPlan::build(farm_spec());
  ASSERT_GE(plan.total_cells(), 4u);
  const SweepPlan middle = plan.slice(1, plan.total_cells() - 1);
  EXPECT_EQ(middle.cell_begin(), 1u);
  EXPECT_EQ(middle.cell_end(), plan.total_cells() - 1);
  EXPECT_EQ(middle.total_cells(), plan.total_cells());
  EXPECT_EQ(middle.shard_count(), 1u);
  // Slicing a slice stays inside the outer range...
  const SweepPlan inner = middle.slice(2, 3);
  EXPECT_EQ(inner.cell_begin(), 2u);
  // ...and escaping it throws.
  EXPECT_THROW(middle.slice(0, 2), std::invalid_argument);
  EXPECT_THROW(plan.slice(3, 2), std::invalid_argument);
  EXPECT_THROW(plan.slice(0, plan.total_cells() + 1), std::invalid_argument);
  // An empty slice is legal (resume may find everything covered).
  EXPECT_EQ(plan.slice(2, 2).num_cells(), 0u);
}

TEST(RunFarm, RejectsMalformedSpecs) {
  const SweepPlan plan = SweepPlan::build(farm_spec());
  FarmSpec spec;
  spec.cli_path = "/bin/true";
  spec.dir = scratch_dir("spec_validation");
  {
    FarmSpec bad = spec;
    bad.cli_path.clear();
    EXPECT_THROW(engine::run_farm(bad, plan, nullptr), std::invalid_argument);
  }
  {
    FarmSpec bad = spec;
    bad.dir.clear();
    EXPECT_THROW(engine::run_farm(bad, plan, nullptr), std::invalid_argument);
  }
  {
    FarmSpec bad = spec;
    bad.shards = 0;
    EXPECT_THROW(engine::run_farm(bad, plan, nullptr), std::invalid_argument);
  }
  {
    FarmSpec bad = spec;
    bad.max_attempts = 0;
    EXPECT_THROW(engine::run_farm(bad, plan, nullptr), std::invalid_argument);
  }
  {
    FarmSpec bad = spec;
    bad.inject = engine::FaultInjection{};
    bad.inject->attempt = 0;
    EXPECT_THROW(engine::run_farm(bad, plan, nullptr), std::invalid_argument);
  }
}

// ------------------------------------------------------- artifact scans --

TEST(ScanArtifacts, ReplansExactlyTheUncoveredCells) {
  const SweepPlan plan = SweepPlan::build(farm_spec());
  const std::string dir = scratch_dir("scan");
  // Artifacts for shards 0 and 2 of 3; shard 1 is the hole.
  const SweepPlan shard0 = plan.shard(0, 3);
  const SweepPlan shard2 = plan.shard(2, 3);
  write_file(dir + "/cells_" + std::to_string(shard0.cell_begin()) + "_" +
                 std::to_string(shard0.cell_end()) + ".json",
             engine::sweep_to_json(run_range(shard0)));
  write_file(dir + "/cells_" + std::to_string(shard2.cell_begin()) + "_" +
                 std::to_string(shard2.cell_end()) + ".json",
             engine::sweep_to_json(run_range(shard2)));
  // In-flight and sidecar files must be invisible to the scan.
  write_file(dir + "/cells_0_1.json.partial", "{torn");
  write_file(dir + "/cells_0_1.jsonl", "{}\n");

  const ArtifactScan scan = engine::scan_artifacts(dir, plan);
  ASSERT_EQ(scan.files.size(), 2u);
  ASSERT_EQ(scan.covered.size(), 2u);
  ASSERT_EQ(scan.missing.size(), 1u);
  EXPECT_EQ(scan.missing[0].begin, plan.shard(1, 3).cell_begin());
  EXPECT_EQ(scan.missing[0].end, plan.shard(1, 3).cell_end());
}

TEST(ScanArtifacts, NamesTheForeignArtifact) {
  const SweepPlan plan = SweepPlan::build(farm_spec());
  const std::string dir = scratch_dir("scan_foreign");
  SweepSpec foreign = farm_spec();
  foreign.base_seed = 9999;  // different fingerprint
  const SweepPlan foreign_plan = SweepPlan::build(foreign);
  const std::string bad_path = dir + "/cells_0_2.json";
  write_file(bad_path, engine::sweep_to_json(run_range(
                           foreign_plan.slice(0, 2))));
  try {
    engine::scan_artifacts(dir, plan);
    FAIL() << "foreign artifact accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(bad_path), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------------------- progress stream --

TEST(ProgressSinkJson, EmitsStrictJsonWithMonotonicCounters) {
  const SweepPlan plan = SweepPlan::build(farm_spec()).shard(1, 2);
  std::ostringstream stream;
  // Zero interval: every run emits a line, so the final counts are exact.
  ProgressSink sink(stream, std::chrono::milliseconds(0),
                    ProgressSink::Format::kJson);
  engine::run_session(plan, sink, SessionOptions{1});

  std::istringstream lines(stream.str());
  std::string line;
  std::size_t count = 0;
  std::size_t last_runs = 0;
  std::size_t last_cells = 0;
  while (std::getline(lines, line)) {
    std::string why;
    ASSERT_TRUE(is_strict_json(line, &why)) << why << ": " << line;
    const JsonValue update = JsonValue::parse(line);
    EXPECT_EQ(update.at("type").string, "progress");
    EXPECT_EQ(static_cast<std::size_t>(update.at("shard_index").number), 1u);
    EXPECT_EQ(static_cast<std::size_t>(update.at("cell_begin").number),
              plan.cell_begin());
    EXPECT_EQ(static_cast<std::size_t>(update.at("cell_end").number),
              plan.cell_end());
    const auto runs = static_cast<std::size_t>(update.at("runs_done").number);
    const auto cells =
        static_cast<std::size_t>(update.at("cells_done").number);
    EXPECT_GE(runs, last_runs);
    EXPECT_GE(cells, last_cells);
    EXPECT_GE(update.at("elapsed_s").number, 0.0);
    last_runs = runs;
    last_cells = cells;
    ++count;
  }
  EXPECT_GE(count, 2u);  // at least the liveness frame + the final frame
  EXPECT_EQ(last_runs, plan.num_runs());
  EXPECT_EQ(last_cells, plan.num_cells());
}

// ----------------------------------------------- end-to-end (real binary) --

constexpr const char* kGrid =
    "--users 3,4,5 --channels 3,4 --radios 1,2 --replicates 2 --seed 421 "
    "--metrics nash,poa";

/// run_cli with stdout/stderr split into files: run_cli's own capture
/// merges the two streams (it appends "2>&1"), but these tests byte-compare
/// stdout documents while asserting on stderr log lines, so the command
/// redirects both inside the args and smuggles the real exit code out as
/// text (the trailing "2>&1" then applies to the harmless echo).
struct SplitResult {
  int exit_code = -1;
  std::string out;  ///< the child's stdout (document)
  std::string err;  ///< the child's stderr (farm log / progress)
};

SplitResult run_cli_split(const std::string& args, const std::string& dir,
                          const std::string& label) {
  const std::string out_path = dir + "/" + label + ".out";
  const std::string err_path = dir + "/" + label + ".err";
  const auto raw = run_cli(args + " > " + out_path + " 2> " + err_path +
                           "; echo exit=$?");
  SplitResult result;
  result.out = read_file(out_path);
  result.err = read_file(err_path);
  const std::size_t marker = raw.output.rfind("exit=");
  if (marker != std::string::npos) {
    result.exit_code = std::atoi(raw.output.c_str() + marker + 5);
  }
  return result;
}

std::string sweep_reference_json(const std::string& dir) {
  const auto result = run_cli_split(std::string("sweep ") + kGrid +
                                        " --format json",
                                    dir, "reference");
  EXPECT_EQ(result.exit_code, 0) << result.err;
  return result.out;
}

TEST(FarmCli, MatchesSingleProcessSweepByteForByte) {
  const std::string dir = scratch_dir("cli_plain");
  const std::string reference = sweep_reference_json(dir);
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 3 --dir " + dir +
                                      "/session --format json",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  EXPECT_EQ(farm.out, reference);
}

TEST(FarmCli, InjectedCrashIsRetriedToTheIdenticalResult) {
  const std::string dir = scratch_dir("cli_crash");
  const std::string reference = sweep_reference_json(dir);
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 3 --dir " + dir +
                                      "/session --inject-crash 5:1 "
                                      "--backoff-ms 20 --format json",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  EXPECT_NE(farm.err.find("exit 70"), std::string::npos) << farm.err;
  EXPECT_NE(farm.err.find("retrying"), std::string::npos) << farm.err;
  EXPECT_EQ(farm.out, reference);
}

TEST(FarmCli, CrashWithoutRetriesThenResumeCompletesTheSweep) {
  const std::string dir = scratch_dir("cli_resume");
  const std::string reference = sweep_reference_json(dir);
  const std::string session = dir + "/session";
  const auto broken = run_cli_split(std::string("farm ") + kGrid +
                                        " --shards 3 --dir " + session +
                                        " --inject-crash 5:1 --retries 0"
                                        " --format json",
                                    dir, "broken");
  EXPECT_NE(broken.exit_code, 0);
  EXPECT_NE(broken.err.find("failed permanently"), std::string::npos)
      << broken.err;
  // The other shards' artifacts survived the failed session.
  std::size_t artifacts = 0;
  for (const auto& entry : fs::directory_iterator(session)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cells_", 0) == 0 && entry.path().extension() == ".json") {
      ++artifacts;
    }
  }
  EXPECT_EQ(artifacts, 2u);

  // Resume re-plans only the hole (sweep flags come from the manifest).
  const auto resumed = run_cli_split("farm --resume --dir " + session +
                                         " --format json",
                                     dir, "resumed");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.err;
  EXPECT_NE(resumed.err.find("resume"), std::string::npos) << resumed.err;
  EXPECT_EQ(resumed.out, reference);
}

TEST(FarmCli, RecordStreamsMatchTheSingleProcessSweep) {
  const std::string dir = scratch_dir("cli_records");
  const auto sweep = run_cli_split(std::string("sweep ") + kGrid +
                                       " --format json --records " + dir +
                                       "/ref.jsonl",
                                   dir, "sweep");
  ASSERT_EQ(sweep.exit_code, 0) << sweep.err;
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 4 --dir " + dir +
                                      "/session --records " + dir +
                                      "/farm.jsonl --format json",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  EXPECT_EQ(read_file(dir + "/farm.jsonl"), read_file(dir + "/ref.jsonl"));
  // Atomic write: no .tmp leftovers under the final names.
  EXPECT_FALSE(fs::exists(dir + "/farm.jsonl.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/ref.jsonl.tmp"));
}

TEST(FarmCli, WatchdogReclaimsAStalledShard) {
  const std::string dir = scratch_dir("cli_stall");
  const std::string reference = sweep_reference_json(dir);
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 3 --dir " + dir +
                                      "/session --inject-stall 5:1 "
                                      "--watchdog-seconds 2 --backoff-ms 20 "
                                      "--format json",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  EXPECT_NE(farm.err.find("watchdog"), std::string::npos) << farm.err;
  EXPECT_EQ(farm.out, reference);
}

TEST(MergeCli, AcceptsASessionDirectory) {
  const std::string dir = scratch_dir("merge_dir");
  const std::string reference = sweep_reference_json(dir);
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 3 --dir " + dir + "/session",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  const auto merged = run_cli_split("merge " + dir + "/session --format json",
                                    dir, "merged");
  ASSERT_EQ(merged.exit_code, 0) << merged.err;
  EXPECT_EQ(merged.out, reference);
}

TEST(MergeCli, TopologySweepIsThreadFreeAndMergesFromThreeShards) {
  // Graph load layer end to end: the ring and grid cells' CSV is the same
  // at 1 and 8 threads, and three --shard slices merge back to the
  // one-process JSON document byte for byte.
  const std::string dir = scratch_dir("merge_topology");
  const std::string args =
      "sweep --users 4,6,9 --channels 4 --radios 1,2 --rates powerlaw=1 "
      "--scenario \"base;topology=ring:1;topology=grid:3x3:1\" "
      "--replicates 3 --seed 7";
  const auto one = run_cli_split(args + " --threads 1 --format csv", dir,
                                 "threads1");
  const auto eight = run_cli_split(args + " --threads 8 --format csv", dir,
                                   "threads8");
  ASSERT_EQ(one.exit_code, 0) << one.err;
  ASSERT_EQ(eight.exit_code, 0) << eight.err;
  EXPECT_EQ(one.out, eight.out);
  EXPECT_NE(one.out.find("topology=ring:1"), std::string::npos);
  EXPECT_NE(one.out.find("coloring_bound_mean"), std::string::npos);

  const auto full = run_cli_split(args + " --format json", dir, "full");
  ASSERT_EQ(full.exit_code, 0) << full.err;
  std::string shards;
  for (int i = 0; i < 3; ++i) {
    const std::string label = "shard" + std::to_string(i);
    const auto part = run_cli_split(
        args + " --format json --shard " + std::to_string(i) + "/3", dir,
        label);
    ASSERT_EQ(part.exit_code, 0) << part.err;
    shards += " " + dir + "/" + label + ".out";  // run_cli_split's stdout
  }
  const auto merged =
      run_cli_split("merge" + shards + " --format json", dir, "merged");
  ASSERT_EQ(merged.exit_code, 0) << merged.err;
  EXPECT_EQ(merged.out, full.out);
}

TEST(MergeCli, RejectsATornArtifactNamingIt) {
  const std::string dir = scratch_dir("merge_torn");
  sweep_reference_json(dir);
  const auto farm = run_cli_split(std::string("farm ") + kGrid +
                                      " --shards 2 --dir " + dir + "/session",
                                  dir, "farm");
  ASSERT_EQ(farm.exit_code, 0) << farm.err;
  // Tear one artifact in half — as if a writer died without the atomic
  // rename protocol.
  std::string victim;
  for (const auto& entry : fs::directory_iterator(dir + "/session")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("cells_", 0) == 0 && entry.path().extension() == ".json") {
      victim = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  const std::string full = read_file(victim);
  write_file(victim, full.substr(0, full.size() / 2));

  const auto merged = run_cli("merge " + dir + "/session");
  EXPECT_EQ(merged.exit_code, 2);
  EXPECT_NE(merged.output.find(victim), std::string::npos) << merged.output;
}

TEST(MergeCli, FingerprintMismatchNamesBothFiles) {
  const std::string dir = scratch_dir("merge_foreign");
  const SweepPlan plan = SweepPlan::build(farm_spec());
  SweepSpec foreign_spec = farm_spec();
  foreign_spec.base_seed = 9999;
  const SweepPlan foreign = SweepPlan::build(foreign_spec);
  const std::string a = dir + "/a.json";
  const std::string b = dir + "/b.json";
  write_file(a, engine::sweep_to_json(run_range(plan.slice(0, 2))));
  write_file(b, engine::sweep_to_json(run_range(foreign.slice(2, 4))));

  const auto merged = run_cli("merge " + a + " " + b);
  EXPECT_EQ(merged.exit_code, 2);
  EXPECT_NE(merged.output.find("fingerprint"), std::string::npos)
      << merged.output;
  EXPECT_NE(merged.output.find(a), std::string::npos) << merged.output;
  EXPECT_NE(merged.output.find(b), std::string::npos) << merged.output;
}

TEST(MergeCli, RejectsHandEditedDocumentsNamingTheField) {
  const std::string dir = scratch_dir("merge_edited");
  const std::string json = engine::sweep_to_json(
      run_range(SweepPlan::build(farm_spec()).slice(0, 2)));
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"radios", "4294967297"},
           {"metric_columns", "\"x\""},
           {"cells_total", "1e300"}}) {
    const std::string path = dir + "/" + key + ".json";
    write_file(path, mrca::testing::with_json_value(json, key, value));
    const auto merged = run_cli("merge " + path);
    EXPECT_EQ(merged.exit_code, 2) << key;
    EXPECT_NE(merged.output.find(path), std::string::npos) << merged.output;
    EXPECT_NE(merged.output.find("'" + key + "'"), std::string::npos)
        << merged.output;
  }
}

TEST(FarmCli, ResumeRejectsMalformedManifestsNamingThem) {
  const std::string dir = scratch_dir("resume_manifest");
  const std::string manifest = dir + "/farm.json";
  // A negative shard count (it used to run until killed), a fractional
  // one (it used to truncate), and a non-string sweep flag (it used to
  // surface as an unnamed usage error).
  for (const std::string text :
       {"{\"fingerprint\":\"x\",\"cells_total\":4,\"shards\":-1,"
        "\"sweep_args\":[\"--users\",\"3\"]}",
        "{\"fingerprint\":\"x\",\"cells_total\":4,\"shards\":2.5,"
        "\"sweep_args\":[\"--users\",\"3\"]}",
        "{\"fingerprint\":\"x\",\"cells_total\":4,\"shards\":0,"
        "\"sweep_args\":[\"--users\",\"3\"]}",
        "{\"fingerprint\":\"x\",\"cells_total\":4,\"shards\":2,"
        "\"sweep_args\":[\"--users\",3]}"}) {
    write_file(manifest, text);
    const auto result = run_cli("farm --resume --dir " + dir);
    EXPECT_EQ(result.exit_code, 2) << text;
    EXPECT_NE(result.output.find("manifest '" + manifest + "' is malformed"),
              std::string::npos)
        << text << ": " << result.output;
  }
}

TEST(FarmCli, RejectsFarmManagedSweepFlags) {
  for (const std::string flag :
       {"--shard 0/2", "--cells 0:2", "--progress", "--progress-json",
        "--records out.jsonl --resume"}) {
    // --records is farm-owned but legal as a FARM flag; combined with
    // --resume it must not be forwarded — the rejection under test here is
    // the sweep-flag passthrough of the first four.
    if (flag.rfind("--records", 0) == 0) continue;
    const auto result = run_cli("farm " + flag + " --shards 2");
    EXPECT_EQ(result.exit_code, 2) << flag;
    EXPECT_NE(result.output.find("managed by mrca farm"), std::string::npos)
        << result.output;
  }
}

TEST(SweepCli, CellsSliceMatchesTheShardSeam) {
  const std::string dir = scratch_dir("cells_flag");
  // --cells with --shard is contradictory.
  const auto both = run_cli(std::string("sweep ") + kGrid +
                            " --shard 0/2 --cells 0:2");
  EXPECT_EQ(both.exit_code, 2);
  EXPECT_NE(both.output.find("mutually exclusive"), std::string::npos);
  // Out-of-bounds ranges are rejected with the plan size in the message.
  const auto oob = run_cli(std::string("sweep ") + kGrid + " --cells 0:999");
  EXPECT_EQ(oob.exit_code, 2);
  // A slice equals the shard covering the same range.
  const auto by_shard = run_cli_split(std::string("sweep ") + kGrid +
                                          " --shard 0/2 --format json",
                                      dir, "shard");
  ASSERT_EQ(by_shard.exit_code, 0) << by_shard.err;
  // Mirror kGrid (default rate/scenario axes), not the wider farm_spec().
  SweepSpec cli_spec = farm_spec();
  cli_spec.rates = {RateSpec{}};
  cli_spec.scenarios = {ScenarioSpec{}};
  const SweepPlan plan = SweepPlan::build(cli_spec);
  const SweepPlan half = plan.shard(0, 2);
  const auto by_cells = run_cli_split(
      std::string("sweep ") + kGrid + " --cells " +
          std::to_string(half.cell_begin()) + ":" +
          std::to_string(half.cell_end()) + " --format json",
      dir, "cells");
  ASSERT_EQ(by_cells.exit_code, 0) << by_cells.err;
  EXPECT_EQ(by_cells.out, by_shard.out);
}

TEST(SweepCli, ProgressJsonStderrIsStrictJson) {
  const std::string dir = scratch_dir("progress_json");
  const auto result = run_cli_split(std::string("sweep ") + kGrid +
                                        " --progress-json --format json",
                                    dir, "sweep");
  ASSERT_EQ(result.exit_code, 0) << result.err;
  std::istringstream lines(result.err);
  std::string line;
  std::size_t json_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string why;
    EXPECT_TRUE(is_strict_json(line, &why)) << why << ": " << line;
    ++json_lines;
  }
  EXPECT_GE(json_lines, 1u);
}

TEST(FarmCli, ResumeRejectsExplicitSweepFlags) {
  const std::string dir = scratch_dir("resume_flags");
  const auto result =
      run_cli("farm --resume --dir " + dir + " --users 3 --shards 2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--resume"), std::string::npos)
      << result.output;
}

TEST(CliGates, NewSweepFlagsAreRejectedOutsideSweep) {
  for (const std::string flag : {"--cells", "--progress-json"}) {
    const auto result = run_cli("solve 4 4 2 " + flag + " 0:2");
    EXPECT_EQ(result.exit_code, 2) << flag;
    // The error line (the usage text after it names every flag) names both
    // the flag and the command.
    const std::string error =
        result.output.substr(0, result.output.find('\n'));
    EXPECT_NE(error.find(flag), std::string::npos) << error;
    EXPECT_NE(error.find("solve command"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace mrca
