// End-to-end tests of the mrca CLI binary: checked numeric-flag parsing
// (malformed values must name the flag and exit non-zero), the unified
// rate-spec language, golden strict-JSON output of `mrca sweep`,
// byte-exact goldens of the single-game commands, and the paper's
// experiments (experiments/*.args) pinned against their outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_harness.h"
#include "strict_json.h"

namespace {

using mrca::testing::CliResult;
using mrca::testing::run_cli;

/// The error line a rejected command line prints before the usage text
/// (which names every flag and command, so only this line can be checked).
std::string first_line(const std::string& output) {
  return output.substr(0, output.find('\n'));
}

TEST(CliNumericParsing, RejectsNonNumericAxisValue) {
  const CliResult result = run_cli("sweep --users abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--users"), std::string::npos);
  EXPECT_NE(result.output.find("abc"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNegativePositionalUserCount) {
  // Before the checked parsers, atoi turned "-3" into a huge size_t via the
  // static_cast; now it must be rejected up front.
  const CliResult result = run_cli("solve -3 4 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("'-3'"), std::string::npos);
}

TEST(CliNumericParsing, RejectsTrailingJunkInSeed) {
  // dynamics reads --seed (solve rejects it before reading the value).
  const CliResult result = run_cli("dynamics 4 4 1 --seed 12x");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seed"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNonNumericSeconds) {
  const CliResult result = run_cli("simulate 2 2 1 --seconds abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seconds"), std::string::npos);
}

TEST(CliNumericParsing, RejectsFractionalAxisEntry) {
  const CliResult result = run_cli("sweep --channels 4.8");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--channels"), std::string::npos);
}

TEST(CliNumericParsing, RejectsZeroReplicatesNamingTheFlag) {
  const CliResult replicates = run_cli("sweep --replicates 0");
  EXPECT_EQ(replicates.exit_code, 2);
  EXPECT_NE(replicates.output.find("--replicates"), std::string::npos);

  const CliResult sim_replicates = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim tdma "
      "--sim-replicates 0");
  EXPECT_EQ(sim_replicates.exit_code, 2);
  EXPECT_NE(sim_replicates.output.find("--sim-replicates"),
            std::string::npos);
}

TEST(CliNumericParsing, RejectsSimTuningFlagsWithoutSim) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim-seconds 5");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--sim"), std::string::npos);
}

TEST(CliNumericParsing, RejectsNonPositiveSimSeconds) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim tdma --sim-seconds 0");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--sim-seconds"), std::string::npos);
}

TEST(CliNumericParsing, RejectsRadioTotalsPastTheRadioCountRange) {
  // 10^6 users x 3000 radios = 3e9 radios: each flag is within its limit,
  // but the total must be named (it used to wrap negative and surface as a
  // rate-table error). Rejected before any game state is built.
  for (const std::string command :
       {"sweep --users 1000000 --channels 3000 --radios 3000 --format csv",
        "solve 1000000 3000 3000"}) {
    const CliResult result = run_cli(command);
    EXPECT_EQ(result.exit_code, 2) << command;
    EXPECT_NE(result.output.find("total radio count 3000000000"),
              std::string::npos)
        << command << ": " << result.output;
  }
}

TEST(CliNumericParsing, EmptyListItemExits2NamingTheFlag) {
  // A trailing or doubled separator in every list flag must be rejected,
  // never read as the list without its empty item.
  const std::pair<const char*, const char*> cases[] = {
      {"--users", "4,"},
      {"--users", "4,,8"},
      {"--channels", "4,"},
      {"--channels", "4,,8"},
      {"--radios", "2,"},
      {"--radios", "2,,1"},
      {"--rates", "tdma,"},
      {"--rates", "tdma,,powerlaw=1"},
      {"--scenario", "energy=0.1,"},
      {"--scenario", "energy=0.1,,0.2"},
      {"--scenario", "base;"},
      {"--scenario", "base;;energy=0.1"},
      {"--dynamics", "best_response,"},
      {"--dynamics", "best_response,,trial_error"},
      {"--metrics", "nash,"},
      {"--metrics", "nash,,poa"},
      {"--granularity", "best,"},
      {"--granularity", "best,,single"},
      {"--order", "rr,"},
      {"--order", "rr,,random"},
      {"--start", "ne,"},
      {"--start", "ne,,empty"},
  };
  for (const auto& [flag, value] : cases) {
    const std::string command =
        std::string("sweep ") + flag + " '" + value + "'";
    const CliResult result = run_cli(command);
    EXPECT_EQ(result.exit_code, 2) << command;
    EXPECT_NE(first_line(result.output).find(flag), std::string::npos)
        << command << ": " << first_line(result.output);
  }
  // verify's matrix: an empty cell or row is rejected, not dropped.
  for (const char* matrix : {"1,0|0,1|", "1,0,|0,1"}) {
    EXPECT_EQ(run_cli(std::string("verify 2 2 1 '") + matrix + "'").exit_code,
              2)
        << matrix;
  }
}

TEST(CliRateSpecs, SingleGameCommandsAcceptTheSweepLanguage) {
  // geom=/linear= used to be sweep-only; both parsers are now one.
  EXPECT_EQ(run_cli("solve 4 4 1 --rate geom=0.9").exit_code, 0);
  EXPECT_EQ(run_cli("solve 4 4 1 --rate linear=0.1").exit_code, 0);
}

// The single-game commands (solve / verify / dynamics / simulate) print
// reports a user reads directly; their stdout and exit codes are pinned
// byte for byte against tests/golden/cli/<name>.txt.
struct CliGolden {
  const char* name;
  const char* args;
  int exit_code;
};

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(MRCA_CLI_GOLDEN_DIR) + "/" + name + ".txt",
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CliGoldenReports, SingleGameCommandsMatchByteForByte) {
  const CliGolden goldens[] = {
      {"solve_tdma", "solve 4 6 4", 0},
      {"solve_powerlaw", "solve 5 4 2 --rate powerlaw=1", 0},
      {"solve_dcf", "solve 6 3 2 --rate dcf", 0},
      {"verify_not_nash",
       "verify 4 3 2 \"2,0,0|1,1,0|0,1,1|0,0,2\" --rate powerlaw=1", 1},
      {"verify_nash", "verify 2 3 2 \"1,1,0|0,1,1\" --rate powerlaw=1", 0},
      {"dynamics_tdma", "dynamics 4 3 2 --seed 7", 0},
      {"dynamics_powerlaw", "dynamics 5 4 2 --rate powerlaw=1 --seed 3", 0},
      {"dynamics_dcf", "dynamics 6 4 2 --rate dcf --seed 2", 0},
      {"simulate_tdma", "simulate 3 2 1 --rate tdma --seconds 0.5 --seed 4",
       0},
      {"simulate_dcf", "simulate 4 3 1 --rate dcf --seconds 0.5 --seed 4", 0},
  };
  for (const CliGolden& golden : goldens) {
    const std::string expected = read_golden(golden.name);
    ASSERT_FALSE(expected.empty()) << "missing golden " << golden.name;
    const CliResult result = run_cli(golden.args);
    EXPECT_EQ(result.exit_code, golden.exit_code) << golden.args;
    EXPECT_EQ(result.output, expected) << golden.args;
  }
}

// `mrca help` writes the usage text to stderr (stdout stays empty) and
// exits 0; the text is pinned byte for byte so every change to a command's
// synopsis shows as a diff of tests/golden/cli/usage.txt.
TEST(CliGoldenReports, UsageMatchesByteForByte) {
  const std::string expected = read_golden("usage");
  ASSERT_FALSE(expected.empty()) << "missing golden usage";
  const CliResult result = run_cli("help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `sweep <args> --format json --records <tmp>` and pins both the
/// JSON document and the JSONL record stream against
/// tests/golden/cli/<name>_json.txt and <name>_jsonl.txt.
void expect_json_and_records_golden(const std::string& name,
                                    const std::string& args) {
  const std::string json_golden = read_golden(name + "_json");
  const std::string jsonl_golden = read_golden(name + "_jsonl");
  ASSERT_FALSE(json_golden.empty()) << "missing golden " << name << "_json";
  ASSERT_FALSE(jsonl_golden.empty()) << "missing golden " << name << "_jsonl";
  const std::string records =
      ::testing::TempDir() + "mrca_cli_golden_" + name + ".jsonl";
  const CliResult result =
      run_cli("sweep " + args + " --format json --records " + records);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, json_golden);
  EXPECT_EQ(read_file(records), jsonl_golden);
}

// The sweep's per-run record statistics (welfare, fairness,
// budget_fairness, per_radio_spread, coloring_bound, graph_efficiency)
// reach the CSV as cell means; pinning one small sweep over topology,
// weighted, energy and budget cells holds every record column to the
// bytes it had, not merely to itself across thread counts.
constexpr const char* kSweepRecordsArgs =
    "--users 4,9 --channels 4 --radios 1,2 "
    "--rates powerlaw=1,geom=0.9 "
    "--scenario \"base;topology=ring:1;topology=grid:3x3:1;weights=2:1;"
    "energy=0.2;budgets=1:3\" "
    "--metrics nash,poa --replicates 2 --seed 7";

TEST(CliGoldenReports, SweepRecordColumnsMatchByteForByte) {
  const std::string expected = read_golden("sweep_records");
  ASSERT_FALSE(expected.empty()) << "missing golden sweep_records";
  const CliResult result =
      run_cli(std::string("sweep ") + kSweepRecordsArgs + " --format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

// The same sweep's JSON document (every stats object: count, mean,
// stddev, m2, min, max) and its per-run JSONL stream, byte for byte.
TEST(CliGoldenReports, SweepRecordJsonAndRecordStreamMatchByteForByte) {
  expect_json_and_records_golden("sweep_records", kSweepRecordsArgs);
}

// Every dynamics engine's trajectory reaches the CSV through its counts
// (activations, improving steps, scan skips, reprice touches) and its end
// state (welfare, regret); one small sweep over all four engines, both
// rate families and the energy/budget/topology scenarios pins them byte
// for byte, so an engine or cache change that moves one trajectory shows.
TEST(CliGoldenReports, EngineSweepMatchesByteForByte) {
  const std::string expected = read_golden("sweep_engines");
  ASSERT_FALSE(expected.empty()) << "missing golden sweep_engines";
  const CliResult result = run_cli(
      "sweep --users 64 --channels 6 --radios 2 --rates powerlaw=1,tdma "
      "--dynamics best_response,log_linear:1e-3:1e-7,trial_error:0.2,"
      "distributed:0.05 "
      "--scenario \"base;energy=0.2;budgets=1:3;topology=ring:2\" "
      "--granularity best,single --metrics regret --max-activations 40000 "
      "--replicates 2 --seed 1 --format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

// The convergence metric's eps_ne_time column on every path it takes: the
// round-robin best-response runs that converged within the 12-activation
// budget read their own trajectory, while the unconverged ones, the other
// granularity, the random order and the other three engines replay
// best-response play from the run's start.
TEST(CliGoldenReports, ConvergenceSweepMatchesByteForByte) {
  const std::string expected = read_golden("sweep_convergence");
  ASSERT_FALSE(expected.empty()) << "missing golden sweep_convergence";
  const CliResult result = run_cli(
      "sweep --users 7 --channels 4 --radios 2 --rates powerlaw=1 "
      "--dynamics best_response,log_linear,trial_error,distributed "
      "--granularity best,single --order rr,random --start empty,random,ne "
      "--scenario \"base;energy=0.2;het=2:1;budgets=1:2;weights=2:1;"
      "topology=ring:1\" "
      "--metrics convergence,nash --max-activations 12 --replicates 2 "
      "--seed 3 --format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

// The `distributed` metric replays the §3 protocol from each run's start
// with its fixed 10,000-round budget; its three columns, next to the
// distributed engine's own counts under a 300-activation budget, are
// pinned over the budget, energy, heterogeneous and ring scenarios.
TEST(CliGoldenReports, DistributedSweepMatchesByteForByte) {
  const std::string expected = read_golden("sweep_distributed");
  ASSERT_FALSE(expected.empty()) << "missing golden sweep_distributed";
  const CliResult result = run_cli(
      "sweep --users 3,5,8 --channels 3,4 --radios 1,2 "
      "--scenario \"base;energy=0.2;het=2:1;budgets=1:2;topology=ring:1\" "
      "--dynamics best_response,distributed:1 --max-activations 300 "
      "--metrics distributed,nash --replicates 2 --seed 5 --format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

// The `single_move` metric's column under every engine, on the base game,
// an interference ring and an energy price. The 16-activation budget stops
// some learner runs short of stability, so both verdicts are pinned.
TEST(CliGoldenReports, SingleMoveSweepMatchesByteForByte) {
  const std::string expected = read_golden("sweep_single_move");
  ASSERT_FALSE(expected.empty()) << "missing golden sweep_single_move";
  const CliResult result = run_cli(
      "sweep --users 4,7 --channels 3,4 --radios 2 --rates powerlaw=1 "
      "--dynamics best_response,log_linear,trial_error,distributed "
      "--scenario \"base;topology=ring:2;energy=0.2\" "
      "--metrics single_move,nash --max-activations 16 --replicates 2 "
      "--seed 11 --format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, expected);
}

// Each figure or claim of the paper is one `mrca` command line in
// experiments/<name>.args, pinned byte for byte (with its exit code) by
// experiments/<name>.txt. This table and the .args files must name the
// same set, so no experiment goes unrun.
struct PaperExperiment {
  const char* name;
  int exit_code;
};

constexpr PaperExperiment kPaperExperiments[] = {
    {"fig3_rate_models", 0},  {"fig3_dcf_sim", 0},
    {"tdma_sim", 0},          {"algorithm1", 0},
    {"fig4_exception", 0},    {"fig5_no_exception", 0},
    {"theorem1_gap", 1},      {"poa", 0},
    {"convergence_async", 0}, {"convergence_distributed", 0},
    {"convergence_scale", 0}, {"het_channels", 0},
    {"energy", 0},            {"end_to_end", 0},
};

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> fields;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, separator)) fields.push_back(field);
  return fields;
}

/// The verification gate of a sweep experiment: in a CSV with a
/// `nash_ne_mean` column, every cell's runs all ended in a verified NE.
void expect_every_cell_is_nash(const std::string& name,
                               const std::string& output) {
  const std::vector<std::string> lines = split(output, '\n');
  if (lines.empty()) return;
  const std::vector<std::string> header = split(lines.front(), ',');
  const auto column = std::find(header.begin(), header.end(), "nash_ne_mean");
  if (column == header.end()) return;
  const auto index = static_cast<std::size_t>(column - header.begin());
  for (std::size_t row = 1; row < lines.size(); ++row) {
    const std::vector<std::string> fields = split(lines[row], ',');
    ASSERT_EQ(fields.size(), header.size()) << name << " row " << row;
    EXPECT_EQ(fields[index], "1") << name << " row " << row;
  }
}

TEST(PaperExperiments, MatchTheirGoldensByteForByte) {
  std::set<std::string> listed;
  for (const PaperExperiment& experiment : kPaperExperiments) {
    listed.insert(experiment.name);
  }
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(MRCA_EXPERIMENTS_DIR)) {
    if (entry.path().extension() == ".args") {
      on_disk.insert(entry.path().stem().string());
    }
  }
  EXPECT_EQ(listed, on_disk);

  const std::string dir = std::string(MRCA_EXPERIMENTS_DIR) + "/";
  for (const PaperExperiment& experiment : kPaperExperiments) {
    const std::string name = experiment.name;
    std::string args = read_file(dir + name + ".args");
    if (!args.empty() && args.back() == '\n') args.pop_back();
    const std::string expected = read_file(dir + name + ".txt");
    ASSERT_FALSE(args.empty()) << "missing " << name << ".args";
    ASSERT_FALSE(expected.empty()) << "missing " << name << ".txt";
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, experiment.exit_code) << name;
    EXPECT_EQ(result.output, expected) << name;
    expect_every_cell_is_nash(name, result.output);
    if (name == "theorem1_gap") {
      // The smallest matrix the printed Theorem 1 accepts that is not a
      // Nash equilibrium (README "Reproduction findings").
      EXPECT_NE(result.output.find("Theorem 1 predicate:   satisfied"),
                std::string::npos);
      EXPECT_NE(result.output.find("NOT an equilibrium"), std::string::npos);
    }
  }
}

TEST(CliRateSpecs, SweepAcceptsTheBianchiTables) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --rates dcf,dcf-opt "
      "--format csv");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("dcf-opt"), std::string::npos);
}

// The DCF rates are strict tables sized to N*k radios. A single-move scan
// must not price a radio onto a channel that already holds every radio
// (nothing can move or deploy there), so these valid small cells exit 0.
class CliStrictRateTables : public ::testing::TestWithParam<const char*> {};

TEST_P(CliStrictRateTables, SmallCellsExit0) {
  const CliResult result = run_cli(GetParam());
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

INSTANTIATE_TEST_SUITE_P(
    SingleMoveScans, CliStrictRateTables,
    ::testing::Values(
        "sweep --users 2 --channels 2 --radios 1 --rates dcf "
        "--granularity single",
        "sweep --users 2 --channels 1 --radios 1 --rates dcf "
        "--granularity single",
        "sweep --users 3 --channels 2 --radios 1 --rates dcf-opt "
        "--granularity single",
        "sweep --users 2 --channels 2 --radios 1 --rates dcf "
        "--dynamics trial_error,log_linear,distributed",
        "verify 2 1 1 \"1|1\" --rate dcf"));

TEST(CliRateSpecs, UnknownRateIsRejectedEverywhere) {
  EXPECT_EQ(run_cli("solve 4 4 1 --rate bogus").exit_code, 2);
  EXPECT_EQ(run_cli("sweep --rates bogus").exit_code, 2);
}

TEST(CliRateSpecs, RejectsUnknownSimMac) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --sim csma");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("csma"), std::string::npos);

  // simulate replays the rate spec's MAC through the DES, which models
  // tdma and dcf only: any other spec names --rate before printing.
  for (const char* rate : {"powerlaw=1", "geom=0.9", "linear=0.1", "dcf-opt"}) {
    const CliResult sim =
        run_cli(std::string("simulate 4 2 1 --rate ") + rate);
    EXPECT_EQ(sim.exit_code, 2) << rate;
    EXPECT_NE(first_line(sim.output).find("--rate"), std::string::npos)
        << sim.output;
    EXPECT_NE(first_line(sim.output).find(rate), std::string::npos)
        << sim.output;
    EXPECT_EQ(sim.output.find("equilibrium allocation"), std::string::npos)
        << sim.output;
  }
}

TEST(CliGoldenJson, SweepOutputIsStrictJson) {
  const CliResult result = run_cli(
      "sweep --users 3,4 --channels 3 --radios 1,2 "
      "--rates tdma,powerlaw=1 --replicates 2 --seed 5 --format json");
  ASSERT_EQ(result.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
}

TEST(CliGoldenJson, SimTierOutputIsStrictJson) {
  const std::string args =
      "--users 3 --channels 3 --radios 1 --sim tdma --sim-seconds 0.2 "
      "--seed 5";
  const CliResult result = run_cli("sweep " + args + " --format json");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("\"sim_gap\""), std::string::npos);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
  // The sim-tier stats and per-replay JSONL objects, byte for byte.
  expect_json_and_records_golden("sweep_sim", args);
}

TEST(CliMetrics, UnknownMetricNamesTheFlagAndExits2) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --metrics garbage");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--metrics"), std::string::npos);
  EXPECT_NE(result.output.find("garbage"), std::string::npos);
  // The error teaches the registry.
  EXPECT_NE(result.output.find("welfare_eff"), std::string::npos);
}

TEST(CliMetrics, MetricColumnsAppearInCsvAndStayStrictInJson) {
  const std::string common =
      "sweep --users 3,4 --channels 3 --radios 1 "
      "--scenario \"energy=0.1,0.3\" --metrics nash,poa,welfare_eff,theorem1 "
      "--replicates 2 --seed 11";
  const CliResult csv = run_cli(common + " --format csv");
  ASSERT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.output.find("nash_ne_mean"), std::string::npos);
  EXPECT_NE(csv.output.find("poa_mean"), std::string::npos);
  EXPECT_NE(csv.output.find("theorem1_predicts_nash_mean"),
            std::string::npos);
  EXPECT_NE(csv.output.find("theorem1_exact_fallback_mean"),
            std::string::npos);
  const CliResult json = run_cli(common + " --format json");
  ASSERT_EQ(json.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(json.output, &why)) << why;
  EXPECT_NE(json.output.find("\"metrics\":{"), std::string::npos);
  const CliResult table = run_cli(common + " --format table");
  ASSERT_EQ(table.exit_code, 0);
  EXPECT_NE(table.output.find("nash_ne"), std::string::npos);
}

TEST(CliMetrics, MetricsCsvIsIdenticalAcrossThreadCounts) {
  // The acceptance criterion, end to end through the real binary: metric
  // columns over a scenario sweep, byte-identical at any thread count.
  const std::string common =
      "sweep --users 3,4 --channels 3 --radios 1 "
      "--scenario \"energy=0.1,0.3;het=2:1;budgets=1:2\" "
      "--metrics nash,poa,welfare_eff,theorem1,distributed "
      "--replicates 2 --seed 11 --format csv";
  const CliResult one = run_cli(common + " --threads 1");
  const CliResult eight = run_cli(common + " --threads 8");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

// The engine axis (--dynamics): the default collapses to best response, so
// sweeps without the flag are untouched, and every learner's records are a
// pure function of the task coordinates.
constexpr const char* kDynamicsArgs =
    "sweep --users 4,6 --channels 3,4 --radios 1,2 --rates powerlaw=1 "
    "--replicates 3 --seed 7 --format csv";

TEST(CliDynamics, DefaultAxisEqualsExplicitBestResponse) {
  const std::string common = kDynamicsArgs;
  const CliResult implicit = run_cli(common);
  const CliResult explicit_axis = run_cli(common + " --dynamics best_response");
  ASSERT_EQ(implicit.exit_code, 0);
  ASSERT_EQ(explicit_axis.exit_code, 0);
  EXPECT_EQ(implicit.output, explicit_axis.output);
}

TEST(CliDynamics, EveryEngineIsIdenticalAcrossThreadCounts) {
  for (const char* engine :
       {"log_linear:0.2:0.01", "trial_error:0.3", "distributed:0.3"}) {
    const std::string common = std::string(kDynamicsArgs) + " --dynamics " +
                               engine + " --metrics regret,occupancy_entropy";
    const CliResult one = run_cli(common + " --threads 1");
    const CliResult eight = run_cli(common + " --threads 8");
    ASSERT_EQ(one.exit_code, 0) << engine;
    ASSERT_EQ(eight.exit_code, 0) << engine;
    EXPECT_EQ(one.output, eight.output) << engine;
    EXPECT_NE(one.output.find(engine), std::string::npos) << engine;
    EXPECT_NE(one.output.find("regret_mean"), std::string::npos) << engine;
  }
}

TEST(CliDynamics, UnknownEngineNamesTheFlagAndExits2) {
  const CliResult result = run_cli("sweep --dynamics warp_drive");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--dynamics"), std::string::npos);
}

TEST(CliSharding, RejectsMalformedShardFlagsNamingTheFlag) {
  for (const char* shard : {"x", "1", "2/2", "3/2", "1/0", "a/b"}) {
    const CliResult result = run_cli(
        std::string("sweep --users 3 --channels 3 --radios 1 --shard ") +
        shard);
    EXPECT_EQ(result.exit_code, 2) << shard;
    EXPECT_NE(result.output.find("--shard"), std::string::npos) << shard;
  }
}

TEST(CliSharding, ShardOutputIsStrictJsonWithTheSpecHeader) {
  const CliResult result = run_cli(
      "sweep --users 3,4 --channels 3 --radios 1 --replicates 2 --seed 5 "
      "--shard 0/2 --format json");
  ASSERT_EQ(result.exit_code, 0);
  std::string why;
  EXPECT_TRUE(mrca::testing::is_strict_json(result.output, &why)) << why;
  EXPECT_NE(result.output.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(result.output.find("\"cell_begin\":0"), std::string::npos);
}

TEST(CliRecords, WritesOneStrictJsonLinePerRun) {
  const std::string path = ::testing::TempDir() + "mrca_cli_records.jsonl";
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 --replicates 3 --seed 5 "
      "--records " + path + " --format csv");
  ASSERT_EQ(result.exit_code, 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string why;
    EXPECT_TRUE(mrca::testing::is_strict_json(line, &why)) << why;
  }
  EXPECT_EQ(lines, 3u);  // 1 cell x 3 replicates
}

TEST(CliSessionFlags, RejectedOutsideSweepNamingTheFlags) {
  // Sweep-only flags must be rejected — not silently ignored — elsewhere,
  // and the error names both the flag and the command.
  struct Case {
    const char* args;
    const char* flag;
    const char* command;
  };
  for (const Case& c :
       {Case{"merge a.json b.json --records out.jsonl", "--records", "merge"},
        Case{"simulate 4 3 1 --shard 0/2", "--shard", "simulate"},
        Case{"solve 4 3 1 --progress", "--progress", "solve"}}) {
    const CliResult result = run_cli(c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args;
    const std::string error = first_line(result.output);
    EXPECT_NE(error.find(c.flag), std::string::npos) << error;
    EXPECT_NE(error.find(std::string(c.command) + " command"),
              std::string::npos)
        << error;
  }
}

TEST(CliRecords, UnwritablePathExits2NamingTheFlag) {
  const CliResult result = run_cli(
      "sweep --users 3 --channels 3 --radios 1 "
      "--records /nonexistent-dir/records.jsonl");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--records"), std::string::npos);
}

// A sweep's output is a pure function of its flags: 1 and 8 worker threads
// write the same bytes. A `records` case compares the --records JSONL
// stream instead of stdout and pins its line count (one row per run).
struct ThreadFreeCase {
  const char* name;
  const char* args;
  bool records;
  std::size_t lines;
  std::vector<std::string> must_contain;
};

TEST(CliDeterminism, SweepOutputIsIdenticalAcrossThreadCounts) {
  const ThreadFreeCase cases[] = {
      {"rates",
       "--users 4,6 --channels 3,4 --radios 1,2 --rates tdma,powerlaw=1 "
       "--replicates 3 --seed 7 --format csv",
       false, 0, {"powerlaw"}},
      {"sim_tier",
       "--users 3,4 --channels 3 --radios 1 --rates dcf --replicates 2 "
       "--sim dcf --sim-seconds 0.1 --seed 11 --format csv",
       false, 0, {"sim_gap"}},
      {"scenario",
       "--users 4,6 --channels 3,4 --radios 1,2 "
       "--scenario \"base;energy=0.2,0.5;het=2:1;budgets=1:3\" "
       "--replicates 3 --seed 7 --format csv",
       false, 0, {"energy=0.5", "budgets=1:3"}},
      // 8 cells x 3 replicates, one self-describing row per run.
      {"records",
       "--users 4,6 --channels 3,4 --radios 1,2 --metrics nash "
       "--replicates 3 --seed 7 --format csv",
       true, 24, {"\"seed\":"}},
  };
  for (const ThreadFreeCase& c : cases) {
    std::string outputs[2];
    for (const int threads : {1, 8}) {
      const std::string records = ::testing::TempDir() + "mrca_threads_" +
                                  c.name + std::to_string(threads) + ".jsonl";
      std::string args = std::string("sweep ") + c.args + " --threads " +
                         std::to_string(threads);
      if (c.records) args += " --records " + records;
      const CliResult result = run_cli(args);
      ASSERT_EQ(result.exit_code, 0) << c.name << ": " << result.output;
      outputs[threads == 1 ? 0 : 1] =
          c.records ? read_file(records) : result.output;
    }
    EXPECT_EQ(outputs[0], outputs[1]) << c.name;
    for (const std::string& text : c.must_contain) {
      EXPECT_NE(outputs[0].find(text), std::string::npos) << c.name << text;
    }
    if (c.records) {
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(outputs[0].begin(), outputs[0].end(), '\n')),
                c.lines)
          << c.name;
    }
  }
}

TEST(CliTopology, MalformedSpecsNameTheFlagAndExit2) {
  // Each malformed topology must be rejected up front (exit 2), name the
  // offending flag, and echo the bad spec so the typo is findable.
  const char* bad[] = {
      "topology=bogus",      // unknown graph family
      "topology=ring:0",     // zero distance
      "topology=ring:9999",  // beyond the 1024 sanity bound
      "topology=grid:3x:1",  // non-square malformed grid
      "topology=grid:3x3",   // missing distance
      "topology=edges:0-0",  // self-loop
      "topology=edges:0",    // not an edge
  };
  for (const char* spec : bad) {
    const CliResult result =
        run_cli(std::string("sweep --users 4 --channels 4 --scenario \"") +
                spec + "\"");
    EXPECT_EQ(result.exit_code, 2) << spec;
    EXPECT_NE(result.output.find("--scenario"), std::string::npos) << spec;
  }
}

TEST(CliTopology, SweepCarriesTheTopologyColumns) {
  const CliResult result = run_cli(
      "sweep --users 6 --channels 4 --radios 2 "
      "--scenario \"topology=ring:1\" --replicates 2 --format csv");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("coloring_bound_mean"), std::string::npos);
  EXPECT_NE(result.output.find("topology=ring:1"), std::string::npos);
}

TEST(CliTopology, CompleteTopologyNormalizesToBase) {
  // topology=complete is the degenerate global-load case; the parser folds
  // it into the base scenario so the cells are LITERALLY base cells.
  const std::string common =
      "sweep --users 4,6 --channels 4 --radios 1,2 --rates tdma,powerlaw=1 "
      "--replicates 2 --seed 5 --format csv --scenario ";
  const CliResult base = run_cli(common + "base");
  const CliResult complete = run_cli(common + "\"topology=complete\"");
  ASSERT_EQ(base.exit_code, 0);
  ASSERT_EQ(complete.exit_code, 0);
  EXPECT_EQ(base.output, complete.output);
}

TEST(CliTopology, TopologyCsvIsIdenticalAcrossThreadCounts) {
  const std::string common =
      "sweep --users 4:8:2 --channels 4 --radios 1,2 --rates powerlaw=1 "
      "--scenario \"base;topology=ring:2;topology=grid:2x2:1\" "
      "--replicates 3 --seed 9 --format csv";
  const CliResult one = run_cli(common + " --threads 1");
  const CliResult eight = run_cli(common + " --threads 8");
  ASSERT_EQ(one.exit_code, 0);
  ASSERT_EQ(eight.exit_code, 0);
  EXPECT_EQ(one.output, eight.output);
}

// The flag table's contract, read back through `mrca help`: each command's
// synopsis lists exactly the flags it acts on, and every other flag given
// to it exits 2 with an error naming the flag and the command — before any
// game is built, so the whole matrix runs in about a second.
struct HelpText {
  std::map<std::string, std::set<std::string>> synopsis;  ///< [--flag] items
  std::vector<std::string> flags;  ///< the `flags:` list, in order
};

HelpText parse_help(const std::string& text) {
  HelpText help;
  std::istringstream lines(text);
  std::string line;
  std::string command;
  bool in_flag_list = false;
  while (std::getline(lines, line)) {
    if (line == "flags:") {
      in_flag_list = true;
    } else if (in_flag_list) {
      if (line.rfind("  --", 0) != 0) break;
      help.flags.push_back(line.substr(2, line.find(' ', 2) - 2));
    } else if (line.rfind("  ", 0) == 0 && line[2] != ' ') {
      command = line.substr(2, line.find(' ', 2) - 2);
      help.synopsis[command];
    } else if (line.rfind("   ", 0) != 0) {
      command.clear();  // not a continuation of a command's block
    }
    if (in_flag_list || command.empty()) continue;
    for (std::size_t at = line.find("[--"); at != std::string::npos;
         at = line.find("[--", at + 1)) {
      const std::size_t end = line.find_first_of(" ]", at + 1);
      help.synopsis[command].insert(line.substr(at + 1, end - at - 1));
    }
  }
  return help;
}

TEST(CliFlags, EveryFlagActsWhereItIsAccepted) {
  const std::set<std::string> grid = {
      "--seed",         "--users",           "--channels",   "--radios",
      "--rates",        "--scenario",        "--dynamics",   "--metrics",
      "--granularity",  "--order",           "--start",      "--replicates",
      "--threads",      "--max-activations", "--sim",        "--sim-seconds",
      "--sim-replicates"};
  std::set<std::string> sweep = grid;
  sweep.insert({"--format", "--records", "--shard", "--cells", "--progress",
                "--progress-json"});
  std::set<std::string> farm = grid;
  farm.insert({"--format", "--records", "--shards", "--dir", "--jobs",
               "--retries", "--backoff-ms", "--backoff-cap-ms",
               "--watchdog-seconds", "--farm-seed", "--subdivide", "--resume",
               "--inject-crash", "--inject-stall"});
  const std::map<std::string, std::set<std::string>> accepts = {
      {"solve", {"--rate"}},
      {"verify", {"--rate"}},
      {"dynamics", {"--rate", "--seed"}},
      {"rates", {"--max-k"}},
      {"simulate", {"--rate", "--seed", "--seconds"}},
      {"sweep", sweep},
      {"merge", {"--format"}},
      {"farm", farm},
  };
  // Positional arguments each command accepts, so only the flag is wrong.
  const std::map<std::string, std::string> operands = {
      {"solve", "4 3 1"},   {"verify", "4 2 1 \"1,0|0,1|1,0|0,1\""},
      {"dynamics", "4 3 1"}, {"rates", ""},
      {"simulate", "4 3 1"}, {"sweep", ""},
      {"merge", "a.json"},   {"farm", ""},
  };

  const CliResult help_run = run_cli("help");
  ASSERT_EQ(help_run.exit_code, 0);
  const HelpText help = parse_help(help_run.output);
  ASSERT_EQ(help.synopsis.size(), accepts.size()) << help_run.output;
  for (const auto& [command, expected] : accepts) {
    EXPECT_EQ(help.synopsis.at(command), expected) << command;
  }

  // The hidden fault hooks a farm passes its children act in sweep only.
  std::vector<std::string> universe = help.flags;
  universe.insert(universe.end(), {"--crash-at-cell", "--stall-at-cell"});
  std::size_t rejected = 0;
  for (const auto& [command, accepted] : accepts) {
    for (const std::string& flag : universe) {
      if (accepted.count(flag) != 0 ||
          (command == "sweep" && flag.find("-at-cell") != std::string::npos)) {
        continue;
      }
      const std::string args =
          command + " " + operands.at(command) + " " + flag + " 1";
      const CliResult result = run_cli(args);
      EXPECT_EQ(result.exit_code, 2) << args;
      const std::string error = first_line(result.output);
      EXPECT_NE(error.find(flag), std::string::npos) << args << ": " << error;
      // farm names the sweep-only flags it manages itself.
      EXPECT_TRUE(error.find("the " + command + " command") !=
                      std::string::npos ||
                  error.find("mrca " + command) != std::string::npos)
          << args << ": " << error;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 200u);

  struct Case {
    const char* args;
    const char* names;  ///< what the error line must name
  };
  const Case explicit_cases[] = {
      // The misses this table closed: each exited 0, the flag ignored.
      {"solve 4 2 1 --users 99 --metrics bogus --sim-seconds 3", "--users"},
      {"rates --dynamics x", "the rates command"},
      {"solve 4 3 1 --seed 2", "the solve command"},
      {"rates --rate tdma", "the rates command"},
      {"sweep --users 3 --rate dcf", "the sweep command"},
      {"sweep --users 3 --rate bogus", "--rate"},
      {"farm --rate tdma --shards 2", "the farm command"},
      {"farm --users 3 --rate bogus", "--rate"},
      // Each command declares its positional arity.
      {"solve 4 3 1 5 6 7", "solve takes N C k"},
      {"solve 4 3 1 5", "solve takes N C k"},
      {"verify 4 2 1 \"1,0|0,1|1,0|0,1\" extra", "verify takes N C k MATRIX"},
      {"verify 4 3 1", "verify takes N C k MATRIX"},
      {"rates 5", "rates takes no positional arguments"},
      {"sweep 5", "sweep takes no positional arguments"},
      {"farm 5", "farm takes no positional arguments"},
      {"merge", "merge takes FILE|DIR..."},
  };
  for (const Case& c : explicit_cases) {
    const CliResult result = run_cli(c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args;
    EXPECT_NE(first_line(result.output).find(c.names), std::string::npos)
        << c.args << ": " << first_line(result.output);
  }
}

}  // namespace
