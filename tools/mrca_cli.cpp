// mrca — command line interface to the channel-allocation library.
//
// Subcommands:
//   solve    N C k [options]          run Algorithm 1, print + verify the NE
//   verify   N C k MATRIX [options]   check a matrix against all 3 layers
//   dynamics N C k [options]          best-response play from a random start
//   rates    [options]                print R(k) tables for the MAC models
//   simulate N C k [options]          NE + packet-level DES validation
//   sweep    [options]                parallel batch experiments over a grid
//   merge    FILE|DIR... [options]    combine sharded sweep JSON outputs
//   farm     [options]                multi-process sweep with crash-resume
//
// Common options:
//   --rate tdma|dcf|dcf-opt|powerlaw=<alpha>    rate function (default tdma)
//   --seed <u64>                                RNG seed (default 1)
//   --seconds <d>                               simulation horizon
//   --max-k <int>                               table size for `rates`
//
// Sweep options (list values as comma lists or lo:hi[:step] ranges):
//   --users / --channels / --radios             grid axes (e.g. 2:40 or 4,8)
//   --rates tdma|powerlaw=<a>|geom=<d>|linear=<s>  comma list
//   --scenario base|energy=<c>|het=<s:..>|budgets=<k:..>|weights=<w:..>
//              |topology=<t>                    scenario axis (',' lists
//                                               values, ';' separates kinds)
//   --dynamics best_response|log_linear[:<T0>[:<Tend>]]
//              |trial_error[:<eps>]|distributed[:<p>]
//                                               dynamics-engine axis
//                                               (comma list)
//   --metrics nash,single_move,theorem1,poa,welfare_eff,pareto,fairness,
//             convergence,distributed,regret,occupancy_entropy
//                                               per-run analysis columns
//   --granularity best|single|random-move       comma list
//   --order rr|random                           comma list
//   --start empty|random|partial|ne             comma list
//   --replicates <n> --threads <n> --format table|csv|json
//   --max-activations <n>
//   --shard <i>/<n>                             run only shard i (0-based)
//                                               of a deterministic n-way
//                                               cell partition; JSON shard
//                                               outputs recombine with
//                                               `mrca merge` into exactly
//                                               the non-sharded output
//   --cells <b>:<e>                             run only the absolute cell
//                                               range [b, e) — the seam the
//                                               farm uses to re-plan exactly
//                                               the missing cells of a
//                                               crashed session
//   --records <path>                            stream one JSONL row per
//                                               finished run to <path>
//                                               (written atomically: .tmp
//                                               sibling, renamed on success)
//   --progress                                  live progress on stderr
//   --progress-json                             one strict-JSON progress
//                                               line per update on stderr —
//                                               what `mrca farm` parses from
//                                               its children
//
// Farm options (everything not listed is forwarded to the shard children
// as sweep flags):
//   --shards <n> --dir <path>                   shard count + session dir
//   --jobs <n>                                  children at once (0 = shards)
//   --retries <n>                               relaunches per job after the
//                                               first attempt (default 2)
//   --backoff-ms / --backoff-cap-ms             retry backoff schedule
//   --watchdog-seconds <n>                      kill children silent this
//                                               long (0 = off)
//   --farm-seed <u64>                           seeds backoff jitter only
//   --subdivide                                 halve a failed job's range
//                                               on retry
//   --resume                                    re-plan the missing cells of
//                                               an existing session dir
//   --inject-crash / --inject-stall <c>:<a>     deterministic CI fault: the
//                                               job owning cell c fails on
//                                               launch attempt a
//
// MATRIX uses the canonical key format: rows '|', cells ',',
// e.g. "1,1,0|0,1,1".
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/json.h"
#include "core/io.h"
#include "engine/farm.h"
#include "mrca.h"

namespace {

using namespace mrca;

struct CliOptions {
  std::string rate = "tdma";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int max_k = 10;
  std::vector<std::string> positional;
  // sweep-only options
  std::string users_list = "4,8,16";
  std::string channels_list = "4,8";
  std::string radios_list = "1,2";
  std::string rates_list = "tdma";
  std::string scenario_list = "base";
  std::string dynamics_list = "best_response";
  std::string granularity_list = "best";
  std::string order_list = "rr";
  std::string start_list = "random";
  std::string metrics_list;  ///< empty = no metric columns
  std::size_t replicates = 1;
  std::size_t threads = 1;
  std::size_t max_activations = 100000;
  std::string format = "table";
  // packet-level validation tier (sweep only)
  std::string sim_mac;  ///< empty = tier disabled
  double sim_seconds = 1.0;
  std::size_t sim_replicates = 1;
  /// True when a --sim-* tuning flag appeared, so `sweep` can reject the
  /// combination "tier tuned but never enabled" instead of ignoring it.
  bool sim_flags_given = false;
  /// True once --scenario appeared (repeat flags append groups).
  bool scenario_given = false;
  // streaming session options (sweep only)
  std::string shard;         ///< "<i>/<n>", empty = run the full plan
  std::string cells;         ///< "<b>:<e>" absolute range, empty = full plan
  std::string records_path;  ///< empty = no JSONL record stream
  bool progress = false;
  bool progress_json = false;
  // Deterministic fault hooks (hidden; CI/testing only): die or hang when
  // the first record of the given ABSOLUTE cell is delivered.
  std::optional<std::size_t> crash_at_cell;
  std::optional<std::size_t> stall_at_cell;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: mrca <command> [args]\n"
      "  solve    N C k [--rate R] [--seed S]\n"
      "  verify   N C k MATRIX [--rate R]\n"
      "  dynamics N C k [--rate R] [--seed S]\n"
      "  rates    [--max-k K]\n"
      "  simulate N C k [--rate R] [--seed S] [--seconds T]\n"
      "  sweep    [--users L] [--channels L] [--radios L] [--rates L]\n"
      "           [--scenario S] [--dynamics D] [--metrics M]\n"
      "           [--granularity L] [--order L] [--start L]\n"
      "           [--replicates N] [--seed S] [--threads N]\n"
      "           [--max-activations N] [--format table|csv|json]\n"
      "           [--sim dcf|tdma] [--sim-seconds T] [--sim-replicates N]\n"
      "           [--shard I/N | --cells B:E] [--records PATH]\n"
      "           [--progress | --progress-json]\n"
      "           (L = comma list or lo:hi[:step] range)\n"
      "  merge    FILE|DIR... [--format table|csv|json]\n"
      "           combine shard JSON outputs (sweep --shard I/N --format\n"
      "           json) into the aggregate the non-sharded sweep would\n"
      "           have produced; shards must cover every cell exactly once\n"
      "           and share one spec fingerprint; a directory argument\n"
      "           merges every *.json inside it in sorted order\n"
      "  farm     [sweep flags] --shards N [--dir PATH] [--jobs N]\n"
      "           [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]\n"
      "           [--watchdog-seconds S] [--farm-seed S] [--subdivide]\n"
      "           [--records PATH] [--format table|csv|json]\n"
      "           [--inject-crash C:A] [--inject-stall C:A]\n"
      "           run the sweep as N shard subprocesses with retry +\n"
      "           crash-resume; `farm --resume --dir PATH` continues an\n"
      "           interrupted session from its artifacts\n"
      "rate specs (all commands): tdma | dcf | dcf-opt | powerlaw=<alpha>\n"
      "                         | geom=<decay> | linear=<slope>\n"
      "scenarios (sweep):  base | energy=<cost,..> | het=<scale:scale,..>\n"
      "                  | budgets=<k:k:..,..> | weights=<w:w:..,..>\n"
      "                  | topology=<complete | ring:<d> | grid:<W>x<H>:<d>\n"
      "                  |           edges:<a>-<b>:..>\n"
      "                  (';' separates kinds, e.g.\n"
      "                  --scenario \"energy=0.1,0.3;het=2:1;topology=ring:2\")\n"
      "dynamics (sweep):   comma list of best_response\n"
      "                  | log_linear[:<T0>[:<Tend>]] (Glauber play over\n"
      "                  the potential, geometric annealing T0 -> Tend)\n"
      "                  | trial_error[:<eps>] (payoff-based learning,\n"
      "                  exploration probability eps)\n"
      "                  | distributed[:<p>] (the synchronous no-\n"
      "                  coordinator protocol, activation probability p)\n"
      "metrics (sweep):    comma list of nash | single_move | theorem1\n"
      "                  | poa | welfare_eff | pareto | fairness\n"
      "                  | convergence | distributed | regret\n"
      "                  | occupancy_entropy, evaluated per run and\n"
      "                  emitted as extra columns in every format\n";
  std::exit(error.empty() ? 0 : 2);
}

/// Axis values beyond this are certainly typos, and a range can't expand to
/// more elements than this either (a grid axis of a million points already
/// means >1e6 runs on its own).
constexpr std::size_t kMaxAxisValue = 1000000;

/// Strict unsigned-integer parse (std::from_chars): the whole string must
/// be consumed, so "abc", "-3", "4.8" and "12x" are all rejected with a
/// message naming the offending flag, and the process exits non-zero.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected an unsigned integer)");
  }
  return value;
}

/// As parse_u64, bounded to kMaxAxisValue — for values that size games or
/// grids, where a fat-fingered exponent must not explode the run.
std::size_t parse_count(const std::string& flag, const std::string& text) {
  const std::uint64_t value = parse_u64(flag, text);
  if (value > kMaxAxisValue) {
    usage("value '" + text + "' for " + flag + " exceeds the limit " +
          std::to_string(kMaxAxisValue));
  }
  return static_cast<std::size_t>(value);
}

/// Strict finite-double parse; names the offending flag and exits non-zero.
double parse_double(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value)) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected a finite number)");
  }
  return value;
}

double parse_positive_double(const std::string& flag,
                             const std::string& text) {
  const double value = parse_double(flag, text);
  if (value <= 0.0) {
    usage("value for " + flag + " must be > 0, got '" + text + "'");
  }
  return value;
}

std::size_t parse_positive_count(const std::string& flag,
                                 const std::string& text) {
  const std::size_t value = parse_count(flag, text);
  if (value == 0) usage("value for " + flag + " must be >= 1");
  return value;
}

CliOptions parse_options(int argc, char** argv, int first) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (arg == "--rate") {
      options.rate = need_value(arg);
    } else if (arg == "--seed") {
      options.seed = parse_u64(arg, need_value(arg));
    } else if (arg == "--seconds") {
      options.seconds = parse_positive_double(arg, need_value(arg));
    } else if (arg == "--max-k") {
      const std::size_t max_k = parse_count(arg, need_value(arg));
      if (max_k < 1) usage("value for --max-k must be >= 1");
      options.max_k = static_cast<int>(max_k);
    } else if (arg == "--users") {
      options.users_list = need_value(arg);
    } else if (arg == "--channels") {
      options.channels_list = need_value(arg);
    } else if (arg == "--radios") {
      options.radios_list = need_value(arg);
    } else if (arg == "--rates") {
      options.rates_list = need_value(arg);
    } else if (arg == "--scenario") {
      // Repeatable: later flags append as extra ';'-separated groups.
      const std::string value = need_value(arg);
      if (options.scenario_given) {
        options.scenario_list += ';' + value;
      } else {
        options.scenario_list = value;
        options.scenario_given = true;
      }
    } else if (arg == "--dynamics") {
      options.dynamics_list = need_value(arg);
    } else if (arg == "--metrics") {
      options.metrics_list = need_value(arg);
    } else if (arg == "--granularity") {
      options.granularity_list = need_value(arg);
    } else if (arg == "--order") {
      options.order_list = need_value(arg);
    } else if (arg == "--start") {
      options.start_list = need_value(arg);
    } else if (arg == "--replicates") {
      options.replicates = parse_positive_count(arg, need_value(arg));
    } else if (arg == "--threads") {
      options.threads = parse_count(arg, need_value(arg));
    } else if (arg == "--max-activations") {
      options.max_activations =
          static_cast<std::size_t>(parse_u64(arg, need_value(arg)));
    } else if (arg == "--format") {
      options.format = need_value(arg);
    } else if (arg == "--shard") {
      options.shard = need_value(arg);
    } else if (arg == "--cells") {
      options.cells = need_value(arg);
    } else if (arg == "--records") {
      options.records_path = need_value(arg);
      if (options.records_path.empty()) {
        usage("missing path for --records");
      }
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--progress-json") {
      options.progress_json = true;
    } else if (arg == "--crash-at-cell") {
      options.crash_at_cell = parse_count(arg, need_value(arg));
    } else if (arg == "--stall-at-cell") {
      options.stall_at_cell = parse_count(arg, need_value(arg));
    } else if (arg == "--sim") {
      options.sim_mac = need_value(arg);
    } else if (arg == "--sim-seconds") {
      options.sim_seconds = parse_positive_double(arg, need_value(arg));
      options.sim_flags_given = true;
    } else if (arg == "--sim-replicates") {
      options.sim_replicates = parse_positive_count(arg, need_value(arg));
      options.sim_flags_given = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage("unknown option " + arg);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

/// Single rate-spec language for every command: engine::RateSpec::parse,
/// which accepts tdma | dcf | dcf-opt | powerlaw= | geom= | linear=.
std::shared_ptr<const RateFunction> make_rate(const std::string& spec,
                                              int max_load) {
  try {
    return engine::RateSpec::parse(spec).make(max_load);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }
}

GameConfig parse_config(const CliOptions& options) {
  if (options.positional.size() < 3) usage("expected N C k");
  const std::size_t users = parse_count("N", options.positional[0]);
  const std::size_t channels = parse_count("C", options.positional[1]);
  const std::size_t radios = parse_count("k", options.positional[2]);
  return GameConfig(users, channels, static_cast<RadioCount>(radios));
}

void report_state(const GameModel& game, const StrategyMatrix& matrix) {
  std::cout << render_matrix(matrix) << render_loads(matrix) << "\n\n"
            << render_utilities(game, matrix) << '\n';
  const Theorem1Result theorem = check_theorem1(matrix);
  std::cout << "Theorem 1 predicate:   "
            << (theorem.predicts_nash() ? "satisfied" : "violated") << '\n'
            << "single-move stability: "
            << (is_single_move_stable(game, matrix) ? "stable" : "unstable")
            << '\n'
            << "exact Nash (oracle):   "
            << (is_nash_equilibrium(game, matrix) ? "equilibrium"
                                                  : "NOT an equilibrium")
            << '\n';
  if (!theorem.violations.empty()) {
    std::cout << "violations:\n";
    for (const auto& violation : theorem.violations) {
      std::cout << "  [" << violation.condition << "] user "
                << (violation.user + 1) << ": " << violation.detail << '\n';
    }
  }
}

int cmd_solve(const CliOptions& options) {
  const GameConfig config = parse_config(options);
  const GameModel game(config,
                       make_rate(options.rate, config.total_radios()));
  std::cout << "Algorithm 1 on " << config.describe() << " with "
            << game.rate_function(0).name() << ":\n\n";
  const StrategyMatrix ne = sequential_allocation(game);
  report_state(game, ne);
  std::cout << "price of anarchy:      " << price_of_anarchy(game) << '\n';
  return 0;
}

int cmd_verify(const CliOptions& options) {
  if (options.positional.size() < 4) usage("verify needs N C k MATRIX");
  const GameConfig config = parse_config(options);
  const GameModel game(config,
                       make_rate(options.rate, config.total_radios()));
  const StrategyMatrix matrix =
      parse_matrix(config, options.positional[3]);
  report_state(game, matrix);
  return is_nash_equilibrium(game, matrix) ? 0 : 1;
}

int cmd_dynamics(const CliOptions& options) {
  const GameConfig config = parse_config(options);
  const GameModel game(config,
                       make_rate(options.rate, config.total_radios()));
  Rng rng(options.seed);
  const StrategyMatrix start = random_full_allocation(game, rng);
  std::cout << "random start:\n" << render_matrix(start) << '\n';
  DynamicsOptions dynamics;
  dynamics.record_welfare_trace = true;
  const DynamicsResult result =
      run_response_dynamics(game, start, dynamics, &rng);
  std::cout << "best-response dynamics: " << result.improving_steps
            << " improving moves, " << result.activations << " activations, "
            << (result.converged ? "converged" : "budget exhausted") << "\n\n";
  report_state(game, result.final_state);
  return result.converged ? 0 : 1;
}

int cmd_rates(const CliOptions& options) {
  const BianchiDcfModel basic(DcfParameters::bianchi_fhss());
  DcfParameters rts_params = DcfParameters::bianchi_fhss();
  rts_params.access_mode = DcfAccessMode::kRtsCts;
  const BianchiDcfModel rts(rts_params);
  const TdmaModel tdma{TdmaParameters{}};
  Table table({"k", "TDMA", "DCF basic", "DCF optimal", "DCF RTS/CTS"});
  for (int k = 1; k <= options.max_k; ++k) {
    table.add_row(
        {Table::fmt(k), Table::fmt(tdma.total_rate_bps(k) / 1e6, 4),
         Table::fmt(basic.saturation_throughput(k).throughput_bps / 1e6, 4),
         Table::fmt(basic.optimal_backoff_throughput(k).throughput_bps / 1e6,
                    4),
         Table::fmt(rts.saturation_throughput(k).throughput_bps / 1e6, 4)});
  }
  std::cout << "Total channel rate R(k) [Mbit/s]:\n";
  table.print(std::cout);
  return 0;
}

int cmd_simulate(const CliOptions& options) {
  const GameConfig config = parse_config(options);
  const GameModel game(config,
                       make_rate(options.rate, config.total_radios()));
  const StrategyMatrix ne = sequential_allocation(game);
  std::cout << "equilibrium allocation:\n"
            << render_matrix(ne) << render_loads(ne) << "\n\n";
  sim::NetworkOptions network;
  network.mac =
      options.rate == "tdma" ? sim::MacKind::kTdma : sim::MacKind::kDcf;
  network.duration_s = options.seconds;
  network.seed = options.seed;
  const sim::NetworkResult measured = sim::simulate_network(ne, network);
  Table table({"user", "game prediction", "simulated [Mbit/s]"});
  for (UserId i = 0; i < config.num_users; ++i) {
    table.add_row({Table::label("u", i + 1),
                   Table::fmt(game.utility(ne, i), 4),
                   Table::fmt(measured.per_user_bps[i] / 1e6, 4)});
  }
  table.print(std::cout);
  std::cout << "total simulated: " << measured.total_bps() / 1e6
            << " Mbit/s over " << options.seconds << " s\n";
  return 0;
}

/// Expands "4,8,16" or "2:40" / "2:40:2" into the listed integers; every
/// element goes through the strict bounded parse_count.
std::vector<std::size_t> parse_size_list(const std::string& flag,
                                         const std::string& text) {
  std::vector<std::size_t> values;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto first_colon = item.find(':');
    if (first_colon == std::string::npos) {
      values.push_back(parse_count(flag, item));
      continue;
    }
    const auto second_colon = item.find(':', first_colon + 1);
    const std::size_t lo = parse_count(flag, item.substr(0, first_colon));
    const std::size_t hi = parse_count(
        flag,
        item.substr(first_colon + 1, second_colon == std::string::npos
                                         ? std::string::npos
                                         : second_colon - first_colon - 1));
    const std::size_t step =
        second_colon == std::string::npos
            ? 1
            : parse_count(flag, item.substr(second_colon + 1));
    if (step == 0 || hi < lo) usage("bad range '" + item + "' for " + flag);
    for (std::size_t v = lo; v <= hi; v += step) values.push_back(v);
  }
  if (values.empty()) usage("empty list '" + text + "' for " + flag);
  return values;
}

template <typename T>
std::vector<T> parse_enum_list(const std::string& text,
                               T (*parse_one)(const std::string&)) {
  std::vector<T> values;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) values.push_back(parse_one(item));
  if (values.empty()) usage("empty list '" + text + "'");
  return values;
}

// The axis-value languages live in the library (they are also how the
// sweep JSON header is parsed back); the CLI wrappers only translate a
// parse failure into the usage + exit-2 convention.
ResponseGranularity parse_granularity(const std::string& text) {
  try {
    return engine::parse_response_granularity(text);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }
}

ActivationOrder parse_order(const std::string& text) {
  try {
    return engine::parse_activation_order(text);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }
}

engine::SweepStart parse_start(const std::string& text) {
  try {
    return engine::parse_sweep_start(text);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }
}

engine::RateSpec parse_rate_spec(const std::string& text) {
  return engine::RateSpec::parse(text);
}

/// Builds the sweep grid from the parsed flags — shared by `sweep` (which
/// executes it) and `farm` (which needs the identical plan and fingerprint
/// for job planning and artifact validation).
engine::SweepSpec build_sweep_spec(const CliOptions& options) {
  engine::SweepSpec spec;
  spec.users = parse_size_list("--users", options.users_list);
  spec.channels = parse_size_list("--channels", options.channels_list);
  spec.radios.clear();
  for (const std::size_t k : parse_size_list("--radios", options.radios_list)) {
    spec.radios.push_back(static_cast<RadioCount>(k));
  }
  spec.rates = parse_enum_list(options.rates_list, parse_rate_spec);
  try {
    spec.scenarios = engine::ScenarioSpec::parse_list(options.scenario_list);
  } catch (const std::invalid_argument& error) {
    usage(std::string(error.what()) + " for --scenario");
  }
  try {
    spec.dynamics = DynamicsSpec::parse_list(options.dynamics_list);
  } catch (const std::invalid_argument& error) {
    usage(std::string(error.what()) + " for --dynamics");
  }
  if (!options.metrics_list.empty()) {
    try {
      spec.metrics = MetricSet::parse_list(options.metrics_list);
    } catch (const std::invalid_argument& error) {
      usage(std::string(error.what()) + " for --metrics");
    }
  }
  spec.granularities =
      parse_enum_list(options.granularity_list, parse_granularity);
  spec.orders = parse_enum_list(options.order_list, parse_order);
  spec.starts = parse_enum_list(options.start_list, parse_start);
  spec.replicates = options.replicates;
  spec.base_seed = options.seed;
  spec.max_activations = options.max_activations;
  if (!options.sim_mac.empty()) {
    engine::SimTierSpec tier;
    tier.mac = sim::parse_mac_kind(options.sim_mac);
    tier.duration_s = options.sim_seconds;
    tier.replicates = options.sim_replicates;
    spec.sim_tier = tier;
  } else if (options.sim_flags_given) {
    usage("--sim-seconds/--sim-replicates have no effect without "
          "--sim dcf|tdma");
  }
  return spec;
}

/// Builds + validates the plan (shared `sweep`/`farm` entry error).
engine::SweepPlan build_sweep_plan(const CliOptions& options) {
  const engine::SweepPlan plan =
      engine::SweepPlan::build(build_sweep_spec(options));
  if (plan.total_cells() == 0) {
    usage("the grid has no valid (N, C, k) combination: every radios value "
          "exceeds every channels value (model requires k <= |C|)");
  }
  return plan;
}

/// Hidden deterministic fault hook for farm/CI testing: dies (or hangs,
/// for the watchdog path) when the first record of the chosen ABSOLUTE
/// cell is delivered. Registered as the FIRST sink, so the poisoned cell
/// never reaches the aggregate or the record stream — exactly like a real
/// mid-cell crash.
class FaultSink final : public engine::RunSink {
 public:
  FaultSink(std::size_t cell, bool stall) : cell_(cell), stall_(stall) {}

  void consume(const engine::RunRecord& record) override {
    if (record.cell.index != cell_) return;
    if (stall_) {
      // Hang without exiting: only the farm watchdog can reclaim us.
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    // No stack unwinding, no stream flushing — a genuine torn-state crash.
    std::_Exit(70);
  }

 private:
  std::size_t cell_;
  bool stall_;
};

int cmd_sweep(const CliOptions& options) {
  if (!options.positional.empty()) {
    usage("sweep takes no positional arguments; use --users/--channels/"
          "--radios (got '" + options.positional.front() + "')");
  }
  if (!options.shard.empty() && !options.cells.empty()) {
    usage("--shard and --cells are mutually exclusive");
  }
  if (options.progress && options.progress_json) {
    usage("--progress and --progress-json are mutually exclusive");
  }
  const engine::SweepFormat format =
      engine::parse_sweep_format(options.format);

  engine::SweepPlan plan = build_sweep_plan(options);
  if (!options.shard.empty()) {
    // "<i>/<n>", 0-based: shard 0/3, 1/3, 2/3 partition the plan's cells.
    const std::size_t slash = options.shard.find('/');
    if (slash == std::string::npos) {
      usage("invalid value '" + options.shard +
            "' for --shard (expected <index>/<count>, e.g. 0/3)");
    }
    const std::size_t index =
        parse_count("--shard", options.shard.substr(0, slash));
    const std::size_t count =
        parse_positive_count("--shard", options.shard.substr(slash + 1));
    if (index >= count) {
      usage("shard index " + std::to_string(index) +
            " out of range for --shard with " + std::to_string(count) +
            " shard(s) (indices are 0-based)");
    }
    plan = plan.shard(index, count);
  }
  if (!options.cells.empty()) {
    const std::size_t colon = options.cells.find(':');
    if (colon == std::string::npos) {
      usage("invalid value '" + options.cells +
            "' for --cells (expected <begin>:<end>, e.g. 0:12)");
    }
    const auto begin = static_cast<std::size_t>(
        parse_u64("--cells", options.cells.substr(0, colon)));
    const auto end = static_cast<std::size_t>(
        parse_u64("--cells", options.cells.substr(colon + 1)));
    if (begin > end || end > plan.total_cells()) {
      usage("--cells range [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") is not contained in [0, " +
            std::to_string(plan.total_cells()) + ")");
    }
    plan = plan.slice(begin, end);
  }

  // Fault hooks: hidden flags first, then the env fallback so the farm's
  // CI job can poison one shard of an otherwise flag-identical fleet.
  std::optional<std::size_t> crash_cell = options.crash_at_cell;
  if (!crash_cell && !options.stall_at_cell) {
    if (const char* env = std::getenv("MRCA_CRASH_AT_CELL")) {
      crash_cell = parse_count("MRCA_CRASH_AT_CELL", env);
    }
  }

  engine::AggregatingSink aggregate;
  std::vector<engine::RunSink*> sinks;
  std::optional<FaultSink> fault;
  if (crash_cell) {
    sinks.push_back(&fault.emplace(*crash_cell, /*stall=*/false));
  } else if (options.stall_at_cell) {
    sinks.push_back(&fault.emplace(*options.stall_at_cell, /*stall=*/true));
  }
  sinks.push_back(&aggregate);
  // Records stream to a ".tmp" sibling, renamed only on clean completion:
  // a crashed or killed sweep can never leave a torn file under the final
  // name, which is what makes farm record shards trustworthy.
  const std::string records_tmp =
      options.records_path.empty() ? "" : options.records_path + ".tmp";
  std::ofstream records_file;
  std::optional<engine::RecordSink> records;
  if (!records_tmp.empty()) {
    records_file.open(records_tmp, std::ios::out | std::ios::trunc);
    if (!records_file) {
      usage("cannot open '" + records_tmp + "' for --records");
    }
    sinks.push_back(&records.emplace(records_file));
  }
  std::optional<engine::ProgressSink> progress;
  if (options.progress || options.progress_json) {
    sinks.push_back(&progress.emplace(
        std::cerr, std::chrono::milliseconds(100),
        options.progress_json ? engine::ProgressSink::Format::kJson
                              : engine::ProgressSink::Format::kHuman));
  }

  engine::SessionOptions session_options;
  session_options.threads = options.threads;
  const engine::SessionStats stats =
      engine::run_session(plan, sinks, session_options);
  if (records_file.is_open()) {
    records_file.close();
    if (!records_file) {
      std::cerr << "error: writing --records file '" << records_tmp
                << "' failed\n";
      return 2;
    }
    std::filesystem::rename(records_tmp, options.records_path);
  }
  engine::SweepResult result = std::move(aggregate).take_result();
  result.threads_used = stats.threads_used;
  engine::write_sweep(std::cout, result, format);
  if (format == engine::SweepFormat::kTable) {
    std::cout << result.cells.size() << " cells, " << result.total_runs
              << " runs on " << result.threads_used << " thread(s)";
    if (!plan.is_full()) {
      if (plan.shard_count() > 1) {
        std::cout << " (shard " << plan.shard_index() << "/"
                  << plan.shard_count() << " of " << plan.total_cells()
                  << " cells)";
      } else {
        std::cout << " (cells " << plan.cell_begin() << ":"
                  << plan.cell_end() << " of " << plan.total_cells() << ")";
      }
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_merge(const CliOptions& options) {
  if (options.positional.empty()) {
    usage("merge needs at least one shard JSON file or directory");
  }
  const engine::SweepFormat format =
      engine::parse_sweep_format(options.format);
  // A directory argument stands for every *.json inside it, sorted by name
  // (deterministic order) — the shape a farm session directory has. The
  // farm.json manifest is session metadata, not a shard, so it is skipped.
  std::vector<std::string> paths;
  for (const std::string& arg : options.positional) {
    std::error_code ec;
    if (!std::filesystem::is_directory(arg, ec)) {
      paths.push_back(arg);
      continue;
    }
    std::vector<std::string> inside;
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(arg)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".json") continue;
      if (entry.path().filename() == "farm.json") continue;
      inside.push_back(entry.path().string());
    }
    if (inside.empty()) {
      usage("merge: directory '" + arg + "' contains no *.json shard files");
    }
    std::sort(inside.begin(), inside.end());
    paths.insert(paths.end(), inside.begin(), inside.end());
  }
  std::vector<engine::SweepResult> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) usage("merge: cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
      shards.push_back(engine::sweep_from_json(text.str()));
    } catch (const std::invalid_argument& error) {
      usage("merge: '" + path + "' is not a sweep JSON document (" +
            error.what() + ")");
    }
  }
  // Fingerprint pre-check with FILE NAMES: merge_sweep_results knows only
  // the values, but "which two files disagree" is the actionable part when
  // a foreign artifact sneaks into a shard directory.
  for (std::size_t i = 1; i < shards.size(); ++i) {
    if (shards[i].spec_fingerprint != shards[0].spec_fingerprint) {
      usage("merge: spec fingerprint mismatch: '" + paths[0] + "' has '" +
            shards[0].spec_fingerprint + "' but '" + paths[i] + "' has '" +
            shards[i].spec_fingerprint + "'");
    }
  }
  // Remaining mismatches (overlap, gap, metric columns) throw
  // invalid_argument, which main() reports and turns into exit 2.
  const engine::SweepResult merged = engine::merge_sweep_results(shards);
  engine::write_sweep(std::cout, merged, format);
  if (format == engine::SweepFormat::kTable) {
    std::cout << merged.cells.size() << " cells, " << merged.total_runs
              << " runs merged from " << shards.size() << " shard(s)\n";
  }
  return 0;
}

/// Re-enters the normal flag parser over an owned argument vector — how
/// `farm` validates the sweep flags it forwards (and the ones a manifest
/// restores) with byte-identical error behavior to `mrca sweep` itself.
CliOptions parse_sweep_args(const std::vector<std::string>& args) {
  std::vector<std::string> storage;
  storage.reserve(args.size() + 2);
  storage.emplace_back("mrca");
  storage.emplace_back("sweep");
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), 2);
}

/// The path farm children are launched from: this very binary.
std::string self_cli_path(const char* argv0) {
#ifdef __unix__
  char buffer[4096];
  const ssize_t length =
      ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (length > 0) {
    buffer[length] = '\0';
    return std::string(buffer);
  }
#endif
  return argv0;
}

/// "<cell>:<attempt>" for --inject-crash / --inject-stall.
engine::FaultInjection parse_injection(const std::string& flag,
                                       const std::string& text,
                                       engine::FaultInjection::Kind kind) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected <cell>:<attempt>, e.g. 3:1)");
  }
  engine::FaultInjection inject;
  inject.kind = kind;
  inject.cell = parse_count(flag, text.substr(0, colon));
  inject.attempt = parse_positive_count(flag, text.substr(colon + 1));
  return inject;
}

/// Writes `<dir>/farm.json` atomically: what a later `farm --resume` needs
/// to rebuild the identical plan without the user re-typing (or mistyping)
/// the sweep flags.
void write_farm_manifest(const std::string& dir,
                         const std::string& fingerprint,
                         std::size_t cells_total, std::size_t shards,
                         const std::vector<std::string>& sweep_args) {
  std::string doc = "{\"version\":1,\"fingerprint\":\"" +
                    engine::json_escape(fingerprint) +
                    "\",\"cells_total\":" + std::to_string(cells_total) +
                    ",\"shards\":" + std::to_string(shards) +
                    ",\"sweep_args\":[";
  for (std::size_t i = 0; i < sweep_args.size(); ++i) {
    if (i != 0) doc += ',';
    doc += '"' + engine::json_escape(sweep_args[i]) + '"';
  }
  doc += "]}\n";
  const std::string path = dir + "/farm.json";
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::out | std::ios::trunc);
  if (!out) usage("farm: cannot write '" + tmp + "'");
  out << doc;
  out.close();
  if (!out) usage("farm: failed writing '" + tmp + "'");
  std::filesystem::rename(tmp, path);
}

int cmd_farm(int argc, char** argv) {
  std::string dir = "mrca-farm";
  std::size_t shards = 1;
  bool shards_given = false;
  std::size_t jobs = 0;
  std::size_t retries = 2;
  std::uint64_t backoff_ms = 250;
  std::uint64_t backoff_cap_ms = 10000;
  std::uint64_t watchdog_seconds = 0;
  std::uint64_t farm_seed = 1;
  bool subdivide = false;
  bool resume = false;
  std::string records_path;
  std::string format_text = "table";
  std::optional<engine::FaultInjection> inject;
  std::vector<std::string> sweep_args;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (arg == "--shards") {
      shards = parse_positive_count(arg, need_value(arg));
      shards_given = true;
    } else if (arg == "--dir") {
      dir = need_value(arg);
      if (dir.empty()) usage("missing path for --dir");
    } else if (arg == "--jobs") {
      jobs = parse_count(arg, need_value(arg));
    } else if (arg == "--retries") {
      retries = parse_count(arg, need_value(arg));
    } else if (arg == "--backoff-ms") {
      backoff_ms = parse_u64(arg, need_value(arg));
    } else if (arg == "--backoff-cap-ms") {
      backoff_cap_ms = parse_u64(arg, need_value(arg));
    } else if (arg == "--watchdog-seconds") {
      watchdog_seconds = parse_u64(arg, need_value(arg));
    } else if (arg == "--farm-seed") {
      farm_seed = parse_u64(arg, need_value(arg));
    } else if (arg == "--subdivide") {
      subdivide = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--records") {
      records_path = need_value(arg);
      if (records_path.empty()) usage("missing path for --records");
    } else if (arg == "--format") {
      format_text = need_value(arg);
    } else if (arg == "--inject-crash") {
      inject = parse_injection(arg, need_value(arg),
                               engine::FaultInjection::Kind::kCrash);
    } else if (arg == "--inject-stall") {
      inject = parse_injection(arg, need_value(arg),
                               engine::FaultInjection::Kind::kStall);
    } else if (arg == "--shard" || arg == "--cells" || arg == "--progress" ||
               arg == "--progress-json" || arg == "--crash-at-cell" ||
               arg == "--stall-at-cell") {
      usage(arg + " is managed by mrca farm and cannot be forwarded to the "
                  "sweep children");
    } else {
      sweep_args.push_back(arg);
    }
  }
  const engine::SweepFormat format = engine::parse_sweep_format(format_text);
  if (inject && inject->kind == engine::FaultInjection::Kind::kStall &&
      watchdog_seconds == 0) {
    usage("--inject-stall hangs a child forever without --watchdog-seconds");
  }

  std::string manifest_fingerprint;
  if (resume) {
    if (!sweep_args.empty()) {
      usage("farm --resume restores the sweep flags from '" + dir +
            "/farm.json'; drop '" + sweep_args.front() + "'");
    }
    const std::string manifest_path = dir + "/farm.json";
    std::ifstream in(manifest_path);
    if (!in) {
      usage("farm: no session manifest '" + manifest_path +
            "' to resume from");
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const JsonValue manifest = JsonValue::parse(text.str());
      manifest_fingerprint =
          manifest.at("fingerprint").as_string("fingerprint");
      for (const JsonValue& item :
           manifest.at("sweep_args").as_array("sweep_args")) {
        sweep_args.push_back(item.as_string("sweep_args"));
      }
      // The same positive-count rule --shards has.
      const std::size_t manifest_shards =
          manifest.at("shards").as_count("shards", kMaxAxisValue);
      if (manifest_shards == 0) {
        throw std::invalid_argument("'shards' must be >= 1");
      }
      if (!shards_given) shards = manifest_shards;
    } catch (const std::invalid_argument& error) {
      usage("farm: manifest '" + manifest_path + "' is malformed (" +
            error.what() + ")");
    }
  }

  const CliOptions sweep_options = parse_sweep_args(sweep_args);
  if (!sweep_options.positional.empty()) {
    usage("farm: unexpected positional argument '" +
          sweep_options.positional.front() + "'");
  }
  // A hand-edited manifest is the only way these can be set here; reject
  // them the same way the forwarding loop does.
  if (!sweep_options.shard.empty() || !sweep_options.cells.empty() ||
      !sweep_options.records_path.empty() || sweep_options.progress ||
      sweep_options.progress_json || sweep_options.crash_at_cell ||
      sweep_options.stall_at_cell) {
    usage("farm: the session manifest carries farm-managed sweep flags");
  }
  const engine::SweepPlan plan = build_sweep_plan(sweep_options);
  const std::string fingerprint = plan.spec().fingerprint();
  if (resume && manifest_fingerprint != fingerprint) {
    usage("farm: manifest fingerprint '" + manifest_fingerprint +
          "' does not match the plan rebuilt from its own sweep_args ('" +
          fingerprint + "') — manifest edited?");
  }

  engine::FarmSpec farm;
  farm.cli_path = self_cli_path(argv[0]);
  farm.dir = dir;
  farm.sweep_args = sweep_args;
  farm.shards = shards;
  farm.max_parallel = jobs;
  farm.max_attempts = retries + 1;
  farm.backoff_base =
      std::chrono::milliseconds(static_cast<std::int64_t>(backoff_ms));
  farm.backoff_cap =
      std::chrono::milliseconds(static_cast<std::int64_t>(backoff_cap_ms));
  farm.watchdog =
      std::chrono::seconds(static_cast<std::int64_t>(watchdog_seconds));
  farm.seed = farm_seed;
  farm.subdivide = subdivide;
  farm.resume = resume;
  farm.inject = inject;
  farm.records_path = records_path;

  if (!resume) {
    std::filesystem::create_directories(dir);
    write_farm_manifest(dir, fingerprint, plan.total_cells(), shards,
                        sweep_args);
  }

  // Failures (a job out of attempts, an unmergeable directory) throw and
  // become exit 2 in main(); completed shards stay in `dir` for --resume.
  const engine::FarmResult result = engine::run_farm(farm, plan, &std::cerr);
  engine::write_sweep(std::cout, result.merged, format);
  if (format == engine::SweepFormat::kTable) {
    std::cout << result.merged.cells.size() << " cells, "
              << result.merged.total_runs << " runs farmed across "
              << result.jobs << " job(s), " << result.launches
              << " launch(es)";
    if (result.cells_resumed > 0) {
      std::cout << ", " << result.cells_resumed << " cell(s) resumed";
    }
    std::cout << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    // farm owns its flag namespace (--shards, --retries, ...) and forwards
    // the rest verbatim, so it parses argv itself.
    if (command == "farm") return cmd_farm(argc, argv);
    const CliOptions options = parse_options(argc, argv, 2);
    // The checked-seam convention: a flag with no effect is a mistake to
    // reject, not to ignore (cf. --sim-seconds without --sim).
    if (command != "sweep" &&
        (!options.shard.empty() || !options.cells.empty() ||
         !options.records_path.empty() || options.progress ||
         options.progress_json || options.crash_at_cell.has_value() ||
         options.stall_at_cell.has_value())) {
      usage("--shard/--cells/--records/--progress/--progress-json apply "
            "only to the sweep command");
    }
    if (command == "solve") return cmd_solve(options);
    if (command == "verify") return cmd_verify(options);
    if (command == "dynamics") return cmd_dynamics(options);
    if (command == "rates") return cmd_rates(options);
    if (command == "simulate") return cmd_simulate(options);
    if (command == "sweep") return cmd_sweep(options);
    if (command == "merge") return cmd_merge(options);
    if (command == "help" || command == "--help") usage();
    usage("unknown command '" + command + "'");
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
