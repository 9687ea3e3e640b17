// mrca — command line interface to the channel-allocation library.
//
// Every flag is one row of kFlags: its name, the commands it acts in, its
// value placeholder and its help line. One parser (parse_args) reads that
// table for every command, so a flag given to a command it has no effect
// in is rejected, not ignored; `mrca help` is generated from the same rows
// and from kCommands, which declares each command's positional arguments.
#include <algorithm>
#include <chrono>
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

#include "common/format.h"
#include "common/json.h"
#include "core/io.h"
#include "engine/farm.h"
#include "mrca.h"

namespace {

using namespace mrca;

/// The commands, as the bits of a flag's command set.
enum Command : unsigned {
  kSolve = 1u << 0,
  kVerify = 1u << 1,
  kDynamics = 1u << 2,
  kRates = 1u << 3,
  kSimulate = 1u << 4,
  kSweep = 1u << 5,
  kMerge = 1u << 6,
  kFarm = 1u << 7,
};

/// Not a command: marks a sweep flag that `farm` hands its shard children
/// verbatim instead of reading it itself.
constexpr unsigned kForwarded = 1u << 8;
/// The sweep-grid flags: read by `sweep`, forwarded by `farm`.
constexpr unsigned kGrid = kSweep | kFarm | kForwarded;

struct CommandInfo {
  const char* name;
  Command bit;
  const char* operands;  ///< positional synopsis, "" for none
  std::size_t min_operands;
  std::size_t max_operands;
  const char* summary;  ///< help text under the synopsis, '\n'-separated
};

constexpr std::size_t kAnyCount = static_cast<std::size_t>(-1);

constexpr CommandInfo kCommands[] = {
    {"solve", kSolve, "N C k", 3, 3,
     "run Algorithm 1, then print and verify the equilibrium"},
    {"verify", kVerify, "N C k MATRIX", 4, 4,
     "check MATRIX (rows '|', cells ',', e.g. \"1,1,0|0,1,1\") against\n"
     "Theorem 1, single-move stability and the Nash oracle"},
    {"dynamics", kDynamics, "N C k", 3, 3,
     "best-response play from a random start"},
    {"rates", kRates, "", 0, 0,
     "print the total channel rate R(k) of the MAC models"},
    {"simulate", kSimulate, "N C k", 3, 3,
     "replay Algorithm 1's equilibrium through the packet-level\n"
     "simulator; the rate spec picks its MAC (tdma or dcf only)"},
    {"sweep", kSweep, "", 0, 0,
     "parallel batch experiments over a grid\n"
     "(L = comma list or lo:hi[:step] range)"},
    {"merge", kMerge, "FILE|DIR...", 1, kAnyCount,
     "combine shard JSON outputs into the non-sharded sweep's\n"
     "aggregate; shards cover every cell once and share one spec\n"
     "fingerprint; a directory stands for its *.json, sorted"},
    {"farm", kFarm, "", 0, 0,
     "run the sweep as N shard subprocesses with retry +\n"
     "crash-resume; the sweep-grid flags go to every child;\n"
     "`farm --resume --dir PATH` continues an interrupted\n"
     "session from its artifacts"},
};

struct Flag {
  const char* name;
  unsigned commands;    ///< Command bits it acts in, plus kForwarded
  const char* metavar;  ///< value placeholder; nullptr for a switch
  const char* fallback;  ///< the value when the flag is absent; "" for none
  const char* help;      ///< nullptr hides the flag from `mrca help`
};

constexpr Flag kFlags[] = {
    {"--rate", kSolve | kVerify | kDynamics | kSimulate, "R", "tdma",
     "rate spec of the game"},
    {"--seed", kDynamics | kSimulate | kGrid, "S", "1", "RNG seed"},
    {"--seconds", kSimulate, "T", "10", "simulated seconds"},
    {"--max-k", kRates, "K", "10", "largest k in the tables"},
    {"--users", kGrid, "L", "4,8,16", "grid axis N"},
    {"--channels", kGrid, "L", "4,8", "grid axis |C|"},
    {"--radios", kGrid, "L", "1,2", "grid axis k"},
    {"--rates", kGrid, "L", "tdma", "comma list of rate specs"},
    {"--scenario", kGrid, "S", "base", "scenario axis; repeats append"},
    {"--dynamics", kGrid, "D", "best_response", "dynamics-engine axis"},
    {"--metrics", kGrid, "M", "", "per-run analysis columns"},
    {"--granularity", kGrid, "L", "best", "best|single|random-move"},
    {"--order", kGrid, "L", "rr", "rr|random"},
    {"--start", kGrid, "L", "random", "empty|random|partial|ne"},
    {"--replicates", kGrid, "N", "1", "runs per cell"},
    {"--threads", kGrid, "N", "1", "worker threads, 0 = one per core"},
    {"--max-activations", kGrid, "N", "100000", "activation budget per run"},
    {"--sim", kGrid, "dcf|tdma", "", "replay each run through the DES"},
    {"--sim-seconds", kGrid, "T", "1", "simulated seconds per replay"},
    {"--sim-replicates", kGrid, "N", "1", "replays per run"},
    {"--format", kSweep | kMerge | kFarm, "table|csv|json", "table",
     "output format"},
    {"--records", kSweep | kFarm, "PATH", "",
     "stream one JSONL row per run to PATH"},
    {"--shard", kSweep, "I/N", "",
     "run only shard I of an N-way cell partition"},
    {"--cells", kSweep, "B:E", "", "run only the absolute cell range [B, E)"},
    {"--progress", kSweep, nullptr, "", "live progress on stderr"},
    {"--progress-json", kSweep, nullptr, "",
     "one strict-JSON progress line per update on stderr"},
    // Deterministic fault hooks the farm passes a child: die or hang when
    // the first record of the given ABSOLUTE cell is delivered.
    {"--crash-at-cell", kSweep, "C", "", nullptr},
    {"--stall-at-cell", kSweep, "C", "", nullptr},
    {"--shards", kFarm, "N", "1", "shard subprocesses"},
    {"--dir", kFarm, "PATH", "mrca-farm", "session directory"},
    {"--jobs", kFarm, "N", "0", "children at once, 0 = all shards"},
    {"--retries", kFarm, "N", "2", "relaunches per job after the first"},
    {"--backoff-ms", kFarm, "MS", "250", "first retry delay"},
    {"--backoff-cap-ms", kFarm, "MS", "10000", "longest retry delay"},
    {"--watchdog-seconds", kFarm, "S", "0",
     "kill a child silent this long, 0 = off"},
    {"--farm-seed", kFarm, "S", "1", "seeds the retry jitter only"},
    {"--subdivide", kFarm, nullptr, "",
     "halve a failed job's cell range on retry"},
    {"--resume", kFarm, nullptr, "",
     "re-plan the missing cells of the session"},
    {"--inject-crash", kFarm, "C:A", "",
     "test fault: cell C's job fails on launch attempt A"},
    {"--inject-stall", kFarm, "C:A", "",
     "test fault: cell C's job hangs on launch attempt A"},
};

/// The kCommands or kFlags row called `name`, or nullptr.
template <typename Row, std::size_t N>
const Row* find_row(const Row (&rows)[N], const std::string& name) {
  for (const Row& row : rows) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

constexpr std::size_t kUsageWidth = 78;
constexpr std::size_t kSynopsisIndent = 11;
constexpr std::size_t kFlagHelpColumn = 27;

/// The value languages, the one part of `mrca help` no table row states.
constexpr const char* kLanguages =
    "rate specs:         tdma | dcf | dcf-opt | powerlaw=<alpha>\n"
    "                  | geom=<decay> | linear=<slope>\n"
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

std::string flag_synopsis(const Flag& flag) {
  std::string text = flag.name;
  if (flag.metavar != nullptr) text += std::string(" ") + flag.metavar;
  return text;
}

/// Each command's synopsis lists exactly the kFlags rows that act in it;
/// the flag list after them is the rows' help lines.
std::string usage_text() {
  std::string text = "usage: mrca <command> [args]\n";
  for (const CommandInfo& command : kCommands) {
    std::string line = std::string("  ") + command.name;
    line.resize(kSynopsisIndent, ' ');
    line += command.operands;
    for (const Flag& flag : kFlags) {
      if ((flag.commands & command.bit) == 0 || flag.help == nullptr) continue;
      std::string item = "[";  // += rather than +: GCC 12 -Wrestrict
      item += flag_synopsis(flag);
      item += ']';
      if (line.size() + 1 + item.size() > kUsageWidth) {
        text += line + '\n';
        line.assign(kSynopsisIndent, ' ');
      } else if (line.back() != ' ') {
        line += ' ';
      }
      line += item;
    }
    text += line + '\n';
    std::istringstream summary(command.summary);
    while (std::getline(summary, line)) {
      text += std::string(kSynopsisIndent, ' ') + line + '\n';
    }
  }
  text += "flags:\n";
  for (const Flag& flag : kFlags) {
    if (flag.help == nullptr) continue;
    std::string line = "  " + flag_synopsis(flag);
    line.resize(std::max(line.size() + 1, kFlagHelpColumn), ' ');
    line += flag.help;
    if (*flag.fallback != '\0') {
      line += std::string(" (default ") + flag.fallback + ')';
    }
    text += line + '\n';
  }
  return text + kLanguages;
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << usage_text();
  std::exit(error.empty() ? 0 : 2);
}

/// Axis values beyond this are certainly typos, and a range can't expand to
/// more elements than this either (a grid axis of a million points already
/// means >1e6 runs on its own).
constexpr std::size_t kMaxAxisValue = 1000000;

/// Strict unsigned-integer parse (parse_unsigned): "abc", "-3", "4.8" and
/// "12x" are all rejected with a message naming the offending flag, and
/// the process exits non-zero.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  const std::optional<std::uint64_t> value = parse_unsigned(text);
  if (!value) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected an unsigned integer)");
  }
  return *value;
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
  const std::optional<double> value = parse_finite(text);
  if (!value) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected a finite number)");
  }
  return *value;
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

/// Runs a library parser over a flag's value: its invalid_argument becomes
/// a usage error (exit 2) that names the flag.
template <typename Parse>
auto checked(const std::string& flag, const std::string& text, Parse parse)
    -> decltype(parse(text)) {
  try {
    return parse(text);
  } catch (const std::invalid_argument& error) {
    usage(std::string(error.what()) + " for " + flag);
  }
}

/// One command line, checked against the tables.
struct Args {
  std::vector<std::string> positional;
  /// Every given flag's values in command-line order ("" for a switch).
  std::map<std::string, std::vector<std::string>> flags;
  /// `farm` only: the kForwarded flags and their values verbatim, in
  /// order — the sweep arguments of its shard children.
  std::vector<std::string> forwarded;

  bool has(const std::string& flag) const { return flags.count(flag) != 0; }

  /// The flag's last value, or its kFlags fallback when it was not given.
  std::string get(const std::string& flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? find_row(kFlags, flag)->fallback
                             : it->second.back();
  }

  /// get(flag) through a typed parser (parse_u64, parse_count, ...).
  template <typename T>
  T value(const std::string& flag,
          T (*parse)(const std::string&, const std::string&)) const {
    return parse(flag, get(flag));
  }

  /// A path flag's value; an explicitly empty path is a usage error.
  std::string path(const std::string& flag) const {
    const std::string text = get(flag);
    if (text.empty() && has(flag)) usage("missing path for " + flag);
    return text;
  }
};

/// The one flag parser: rejects unknown flags, flags that do not act in
/// `command`, missing values and a wrong number of positional arguments.
Args parse_args(const CommandInfo& command,
                const std::vector<std::string>& tokens) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const Flag* flag = find_row(kFlags, token);
    if (flag == nullptr) usage("unknown option " + token);
    if ((flag->commands & command.bit) == 0) {
      if (command.bit == kFarm && (flag->commands & kSweep) != 0) {
        usage(token + " is managed by mrca farm and cannot be forwarded to "
                      "the sweep children");
      }
      usage(token + " does not apply to the " + command.name + " command");
    }
    std::string value;
    if (flag->metavar != nullptr) {
      if (i + 1 == tokens.size()) usage("missing value for " + token);
      value = tokens[++i];
    }
    if (command.bit == kFarm && (flag->commands & kForwarded) != 0) {
      args.forwarded.push_back(token);
      if (flag->metavar != nullptr) args.forwarded.push_back(value);
    }
    args.flags[token].push_back(std::move(value));
  }
  const std::size_t count = args.positional.size();
  if (count < command.min_operands || count > command.max_operands) {
    usage(std::string(command.name) + " takes " +
          (command.max_operands == 0 ? std::string("no positional arguments")
                                     : std::string(command.operands)) +
          ", got " + std::to_string(count) + " positional argument(s)");
  }
  return args;
}

std::shared_ptr<const RateFunction> make_rate(const Args& args,
                                              int max_load) {
  return checked("--rate", args.get("--rate"),
                 [max_load](const std::string& spec) {
                   return engine::RateSpec::parse(spec).make(max_load);
                 });
}

GameConfig parse_config(const Args& args) {
  const std::size_t users = parse_count("N", args.positional[0]);
  const std::size_t channels = parse_count("C", args.positional[1]);
  const std::size_t radios = parse_count("k", args.positional[2]);
  return GameConfig(users, channels, static_cast<RadioCount>(radios));
}

/// Prints the matrix and its three verdicts; returns the exact Nash one.
bool report_state(const GameModel& game, const StrategyMatrix& matrix) {
  std::cout << render_matrix(matrix) << render_loads(matrix) << "\n\n"
            << render_utilities(game, matrix) << '\n';
  const Theorem1Result theorem = check_theorem1(matrix);
  std::cout << "Theorem 1 predicate:   "
            << (theorem.predicts_nash() ? "satisfied" : "violated") << '\n'
            << "single-move stability: "
            << (is_single_move_stable(game, matrix) ? "stable" : "unstable")
            << '\n';
  const bool nash = game.is_nash_equilibrium(matrix);
  std::cout << "exact Nash (oracle):   "
            << (nash ? "equilibrium" : "NOT an equilibrium") << '\n';
  if (!theorem.violations.empty()) {
    std::cout << "violations:\n";
    for (const auto& violation : theorem.violations) {
      std::cout << "  [" << violation.condition << "] user "
                << (violation.user + 1) << ": " << violation.detail << '\n';
    }
  }
  return nash;
}

int cmd_solve(const Args& args) {
  const GameConfig config = parse_config(args);
  const GameModel game(config, make_rate(args, config.total_radios()));
  std::cout << "Algorithm 1 on " << config.describe() << " with "
            << game.rate_function(0).name() << ":\n\n";
  const StrategyMatrix ne = sequential_allocation(game);
  report_state(game, ne);
  std::cout << "price of anarchy:      " << price_of_anarchy(game) << '\n';
  return 0;
}

int cmd_verify(const Args& args) {
  const GameConfig config = parse_config(args);
  const GameModel game(config, make_rate(args, config.total_radios()));
  const StrategyMatrix matrix = parse_matrix(config, args.positional[3]);
  return report_state(game, matrix) ? 0 : 1;
}

int cmd_dynamics(const Args& args) {
  const std::uint64_t seed = args.value("--seed", parse_u64);
  const GameConfig config = parse_config(args);
  const GameModel game(config, make_rate(args, config.total_radios()));
  Rng rng(seed);
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

int cmd_rates(const Args& args) {
  const std::size_t max_k = args.value("--max-k", parse_positive_count);
  const BianchiDcfModel basic(DcfParameters::bianchi_fhss());
  DcfParameters rts_params = DcfParameters::bianchi_fhss();
  rts_params.access_mode = DcfAccessMode::kRtsCts;
  const BianchiDcfModel rts(rts_params);
  const TdmaModel tdma{TdmaParameters{}};
  Table table({"k", "TDMA", "DCF basic", "DCF optimal", "DCF RTS/CTS"});
  for (int k = 1; k <= static_cast<int>(max_k); ++k) {
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

int cmd_simulate(const Args& args) {
  sim::NetworkOptions network;
  // The DES models only these two MACs; any other rate spec would print a
  // prediction for a different MAC than the one simulated.
  network.mac = checked("--rate", args.get("--rate"),
                        sim::parse_mac_kind);
  network.duration_s = args.value("--seconds", parse_positive_double);
  network.seed = args.value("--seed", parse_u64);
  const GameConfig config = parse_config(args);
  const GameModel game(config, make_rate(args, config.total_radios()));
  const StrategyMatrix ne = sequential_allocation(game);
  std::cout << "equilibrium allocation:\n"
            << render_matrix(ne) << render_loads(ne) << "\n\n";
  const sim::NetworkResult measured = sim::simulate_network(ne, network);
  Table table({"user", "game prediction", "simulated [Mbit/s]"});
  for (UserId i = 0; i < config.num_users; ++i) {
    table.add_row({Table::label("u", i + 1),
                   Table::fmt(game.utility(ne, i), 4),
                   Table::fmt(measured.per_user_bps[i] / 1e6, 4)});
  }
  table.print(std::cout);
  std::cout << "total simulated: " << measured.total_bps() / 1e6
            << " Mbit/s over " << network.duration_s << " s\n";
  return 0;
}

/// Expands "4,8,16" or "2:40" / "2:40:2" into the listed integers; every
/// element goes through the strict bounded parse_count.
std::vector<std::size_t> parse_size_list(const std::string& flag,
                                         const std::string& text) {
  std::vector<std::size_t> values;
  for (const std::string& item : split_fields(text, ',')) {
    const std::vector<std::string> range = split_fields(item, ':');
    if (range.size() == 1) {
      values.push_back(parse_count(flag, item));
      continue;
    }
    const std::size_t lo = parse_count(flag, range[0]);
    const std::size_t hi = parse_count(flag, range[1]);
    const std::size_t step =
        range.size() == 3 ? parse_count(flag, range[2]) : 1;
    if (range.size() > 3 || step == 0 || hi < lo) {
      usage("bad range '" + item + "' for " + flag);
    }
    for (std::size_t v = lo; v <= hi; v += step) values.push_back(v);
  }
  return values;
}

/// A comma list whose items go through one library parser each.
template <typename Parse>
auto parse_list(const std::string& flag, const std::string& text,
                Parse parse_one) {
  std::vector<decltype(parse_one(text))> values;
  for (const std::string& item : split_fields(text, ',')) {
    values.push_back(checked(flag, item, parse_one));
  }
  return values;
}

engine::SweepFormat parse_format(const Args& args) {
  return checked("--format", args.get("--format"),
                 engine::parse_sweep_format);
}

/// Builds the sweep grid from the parsed flags — shared by `sweep` (which
/// executes it) and `farm` (which needs the identical plan and fingerprint
/// for job planning and artifact validation).
engine::SweepSpec build_sweep_spec(const Args& args) {
  engine::SweepSpec spec;
  spec.users = parse_size_list("--users", args.get("--users"));
  spec.channels = parse_size_list("--channels", args.get("--channels"));
  spec.radios.clear();
  for (const std::size_t k :
       parse_size_list("--radios", args.get("--radios"))) {
    spec.radios.push_back(static_cast<RadioCount>(k));
  }
  spec.rates = parse_list("--rates", args.get("--rates"),
                          engine::RateSpec::parse);
  // Repeated --scenario flags append as extra ';'-separated groups.
  std::string scenarios = args.get("--scenario");
  if (args.has("--scenario")) {
    const std::vector<std::string>& groups = args.flags.at("--scenario");
    scenarios = groups.front();
    for (std::size_t i = 1; i < groups.size(); ++i) {
      scenarios += ';' + groups[i];
    }
  }
  spec.scenarios =
      checked("--scenario", scenarios, engine::ScenarioSpec::parse_list);
  spec.dynamics = checked("--dynamics", args.get("--dynamics"),
                          DynamicsSpec::parse_list);
  const std::string metrics = args.get("--metrics");
  if (!metrics.empty()) {
    spec.metrics = checked("--metrics", metrics, MetricSet::parse_list);
  }
  spec.granularities = parse_list("--granularity",
                                  args.get("--granularity"),
                                  engine::parse_response_granularity);
  spec.orders = parse_list("--order", args.get("--order"),
                           engine::parse_activation_order);
  spec.starts = parse_list("--start", args.get("--start"),
                           engine::parse_sweep_start);
  spec.replicates = args.value("--replicates", parse_positive_count);
  spec.base_seed = args.value("--seed", parse_u64);
  spec.max_activations = static_cast<std::size_t>(
      args.value("--max-activations", parse_u64));
  if (args.has("--sim")) {
    engine::SimTierSpec tier;
    tier.mac = checked("--sim", args.get("--sim"), sim::parse_mac_kind);
    tier.duration_s = args.value("--sim-seconds", parse_positive_double);
    tier.replicates = args.value("--sim-replicates", parse_positive_count);
    spec.sim_tier = tier;
  } else if (args.has("--sim-seconds") || args.has("--sim-replicates")) {
    usage("--sim-seconds/--sim-replicates have no effect without "
          "--sim dcf|tdma");
  }
  return spec;
}

/// Why SweepSpec::expand() produced no cell. It skips (C, k) pairs with
/// k > |C| and topology cells whose graph cannot describe N users; with a
/// valid (C, k) pair left, every scenario must be a topology that fits no
/// --users value (any other scenario would have emitted a cell).
std::string empty_grid_cause(const engine::SweepSpec& spec) {
  bool some_k_fits = false;
  for (const std::size_t c : spec.channels) {
    for (const RadioCount k : spec.radios) {
      some_k_fits |= k >= 1 && static_cast<std::size_t>(k) <= c;
    }
  }
  if (!some_k_fits) {
    return "the grid has no valid (N, C, k) combination: every radios value "
           "exceeds every channels value (model requires k <= |C|)";
  }
  std::string topologies;
  for (const engine::ScenarioSpec& scenario : spec.scenarios) {
    topologies += (topologies.empty() ? "" : ", ") + scenario.name();
  }
  return "the grid has no valid cell: " + topologies +
         " cannot describe any --users value (a grid pins W*H users; an "
         "edge list needs more users than its largest endpoint)";
}

/// Builds + validates the plan (shared `sweep`/`farm` entry error).
engine::SweepPlan build_sweep_plan(const Args& args) {
  const engine::SweepPlan plan =
      engine::SweepPlan::build(build_sweep_spec(args));
  if (plan.total_cells() == 0) usage(empty_grid_cause(plan.spec()));
  return plan;
}

std::size_t sweep_threads(const Args& args) {
  return args.value("--threads", parse_count);
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

int cmd_sweep(const Args& args) {
  if (args.has("--shard") && args.has("--cells")) {
    usage("--shard and --cells are mutually exclusive");
  }
  if (args.has("--progress") && args.has("--progress-json")) {
    usage("--progress and --progress-json are mutually exclusive");
  }
  const engine::SweepFormat format = parse_format(args);
  const std::string records_path = args.path("--records");
  engine::SessionOptions session_options;
  session_options.threads = sweep_threads(args);

  engine::SweepPlan plan = build_sweep_plan(args);
  if (args.has("--shard")) {
    // "<i>/<n>", 0-based: shard 0/3, 1/3, 2/3 partition the plan's cells.
    const std::string shard = args.get("--shard");
    const std::vector<std::string> pair = split_fields(shard, '/');
    if (pair.size() != 2) {
      usage("invalid value '" + shard +
            "' for --shard (expected <index>/<count>, e.g. 0/3)");
    }
    const std::size_t index = parse_count("--shard", pair[0]);
    const std::size_t count = parse_positive_count("--shard", pair[1]);
    if (index >= count) {
      usage("shard index " + std::to_string(index) +
            " out of range for --shard with " + std::to_string(count) +
            " shard(s) (indices are 0-based)");
    }
    plan = plan.shard(index, count);
  }
  if (args.has("--cells")) {
    const std::string cells = args.get("--cells");
    const std::vector<std::string> pair = split_fields(cells, ':');
    if (pair.size() != 2) {
      usage("invalid value '" + cells +
            "' for --cells (expected <begin>:<end>, e.g. 0:12)");
    }
    const auto begin = static_cast<std::size_t>(parse_u64("--cells", pair[0]));
    const auto end = static_cast<std::size_t>(parse_u64("--cells", pair[1]));
    if (begin > end || end > plan.total_cells()) {
      usage("--cells range [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") is not contained in [0, " +
            std::to_string(plan.total_cells()) + ")");
    }
    plan = plan.slice(begin, end);
  }

  engine::AggregatingSink aggregate;
  std::vector<engine::RunSink*> sinks;
  std::optional<FaultSink> fault;
  if (args.has("--crash-at-cell")) {
    sinks.push_back(&fault.emplace(args.value("--crash-at-cell", parse_count),
                                   /*stall=*/false));
  } else if (args.has("--stall-at-cell")) {
    sinks.push_back(&fault.emplace(args.value("--stall-at-cell", parse_count),
                                   /*stall=*/true));
  }
  sinks.push_back(&aggregate);
  // Records stream to a ".tmp" sibling, renamed only on clean completion:
  // a crashed or killed sweep can never leave a torn file under the final
  // name, which is what makes farm record shards trustworthy.
  const std::string records_tmp =
      records_path.empty() ? "" : records_path + ".tmp";
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
  if (args.has("--progress") || args.has("--progress-json")) {
    sinks.push_back(&progress.emplace(
        std::cerr, std::chrono::milliseconds(100),
        args.has("--progress-json") ? engine::ProgressSink::Format::kJson
                                    : engine::ProgressSink::Format::kHuman));
  }

  const engine::SessionStats stats =
      engine::run_session(plan, sinks, session_options);
  if (records_file.is_open()) {
    records_file.close();
    if (!records_file) {
      std::cerr << "error: writing --records file '" << records_tmp
                << "' failed\n";
      return 2;
    }
    std::filesystem::rename(records_tmp, records_path);
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

int cmd_merge(const Args& args) {
  const engine::SweepFormat format = parse_format(args);
  // A directory argument stands for every *.json inside it, sorted by name
  // (deterministic order) — the shape a farm session directory has. The
  // farm.json manifest is session metadata, not a shard, so it is skipped.
  std::vector<std::string> paths;
  for (const std::string& arg : args.positional) {
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
  const std::vector<std::string> pair = split_fields(text, ':');
  if (pair.size() != 2) {
    usage("invalid value '" + text + "' for " + flag +
          " (expected <cell>:<attempt>, e.g. 3:1)");
  }
  engine::FaultInjection inject;
  inject.kind = kind;
  inject.cell = parse_count(flag, pair[0]);
  inject.attempt = parse_positive_count(flag, pair[1]);
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

int cmd_farm(const Args& args, const char* argv0) {
  engine::FarmSpec farm;
  farm.cli_path = self_cli_path(argv0);
  farm.dir = args.path("--dir");
  farm.shards = args.value("--shards", parse_positive_count);
  farm.max_parallel = args.value("--jobs", parse_count);
  farm.max_attempts = args.value("--retries", parse_count) + 1;
  farm.backoff_base = std::chrono::milliseconds(static_cast<std::int64_t>(
      args.value("--backoff-ms", parse_u64)));
  farm.backoff_cap = std::chrono::milliseconds(static_cast<std::int64_t>(
      args.value("--backoff-cap-ms", parse_u64)));
  farm.watchdog = std::chrono::seconds(static_cast<std::int64_t>(
      args.value("--watchdog-seconds", parse_u64)));
  farm.seed = args.value("--farm-seed", parse_u64);
  farm.subdivide = args.has("--subdivide");
  farm.resume = args.has("--resume");
  farm.records_path = args.path("--records");
  if (args.has("--inject-crash") && args.has("--inject-stall")) {
    usage("--inject-crash and --inject-stall are mutually exclusive");
  }
  if (args.has("--inject-crash")) {
    farm.inject =
        parse_injection("--inject-crash", args.get("--inject-crash"),
                        engine::FaultInjection::Kind::kCrash);
  } else if (args.has("--inject-stall")) {
    if (farm.watchdog.count() == 0) {
      usage("--inject-stall hangs a child forever without --watchdog-seconds");
    }
    farm.inject =
        parse_injection("--inject-stall", args.get("--inject-stall"),
                        engine::FaultInjection::Kind::kStall);
  }
  const engine::SweepFormat format = parse_format(args);

  farm.sweep_args = args.forwarded;
  std::string manifest_fingerprint;
  if (farm.resume) {
    if (!farm.sweep_args.empty()) {
      usage("farm --resume restores the sweep flags from '" + farm.dir +
            "/farm.json'; drop '" + farm.sweep_args.front() + "'");
    }
    const std::string manifest_path = farm.dir + "/farm.json";
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
        farm.sweep_args.push_back(item.as_string("sweep_args"));
      }
      // The same positive-count rule --shards has.
      const std::size_t manifest_shards =
          manifest.at("shards").as_count("shards", kMaxAxisValue);
      if (manifest_shards == 0) {
        throw std::invalid_argument("'shards' must be >= 1");
      }
      if (!args.has("--shards")) farm.shards = manifest_shards;
    } catch (const std::invalid_argument& error) {
      usage("farm: manifest '" + manifest_path + "' is malformed (" +
            error.what() + ")");
    }
  }

  // The children's view of the sweep flags: forwarded ones always pass;
  // a hand-edited manifest is the only way to carry any other flag.
  const Args sweep = parse_args(*find_row(kCommands, "sweep"), farm.sweep_args);
  for (const auto& given : sweep.flags) {
    if ((find_row(kFlags, given.first)->commands & kForwarded) == 0) {
      usage("farm: the session manifest carries farm-managed sweep flags");
    }
  }
  sweep_threads(sweep);  // a bad value fails here, not in every child
  const engine::SweepPlan plan = build_sweep_plan(sweep);
  const std::string fingerprint = plan.spec().fingerprint();
  if (farm.resume && manifest_fingerprint != fingerprint) {
    usage("farm: manifest fingerprint '" + manifest_fingerprint +
          "' does not match the plan rebuilt from its own sweep_args ('" +
          fingerprint + "') — manifest edited?");
  }

  if (!farm.resume) {
    std::filesystem::create_directories(farm.dir);
    write_farm_manifest(farm.dir, fingerprint, plan.total_cells(),
                        farm.shards, farm.sweep_args);
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
  const std::string name = argv[1];
  if (name == "help" || name == "--help") usage();
  const CommandInfo* command = find_row(kCommands, name);
  if (command == nullptr) usage("unknown command '" + name + "'");
  try {
    const Args args = parse_args(*command, {argv + 2, argv + argc});
    switch (command->bit) {
      case kSolve: return cmd_solve(args);
      case kVerify: return cmd_verify(args);
      case kDynamics: return cmd_dynamics(args);
      case kRates: return cmd_rates(args);
      case kSimulate: return cmd_simulate(args);
      case kSweep: return cmd_sweep(args);
      case kMerge: return cmd_merge(args);
      case kFarm: return cmd_farm(args, argv[0]);
    }
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
