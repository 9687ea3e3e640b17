// Million-user scale benchmark for the response dynamics.
//
// Unlike the other bench/ binaries this one is plain C++ with no
// google-benchmark dependency: it times whole dynamics runs itself and
// emits JSON in the same shape google-benchmark writes (context +
// benchmarks[], counters flattened into each entry), so BENCH_scale.json
// extends the BENCH_topology.json trajectory and the CI smoke job can run
// it on machines without the benchmark library installed.
//
// Each cell runs best-response dynamics from a seeded random start to
// convergence, once with dirty-channel pruning (the default engine path)
// and once without (the A/B baseline), verifies the two final allocations
// are IDENTICAL (StrategyMatrix::operator== plus exact welfare equality —
// pruning must be a pure no-op on the trajectory), and records wall/cpu
// time plus the operation-count witnesses (scan_skips, reprice_touches).
//
// Recorded trajectory (repo root):
//   ./build/bench_scale --json BENCH_scale.json
// CI smoke (reduced cell, same verification):
//   ./build/bench_scale --users 100000 --require-converged
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <chrono>
#include <string>
#include <vector>

#include <unistd.h>

#include "mrca.h"

namespace {

using namespace mrca;

struct Options {
  std::size_t users = 1000000;
  std::size_t channels = 12;
  RadioCount radios = 4;
  std::vector<std::string> scenarios = {"topology=ring:2", "base"};
  std::uint64_t seed = 42;
  std::size_t max_passes = 64;
  ResponseGranularity granularity = ResponseGranularity::kBestSingleMove;
  bool ab = true;                  // also run the unpruned baseline + verify
  bool require_converged = false;  // exit nonzero unless every run converges
  std::string json_path;           // empty = no JSON file
};

struct RunRecord {
  std::string name;
  double real_ms = 0.0;
  double cpu_ms = 0.0;
  std::size_t users = 0;
  bool converged = false;
  std::size_t activations = 0;
  std::size_t improving_steps = 0;
  std::size_t scan_skips = 0;
  std::size_t reprice_touches = 0;
  double welfare = 0.0;
  int state_matches_unpruned = -1;  // -1 = not an A/B comparison entry
};

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "bench_scale: time response dynamics to convergence at scale,\n"
      "pruned vs unpruned, and verify the trajectories are identical.\n"
      "\n"
      "  --users N            cell size (default 1000000)\n"
      "  --channels C         channels (default 12)\n"
      "  --radios K           radios per user (default 4)\n"
      "  --scenarios LIST     comma list of scenario specs\n"
      "                       (default topology=ring:2,base)\n"
      "  --seed S             start-allocation seed (default 42)\n"
      "  --max-passes P       activation budget in round-robin passes\n"
      "                       (default 64)\n"
      "  --granularity G      best-single-move | best-response |\n"
      "                       random-improving (default best-single-move)\n"
      "  --no-ab              skip the unpruned baseline run\n"
      "  --require-converged  exit 1 unless every run converges\n"
      "  --json FILE          write google-benchmark-shaped JSON\n");
  std::exit(exit_code);
}

Options parse_options(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_scale: %s needs a value\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--users") {
      options.users = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--channels") {
      options.channels = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--radios") {
      options.radios = static_cast<RadioCount>(std::atoi(value(i)));
    } else if (arg == "--scenarios") {
      options.scenarios.clear();
      std::string list = value(i);
      std::size_t begin = 0;
      while (begin <= list.size()) {
        const std::size_t comma = list.find(',', begin);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > begin) options.scenarios.push_back(list.substr(begin, end - begin));
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--max-passes") {
      options.max_passes = std::strtoull(value(i), nullptr, 10);
    } else if (arg == "--granularity") {
      const std::string g = value(i);
      if (g == "best-single-move") {
        options.granularity = ResponseGranularity::kBestSingleMove;
      } else if (g == "best-response") {
        options.granularity = ResponseGranularity::kBestResponse;
      } else if (g == "random-improving") {
        options.granularity = ResponseGranularity::kRandomImprovingMove;
      } else {
        std::fprintf(stderr, "bench_scale: unknown granularity '%s'\n",
                     g.c_str());
        usage(2);
      }
    } else if (arg == "--no-ab") {
      options.ab = false;
    } else if (arg == "--require-converged") {
      options.require_converged = true;
    } else if (arg == "--json") {
      options.json_path = value(i);
    } else {
      std::fprintf(stderr, "bench_scale: unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }
  if (options.users == 0 || options.channels == 0 || options.radios <= 0 ||
      options.scenarios.empty() || options.max_passes == 0) {
    std::fprintf(stderr, "bench_scale: invalid cell parameters\n");
    usage(2);
  }
  return options;
}

double cpu_ms_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct TimedRun {
  DynamicsResult result;
  double real_ms = 0.0;
  double cpu_ms = 0.0;
};

TimedRun run_cell(const GameModel& model, const StrategyMatrix& start,
                  const Options& options, bool pruned) {
  DynamicsOptions dynamics;
  dynamics.granularity = options.granularity;
  dynamics.order = ActivationOrder::kRoundRobin;
  dynamics.max_passes = options.max_passes;
  dynamics.use_dirty_channel_pruning = pruned;
  Rng rng(options.seed + 1);  // consumed only by random-improving play
  const auto real_begin = std::chrono::steady_clock::now();
  const double cpu_begin = cpu_ms_now();
  TimedRun timed{run_response_dynamics(model, start, dynamics, &rng), 0.0,
                 0.0};
  timed.cpu_ms = cpu_ms_now() - cpu_begin;
  timed.real_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - real_begin)
                      .count();
  return timed;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const Options& options, const std::vector<RunRecord>& records) {
  std::FILE* out = std::fopen(options.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot open %s\n",
                 options.json_path.c_str());
    std::exit(1);
  }
  char date[64] = "1970-01-01T00:00:00+00:00";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(date, sizeof(date), "%FT%T+00:00", &utc);
  }
  char host[256] = "(unknown)";
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::strcpy(host, "(unknown)");
  }
  std::fprintf(out,
               "{\n"
               "  \"context\": {\n"
               "    \"date\": \"%s\",\n"
               "    \"host_name\": \"%s\",\n"
               "    \"executable\": \"bench_scale\",\n"
               "    \"num_cpus\": %ld,\n"
               "    \"mhz_per_cpu\": 0,\n"
               "    \"cpu_scaling_enabled\": false,\n"
               "    \"caches\": [\n"
               "    ],\n"
               "    \"load_avg\": [],\n"
               "    \"library_build_type\": \"release\"\n"
               "  },\n"
               "  \"benchmarks\": [\n",
               date, json_escape(host).c_str(), sysconf(_SC_NPROCESSORS_ONLN));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    std::fprintf(out,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"family_index\": %zu,\n"
                 "      \"per_family_instance_index\": 0,\n"
                 "      \"run_name\": \"%s\",\n"
                 "      \"run_type\": \"iteration\",\n"
                 "      \"repetitions\": 1,\n"
                 "      \"repetition_index\": 0,\n"
                 "      \"threads\": 1,\n"
                 "      \"iterations\": 1,\n"
                 "      \"real_time\": %.17g,\n"
                 "      \"cpu_time\": %.17g,\n"
                 "      \"time_unit\": \"ms\",\n"
                 "      \"users\": %zu,\n"
                 "      \"converged\": %d,\n"
                 "      \"activations\": %zu,\n"
                 "      \"improving_steps\": %zu,\n"
                 "      \"scan_skips\": %zu,\n"
                 "      \"reprice_touches\": %zu,\n"
                 "      \"welfare\": %.17g",
                 json_escape(r.name).c_str(), i, json_escape(r.name).c_str(),
                 r.real_ms, r.cpu_ms, r.users, r.converged ? 1 : 0,
                 r.activations, r.improving_steps, r.scan_skips,
                 r.reprice_touches, r.welfare);
    if (r.state_matches_unpruned >= 0) {
      std::fprintf(out, ",\n      \"state_matches_unpruned\": %d",
                   r.state_matches_unpruned);
    }
    std::fprintf(out, "\n    }%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const auto base_rate = std::make_shared<PowerLawRate>(1.0, 1.0);
  std::vector<RunRecord> records;
  bool all_converged = true;
  bool all_identical = true;

  for (const std::string& scenario_text : options.scenarios) {
    const engine::ScenarioSpec scenario =
        engine::ScenarioSpec::parse(scenario_text);
    const GameModel model = scenario.make_model(
        options.users, options.channels, options.radios, base_rate);
    Rng start_rng(options.seed);
    const StrategyMatrix start = random_full_allocation(model, start_rng);

    const TimedRun pruned = run_cell(model, start, options, /*pruned=*/true);
    RunRecord record;
    record.name = "BM_ScaleDyn/" + scenario_text + "/users:" +
                  std::to_string(options.users) + "/pruned";
    record.real_ms = pruned.real_ms;
    record.cpu_ms = pruned.cpu_ms;
    record.users = options.users;
    record.converged = pruned.result.converged;
    record.activations = pruned.result.activations;
    record.improving_steps = pruned.result.improving_steps;
    record.scan_skips = pruned.result.scan_skips;
    record.reprice_touches = pruned.result.reprice_touches;
    record.welfare = model.raw_welfare(pruned.result.final_state);
    all_converged = all_converged && pruned.result.converged;

    if (options.ab) {
      const TimedRun baseline =
          run_cell(model, start, options, /*pruned=*/false);
      const double baseline_welfare =
          model.raw_welfare(baseline.result.final_state);
      const bool identical =
          pruned.result.final_state == baseline.result.final_state &&
          record.welfare == baseline_welfare &&
          pruned.result.activations == baseline.result.activations &&
          pruned.result.improving_steps == baseline.result.improving_steps &&
          pruned.result.converged == baseline.result.converged;
      record.state_matches_unpruned = identical ? 1 : 0;
      all_identical = all_identical && identical;
      all_converged = all_converged && baseline.result.converged;

      RunRecord base_record = record;
      base_record.name = "BM_ScaleDyn/" + scenario_text + "/users:" +
                         std::to_string(options.users) + "/unpruned";
      base_record.real_ms = baseline.real_ms;
      base_record.cpu_ms = baseline.cpu_ms;
      base_record.converged = baseline.result.converged;
      base_record.activations = baseline.result.activations;
      base_record.improving_steps = baseline.result.improving_steps;
      base_record.scan_skips = baseline.result.scan_skips;
      base_record.reprice_touches = baseline.result.reprice_touches;
      base_record.welfare = baseline_welfare;
      base_record.state_matches_unpruned = -1;
      records.push_back(record);
      records.push_back(base_record);
      std::printf(
          "%-60s %10.1f ms  (unpruned %10.1f ms, %.2fx)  %s  %s\n",
          record.name.c_str(), record.real_ms, base_record.real_ms,
          record.real_ms > 0.0 ? base_record.real_ms / record.real_ms : 0.0,
          record.converged ? "converged" : "BUDGET EXHAUSTED",
          identical ? "identical" : "*** TRAJECTORY MISMATCH ***");
    } else {
      records.push_back(record);
      std::printf("%-60s %10.1f ms  %s\n", record.name.c_str(),
                  record.real_ms,
                  record.converged ? "converged" : "BUDGET EXHAUSTED");
    }
    const RunRecord& printed = options.ab ? records[records.size() - 2]
                                          : records.back();
    std::printf(
        "  activations=%zu improving=%zu scan_skips=%zu "
        "reprice_touches=%zu welfare=%.12g\n",
        printed.activations, printed.improving_steps, printed.scan_skips,
        printed.reprice_touches, printed.welfare);
  }

  if (!options.json_path.empty()) write_json(options, records);
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_scale: pruned trajectory diverged from the unpruned "
                 "baseline\n");
    return 1;
  }
  if (options.require_converged && !all_converged) {
    std::fprintf(stderr,
                 "bench_scale: a run exhausted its activation budget\n");
    return 1;
  }
  return 0;
}
