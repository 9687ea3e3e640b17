// mrca_replay: replays one benchmark workload in-process through libmrca's
// public API, so the benchmark can time the layers the `mrca` CLI hides.
//
// It takes the same sweep flags as `mrca sweep`, builds the identical plan,
// and runs every (cell, replicate) task serially the way run_session's task
// body does (derive_run_seed -> start allocation -> run_dynamics -> record
// columns -> each Metric::compute -> sim tier -> sinks). Its CSV (and JSONL)
// must equal the CLI's byte for byte: that equality is what proves the trace
// measured the same program.
//
//   mrca_replay [sweep flags] --out DIR [--setup-reps N] [--setup-seconds S]
//               [--setup-only] [--trace 0|1] [--jsonl] [--merge-dir DIR]
//
// Always: times the serial set-up work (plan expansion, rate tables,
// per-cell GameModel builds) at least N times and for at least S seconds
// (and stops there with --setup-only), runs one untraced pass, and writes
// DIR/replay.csv (and DIR/replay.jsonl with --jsonl). With --trace 1 it
// also runs a traced pass that records a span around every library call,
// then a second untraced pass to measure the tracing overhead against,
// times the writers and the shard merge (the farm's artifacts in
// --merge-dir, or this run's own JSON otherwise), probes the cache and the
// scan kernels on the workload's own states, and runs the library's own
// run_session at --threads for the delivery statistics. Spans stay in
// memory and are written to DIR/spans.json when the run ends. One JSON
// object with every figure goes to stdout.
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mrca.h"

namespace {

using namespace mrca;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------ spans --

/// In-memory span recorder. Spans nest strictly (the replay is serial), so
/// a span's self time is its duration minus its children's durations.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  bool enabled = false;

  std::size_t id(const std::string& name) {
    const auto [it, inserted] = ids_.emplace(name, names_.size());
    if (inserted) {
      names_.push_back(name);
      totals_.emplace_back();
    }
    return it->second;
  }

  void open(std::size_t name) {
    stack_.push_back(Frame{name, Clock::now(), 0.0});
  }

  void close() {
    const Clock::time_point end = Clock::now();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double duration =
        std::chrono::duration<double>(end - frame.start).count();
    Totals& totals = totals_[frame.name];
    ++totals.count;
    totals.total_s += duration;
    totals.self_s += duration - frame.child_s;
    if (!stack_.empty()) stack_.back().child_s += duration;
    if (events_.size() < kMaxEvents) {
      events_.push_back(Event{frame.name, frame.start, end});
    } else {
      ++dropped_;
    }
  }

  const std::vector<std::string>& names() const { return names_; }
  const Totals& totals(std::size_t name) const { return totals_[name]; }
  Totals totals(const std::string& name) const {
    const auto it = ids_.find(name);
    return it == ids_.end() ? Totals{} : totals_[it->second];
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto), plus the
  /// per-name totals the benchmark reports.
  void write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
      };
      out << (i ? "," : "") << "\n{\"name\":\"" << names_[e.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(e.start)
          << ",\"dur\":" << us(e.end) - us(e.start) << "}";
    }
    out << "\n],\"droppedEvents\":" << dropped_ << ",\"totals\":{";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out << (i ? "," : "") << "\n\"" << names_[i]
          << "\":{\"count\":" << totals_[i].count
          << ",\"total_s\":" << totals_[i].total_s
          << ",\"self_s\":" << totals_[i].self_s << "}";
    }
    out << "\n}}\n";
  }

 private:
  struct Frame {
    std::size_t name;
    Clock::time_point start;
    double child_s;
  };
  struct Event {
    std::size_t name;
    Clock::time_point start;
    Clock::time_point end;
  };
  static constexpr std::size_t kMaxEvents = 200000;

  std::map<std::string, std::size_t> ids_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Frame> stack_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

Tracer tracer;

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(std::size_t name) : on_(tracer.enabled) {
    if (on_) tracer.open(name);
  }
  ~Span() {
    if (on_) tracer.close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------- options --

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "mrca_replay: " << message << '\n';
  std::exit(2);
}

std::size_t parse_size(const std::string& flag, const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    fail("invalid value '" + text + "' for " + flag);
  }
  return value;
}

double parse_real(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    fail("invalid value '" + text + "' for " + flag);
  }
  return value;
}

/// "4,8,16" or "lo:hi[:step]" items, the `mrca sweep` list grammar.
std::vector<std::size_t> parse_sizes(const std::string& flag,
                                     const std::string& text) {
  std::vector<std::size_t> values;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto first = item.find(':');
    if (first == std::string::npos) {
      values.push_back(parse_size(flag, item));
      continue;
    }
    const auto second = item.find(':', first + 1);
    const std::size_t lo = parse_size(flag, item.substr(0, first));
    const std::size_t hi = parse_size(
        flag, item.substr(first + 1, second == std::string::npos
                                         ? std::string::npos
                                         : second - first - 1));
    const std::size_t step = second == std::string::npos
                                 ? 1
                                 : parse_size(flag, item.substr(second + 1));
    if (step == 0 || hi < lo) fail("bad range '" + item + "' for " + flag);
    for (std::size_t v = lo; v <= hi; v += step) values.push_back(v);
  }
  return values;
}

template <typename T>
std::vector<T> parse_items(const std::string& text,
                           T (*parse_one)(const std::string&)) {
  std::vector<T> values;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) values.push_back(parse_one(item));
  return values;
}

engine::RateSpec parse_rate(const std::string& text) {
  return engine::RateSpec::parse(text);
}

constexpr std::size_t kMaxSetupReps = 1000;

struct Options {
  engine::SweepSpec spec;
  std::size_t threads = 1;
  std::size_t setup_reps = 3;
  double setup_seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  bool jsonl = false;
  std::string out_dir;
  std::string merge_dir;
};

/// Mirrors `mrca sweep`'s flag defaults, so the same argument list builds
/// the same SweepSpec in both programs.
Options parse_options(int argc, char** argv) {
  Options options;
  std::string users = "4,8,16", channels = "4,8", radios = "1,2";
  std::string rates = "tdma", scenario = "base", dynamics = "best_response";
  std::string granularity = "best", order = "rr", start = "random";
  std::string metrics, sim_mac;
  double sim_seconds = 1.0;
  std::size_t sim_replicates = 1;
  std::size_t replicates = 1, max_activations = 100000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--users") users = value();
    else if (arg == "--channels") channels = value();
    else if (arg == "--radios") radios = value();
    else if (arg == "--rates") rates = value();
    else if (arg == "--scenario") scenario = value();
    else if (arg == "--dynamics") dynamics = value();
    else if (arg == "--metrics") metrics = value();
    else if (arg == "--granularity") granularity = value();
    else if (arg == "--order") order = value();
    else if (arg == "--start") start = value();
    else if (arg == "--replicates") replicates = parse_size(arg, value());
    else if (arg == "--max-activations")
      max_activations = parse_size(arg, value());
    else if (arg == "--seed") seed = parse_size(arg, value());
    else if (arg == "--threads") options.threads = parse_size(arg, value());
    else if (arg == "--sim") sim_mac = value();
    else if (arg == "--sim-seconds") sim_seconds = parse_real(arg, value());
    else if (arg == "--sim-replicates")
      sim_replicates = parse_size(arg, value());
    else if (arg == "--setup-reps")
      options.setup_reps = parse_size(arg, value());
    else if (arg == "--setup-seconds")
      options.setup_seconds = parse_real(arg, value());
    else if (arg == "--trace") options.trace = parse_size(arg, value()) != 0;
    else if (arg == "--setup-only") options.setup_only = true;
    else if (arg == "--jsonl") options.jsonl = true;
    else if (arg == "--out") options.out_dir = value();
    else if (arg == "--merge-dir") options.merge_dir = value();
    else fail("unknown option " + arg);
  }
  if (options.out_dir.empty()) fail("--out DIR is required");
  if (options.setup_reps == 0) fail("--setup-reps must be >= 1");

  engine::SweepSpec& spec = options.spec;
  spec.users = parse_sizes("--users", users);
  spec.channels = parse_sizes("--channels", channels);
  spec.radios.clear();
  for (const std::size_t k : parse_sizes("--radios", radios)) {
    spec.radios.push_back(static_cast<RadioCount>(k));
  }
  spec.rates = parse_items(rates, parse_rate);
  spec.scenarios = engine::ScenarioSpec::parse_list(scenario);
  spec.dynamics = DynamicsSpec::parse_list(dynamics);
  if (!metrics.empty()) spec.metrics = MetricSet::parse_list(metrics);
  spec.granularities =
      parse_items(granularity, engine::parse_response_granularity);
  spec.orders = parse_items(order, engine::parse_activation_order);
  spec.starts = parse_items(start, engine::parse_sweep_start);
  spec.replicates = replicates;
  spec.base_seed = seed;
  spec.max_activations = max_activations;
  if (!sim_mac.empty()) {
    engine::SimTierSpec tier;
    tier.mac = sim::parse_mac_kind(sim_mac);
    tier.duration_s = sim_seconds;
    tier.replicates = sim_replicates;
    spec.sim_tier = tier;
  }
  return options;
}

// ------------------------------------------------------------------ setup --

/// What run_session builds before its first task: the plan, one rate
/// function per distinct (rate, max load), one GameModel per cell.
struct Setup {
  std::optional<engine::SweepPlan> plan;
  std::vector<GameModel> models;
  double plan_s = 0.0;
  double rate_s = 0.0;
  double model_s = 0.0;
  double total_s = 0.0;
  std::size_t rate_builds = 0;
};

Setup build_setup(const engine::SweepSpec& spec) {
  static const std::size_t kPlan = tracer.id("setup.plan");
  static const std::size_t kRate = tracer.id("setup.rate_table");
  static const std::size_t kModel = tracer.id("setup.model");
  Setup setup;
  const Clock::time_point begin = Clock::now();
  {
    Span span(kPlan);
    setup.plan.emplace(engine::SweepPlan::build(spec));
  }
  setup.plan_s = seconds_since(begin);
  const std::vector<engine::SweepSpec::Cell>& cells = setup.plan->cells();
  std::map<std::pair<std::string, int>, std::shared_ptr<const RateFunction>>
      rate_cache;
  setup.models.reserve(cells.size());
  for (const engine::SweepSpec::Cell& cell : cells) {
    const int max_load =
        cell.scenario.total_radios(cell.users, cell.channels, cell.radios);
    auto& cached = rate_cache[{cell.rate.name(), max_load}];
    if (!cached) {
      const Clock::time_point t = Clock::now();
      Span span(kRate);
      cached = cell.rate.make(max_load);
      setup.rate_s += seconds_since(t);
      ++setup.rate_builds;
    }
    const Clock::time_point t = Clock::now();
    Span span(kModel);
    setup.models.push_back(cell.scenario.make_model(
        cell.users, cell.channels, cell.radios, cached));
    setup.model_s += seconds_since(t);
  }
  setup.total_s = seconds_since(begin);
  return setup;
}

// ------------------------------------------------------------------ tasks --

constexpr std::size_t kEngineKinds =
    static_cast<std::size_t>(DynamicsSpec::Kind::kDistributed) + 1;

std::size_t engine_index(DynamicsSpec::Kind kind) {
  return static_cast<std::size_t>(kind);
}

/// Span ids of the per-engine and per-metric calls, resolved once before a
/// pass, so the untraced passes do no name lookups the library does not.
struct SpanIds {
  std::array<std::size_t, kEngineKinds> engine{};
  std::vector<std::size_t> metric;  // in spec order
};

SpanIds span_ids(const engine::SweepSpec& spec) {
  SpanIds ids;
  for (std::size_t k = 0; k < kEngineKinds; ++k) {
    ids.engine[k] = tracer.id(
        "dynamics." +
        dynamics_engine(static_cast<DynamicsSpec::Kind>(k)).name);
  }
  for (const Metric& metric : spec.metrics.metrics()) {
    ids.metric.push_back(tracer.id("metrics." + metric.name));
  }
  return ids;
}

/// Deterministic operation counts of one pass; must equal the CLI's.
struct Counts {
  std::uint64_t runs = 0;
  std::uint64_t converged = 0;
  std::uint64_t activations = 0;
  std::uint64_t improving_steps = 0;
  std::uint64_t scan_skips = 0;
  std::uint64_t reprice_touches = 0;
  std::uint64_t sim_replays = 0;
  double channel_seconds = 0.0;
  struct Engine {
    std::uint64_t runs = 0, activations = 0, converged = 0;
  };
  std::array<Engine, kEngineKinds> engines{};
};

/// A final state kept for the cache and scan probes.
struct Sample {
  std::size_t cell;
  StrategyMatrix start;
  StrategyMatrix final_state;
};

StrategyMatrix make_start(const GameModel& model, engine::SweepStart start,
                          Rng& rng) {
  switch (start) {
    case engine::SweepStart::kEmpty:
      return model.empty_strategy();
    case engine::SweepStart::kRandomFull:
      return random_full_allocation(model, rng);
    case engine::SweepStart::kRandomPartial:
      return random_partial_allocation(model, rng);
    case engine::SweepStart::kSequentialNe: {
      StrategyMatrix strategies = model.empty_strategy();
      UtilityCache cache(model, strategies);
      for (UserId user = 0; user < model.config().num_users; ++user) {
        allocate_user_sequentially(model, strategies, user,
                                   TieBreak::kLowestIndex, &rng, &cache);
      }
      return strategies;
    }
  }
  throw std::logic_error("mrca_replay: unknown start kind");
}

/// The run_session task body, one public call per span.
engine::RunRecord run_task(const engine::SweepSpec& spec,
                           const engine::SweepSpec::Cell& cell,
                           const GameModel& model, std::size_t replicate,
                           const SpanIds& ids,
                           const CellMetricCache* metric_cache,
                           Counts& counts, std::vector<Sample>& samples,
                           bool keep_sample) {
  static const std::size_t kStart = tracer.id("start.alloc");
  static const std::size_t kRecord = tracer.id("record");
  static const std::size_t kAnalytic = tracer.id("sim.analytic");
  static const std::size_t kReplay = tracer.id("sim.replay");
  engine::RunRecord record;
  record.cell = cell;
  record.replicate = replicate;
  record.seed = engine::derive_run_seed(spec.base_seed, cell.index, replicate);
  Rng rng(record.seed);
  std::optional<StrategyMatrix> start_holder;
  {
    Span span(kStart);
    start_holder.emplace(make_start(model, cell.start, rng));
  }
  const StrategyMatrix& start = *start_holder;

  DynamicsOptions options;
  options.granularity = cell.granularity;
  options.order = cell.order;
  options.max_activations = spec.max_activations;
  options.tolerance = spec.tolerance;
  options.record_welfare_trace = spec.metrics.needs_welfare_trace();
  Rng dynamics_rng(
      engine::derive_dynamics_seed(spec.base_seed, cell.index, replicate));
  Rng* engine_rng = cell.dynamics.kind == DynamicsSpec::Kind::kBestResponse
                        ? &rng
                        : &dynamics_rng;
  const std::size_t engine = engine_index(cell.dynamics.kind);
  std::optional<DynamicsResult> result_holder;
  {
    Span span(ids.engine[engine]);
    result_holder.emplace(
        run_dynamics(cell.dynamics, model, start, options, engine_rng));
  }
  const DynamicsResult& result = *result_holder;

  {
    Span span(kRecord);
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    record.converged = result.converged;
    record.activations = static_cast<double>(result.activations);
    record.improving_steps = static_cast<double>(result.improving_steps);
    record.scan_skips = static_cast<double>(result.scan_skips);
    record.reprice_touches = static_cast<double>(result.reprice_touches);
    record.welfare = model.welfare(result.final_state);
    const double optimal = model.optimal_welfare();
    record.efficiency = optimal > 0.0 ? record.welfare / optimal
                                      : (std::isnan(optimal) ? kNaN : 0.0);
    record.anarchy_ratio =
        record.welfare > 0.0 ? optimal / record.welfare : kNaN;
    record.fairness = jain_fairness(model.utilities(result.final_state));
    record.load_imbalance =
        static_cast<double>(load_imbalance(result.final_state));
    record.deployed =
        static_cast<double>(result.final_state.total_deployed());
    record.per_radio_spread = model.per_radio_spread(result.final_state);
    record.budget_fairness = model.budget_fairness(result.final_state);
    const double coloring = model.coloring_bound();
    record.coloring_bound = coloring;
    record.max_degree =
        model.topology()
            ? static_cast<double>(model.topology()->max_degree())
            : kNaN;
    record.graph_efficiency =
        coloring > 0.0 ? record.welfare / coloring : kNaN;
  }

  if (!spec.metrics.empty()) {
    MetricContext context{
        model, start, result,
        engine::derive_metric_seed(spec.base_seed, cell.index, replicate)};
    context.cell_cache = metric_cache;
    const std::vector<Metric>& metrics = spec.metrics.metrics();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const Metric& metric = metrics[m];
      Span span(ids.metric[m]);
      const std::vector<double> values = metric.compute(context);
      if (values.size() != metric.columns.size()) {
        throw std::logic_error("metric '" + metric.name + "' arity");
      }
      record.metric_values.insert(record.metric_values.end(), values.begin(),
                                  values.end());
    }
  }

  if (spec.sim_tier) {
    std::vector<double> analytic;
    {
      Span span(kAnalytic);
      analytic = engine::analytic_per_user_bps(result.final_state,
                                               *spec.sim_tier);
    }
    const double occupied =
        static_cast<double>(result.final_state.occupied_channels().size());
    for (std::size_t s = 0; s < spec.sim_tier->replicates; ++s) {
      Span span(kReplay);
      record.sim.push_back(engine::replay_strategy(
          result.final_state, *spec.sim_tier,
          engine::derive_sim_seed(spec.base_seed, cell.index, replicate, s),
          analytic));
      ++counts.sim_replays;
      counts.channel_seconds += occupied * spec.sim_tier->duration_s;
    }
  }

  ++counts.runs;
  counts.converged += result.converged ? 1 : 0;
  counts.activations += result.activations;
  counts.improving_steps += result.improving_steps;
  counts.scan_skips += result.scan_skips;
  counts.reprice_touches += result.reprice_touches;
  Counts::Engine& per_engine = counts.engines[engine];
  ++per_engine.runs;
  per_engine.activations += result.activations;
  per_engine.converged += result.converged ? 1 : 0;
  if (keep_sample) {
    samples.push_back(Sample{cell.index, start, result.final_state});
  }
  return record;
}

struct Pass {
  engine::SweepResult result;
  std::string csv;
  std::string jsonl;
  Counts counts;
  std::vector<Sample> samples;
  std::vector<double> task_s;
  std::size_t metric_cache_entries = 0;
  double wall_s = 0.0;
};

/// Every task of the plan, serially, in task order (what the session's
/// in-order delivery guarantees the sinks see).
Pass run_pass(const Setup& setup, bool jsonl) {
  static const std::size_t kRoot = tracer.id("replay");
  static const std::size_t kTask = tracer.id("task");
  static const std::size_t kAggregate = tracer.id("sinks.aggregate");
  static const std::size_t kJsonl = tracer.id("sinks.jsonl");
  static const std::size_t kCsv = tracer.id("io.csv");
  const engine::SweepPlan& plan = *setup.plan;
  const engine::SweepSpec& spec = plan.spec();
  const std::size_t replicates = spec.replicates;
  const std::size_t num_cells = plan.num_cells();
  const std::size_t sample_every = std::max<std::size_t>(1, num_cells / 8);
  const SpanIds ids = span_ids(spec);

  Pass pass;
  const Clock::time_point begin = Clock::now();
  {
    Span root(kRoot);
    std::vector<CellMetricCache> metric_caches(
        spec.metrics.empty() ? 0 : num_cells);
    engine::AggregatingSink aggregate;
    std::ostringstream records_stream;
    engine::RecordSink records(records_stream);
    aggregate.begin(plan);
    if (jsonl) records.begin(plan);
    pass.task_s.reserve(plan.num_runs());
    for (std::size_t task = 0; task < plan.num_runs(); ++task) {
      const std::size_t cell = task / replicates;
      const std::size_t replicate = task % replicates;
      const Clock::time_point task_begin = Clock::now();
      engine::RunRecord record;
      {
        Span span(kTask);
        record = run_task(
            spec, plan.cells()[cell], setup.models[cell], replicate, ids,
            metric_caches.empty() ? nullptr : &metric_caches[cell],
            pass.counts, pass.samples,
            replicate == 0 && cell % sample_every == 0);
      }
      pass.task_s.push_back(seconds_since(task_begin));
      {
        Span span(kAggregate);
        aggregate.consume(record);
      }
      if (jsonl) {
        Span span(kJsonl);
        records.consume(record);
      }
    }
    aggregate.finish();
    if (jsonl) {
      records.finish();
      pass.jsonl = records_stream.str();
    }
    for (const CellMetricCache& cache : metric_caches) {
      pass.metric_cache_entries += cache.size();
    }
    pass.result = std::move(aggregate).take_result();
    Span span(kCsv);
    pass.csv = engine::sweep_to_csv(pass.result);
  }
  pass.wall_s = seconds_since(begin);
  return pass;
}

// ----------------------------------------------------------------- probes --

template <typename Fn>
double time_calls(Fn&& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  return seconds_since(begin);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) fail("cannot write " + path.string());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())) - 1.0);
  return values[std::min(index, values.size() - 1)];
}

/// Ordered flat JSON object.
class Report {
 public:
  void add(const std::string& key, double value) {
    std::ostringstream text;
    text.precision(17);
    text << (std::isfinite(value) ? value : 0.0);
    fields_.emplace_back(key, text.str());
  }
  void add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + engine::json_escape(value) + '"');
  }
  void add(const std::string& key, const std::vector<double>& values) {
    std::ostringstream text;
    text.precision(17);
    text << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      text << (i ? "," : "") << values[i];
    }
    text << ']';
    fields_.emplace_back(key, text.str());
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ",\"" : "\"") + fields_[i].first + "\":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace

int main(int argc, char** argv) try {
  const Options options = parse_options(argc, argv);
  const std::filesystem::path out_dir = options.out_dir;
  std::filesystem::create_directories(out_dir);
  const Clock::time_point origin = Clock::now();
  Report report;

  // Set-up, timed at least --setup-reps times and for --setup-seconds; the
  // last build feeds the passes (traced when tracing, and then not part of
  // the medians).
  std::vector<double> setup_s, plan_s, rate_s, model_s;
  Setup setup;
  const Clock::time_point setup_begin = Clock::now();
  while (setup_s.size() < options.setup_reps ||
         (seconds_since(setup_begin) < options.setup_seconds &&
          setup_s.size() < kMaxSetupReps)) {
    setup = Setup{};  // release the previous models before rebuilding
    setup = build_setup(options.spec);
    setup_s.push_back(setup.total_s);
    plan_s.push_back(setup.plan_s);
    rate_s.push_back(setup.rate_s);
    model_s.push_back(setup.model_s);
  }
  if (options.trace) {
    setup = Setup{};
    tracer.enabled = true;
    setup = build_setup(options.spec);
    tracer.enabled = false;
  }
  report.add("setup_s", median(setup_s));
  report.add("setup_reps", static_cast<double>(setup_s.size()));
  if (options.setup_only) {
    report.add("setup_samples_s", setup_s);
    std::cout << report.str() << std::endl;
    return 0;
  }
  report.add("setup.plan_ms", 1e3 * median(plan_s));
  report.add("rate_table.build_ms", 1e3 * median(rate_s));
  report.add("rate_table.builds", static_cast<double>(setup.rate_builds));
  report.add("model.build_ms", 1e3 * median(model_s));
  report.add("model.builds", static_cast<double>(setup.models.size()));
  report.add("session.tasks", static_cast<double>(setup.plan->num_runs()));
  report.add("fingerprint", setup.plan->spec().fingerprint());

  const Pass plain = run_pass(setup, options.jsonl);
  write_file(out_dir / "replay.csv", plain.csv);
  if (options.jsonl) write_file(out_dir / "replay.jsonl", plain.jsonl);
  report.add("replay_untraced_s", plain.wall_s);
  const Counts& counts = plain.counts;
  report.add("count.runs", static_cast<double>(counts.runs));
  report.add("count.converged", static_cast<double>(counts.converged));
  report.add("dynamics.activations", static_cast<double>(counts.activations));
  report.add("dynamics.improving_steps",
             static_cast<double>(counts.improving_steps));
  report.add("cache.scan_skips", static_cast<double>(counts.scan_skips));
  report.add("cache.reprice_touches",
             static_cast<double>(counts.reprice_touches));
  report.add("sim.replays", static_cast<double>(counts.sim_replays));
  report.add("sim.channel_seconds", counts.channel_seconds);
  for (std::size_t k = 0; k < kEngineKinds; ++k) {
    const Counts::Engine& engine = counts.engines[k];
    if (engine.runs == 0) continue;
    const std::string& name =
        dynamics_engine(static_cast<DynamicsSpec::Kind>(k)).name;
    report.add("engine." + name + ".runs", static_cast<double>(engine.runs));
    report.add("engine." + name + ".activations",
               static_cast<double>(engine.activations));
    report.add("engine." + name + ".converged",
               static_cast<double>(engine.converged));
  }
  report.add("metrics.cell_cache_entries",
             static_cast<double>(plain.metric_cache_entries));

  if (options.trace) {
    // Traced pass: same tasks, a span around every library call.
    tracer.enabled = true;
    const Pass traced = run_pass(setup, options.jsonl);
    tracer.enabled = false;
    // A second untraced pass, run after the first warmed the allocator and
    // caches, is the baseline the tracing overhead is measured against.
    const Pass warm = run_pass(setup, options.jsonl);
    if (traced.csv != plain.csv || traced.jsonl != plain.jsonl ||
        warm.csv != plain.csv) {
      fail("traced pass output differs from the untraced pass");
    }
    tracer.enabled = true;
    report.add("replay_traced_s", traced.wall_s);
    report.add("replay_warm_s", warm.wall_s);
    // Task times come from the warm untraced pass: no span inside them.
    report.add("session.task_ms_p50", 1e3 * quantile(warm.task_s, 0.50));
    report.add("session.task_ms_p99", 1e3 * quantile(warm.task_s, 0.99));
    double task_total_s = 0.0;
    for (const double s : warm.task_s) task_total_s += s;
    report.add("session.task_total_s", task_total_s);

    // Writers and the shard merge.
    std::string json;
    report.add("io.csv_ms", 1e3 * tracer.totals("io.csv").total_s);
    {
      const std::size_t kJson = tracer.id("io.json");
      const double s = time_calls([&] {
        Span span(kJson);
        json = engine::sweep_to_json(traced.result);
      });
      report.add("io.json_ms", 1e3 * s);
    }
    std::vector<std::string> shard_texts;
    if (!options.merge_dir.empty()) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::directory_iterator(options.merge_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("cells_", 0) == 0 &&
            entry.path().extension() == ".json") {
          files.push_back(entry.path());
        }
      }
      std::sort(files.begin(), files.end());
      for (const auto& file : files) shard_texts.push_back(read_file(file));
    } else {
      shard_texts.push_back(json);
    }
    engine::SweepResult merged;
    {
      const std::size_t kMerge = tracer.id("merge");
      const double s = time_calls([&] {
        Span span(kMerge);
        std::vector<engine::SweepResult> shards;
        for (const std::string& text : shard_texts) {
          shards.push_back(engine::sweep_from_json(text));
        }
        merged = engine::merge_sweep_results(shards);
      });
      report.add("farm.merge_ms", 1e3 * s);
      report.add("farm.merged_shards",
                 static_cast<double>(shard_texts.size()));
    }
    if (engine::sweep_to_csv(merged) != plain.csv) {
      fail("merged shard output differs from the replay");
    }
    tracer.enabled = false;

    // Per-layer totals from the spans.
    for (const std::string& name : tracer.names()) {
      const Tracer::Totals& t = tracer.totals(tracer.id(name));
      report.add("span." + name + ".count", static_cast<double>(t.count));
      report.add("span." + name + ".total_s", t.total_s);
      report.add("span." + name + ".self_s", t.self_s);
    }
    tracer.write((out_dir / "spans.json").string(), origin);

    // Probes on the workload's own states (not part of the replay).
    const std::size_t kUsersPerState = 256;
    double br_s = 0.0, bsc_s = 0.0, nash_s = 0.0, cache_build_s = 0.0,
           move_s = 0.0;
    std::size_t br_calls = 0, nash_calls = 0, builds = 0, moves = 0,
                move_touches = 0;
    for (const Sample& sample : traced.samples) {
      const GameModel& model = setup.models[sample.cell];
      const std::size_t users = model.num_users();
      const std::size_t stride =
          std::max<std::size_t>(1, users / kUsersPerState);
      br_s += time_calls([&] {
        for (UserId u = 0; u < users; u += stride) {
          (void)model.best_response(sample.final_state, u);
        }
      });
      bsc_s += time_calls([&] {
        for (UserId u = 0; u < users; u += stride) {
          (void)model.best_single_change(sample.final_state, u);
        }
      });
      br_calls += (users + stride - 1) / stride;
      if (nash_calls < 4) {
        nash_s += time_calls(
            [&] { (void)model.is_nash_equilibrium(sample.final_state); });
        ++nash_calls;
      }
      StrategyMatrix state = sample.start;
      std::optional<UtilityCache> cache;
      cache_build_s += time_calls([&] { cache.emplace(model, state); });
      ++builds;
      const std::size_t channels = model.num_channels();
      if (channels < 2) continue;
      std::vector<std::pair<UserId, ChannelId>> planned;
      for (UserId u = 0; u < users; u += stride) {
        for (ChannelId c = 0; c < channels; ++c) {
          if (state.at(u, c) > 0) {
            planned.emplace_back(u, c);
            break;
          }
        }
      }
      const std::size_t touches_before = cache->reprice_touches();
      move_s += time_calls([&] {
        for (const auto& [u, c] : planned) {
          const ChannelId to = (c + 1) % channels;
          cache->move_radio(state, u, c, to);
          cache->move_radio(state, u, to, c);
        }
      });
      moves += 2 * planned.size();
      move_touches += cache->reprice_touches() - touches_before;
    }
    report.add("scan.best_response_us",
               br_calls ? 1e6 * br_s / static_cast<double>(br_calls) : 0.0);
    report.add("scan.best_single_change_us",
               br_calls ? 1e6 * bsc_s / static_cast<double>(br_calls) : 0.0);
    report.add("scan.is_nash_ms",
               nash_calls ? 1e3 * nash_s / static_cast<double>(nash_calls)
                          : 0.0);
    report.add("cache.build_ms",
               builds ? 1e3 * cache_build_s / static_cast<double>(builds)
                      : 0.0);
    report.add("cache.move_ns",
               moves ? 1e9 * move_s / static_cast<double>(moves) : 0.0);
    report.add("cache.probe_moves", static_cast<double>(moves));
    report.add("cache.probe_touches", static_cast<double>(move_touches));

    // Topology build (CSR + DSATUR), which make_model runs inside.
    double topology_s = 0.0;
    std::size_t colors = 0;
    for (const engine::SweepSpec::Cell& cell : setup.plan->cells()) {
      if (cell.scenario.kind != engine::ScenarioSpec::Kind::kTopology) {
        continue;
      }
      std::shared_ptr<const Topology> graph;
      topology_s += time_calls(
          [&] { graph = cell.scenario.topology.materialize(cell.users); });
      colors = std::max(colors, graph->num_colors());
    }
    report.add("topology.build_ms", 1e3 * topology_s);
    report.add("topology.colors", static_cast<double>(colors));

    // The library's own session at the workload's parallelism.
    setup = Setup{};
    const engine::SweepPlan plan = engine::SweepPlan::build(options.spec);
    engine::AggregatingSink aggregate;
    engine::SessionOptions session_options;
    session_options.threads = options.threads;
    const Clock::time_point session_begin = Clock::now();
    const engine::SessionStats stats =
        engine::run_session(plan, aggregate, session_options);
    report.add("session.inprocess_s", seconds_since(session_begin));
    report.add("session.max_buffered",
               static_cast<double>(stats.max_buffered));
    report.add("session.threads", static_cast<double>(stats.threads_used));
    if (engine::sweep_to_csv(aggregate.result()) != plain.csv) {
      fail("run_session output differs from the replay");
    }
  }
  std::cout << report.str() << std::endl;
  return 0;
} catch (const std::exception& error) {
  fail(error.what());
}
