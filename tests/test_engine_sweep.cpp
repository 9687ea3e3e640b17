#include "engine/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/format.h"
#include "core/analysis/efficiency.h"
#include "engine/sweep_io.h"
#include "engine/thread_pool.h"
#include "test_util.h"

namespace mrca {
namespace {

using engine::CellResult;
using engine::RateSpec;
using engine::SweepOptions;
using engine::SweepResult;
using engine::SweepSpec;
using engine::SweepStart;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.users = {3, 4, 6};
  spec.channels = {3, 5};
  spec.radios = {1, 2, 3};
  spec.rates = {RateSpec{}, RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.granularities = {ResponseGranularity::kBestResponse,
                        ResponseGranularity::kBestSingleMove};
  spec.orders = {ActivationOrder::kRoundRobin,
                 ActivationOrder::kUniformRandom};
  spec.starts = {SweepStart::kRandomFull};
  spec.replicates = 2;
  spec.base_seed = 31337;
  return spec;
}

bool identical(const SweepResult& a, const SweepResult& b) {
  if (a.total_runs != b.total_runs) return false;
  if (a.cells.size() != b.cells.size()) return false;
  // The serializations print every double at 17 significant digits, so
  // byte-equality here is bit-equality of the aggregates.
  return engine::sweep_to_csv(a) == engine::sweep_to_csv(b) &&
         engine::sweep_to_json(a) == engine::sweep_to_json(b);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    engine::parallel_for(hits.size(), threads,
                         [&](std::size_t i) { ++hits[i]; });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, PropagatesTheFirstException) {
  EXPECT_THROW(
      engine::parallel_for(64, 4,
                           [](std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
}

TEST(SweepSpec, ExpansionSkipsInvalidCombosAndKeepsStableOrder) {
  SweepSpec spec;
  spec.users = {2};
  spec.channels = {2, 4};
  spec.radios = {1, 3};
  const auto cells = spec.expand();
  // (C=2, k=3) violates k <= |C| and must be skipped.
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(spec.grid_size(), 4u);
  EXPECT_EQ(cells[0].channels, 2u);
  EXPECT_EQ(cells[0].radios, 1);
  EXPECT_EQ(cells[1].channels, 4u);
  EXPECT_EQ(cells[1].radios, 1);
  EXPECT_EQ(cells[2].channels, 4u);
  EXPECT_EQ(cells[2].radios, 3);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

// `mrca merge` combines shards whose fingerprints match, so every value a
// caller can set on a SweepSpec must show in it: changing any one of them
// alone changes the fingerprint.
TEST(SweepSpec, FingerprintChangesWithEverySettableValue) {
  SweepSpec base;
  base.sim_tier = engine::SimTierSpec{};
  base.metrics = MetricSet::parse_list("nash");
  const std::string reference = base.fingerprint();
  using Change = std::function<void(SweepSpec&)>;
  const std::vector<std::pair<std::string, Change>> changes = {
      {"users", [](SweepSpec& s) { s.users = {5}; }},
      {"channels", [](SweepSpec& s) { s.channels = {5}; }},
      {"radios", [](SweepSpec& s) { s.radios = {2}; }},
      {"rates", [](SweepSpec& s) { s.rates = {RateSpec::parse("geom=0.9")}; }},
      {"scenarios",
       [](SweepSpec& s) {
         s.scenarios = {engine::ScenarioSpec::parse("energy=0.2")};
       }},
      {"dynamics",
       [](SweepSpec& s) { s.dynamics = {DynamicsSpec::parse("log_linear")}; }},
      {"granularities",
       [](SweepSpec& s) {
         s.granularities = {ResponseGranularity::kBestSingleMove};
       }},
      {"orders",
       [](SweepSpec& s) { s.orders = {ActivationOrder::kUniformRandom}; }},
      {"starts", [](SweepSpec& s) { s.starts = {SweepStart::kEmpty}; }},
      {"users (appended)", [](SweepSpec& s) { s.users.push_back(5); }},
      {"replicates", [](SweepSpec& s) { s.replicates = 2; }},
      {"base_seed", [](SweepSpec& s) { s.base_seed = 2; }},
      {"max_activations", [](SweepSpec& s) { s.max_activations = 99; }},
      {"tolerance", [](SweepSpec& s) { s.tolerance = 1e-6; }},
      {"sim tier off", [](SweepSpec& s) { s.sim_tier.reset(); }},
      {"sim tier mac",
       [](SweepSpec& s) { s.sim_tier->mac = sim::MacKind::kTdma; }},
      {"sim tier duration_s", [](SweepSpec& s) { s.sim_tier->duration_s = 2; }},
      {"sim tier replicates", [](SweepSpec& s) { s.sim_tier->replicates = 2; }},
      {"metrics",
       [](SweepSpec& s) { s.metrics = MetricSet::parse_list("poa"); }},
  };
  for (const auto& [value, change] : changes) {
    SweepSpec changed = base;
    change(changed);
    EXPECT_NE(changed.fingerprint(), reference) << value;
  }
}

TEST(SweepSeeds, AreUniqueAcrossTaskCoordinates) {
  std::set<std::uint64_t> seen;
  for (std::size_t cell = 0; cell < 200; ++cell) {
    for (std::size_t rep = 0; rep < 10; ++rep) {
      seen.insert(engine::derive_run_seed(7, cell, rep));
    }
  }
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(RateSpecRoundTrip, ParseOfNameIsIdentity) {
  const std::vector<RateSpec> specs = {
      RateSpec{},
      RateSpec{RateSpec::Kind::kPowerLaw, 1.0},
      RateSpec{RateSpec::Kind::kGeometricDecay, 0.9},
      RateSpec{RateSpec::Kind::kGeometricDecay, 0.12345678901234567},
      RateSpec{RateSpec::Kind::kLinearDecay, 0.05},
  };
  for (const RateSpec& spec : specs) {
    EXPECT_EQ(RateSpec::parse(spec.name()), spec) << spec.name();
  }
  EXPECT_THROW(RateSpec::parse("bogus"), std::invalid_argument);
}

/// The determinism contract of the tentpole: identical SweepSpec + seed
/// produce bit-identical aggregates at 1, 4 and hardware_concurrency()
/// threads.
TEST(Sweep, BitIdenticalAggregatesAtAnyThreadCount) {
  const SweepSpec spec = small_spec();
  const SweepResult baseline = engine::run_sweep(spec, SweepOptions{1});
  EXPECT_EQ(baseline.total_runs,
            spec.expand().size() * spec.replicates);

  const SweepResult four_threads = engine::run_sweep(spec, SweepOptions{4});
  EXPECT_TRUE(identical(baseline, four_threads));

  const SweepResult hardware = engine::run_sweep(spec, SweepOptions{0});
  EXPECT_TRUE(identical(baseline, hardware));
}

TEST(Sweep, BaseSeedChangesRandomStartOutcomes) {
  SweepSpec spec;
  spec.users = {6};
  spec.channels = {4};
  spec.radios = {2};
  spec.rates = {RateSpec{RateSpec::Kind::kPowerLaw, 1.0}};
  spec.replicates = 8;
  spec.base_seed = 1;
  const SweepResult a = engine::run_sweep(spec);
  spec.base_seed = 2;
  const SweepResult b = engine::run_sweep(spec);
  // Different seeds must actually draw different trajectories (activation
  // counts differ with overwhelming probability over 8 replicates).
  EXPECT_NE(a.cells[0].activations.mean(), b.cells[0].activations.mean());
}

TEST(Sweep, SequentialNeStartIsAlreadyStable) {
  SweepSpec spec;
  spec.users = {4, 6};
  spec.channels = {4};
  spec.radios = {2};
  spec.starts = {SweepStart::kSequentialNe};
  spec.replicates = 3;
  const SweepResult result = engine::run_sweep(spec);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.converged, cell.runs);
    EXPECT_EQ(cell.improving_steps.mean(), 0.0);
    const GameConfig config(cell.cell.users, cell.cell.channels,
                            cell.cell.radios);
    const GameModel game(config, cell.cell.rate.make(config.total_radios()));
    EXPECT_NEAR(cell.welfare.mean(), nash_welfare(game), 1e-12);
  }
}

TEST(Sweep, ConstantRateConflictRegimeHasUnitAnarchyRatio) {
  // Theorem 2: with constant R every NE is system-optimal.
  SweepSpec spec;
  spec.users = {4, 8};
  spec.channels = {4};
  spec.radios = {2};
  spec.replicates = 4;
  const SweepResult result = engine::run_sweep(spec);
  for (const CellResult& cell : result.cells) {
    EXPECT_EQ(cell.converged, cell.runs);
    EXPECT_NEAR(cell.anarchy_ratio.mean(), 1.0, 1e-9);
    EXPECT_NEAR(cell.efficiency.mean(), 1.0, 1e-9);
  }
}

TEST(SweepIo, CsvHasHeaderAndOneRowPerCell) {
  const SweepSpec spec = small_spec();
  const SweepResult result = engine::run_sweep(spec);
  const std::string csv = engine::sweep_to_csv(result);
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, result.cells.size() + 1);
  EXPECT_EQ(csv.rfind("cell,users,channels,radios,rate,", 0), 0u);
}

TEST(SweepIo, JsonIsBalancedAndCountsCells) {
  const SweepSpec spec = small_spec();
  const SweepResult result = engine::run_sweep(spec);
  const std::string json = engine::sweep_to_json(result);
  long depth = 0;
  std::size_t objects = 0;
  for (const char ch : json) {
    if (ch == '{') {
      ++depth;
      ++objects;
    } else if (ch == '}') {
      --depth;
    }
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"total_runs\":" +
                      std::to_string(result.total_runs)),
            std::string::npos);
}

TEST(SweepIo, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(engine::json_escape("plain"), "plain");
  EXPECT_EQ(engine::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(engine::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(engine::json_escape(std::string("nul\0byte", 8)),
            "nul\\u0000byte");
  EXPECT_EQ(engine::json_escape("\n\r\b\f"), "\\n\\r\\b\\f");
  EXPECT_EQ(engine::json_escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(SweepIo, JsonNumberEmitsNullForNonFiniteValues) {
  EXPECT_EQ(engine::json_number(1.5), "1.5");
  EXPECT_EQ(engine::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(engine::json_number(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(engine::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

/// The writers' former number formatter, kept as the oracle: one stream
/// per value, 17 significant digits.
std::string stream_precision_17(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

// full_precision (every CSV number cell) and json_number format into a
// stack buffer; both must spell every double exactly as the stream did,
// non-finite values included (JSON maps those to null instead).
TEST(SweepIo, NumberFormattersMatchTheStreamOracle) {
  using limits = std::numeric_limits<double>;
  const double values[] = {0.0,
                           -0.0,
                           limits::denorm_min(),
                           -limits::denorm_min(),
                           limits::min(),
                           limits::max(),
                           -limits::max(),
                           9007199254740993.0,  // 2^53 + 1, rounds to 2^53
                           std::nextafter(9007199254740992.0, 1e300),
                           0.1,
                           1.0 / 3.0,
                           -2.0 / 3.0,
                           1e300,
                           1e-300,
                           123456789012345680.0,
                           1.5,
                           limits::infinity(),
                           -limits::infinity(),
                           limits::quiet_NaN(),
                           -limits::quiet_NaN()};
  for (const double value : values) {
    const std::string oracle = stream_precision_17(value);
    EXPECT_EQ(full_precision(value), oracle) << oracle;
    EXPECT_EQ(engine::json_number(value),
              std::isfinite(value) ? oracle : "null")
        << oracle;
    // The spec-name formatter's shortest form parses back exactly.
    if (std::isfinite(value)) {
      EXPECT_EQ(std::strtod(round_trip_double(value).c_str(), nullptr),
                value)
          << oracle;
    }
  }
}

// The one tokenizer every spec, list and matrix reader shares: fields keep
// their empty and trailing members, and both parsers take whole tokens only.
TEST(SweepIo, TokenizerKeepsEmptyFieldsAndTakesWholeTokens) {
  EXPECT_EQ(split_fields("", ','), std::vector<std::string>{""});
  EXPECT_EQ(split_fields("a,", ','), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(split_fields("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  for (const char* bad : {"", " 1", "+1", "1x", "nan", "inf", "1e400"}) {
    EXPECT_FALSE(parse_finite(bad)) << bad;
    EXPECT_FALSE(parse_unsigned(bad)) << bad;
  }
  EXPECT_FALSE(parse_unsigned("-1"));
  EXPECT_FALSE(parse_unsigned("18446744073709551616"));
  EXPECT_EQ(parse_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_finite("-2.5"), -2.5);

  using limits = std::numeric_limits<double>;
  for (const double value :
       {0.0, -0.0, limits::denorm_min(), limits::min(), limits::max(),
        -limits::max(), 0.1, 1.0 / 3.0, 1e-300, 9007199254740993.0}) {
    const std::optional<double> parsed =
        parse_finite(round_trip_double(value));
    ASSERT_TRUE(parsed) << round_trip_double(value);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(value))
        << round_trip_double(value);
  }
}

TEST(RateSpecRoundTrip, DcfTableSpecsParseAndBuild) {
  // The sweep grid and the single-game commands now share one rate-spec
  // language, so the Bianchi table kinds must round-trip too.
  for (const char* name : {"dcf", "dcf-opt"}) {
    const RateSpec spec = RateSpec::parse(name);
    EXPECT_EQ(spec.name(), name);
    const auto rate = spec.make(8);
    EXPECT_GT(rate->rate(1), 0.0);
    rate->validate_non_increasing(8);
  }
}

TEST(SweepIo, FormatParserAcceptsKnownNamesOnly) {
  EXPECT_EQ(engine::parse_sweep_format("csv"), engine::SweepFormat::kCsv);
  EXPECT_EQ(engine::parse_sweep_format("json"), engine::SweepFormat::kJson);
  EXPECT_EQ(engine::parse_sweep_format("table"), engine::SweepFormat::kTable);
  EXPECT_THROW(engine::parse_sweep_format("xml"), std::invalid_argument);
}

TEST(Sweep, RejectsZeroReplicates) {
  SweepSpec spec;
  spec.replicates = 0;
  EXPECT_THROW(engine::run_sweep(spec), std::invalid_argument);
}

}  // namespace
}  // namespace mrca
