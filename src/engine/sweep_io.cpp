#include "engine/sweep_io.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/format.h"
#include "common/json.h"
#include "common/table.h"
#include "engine/session.h"

namespace mrca::engine {
namespace {

/// Writes `"<prefix><key>":{...}`.
void append_stats_json(std::ostringstream& out, const char* prefix,
                       std::string_view key,
                       const RunningStats& stats) {
  // `m2` (Welford's raw second moment) sits next to the derived stddev so
  // the document carries the aggregate's full merge state: sweep_from_json
  // restores it bit-for-bit and shard merges lose nothing to rounding.
  out << '"' << prefix << key << "\":{\"count\":" << stats.count()
      << ",\"mean\":" << json_number(stats.mean())
      << ",\"stddev\":" << json_number(stats.stddev())
      << ",\"m2\":" << json_number(stats.m2())
      << ",\"min\":" << json_number(stats.empty() ? 0.0 : stats.min())
      << ",\"max\":" << json_number(stats.empty() ? 0.0 : stats.max())
      << '}';
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          escaped += buffer;
        } else {
          escaped += ch;
        }
    }
  }
  return escaped;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  return full_precision(value);
}

void append_cell_axes_json(std::ostream& out, const SweepSpec::Cell& cell) {
  out << ",\"users\":" << cell.users << ",\"channels\":" << cell.channels
      << ",\"radios\":" << cell.radios << ",\"rate\":\""
      << json_escape(cell.rate.name()) << "\",\"scenario\":\""
      << json_escape(cell.scenario.name()) << "\",\"dynamics\":\""
      << json_escape(cell.dynamics.name()) << "\",\"granularity\":\""
      << to_string(cell.granularity) << "\",\"order\":\""
      << to_string(cell.order) << "\",\"start\":\"" << to_string(cell.start)
      << '"';
}

SweepFormat parse_sweep_format(const std::string& text) {
  if (text == "table") return SweepFormat::kTable;
  if (text == "csv") return SweepFormat::kCsv;
  if (text == "json") return SweepFormat::kJson;
  throw std::invalid_argument("unknown sweep format '" + text + "'");
}

namespace {

/// Mean of a stat whose samples can ALL be NaN-skipped (efficiency /
/// anarchy_ratio when the optimum is unknown, every welfare non-positive):
/// an empty aggregate prints nan — "no defined sample", never a fabricated
/// perfect-zero efficiency.
double skippable_mean(const RunningStats& stats) {
  return stats.empty() ? std::numeric_limits<double>::quiet_NaN()
                       : stats.mean();
}

}  // namespace

std::string sweep_to_csv(const SweepResult& result) {
  std::ostringstream out;
  out << "cell,users,channels,radios,rate,scenario,dynamics,granularity,"
         "order,start,"
         "runs,converged,activations_mean,activations_stddev,improving_mean,"
         "scan_skips_mean,reprice_touches_mean,"
         "welfare_mean,welfare_min,welfare_max,efficiency_mean,"
         "anarchy_ratio_mean,fairness_mean,load_imbalance_mean,"
         "deployed_mean,per_radio_spread_mean,budget_fairness_mean,"
         "coloring_bound_mean,max_degree_mean,graph_efficiency_mean,"
         "sim_runs,sim_total_bps_mean,sim_gap_mean,sim_gap_max,"
         "sim_fairness_mean,sim_imbalance_mean";
  // Dynamic metric block: <column>_mean and <column>_count per registered
  // metric column (the count exposes how many runs had a defined value).
  for (const std::string& column : result.metric_columns) {
    out << ',' << column << "_mean," << column << "_count";
  }
  out << '\n';
  for (const CellResult& cell : result.cells) {
    out << cell.cell.index << ',' << cell.cell.users << ','
        << cell.cell.channels << ',' << cell.cell.radios << ','
        << cell.cell.rate.name() << ',' << cell.cell.scenario.name() << ','
        << cell.cell.dynamics.name() << ','
        << to_string(cell.cell.granularity)
        << ',' << to_string(cell.cell.order) << ','
        << to_string(cell.cell.start) << ',' << cell.runs << ','
        << cell.converged << ',' << full_precision(cell.activations.mean())
        << ',' << full_precision(cell.activations.stddev()) << ','
        << full_precision(cell.improving_steps.mean()) << ','
        << full_precision(cell.scan_skips.mean()) << ','
        << full_precision(cell.reprice_touches.mean()) << ','
        << full_precision(cell.welfare.mean()) << ','
        << full_precision(cell.welfare.empty() ? 0.0 : cell.welfare.min())
        << ','
        << full_precision(cell.welfare.empty() ? 0.0 : cell.welfare.max())
        << ',' << full_precision(skippable_mean(cell.efficiency)) << ','
        << full_precision(skippable_mean(cell.anarchy_ratio)) << ','
        << full_precision(cell.fairness.mean()) << ','
        << full_precision(cell.load_imbalance.mean()) << ','
        << full_precision(cell.deployed.mean()) << ','
        << full_precision(cell.per_radio_spread.mean()) << ','
        << full_precision(cell.budget_fairness.mean()) << ','
        << full_precision(skippable_mean(cell.coloring_bound)) << ','
        << full_precision(skippable_mean(cell.max_degree)) << ','
        << full_precision(skippable_mean(cell.graph_efficiency)) << ','
        << cell.sim_runs << ','
        << full_precision(cell.sim_total_bps.mean()) << ','
        << full_precision(cell.sim_gap.mean()) << ','
        << full_precision(cell.sim_gap.empty() ? 0.0 : cell.sim_gap.max())
        << ',' << full_precision(cell.sim_fairness.mean()) << ','
        << full_precision(cell.sim_imbalance.mean());
    for (const RunningStats& stats : cell.metric_stats) {
      // An all-NaN column (metric undefined on every run of the cell)
      // prints nan, never a fabricated 0.
      out << ','
          << full_precision(stats.empty()
                                ? std::numeric_limits<double>::quiet_NaN()
                                : stats.mean())
          << ',' << stats.count();
    }
    out << '\n';
  }
  return out.str();
}

std::string sweep_to_json(const SweepResult& result) {
  std::ostringstream out;
  out << "{\"spec\":{\"fingerprint\":\""
      << json_escape(result.spec_fingerprint)
      << "\",\"cells_total\":" << result.cells_total
      << ",\"cell_begin\":" << result.cell_begin
      << ",\"cell_end\":" << result.cell_end << ",\"metric_columns\":[";
  for (std::size_t m = 0; m < result.metric_columns.size(); ++m) {
    if (m) out << ',';
    out << '"' << json_escape(result.metric_columns[m]) << '"';
  }
  out << "]},\"total_runs\":" << result.total_runs
      << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    if (i) out << ',';
    out << "{\"cell\":" << cell.cell.index;
    append_cell_axes_json(out, cell.cell);
    out << ",\"runs\":" << cell.runs << ",\"converged\":" << cell.converged;
    for (const RecordColumn& column : kRecordColumns) {
      out << ',';
      append_stats_json(out, "", column.name, cell.*column.stats);
    }
    out << ",\"sim_runs\":" << cell.sim_runs;
    for (const SimColumn& column : kSimColumns) {
      out << ',';
      append_stats_json(out, "sim_", column.name, cell.*column.stats);
    }
    if (!result.metric_columns.empty()) {
      out << ",\"metrics\":{";
      for (std::size_t m = 0; m < result.metric_columns.size(); ++m) {
        if (m) out << ',';
        append_stats_json(out, "", result.metric_columns[m],
                          cell.metric_stats[m]);
      }
      out << '}';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::string sweep_to_table(const SweepResult& result) {
  bool has_sim = false;
  bool has_scenario = false;
  bool has_topology = false;
  bool has_dynamics = false;
  for (const CellResult& cell : result.cells) {
    has_sim |= cell.sim_runs > 0;
    has_scenario |= cell.cell.scenario.kind != ScenarioSpec::Kind::kBase;
    has_topology |=
        cell.cell.scenario.kind == ScenarioSpec::Kind::kTopology;
    has_dynamics |=
        cell.cell.dynamics.kind != DynamicsSpec::Kind::kBestResponse;
  }

  std::vector<std::string> header = {
      "N", "C", "k", "rate", "dyn", "order", "start", "conv",
      "activations", "welfare", "efficiency", "PoA", "fairness"};
  // The engine column appears only when a non-default engine is present
  // (like the scenario column), so plain best-response tables are
  // unchanged.
  if (has_dynamics) header.insert(header.begin() + 4, "engine");
  if (has_scenario) {
    header.insert(header.begin() + 4, "scenario");
    header.insert(header.end(), {"deployed", "spread", "bfair"});
  }
  if (has_topology) {
    header.insert(header.end(), {"color bound", "max deg", "geff"});
  }
  if (has_sim) {
    header.insert(header.end(),
                  {"sim Mbps", "sim gap", "sim fair", "sim imbal"});
  }
  header.insert(header.end(), result.metric_columns.begin(),
                result.metric_columns.end());
  Table table(header);
  for (const CellResult& cell : result.cells) {
    std::string converged = std::to_string(cell.converged);
    converged += '/';
    converged += std::to_string(cell.runs);
    std::vector<std::string> row = {
        Table::fmt(cell.cell.users), Table::fmt(cell.cell.channels),
        Table::fmt(cell.cell.radios), cell.cell.rate.name(),
        to_string(cell.cell.granularity), to_string(cell.cell.order),
        to_string(cell.cell.start), std::move(converged),
        Table::fmt(cell.activations.mean(), 1),
        Table::fmt(cell.welfare.mean(), 4),
        cell.efficiency.empty() ? "-" : Table::fmt(cell.efficiency.mean(), 4),
        cell.anarchy_ratio.empty() ? "-"
                                   : Table::fmt(cell.anarchy_ratio.mean(), 4),
        Table::fmt(cell.fairness.mean(), 4)};
    if (has_dynamics) row.insert(row.begin() + 4, cell.cell.dynamics.name());
    if (has_scenario) {
      row.insert(row.begin() + 4, cell.cell.scenario.name());
      row.push_back(Table::fmt(cell.deployed.mean(), 2));
      row.push_back(Table::fmt(cell.per_radio_spread.mean(), 4));
      row.push_back(Table::fmt(cell.budget_fairness.mean(), 4));
    }
    if (has_topology) {
      row.push_back(cell.coloring_bound.empty()
                        ? "-"
                        : Table::fmt(cell.coloring_bound.mean(), 4));
      row.push_back(cell.max_degree.empty()
                        ? "-"
                        : Table::fmt(cell.max_degree.mean(), 0));
      row.push_back(cell.graph_efficiency.empty()
                        ? "-"
                        : Table::fmt(cell.graph_efficiency.mean(), 4));
    }
    if (has_sim) {
      row.push_back(Table::fmt(cell.sim_total_bps.mean() / 1e6, 4));
      row.push_back(Table::fmt(cell.sim_gap.mean(), 4));
      row.push_back(Table::fmt(cell.sim_fairness.mean(), 4));
      row.push_back(Table::fmt(cell.sim_imbalance.mean(), 4));
    }
    for (const RunningStats& stats : cell.metric_stats) {
      row.push_back(stats.empty() ? "-" : Table::fmt(stats.mean(), 4));
    }
    table.add_row(row);
  }
  return table.to_ascii();
}

namespace {

/// The stats object `object[key]`, restored to its exact merge state.
RunningStats stats_at(const JsonValue& object, const std::string& key) {
  const JsonValue& stats = object.at(key).as_object(key);
  return RunningStats::from_state(
      stats.at("count").as_count(key), stats.at("mean").as_double(key),
      stats.at("m2").as_double(key), stats.at("min").as_double(key),
      stats.at("max").as_double(key));
}

}  // namespace

SweepResult sweep_from_json(const std::string& text) {
  const JsonValue root = JsonValue::parse(text);
  // Every field is read through the checked common/json accessors, so a
  // hand-edited or foreign document fails with a message naming the field.
  const auto count_at = [](const JsonValue& object, const std::string& key) {
    return object.at(key).as_count(key);
  };
  const auto string_at = [](const JsonValue& object, const std::string& key) {
    return object.at(key).as_string(key);
  };
  SweepResult result;
  const JsonValue& spec = root.as_object("document").at("spec");
  result.spec_fingerprint = string_at(spec, "fingerprint");
  result.cells_total = count_at(spec, "cells_total");
  result.cell_begin = count_at(spec, "cell_begin");
  result.cell_end = count_at(spec, "cell_end");
  for (const JsonValue& column :
       spec.at("metric_columns").as_array("metric_columns")) {
    result.metric_columns.push_back(column.as_string("metric_columns"));
  }
  result.total_runs = count_at(root, "total_runs");

  for (const JsonValue& cell_json : root.at("cells").as_array("cells")) {
    CellResult cell;
    cell.cell.index = count_at(cell_json, "cell");
    cell.cell.users = count_at(cell_json, "users");
    cell.cell.channels = count_at(cell_json, "channels");
    cell.cell.radios = static_cast<RadioCount>(cell_json.at("radios").as_count(
        "radios", std::numeric_limits<RadioCount>::max()));
    cell.cell.rate = RateSpec::parse(string_at(cell_json, "rate"));
    cell.cell.scenario = ScenarioSpec::parse(string_at(cell_json, "scenario"));
    cell.cell.dynamics = DynamicsSpec::parse(string_at(cell_json, "dynamics"));
    cell.cell.granularity =
        parse_response_granularity(string_at(cell_json, "granularity"));
    cell.cell.order = parse_activation_order(string_at(cell_json, "order"));
    cell.cell.start = parse_sweep_start(string_at(cell_json, "start"));
    cell.runs = count_at(cell_json, "runs");
    cell.converged = count_at(cell_json, "converged");
    for (const RecordColumn& column : kRecordColumns) {
      cell.*column.stats = stats_at(cell_json, column.name);
    }
    cell.sim_runs = count_at(cell_json, "sim_runs");
    for (const SimColumn& column : kSimColumns) {
      cell.*column.stats =
          stats_at(cell_json, std::string("sim_") + column.name);
    }
    if (!result.metric_columns.empty()) {
      const JsonValue& metrics = cell_json.at("metrics").as_object("metrics");
      for (const std::string& column : result.metric_columns) {
        cell.metric_stats.push_back(stats_at(metrics, column));
      }
    }
    result.cells.push_back(std::move(cell));
  }
  return result;
}

void write_sweep(std::ostream& out, const SweepResult& result,
                 SweepFormat format) {
  switch (format) {
    case SweepFormat::kTable:
      out << sweep_to_table(result);
      return;
    case SweepFormat::kCsv:
      out << sweep_to_csv(result);
      return;
    case SweepFormat::kJson:
      out << sweep_to_json(result) << '\n';
      return;
  }
  throw std::logic_error("write_sweep: unknown format");
}

}  // namespace mrca::engine
