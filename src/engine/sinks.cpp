#include "engine/sinks.h"

#include <cmath>
#include <ostream>

#include "engine/sweep_io.h"

namespace mrca::engine {
namespace {

/// The one aggregation rule (engine/session.h): NaN is "undefined for this
/// run" and is skipped.
void add_defined(RunningStats& stats, double sample) {
  if (!std::isnan(sample)) stats.add(sample);
}

}  // namespace

void AggregatingSink::begin(const SweepPlan& plan) {
  result_ = SweepResult{};
  result_.metric_columns = plan.spec().metrics.column_names();
  result_.total_runs = plan.num_runs();
  result_.spec_fingerprint = plan.spec().fingerprint();
  result_.cells_total = plan.total_cells();
  result_.cell_begin = plan.cell_begin();
  result_.cell_end = plan.cell_end();
  result_.cells.reserve(plan.num_cells());
  cell_open_ = false;
}

void AggregatingSink::consume(const RunRecord& record) {
  if (cell_open_ && open_cell_.cell.index != record.cell.index) {
    result_.cells.push_back(std::move(open_cell_));
    cell_open_ = false;
  }
  if (!cell_open_) {
    open_cell_ = CellResult{};
    open_cell_.cell = record.cell;
    open_cell_.metric_stats.resize(result_.metric_columns.size());
    cell_open_ = true;
  }
  CellResult& aggregate = open_cell_;
  ++aggregate.runs;
  if (record.converged) ++aggregate.converged;
  for (const RecordColumn& column : kRecordColumns) {
    add_defined(aggregate.*column.stats, record.*column.sample);
  }
  for (std::size_t m = 0; m < record.metric_values.size(); ++m) {
    add_defined(aggregate.metric_stats[m], record.metric_values[m]);
  }
  for (const SimTierOutcome& sim : record.sim) {
    ++aggregate.sim_runs;
    for (const SimColumn& column : kSimColumns) {
      add_defined(aggregate.*column.stats, sim.*column.sample);
    }
  }
}

void AggregatingSink::finish() {
  if (cell_open_) {
    result_.cells.push_back(std::move(open_cell_));
    cell_open_ = false;
  }
}

void RecordSink::begin(const SweepPlan& plan) {
  metric_columns_ = plan.spec().metrics.column_names();
  records_ = 0;
}

void RecordSink::consume(const RunRecord& record) {
  std::ostream& out = *out_;
  out << "{\"cell\":" << record.cell.index
      << ",\"replicate\":" << record.replicate
      << ",\"seed\":" << record.seed;
  append_cell_axes_json(out, record.cell);
  out << ",\"converged\":" << (record.converged ? "true" : "false");
  for (const RecordColumn& column : kRecordColumns) {
    out << ",\"" << column.name
        << "\":" << json_number(record.*column.sample);
  }
  if (!metric_columns_.empty()) {
    out << ",\"metrics\":{";
    for (std::size_t m = 0; m < record.metric_values.size(); ++m) {
      if (m) out << ',';
      out << '"' << json_escape(metric_columns_[m])
          << "\":" << json_number(record.metric_values[m]);
    }
    out << '}';
  }
  if (!record.sim.empty()) {
    out << ",\"sim\":[";
    for (std::size_t s = 0; s < record.sim.size(); ++s) {
      const SimTierOutcome& sim = record.sim[s];
      if (s) out << ',';
      char separator = '{';
      for (const SimColumn& column : kSimColumns) {
        out << separator << '"' << column.name
            << "\":" << json_number(sim.*column.sample);
        separator = ',';
      }
      out << '}';
    }
    out << ']';
  }
  out << "}\n";
  ++records_;
}

void RecordSink::finish() { out_->flush(); }

void ProgressSink::begin(const SweepPlan& plan) {
  done_ = 0;
  cells_done_ = 0;
  total_ = plan.num_runs();
  replicates_ = plan.spec().replicates;
  shard_index_ = plan.shard_index();
  shard_count_ = plan.shard_count();
  cell_begin_ = plan.cell_begin();
  cell_end_ = plan.cell_end();
  cells_total_ = plan.total_cells();
  last_drawn_done_ = static_cast<std::size_t>(-1);
  label_ = "sweep";
  if (!plan.is_full()) {
    if (plan.shard_count() > 1) {
      // 0-based, matching the CLI's --shard i/n spelling and the table
      // footer, so one run never reports two different shard labels.
      label_ += " [shard " + std::to_string(plan.shard_index()) + "/" +
                std::to_string(plan.shard_count()) + ": " +
                std::to_string(plan.num_cells()) + " of " +
                std::to_string(plan.total_cells()) + " cells]";
    } else {
      // An explicit --cells slice has no i/n identity; name the range.
      label_ += " [cells " + std::to_string(plan.cell_begin()) + ":" +
                std::to_string(plan.cell_end()) + " of " +
                std::to_string(plan.total_cells()) + "]";
    }
  }
  begin_time_ = std::chrono::steady_clock::now();
  // First frame immediately: a long first task should not look like a hang
  // (and in JSON mode the zero-progress line is the child's "I'm alive").
  draw();
  last_draw_ = begin_time_;
}

void ProgressSink::consume(const RunRecord& record) {
  ++done_;
  // Tasks arrive cell-major, replicate-minor: the last replicate closes
  // its cell.
  if (record.replicate + 1 == replicates_) ++cells_done_;
  const auto now = std::chrono::steady_clock::now();
  if (done_ == total_ || now - last_draw_ >= min_interval_) {
    draw();
    last_draw_ = now;
  }
}

void ProgressSink::finish() {
  draw();
  if (format_ == Format::kHuman) *out_ << '\n';
  out_->flush();
}

void ProgressSink::draw() {
  if (format_ == Format::kJson) {
    if (done_ == last_drawn_done_) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin_time_)
            .count();
    *out_ << "{\"type\":\"progress\",\"shard_index\":" << shard_index_
          << ",\"shard_count\":" << shard_count_
          << ",\"cell_begin\":" << cell_begin_
          << ",\"cell_end\":" << cell_end_
          << ",\"cells_total\":" << cells_total_
          << ",\"cells_done\":" << cells_done_
          << ",\"runs_done\":" << done_ << ",\"runs_total\":" << total_
          << ",\"records\":" << done_
          << ",\"elapsed_s\":" << json_number(elapsed) << "}\n"
          << std::flush;
    last_drawn_done_ = done_;
    return;
  }
  const std::size_t percent = total_ == 0 ? 100 : done_ * 100 / total_;
  *out_ << '\r' << label_ << ": " << done_ << '/' << total_ << " runs ("
        << percent << "%)" << std::flush;
}

}  // namespace mrca::engine
