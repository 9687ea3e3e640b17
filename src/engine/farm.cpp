#include "engine/farm.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/rng.h"
#include "common/subprocess.h"
#include "engine/sweep_io.h"

namespace mrca::engine {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string range_text(const CellRange& range) {
  return std::to_string(range.begin) + ":" + std::to_string(range.end);
}

/// Artifact basename stem for a job: "cells_<begin>_<end>". Ranges are
/// disjoint, so the stem is a unique, resume-stable job identity.
std::string range_tag(const CellRange& range) {
  return "cells_" + std::to_string(range.begin) + "_" +
         std::to_string(range.end);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("run_farm: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One queued unit of work: a cell range plus its launch history.
struct Job {
  CellRange range;
  std::size_t attempts = 0;  ///< launches so far
  Clock::time_point ready_at;
};

/// One live child and everything needed to judge and retire it.
struct Child {
  Job job;
  Subprocess proc;
  std::string partial_path;  ///< stdout target; renamed on clean exit
  std::string final_path;
  std::string line_buf;    ///< undelivered stderr bytes (split on '\n')
  std::string diag_tail;   ///< last non-JSON stderr, for failure reports
  std::size_t runs_done = 0;
  std::size_t runs_total = 0;
  Clock::time_point last_output;
  bool watchdog_killed = false;
};

void append_diag(Child& child, const std::string& line) {
  if (!child.diag_tail.empty()) child.diag_tail += " | ";
  child.diag_tail += line;
  // Keep only the end: the last words of a dying child are the useful ones.
  constexpr std::size_t kTailMax = 512;
  if (child.diag_tail.size() > kTailMax) {
    child.diag_tail.erase(0, child.diag_tail.size() - kTailMax);
  }
}

/// Consumes complete stderr lines: progress JSON updates the run counters,
/// anything else (abort messages, exceptions) is kept as diagnostics.
void consume_stderr_lines(Child& child) {
  std::size_t newline = 0;
  while ((newline = child.line_buf.find('\n')) != std::string::npos) {
    std::string line = child.line_buf.substr(0, newline);
    child.line_buf.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == '{') {
      try {
        const JsonValue update = JsonValue::parse(line);
        child.runs_done = update.at("runs_done").as_count("runs_done");
        child.runs_total = update.at("runs_total").as_count("runs_total");
        continue;
      } catch (const std::exception&) {
        // Not a progress line after all; fall through to diagnostics.
      }
    }
    append_diag(child, line);
  }
}

}  // namespace

std::chrono::milliseconds retry_backoff(const FarmSpec& spec,
                                        std::size_t job_begin,
                                        std::size_t attempt) {
  if (attempt <= 1) return std::chrono::milliseconds(0);
  const auto base =
      static_cast<std::uint64_t>(std::max<std::chrono::milliseconds::rep>(
          0, spec.backoff_base.count()));
  const auto cap =
      static_cast<std::uint64_t>(std::max<std::chrono::milliseconds::rep>(
          0, spec.backoff_cap.count()));
  std::uint64_t delay = std::min(base, cap);
  for (std::size_t step = 2; step < attempt; ++step) {
    if (delay >= cap || delay > cap / 2) {
      delay = cap;
      break;
    }
    delay *= 2;
  }
  // Jitter decorrelates shards that died together (say, a machine-wide OOM)
  // without wall-clock entropy: a pure SplitMix64 mix of (farm seed, job
  // identity, attempt), so the whole retry schedule replays from the seed.
  SplitMix64 mixer(spec.seed);
  const std::uint64_t salt =
      mixer.next() ^
      (static_cast<std::uint64_t>(job_begin) * 0x9e3779b97f4a7c15ULL) ^
      static_cast<std::uint64_t>(attempt);
  SplitMix64 jitter_source(salt);
  const std::uint64_t jitter = base == 0 ? 0 : jitter_source.next() % base;
  return std::chrono::milliseconds(delay + jitter);
}

std::vector<CellRange> missing_ranges(std::vector<CellRange> covered,
                                      std::size_t total) {
  std::vector<CellRange> spans;
  spans.reserve(covered.size());
  for (const CellRange& range : covered) {
    if (range.begin > range.end || range.end > total) {
      throw std::invalid_argument(
          "missing_ranges: range " + range_text(range) +
          " is not contained in [0, " + std::to_string(total) + ")");
    }
    if (range.begin != range.end) spans.push_back(range);
  }
  std::sort(spans.begin(), spans.end(),
            [](const CellRange& a, const CellRange& b) {
              return a.begin < b.begin;
            });
  std::vector<CellRange> missing;
  std::size_t cursor = 0;
  for (const CellRange& span : spans) {
    if (span.begin < cursor) {
      throw std::invalid_argument(
          "missing_ranges: ranges overlap at cell " +
          std::to_string(span.begin));
    }
    if (span.begin > cursor) missing.push_back({cursor, span.begin});
    cursor = span.end;
  }
  if (cursor < total) missing.push_back({cursor, total});
  return missing;
}

ArtifactScan scan_artifacts(const std::string& dir, const SweepPlan& plan) {
  ArtifactScan scan;
  if (!fs::exists(dir)) {
    scan.missing = missing_ranges({}, plan.total_cells());
    return scan;
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // ".partial" (in-flight stdout) and ".jsonl"/".tmp" (records) miss the
    // suffix check by construction: only complete shard documents match.
    if (name.rfind("cells_", 0) != 0) continue;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    scan.files.push_back(entry.path().string());
  }
  std::sort(scan.files.begin(), scan.files.end());

  const std::string fingerprint = plan.spec().fingerprint();
  for (const std::string& path : scan.files) {
    SweepResult shard;
    try {
      shard = sweep_from_json(read_file(path));
    } catch (const std::exception& error) {
      throw std::invalid_argument("scan_artifacts: '" + path +
                                  "' is not a complete shard document (" +
                                  error.what() + ")");
    }
    if (shard.spec_fingerprint != fingerprint) {
      throw std::invalid_argument(
          "scan_artifacts: fingerprint mismatch: '" + path + "' has '" +
          shard.spec_fingerprint + "', the farm's plan has '" + fingerprint +
          "' — artifact belongs to a different sweep");
    }
    if (shard.cells_total != plan.total_cells()) {
      throw std::invalid_argument(
          "scan_artifacts: '" + path + "' covers a plan of " +
          std::to_string(shard.cells_total) + " cells, expected " +
          std::to_string(plan.total_cells()));
    }
    scan.covered.push_back({shard.cell_begin, shard.cell_end});
  }
  scan.missing = missing_ranges(scan.covered, plan.total_cells());
  return scan;
}

FarmResult run_farm(const FarmSpec& spec, const SweepPlan& plan,
                    std::ostream* log) {
  if (spec.cli_path.empty()) {
    throw std::invalid_argument("run_farm: cli_path must be set");
  }
  if (spec.dir.empty()) {
    throw std::invalid_argument("run_farm: session dir must be set");
  }
  if (spec.shards == 0) {
    throw std::invalid_argument("run_farm: shards must be >= 1");
  }
  if (spec.max_attempts == 0) {
    throw std::invalid_argument("run_farm: max_attempts must be >= 1");
  }
  if (spec.backoff_base.count() < 0 || spec.backoff_cap.count() < 0 ||
      spec.watchdog.count() < 0) {
    throw std::invalid_argument("run_farm: negative durations");
  }
  if (spec.inject && spec.inject->attempt == 0) {
    throw std::invalid_argument("run_farm: injection attempt is 1-based");
  }

  fs::create_directories(spec.dir);

  FarmResult result;
  const std::size_t replicates = plan.spec().replicates;

  // --- Plan the jobs -----------------------------------------------------
  std::vector<CellRange> todo;
  if (spec.resume) {
    const ArtifactScan scan = scan_artifacts(spec.dir, plan);
    for (const CellRange& range : scan.covered) {
      result.cells_resumed += range.end - range.begin;
    }
    // Cut the missing ranges at the original shard boundaries so a resumed
    // session regains the same parallelism the first session had.
    std::vector<std::size_t> cuts;
    for (std::size_t i = 1; i < spec.shards; ++i) {
      cuts.push_back(plan.shard(i, spec.shards).cell_begin());
    }
    for (const CellRange& gap : scan.missing) {
      std::size_t begin = gap.begin;
      for (const std::size_t cut : cuts) {
        if (cut > begin && cut < gap.end) {
          todo.push_back({begin, cut});
          begin = cut;
        }
      }
      todo.push_back({begin, gap.end});
    }
    if (log != nullptr) {
      *log << "farm: resume: " << result.cells_resumed << "/"
           << plan.total_cells() << " cells already on disk, " << todo.size()
           << " job(s) remaining\n";
    }
  } else {
    const ArtifactScan scan = scan_artifacts(spec.dir, plan);
    if (!scan.files.empty()) {
      throw std::runtime_error(
          "run_farm: '" + spec.dir + "' already holds " +
          std::to_string(scan.files.size()) +
          " shard artifact(s); pass --resume to continue that session or "
          "use a fresh directory");
    }
    for (std::size_t i = 0; i < spec.shards; ++i) {
      const SweepPlan shard = plan.shard(i, spec.shards);
      if (shard.num_cells() > 0) {
        todo.push_back({shard.cell_begin(), shard.cell_end()});
      }
    }
  }

  std::deque<Job> queue;
  const Clock::time_point start = Clock::now();
  for (const CellRange& range : todo) {
    queue.push_back(Job{range, 0, start});
  }
  result.jobs = queue.size();

  std::size_t target_runs = 0;
  for (const CellRange& range : todo) {
    target_runs += (range.end - range.begin) * replicates;
  }
  if (log != nullptr && !todo.empty()) {
    *log << "farm: " << todo.size() << " job(s), "
         << target_runs / std::max<std::size_t>(1, replicates)
         << " cells to run, "
         << (spec.max_parallel == 0 ? spec.shards : spec.max_parallel)
         << " parallel\n";
  }

  // --- Event loop --------------------------------------------------------
  const std::size_t max_parallel =
      spec.max_parallel == 0 ? spec.shards : spec.max_parallel;
  std::vector<Child> running;
  std::vector<std::pair<CellRange, std::string>> dead;  // permanent failures
  std::size_t completed_runs = 0;
  std::size_t jobs_done = 0;
  Clock::time_point last_progress = start;

  auto launch = [&](Job job) {
    job.attempts += 1;
    Child child;
    child.job = job;
    child.final_path =
        (fs::path(spec.dir) / (range_tag(job.range) + ".json")).string();
    child.partial_path = child.final_path + ".partial";

    SubprocessSpec proc;
    proc.argv = {spec.cli_path, "sweep"};
    proc.argv.insert(proc.argv.end(), spec.sweep_args.begin(),
                     spec.sweep_args.end());
    proc.argv.insert(proc.argv.end(),
                     {"--cells", range_text(job.range), "--format", "json",
                      "--progress-json"});
    if (!spec.records_path.empty()) {
      proc.argv.insert(
          proc.argv.end(),
          {"--records",
           (fs::path(spec.dir) / (range_tag(job.range) + ".jsonl")).string()});
    }
    if (spec.inject && spec.inject->cell >= job.range.begin &&
        spec.inject->cell < job.range.end &&
        job.attempts == spec.inject->attempt) {
      proc.argv.insert(proc.argv.end(),
                       {spec.inject->kind == FaultInjection::Kind::kCrash
                            ? "--crash-at-cell"
                            : "--stall-at-cell",
                        std::to_string(spec.inject->cell)});
    }
    proc.stdout_path = child.partial_path;
    child.proc = Subprocess::spawn(proc);
    child.last_output = Clock::now();
    result.launches += 1;
    if (log != nullptr) {
      *log << "farm: cells " << range_text(job.range) << " launched (attempt "
           << job.attempts << "/" << spec.max_attempts << ", pid "
           << child.proc.pid() << ")\n";
    }
    running.push_back(std::move(child));
  };

  auto retire = [&](Child& child, const SubprocessExit& exit_status) {
    const CellRange range = child.job.range;
    if (exit_status.ok()) {
      fs::rename(child.partial_path, child.final_path);
      completed_runs += (range.end - range.begin) * replicates;
      jobs_done += 1;
      if (log != nullptr) {
        *log << "farm: cells " << range_text(range) << " done\n";
      }
      return;
    }
    result.failures += 1;
    std::error_code ignored;
    fs::remove(child.partial_path, ignored);
    std::string why = child.watchdog_killed
                          ? "watchdog timeout, killed (" +
                                exit_status.describe() + ")"
                          : exit_status.describe();
    if (!child.diag_tail.empty()) why += "; stderr: " + child.diag_tail;
    if (child.job.attempts < spec.max_attempts) {
      std::vector<CellRange> next;
      if (spec.subdivide && range.end - range.begin >= 2) {
        const std::size_t mid = range.begin + (range.end - range.begin) / 2;
        next = {{range.begin, mid}, {mid, range.end}};
        result.jobs += 1;  // one job became two
      } else {
        next = {range};
      }
      const Clock::time_point now = Clock::now();
      for (const CellRange& sub : next) {
        const auto delay =
            retry_backoff(spec, sub.begin, child.job.attempts + 1);
        queue.push_back(Job{sub, child.job.attempts, now + delay});
        if (log != nullptr) {
          *log << "farm: cells " << range_text(range) << " failed (" << why
               << "); retrying cells " << range_text(sub) << " in "
               << delay.count() << " ms (attempt "
               << child.job.attempts + 1 << "/" << spec.max_attempts
               << ")\n";
        }
      }
    } else {
      dead.emplace_back(range, why);
      if (log != nullptr) {
        *log << "farm: cells " << range_text(range)
             << " failed permanently (" << why << ")\n";
      }
    }
  };

  while (!queue.empty() || !running.empty()) {
    const Clock::time_point now = Clock::now();

    // Launch every due job while capacity lasts; once anything has failed
    // permanently, stop launching and just drain what is in flight (their
    // artifacts still land on disk for the next --resume).
    while (dead.empty() && running.size() < max_parallel && !queue.empty()) {
      auto due = queue.end();
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->ready_at <= now) {
          due = it;
          break;
        }
      }
      if (due == queue.end()) break;
      Job job = *due;
      queue.erase(due);
      launch(std::move(job));
    }
    if (!dead.empty() && running.empty()) break;

    if (running.empty()) {
      // Everything queued is in backoff: sleep toward the earliest deadline.
      Clock::time_point earliest = queue.front().ready_at;
      for (const Job& job : queue) {
        earliest = std::min(earliest, job.ready_at);
      }
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          earliest - Clock::now());
      if (wait.count() > 0) {
        std::this_thread::sleep_for(
            std::min(wait, std::chrono::milliseconds(100)));
      }
      continue;
    }

    std::vector<Subprocess*> procs;
    procs.reserve(running.size());
    for (Child& child : running) procs.push_back(&child.proc);
    const std::vector<std::size_t> ready =
        poll_stderr(procs, std::chrono::milliseconds(100));
    const Clock::time_point after_poll = Clock::now();
    for (const std::size_t index : ready) {
      Child& child = running[index];
      if (child.proc.read_stderr(child.line_buf) > 0) {
        child.last_output = after_poll;
      }
      consume_stderr_lines(child);
    }

    for (std::size_t i = running.size(); i-- > 0;) {
      Child& child = running[i];
      SubprocessExit exit_status;
      if (child.proc.try_wait(exit_status)) {
        child.proc.read_stderr(child.line_buf);
        consume_stderr_lines(child);
        retire(child, exit_status);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (spec.watchdog.count() > 0 && !child.watchdog_killed &&
                 after_poll - child.last_output >= spec.watchdog) {
        child.watchdog_killed = true;
        child.proc.kill_hard();  // reaped as "signal 9" on a later pass
      }
    }

    if (log != nullptr && target_runs > 0 &&
        after_poll - last_progress >= std::chrono::milliseconds(500)) {
      std::size_t in_flight = 0;
      for (const Child& child : running) in_flight += child.runs_done;
      *log << "farm: " << completed_runs + in_flight << "/" << target_runs
           << " runs, " << jobs_done << "/" << result.jobs << " job(s) done, "
           << running.size() << " running\n";
      last_progress = after_poll;
    }
  }

  if (!dead.empty()) {
    std::string message =
        "run_farm: " + std::to_string(dead.size()) +
        " job(s) failed after " + std::to_string(spec.max_attempts) +
        " attempt(s):";
    for (const auto& [range, why] : dead) {
      message += " [cells " + range_text(range) + ": " + why + "]";
    }
    message += "; finished shards remain in '" + spec.dir +
               "' — rerun with --resume after fixing the cause";
    throw std::runtime_error(message);
  }

  // --- Merge -------------------------------------------------------------
  const ArtifactScan final_scan = scan_artifacts(spec.dir, plan);
  if (!final_scan.missing.empty()) {
    throw std::runtime_error(
        "run_farm: internal error: cells " +
        range_text(final_scan.missing.front()) +
        " have no artifact after a clean session");
  }
  std::vector<SweepResult> shards;
  shards.reserve(final_scan.files.size());
  for (const std::string& path : final_scan.files) {
    shards.push_back(sweep_from_json(read_file(path)));
  }
  result.merged = merge_sweep_results(shards);

  if (!spec.records_path.empty()) {
    // Concatenate per-job JSONL shards in absolute cell order; records are
    // delivered in task order inside each job, so the concatenation equals
    // the single-process stream.
    std::vector<CellRange> order = final_scan.covered;
    std::sort(order.begin(), order.end(),
              [](const CellRange& a, const CellRange& b) {
                return a.begin < b.begin;
              });
    const std::string tmp_path = spec.records_path + ".tmp";
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("run_farm: cannot write '" + tmp_path + "'");
    }
    for (const CellRange& range : order) {
      if (range.begin == range.end) continue;
      const std::string shard_path =
          (fs::path(spec.dir) / (range_tag(range) + ".jsonl")).string();
      std::ifstream in(shard_path, std::ios::binary);
      if (!in) {
        throw std::runtime_error(
            "run_farm: records shard '" + shard_path +
            "' is missing (was an earlier session run without --records?)");
      }
      if (in.peek() != std::ifstream::traits_type::eof()) out << in.rdbuf();
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("run_farm: failed writing '" + tmp_path + "'");
    }
    out.close();
    fs::rename(tmp_path, spec.records_path);
  }

  if (log != nullptr) {
    *log << "farm: merged " << result.merged.cells.size() << " cell(s) from "
         << final_scan.files.size() << " artifact(s) (" << result.launches
         << " launch(es), " << result.failures << " failure(s))\n";
  }
  return result;
}

}  // namespace mrca::engine
