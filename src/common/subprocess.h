// Small portable child-process helper for the sweep farm (engine/farm):
// fork/exec with the child's stdout optionally redirected to a file and
// its stderr captured through a non-blocking pipe, plus WNOHANG reaping,
// hard kill, and a poll()-based multiplexer over many children's stderr
// streams.
//
// Scope is deliberately narrow — launch-a-worker-and-watch-it, nothing
// else: no shells (argv goes straight to execvp, so paths with spaces and
// metacharacters are data, not code), no stdin plumbing, no process
// groups. POSIX-only; the farm is the one subsystem that needs processes,
// and it is gated out of any platform without fork/exec at the CLI layer.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace mrca {

/// What to launch. argv[0] is the program (resolved through PATH when it
/// contains no '/'); the remaining elements are its arguments.
struct SubprocessSpec {
  std::vector<std::string> argv;
  /// When non-empty, the child's stdout is redirected to this file
  /// (created/truncated). Empty = inherit the parent's stdout.
  std::string stdout_path;
  /// Capture the child's stderr through a pipe (read via read_stderr /
  /// poll_stderr). When false the child inherits the parent's stderr.
  bool capture_stderr = true;
};

/// How a child ended. A child that could not exec reports exit code 127
/// (the shell convention), so a bad binary path surfaces as a normal
/// failure, not a hang.
struct SubprocessExit {
  bool exited = false;    ///< normal exit(code)
  int exit_code = -1;
  bool signaled = false;  ///< killed by a signal
  int term_signal = 0;

  bool ok() const noexcept { return exited && exit_code == 0; }
  /// "exit 3" / "signal 9" — for failure messages.
  std::string describe() const;
};

/// One spawned child. Move-only; the destructor hard-kills and reaps a
/// still-running child so a throwing caller never leaks a zombie or an
/// orphan that keeps writing artifacts.
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Launches the child. Throws std::runtime_error when the pipe, the
  /// redirect file, or fork itself fails (exec failure is reported
  /// asynchronously as exit code 127 instead).
  static Subprocess spawn(const SubprocessSpec& spec);

  bool valid() const noexcept { return pid_ > 0; }
  /// Child pid; 0 for a default-constructed or moved-from object.
  long pid() const noexcept { return pid_; }

  /// Appends whatever is currently readable from the child's stderr pipe
  /// to `out` without blocking. Returns the number of bytes appended (0:
  /// nothing available, pipe at EOF, or stderr not captured).
  std::size_t read_stderr(std::string& out);

  /// Non-blocking reap: returns true (and fills `result`) once the child
  /// has terminated; the exit status is cached, so calling again after
  /// true keeps returning the same result.
  bool try_wait(SubprocessExit& result);

  /// Blocking reap (drains remaining stderr first so a child blocked on a
  /// full pipe can exit).
  SubprocessExit wait();

  /// SIGKILL the child (no-op when already terminated). The caller still
  /// observes the death through try_wait/wait as "signal 9".
  void kill_hard() noexcept;

 private:
  long pid_ = 0;
  int stderr_fd_ = -1;
  bool reaped_ = false;
  SubprocessExit exit_{};

  void close_stderr() noexcept;
  friend std::vector<std::size_t> poll_stderr(
      const std::vector<Subprocess*>& children,
      std::chrono::milliseconds timeout);
};

/// Blocks up to `timeout` for stderr data (or EOF) on any of the given
/// children; returns the indices that are ready to read_stderr(). Children
/// whose pipe is already at EOF (or was never captured) are skipped; when
/// nothing is pollable the call sleeps for `timeout` so the farm's event
/// loop keeps one uniform cadence.
std::vector<std::size_t> poll_stderr(const std::vector<Subprocess*>& children,
                                     std::chrono::milliseconds timeout);

}  // namespace mrca
