#pragma once

#include <string>
#include <vector>

namespace bench_e2e {

/// What one child process cost, as wait4 reports it. CPU and peak RSS
/// include every descendant the child itself reaped (a sharded run's
/// workers are reaped by their coordinator).
struct ProcessResult {
  int exit_code = -1;  ///< exit status, or 128 + signal number
  bool timed_out = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system
  double peak_rss_mb = 0.0;

  bool ok() const noexcept { return exit_code == 0 && !timed_out; }
};

/// Call once at start. Makes this process the reaper of orphaned
/// descendants, so a child that dies and leaves workers behind cannot leak
/// them (run_process kills and waits for its whole process group before
/// returning), and makes SIGINT/SIGTERM/SIGHUP kill the child in flight
/// before this process dies.
void supervise_children();

/// Runs argv[0] (an executable path) with `argv`, stdout and stderr
/// redirected to the given files ("" = /dev/null), in its own process
/// group. Blocks until the child and everything left in its group have
/// ended; after `timeout_s` the group is killed and timed_out is set.
/// Throws std::runtime_error when the child cannot be started.
ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& stdout_path,
                          const std::string& stderr_path, double timeout_s);

/// Last `max_bytes` of a text file (for failure messages); "" when absent.
std::string file_tail(const std::string& path, std::size_t max_bytes = 600);

}  // namespace bench_e2e
