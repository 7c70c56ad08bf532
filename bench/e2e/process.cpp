#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace bench_e2e {

namespace {

int open_for_child(const std::string& path) {
  return ::open(path.empty() ? "/dev/null" : path.c_str(),
                O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Process group of the child in flight (0 = none), for the signal handler.
std::atomic<pid_t> g_child_group{0};

void kill_child_and_exit(int signal) {
  const pid_t group = g_child_group.load();
  if (group > 0) ::kill(-group, SIGKILL);
  ::signal(signal, SIG_DFL);
  ::raise(signal);
}

}  // namespace

void supervise_children() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  for (const int signal : {SIGINT, SIGTERM, SIGHUP})
    ::signal(signal, kill_child_and_exit);
}

ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& stdout_path,
                          const std::string& stderr_path, double timeout_s) {
  if (argv.empty()) throw std::runtime_error("run_process: empty argv");
  // Everything the child touches is prepared before fork: between fork
  // and exec it only makes async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& arg : argv)
    args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int out = open_for_child(stdout_path);
  const int err = open_for_child(stderr_path);
  if (out < 0 || err < 0) {
    const std::string reason = std::strerror(errno);
    if (out >= 0) ::close(out);
    if (err >= 0) ::close(err);
    throw std::runtime_error("run_process: cannot open output files: " +
                             reason);
  }

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string reason = std::strerror(errno);
    ::close(out);
    ::close(err);
    throw std::runtime_error("run_process: fork: " + reason);
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  // Set from both sides so the group exists before either can signal it.
  ::setpgid(pid, pid);
  g_child_group.store(pid);
  ::close(out);
  ::close(err);

  std::mutex mutex;
  std::condition_variable exited;
  bool done = false;
  bool fired = false;
  std::thread watchdog{[&] {
    std::unique_lock<std::mutex> lock{mutex};
    if (!exited.wait_for(lock, std::chrono::duration<double>(timeout_s),
                         [&] { return done; })) {
      fired = true;
      ::kill(-pid, SIGKILL);
    }
  }};

  int status = 0;
  rusage usage{};
  pid_t waited;
  do {
    waited = ::wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  const int wait_errno = waited < 0 ? errno : 0;
  const auto end = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock{mutex};
    done = true;
  }
  exited.notify_one();
  watchdog.join();

  // Whatever is left in the child's group (workers orphaned by a crashed
  // coordinator, re-parented here by supervise_children) is killed and reaped.
  ::kill(-pid, SIGKILL);
  while (true) {
    if (::waitpid(-pid, nullptr, 0) > 0) continue;
    if (errno != EINTR) break;
  }
  g_child_group.store(0);
  if (waited < 0)
    throw std::runtime_error(std::string("run_process: wait4: ") +
                             std::strerror(wait_errno));

  ProcessResult result;
  result.timed_out = fired;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
  result.wall_s = std::chrono::duration<double>(end - start).count();
  result.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

std::string file_tail(const std::string& path, std::size_t max_bytes) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) return "";
  const std::streamoff size = in.tellg();
  const std::streamoff from =
      size > static_cast<std::streamoff>(max_bytes)
          ? size - static_cast<std::streamoff>(max_bytes)
          : 0;
  in.seekg(from);
  std::string tail(static_cast<std::size_t>(size - from), '\0');
  in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  return tail;
}

}  // namespace bench_e2e
