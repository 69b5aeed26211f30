#include "procstat.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace portalbench {

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::atomic<std::uint64_t> g_recv_calls{0};

}  // namespace

extern "C" ssize_t __real_recv(int fd, void* buf, size_t len, int flags);
extern "C" ssize_t __wrap_recv(int fd, void* buf, size_t len, int flags) {
  g_recv_calls.fetch_add(1, std::memory_order_relaxed);
  return __real_recv(fd, buf, len, flags);
}

std::uint64_t recv_calls() {
  return g_recv_calls.load(std::memory_order_relaxed);
}

std::int64_t thread_cpu_ns(pid_t pid, pid_t tid) {
  const std::string s = slurp("/proc/" + std::to_string(pid) + "/task/" +
                              std::to_string(tid) + "/schedstat");
  return s.empty() ? 0 : std::strtoll(s.c_str(), nullptr, 10);
}

std::vector<pid_t> thread_ids(pid_t pid) {
  std::vector<pid_t> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
        out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
      }
    }
    closedir(d);
  }
  return out;
}

TaskCounters task_counters(pid_t pid) {
  TaskCounters out;
  const std::string base = "/proc/" + std::to_string(pid) + "/task/";
  for (const pid_t tid : thread_ids(pid)) {
    const std::string dir = base + std::to_string(tid);
    std::istringstream sched(slurp(dir + "/schedstat"));
    std::int64_t run = 0, wait = 0;
    if (sched >> run >> wait) {
      out.cpu_ns += run;
      out.runq_ns += wait;
    }
    std::istringstream status(slurp(dir + "/status"));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        out.wakeups += std::strtoull(line.c_str() + 24, nullptr, 10);
      }
    }
  }
  return out;
}

IoCounters io_counters(pid_t pid) {
  IoCounters out;
  std::istringstream in(slurp("/proc/" + std::to_string(pid) + "/io"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("syscr:", 0) == 0) {
      out.syscr = std::strtoull(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("syscw:", 0) == 0) {
      out.syscw = std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return out;
}

double peak_rss_mb(pid_t pid) {
  std::istringstream in(slurp("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::int64_t host_steal_ns() {
  std::istringstream in(slurp("/proc/stat"));
  std::string cpu;
  std::int64_t field[8] = {};
  in >> cpu;
  for (auto& f : field) in >> f;
  // user nice system idle iowait irq softirq steal, in clock ticks.
  return field[7] * (1'000'000'000 / sysconf(_SC_CLK_TCK));
}

std::int64_t self_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

int cpu_count() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int host_cpu(int cpu) {
  static const std::vector<int> allowed = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (allowed.empty() || cpu < 0) return -1;
  return allowed[static_cast<std::size_t>(cpu) % allowed.size()];
}

bool pin_to_cpu(pid_t tid, int cpu) {
  const int host = host_cpu(cpu);
  if (host < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(host, &set);
  return sched_setaffinity(tid, sizeof set, &set) == 0;
}

std::string affinity_of(pid_t tid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid, sizeof set, &set) != 0) return "?";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!out.empty()) out += '+';
    out += std::to_string(c);
  }
  return out;
}

std::map<std::string, std::string> host_info() {
  std::map<std::string, std::string> info;
  info["nproc"] = std::to_string(cpu_count());
  std::istringstream cpu(slurp("/proc/cpuinfo"));
  std::string line;
  while (std::getline(cpu, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      info["cpu_model"] =
          colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) info["kernel"] = u.release;
  info["compiler"] = "gcc " __VERSION__;
#ifdef PORTALBENCH_BUILD_TYPE
  info["build_type"] = PORTALBENCH_BUILD_TYPE;
#endif
#ifdef NDEBUG
  info["ndebug"] = "1";
#else
  info["ndebug"] = "0";
#endif
  return info;
}

}  // namespace portalbench
