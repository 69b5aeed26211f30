// Outside-in resource accounting from /proc: per-thread CPU time, scheduler
// and I/O counters and peak RSS of another process, host steal, CPU
// pinning, and the host description every result records.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace portalbench {

/// CPU time (ns) a thread has run, from /proc/<pid>/task/<tid>/schedstat;
/// 0 when the thread is gone.
std::int64_t thread_cpu_ns(pid_t pid, pid_t tid);
/// Thread ids of `pid` right now.
std::vector<pid_t> thread_ids(pid_t pid);
/// Scheduler counters of one process, summed over its live threads.
struct TaskCounters {
  std::int64_t cpu_ns = 0;       // schedstat: time on a CPU
  std::int64_t runq_ns = 0;      // schedstat: time runnable but waiting
  std::uint64_t wakeups = 0;     // voluntary context switches (blocked, then woken)
};
TaskCounters task_counters(pid_t pid);
/// Read- and write-type system calls `pid` has made (/proc/<pid>/io
/// syscr, syscw).  syscr counts read()/readv() but not recv(), so it holds
/// the event loop's wake-pipe drains and misses its socket reads (see
/// recv_calls()); syscw holds the sockets' writev() and the wake-pipe
/// writes.
struct IoCounters {
  std::uint64_t syscr = 0;
  std::uint64_t syscw = 0;
};
IoCounters io_counters(pid_t pid);
/// VmHWM of `pid` in MiB (0 when unreadable).
double peak_rss_mb(pid_t pid);
/// Host-wide steal time (ns) from /proc/stat: time this VM's vCPUs were
/// runnable but not running because the hypervisor ran someone else.
std::int64_t host_steal_ns();
/// user+sys CPU of the calling process (ns), from getrusage.
std::int64_t self_cpu_ns();

/// recv() calls this process has made.  The benchmark links with
/// --wrap=recv, so every recv() of the middleware's sockets passes through
/// a counting wrapper; a forked SUT reports its own count.
std::uint64_t recv_calls();

/// Online CPUs (at least 1).
int cpu_count();
/// The CPU that plan CPU `cpu` stands for: the (cpu % n)-th of the n CPUs
/// this process was allowed to run on when it first asked (before any
/// pinning; a forked SUT inherits the answer), or -1 when unreadable.
int host_cpu(int cpu);
/// Pins thread `tid` (0: the calling thread) to host_cpu(cpu); false if
/// the kernel refused.
bool pin_to_cpu(pid_t tid, int cpu);
/// The CPUs thread `tid` of this or another process may run on, as
/// "1" or "1+3" ("?" when unreadable).
std::string affinity_of(pid_t tid);

/// nproc, CPU model, kernel, compiler and build type.
std::map<std::string, std::string> host_info();

}  // namespace portalbench
