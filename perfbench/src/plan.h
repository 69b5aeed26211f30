// Workload plans and the node topology both benchmark processes build.
//
// The system under test (SUT) and the load generator run in separate
// processes over loopback TCP.  The transport's node ids are a global space
// fixed by construction order, so both sides derive the same topology from
// one Plan: registry, server A, [server B], apps, sessions, scrapers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/clock.h"

namespace portalbench {

enum class Role : std::uint8_t { steerer, reader, watcher };

struct SessionSpec {
  std::string user;
  int app = 0;             // index into the plan's apps
  Role role = Role::watcher;
  bool push = false;       // GroupOp::enable_push after select
  bool getter = false;     // sends open-loop get_param
  std::size_t conn = 0;    // generator connection carrying it
};

struct Plan {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured open-loop window
  bool trace = false;

  // -- system under test ----------------------------------------------------
  bool federated = false;          // apps at server B, sessions at server A
  std::uint32_t shard_count = 1;   // server A's cores
  int apps = 4;
  int filler_sensors = 4;          // pads updates to the workload's size
  discover::util::Duration step_time = discover::util::milliseconds(5);
  std::uint32_t update_every = 2;  // advertised period = step * update_every
  discover::util::Duration step_skew = 0;  // app i steps every step_time + i * step_skew
  discover::util::Duration interaction_window =
      discover::util::milliseconds(5);
  discover::util::Duration peer_refresh = discover::util::milliseconds(100);

  // -- generator --------------------------------------------------------------
  std::vector<SessionSpec> sessions;
  std::size_t conns_a = 4;        // generator sockets to server A's process
  double set_rate = 0;            // set_param/s per steerer
  double get_rate = 0;            // get_param/s per getter
  double poll_rate = 0;           // polls/s per polling session
  std::uint32_t poll_max_events = 256;
  // Open-loop load before the window; long enough for the SUT's timer
  // population to reach its steady state.
  discover::util::Duration warmup = discover::util::seconds(1);
  int setup_reps = 21;            // set-ups per run; setup_s is the median
  discover::util::Duration request_timeout = discover::util::seconds(5);

  // -- CPU placement ----------------------------------------------------------
  // CPU of each SUT thread role, fixed per workload so that every run, on
  // every commit, places the same threads together.  Roles: "main" (the
  // SUT's control thread), "loop:A"/"loop:B" (OsNetwork event loops),
  // "server:A"/"server:B" (the servers' workers), "shard:A" (the cores a
  // sharded server A adds), "app" and "registry" (their workers).  The
  // generator owns kGenCpu.  CPU c is the (c % n)-th of the n CPUs the run
  // may use (host_cpu()); a thread found elsewhere fails the set-up.
  static constexpr int kGenCpu = 0;
  std::map<std::string, int> placement;
  [[nodiscard]] int cpu_of(const std::string& role) const;

  // -- node ids (construction order; identical in both processes) ----------
  [[nodiscard]] std::uint32_t registry_node() const { return 0; }
  [[nodiscard]] std::uint32_t server_a_node() const { return 1; }
  [[nodiscard]] std::uint32_t server_b_node() const { return 2; }
  [[nodiscard]] std::uint32_t app_node(int i) const {
    return (federated ? 3u : 2u) + static_cast<std::uint32_t>(i);
  }
  [[nodiscard]] std::uint32_t session_node(std::size_t i) const {
    return app_node(apps) + static_cast<std::uint32_t>(i);
  }
  [[nodiscard]] std::uint32_t scraper_a_node() const {
    return session_node(sessions.size());
  }
  [[nodiscard]] std::uint32_t scraper_b_node() const {
    return scraper_a_node() + 1;
  }
  [[nodiscard]] std::uint32_t node_count() const {
    return scraper_a_node() + (federated ? 2u : 1u);
  }
  [[nodiscard]] std::string node_name(std::uint32_t id) const;
  [[nodiscard]] std::string app_name(int i) const {
    return "app" + std::to_string(i);
  }
  /// Generator connections in total (A's plus the one scraping server B).
  [[nodiscard]] std::size_t conns_total() const {
    return conns_a + (federated ? 1 : 0);
  }
};

/// The named workloads; throws std::invalid_argument for unknown names.
Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, bool trace);

}  // namespace portalbench
