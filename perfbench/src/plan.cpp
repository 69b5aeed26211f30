#include "plan.h"

#include <stdexcept>

#include "core/server.h"

namespace portalbench {

namespace util = discover::util;

std::string Plan::node_name(std::uint32_t id) const {
  if (id == registry_node()) return "registry";
  if (id == server_a_node()) return "server:A";
  if (federated && id == server_b_node()) return "server:B";
  if (id >= app_node(0) && id < app_node(apps)) {
    return "app:" + app_name(static_cast<int>(id - app_node(0)));
  }
  if (id >= session_node(0) && id < scraper_a_node()) {
    return "client:" + sessions[id - session_node(0)].user;
  }
  if (id == scraper_a_node()) return "scraper:A";
  return "scraper:B";
}

int Plan::cpu_of(const std::string& role) const {
  const auto it = placement.find(role);
  if (it == placement.end()) {
    throw std::invalid_argument("no CPU placed for SUT role " + role);
  }
  return it->second;
}

namespace {

/// Lays out `per_app` sessions for each app: session 0 of a group steers
/// when `steerer`, the first `push` of each group enable server push, and
/// sessions flagged by `getter(j)` send get_param.  Sessions are spread
/// round-robin over the generator's connections to server A.
template <typename GetterFn>
void add_sessions(Plan& p, int per_app, bool steerer, int push,
                  GetterFn getter) {
  for (int a = 0; a < p.apps; ++a) {
    for (int j = 0; j < per_app; ++j) {
      SessionSpec s;
      s.app = a;
      s.user = "u" + std::to_string(a) + "_" + std::to_string(j);
      s.role = (steerer && j == 0) ? Role::steerer
                                   : (getter(j) ? Role::reader : Role::watcher);
      s.push = j < push;
      s.getter = s.role == Role::reader;
      s.conn = p.sessions.size() % p.conns_a;
      p.sessions.push_back(std::move(s));
    }
  }
}

}  // namespace

Plan make_plan(const std::string& workload, std::uint64_t seed,
               double seconds, bool trace) {
  Plan p;
  p.workload = workload;
  p.seed = seed;
  p.seconds = seconds;
  p.trace = trace;
  if (workload == "steer") {
    // The event loop, the server worker and the rest each own a CPU: a
    // request crosses loop -> server -> loop, and neither waits for the
    // other's time slice.
    p.placement = {{"main", 3}, {"loop:A", 1}, {"server:A", 2},
                   {"app", 3},  {"registry", 3}};
    // Small messages over the whole local request path; 1 steerer and 4
    // readers per app, every session polling its FIFO.
    p.apps = 4;
    p.filler_sensors = 4;
    p.set_rate = 250;
    p.get_rate = 200;
    p.poll_rate = 400;
    add_sessions(p, 5, /*steerer=*/true, /*push=*/0,
                 [](int j) { return j > 0; });
  } else if (workload == "fanout") {
    // ~2 KiB updates to 16 sessions per app on a 2-core server; half push,
    // half poll; one session per app sends a light get_param stream.
    p.shard_count = 2;
    p.apps = 4;
    p.filler_sensors = 90;
    p.step_time = util::milliseconds(10);
    // As in federated: unequal steps sweep the apps' fan-out bursts past
    // each other a few times a second instead of keeping the alignment
    // each run's start gave them.
    p.step_skew = util::microseconds(250);
    p.update_every = 1;
    p.interaction_window = util::milliseconds(1);
    p.get_rate = 20;
    p.poll_rate = 40;
    // The loop, the dispatcher and the two shard cores on separate CPUs
    // (the cores beside the apps).  With the whole SUT on one CPU, requests
    // queued behind each update's fan-out and op_p50_ms followed host steal
    // (five runs spread 0.29, against 0.07 placed like this).
    p.placement = {{"main", 3},    {"loop:A", 1}, {"server:A", 2},
                   {"shard:A", 3}, {"app", 3},    {"registry", 2}};
    add_sessions(p, 16, /*steerer=*/false, /*push=*/8,
                 [](int j) { return j == 8; });
  } else if (workload == "federated") {
    // Apps hosted at server B, every session at server A, all pushed to.
    p.federated = true;
    p.conns_a = 3;
    p.apps = 8;
    // An update waits in B's peer outbox until 5 ms after the batch's first
    // event, so its age depends on how the apps' update cycles (about
    // 22 ms) line up with each other and with that flush.  Unequal steps
    // make the apps' phases sweep past each other about once a second,
    // so every run samples every alignment instead of locking into the
    // one its start happened to give.
    p.step_time = util::milliseconds(6);
    p.step_skew = util::microseconds(200);
    p.filler_sensors = 4;
    p.set_rate = 100;
    p.get_rate = 100;
    // Every relayed command arms an ORB call timeout on server A's loop.
    // The loop's timer population, and with it its CPU use, grows until
    // the first of those timeouts come due; measure after that.
    p.warmup = discover::core::ServerConfig{}.orb_call_timeout +
               util::milliseconds(1500);
    // Server A's loop spins once those timeouts come due, so it gets a CPU
    // of its own; each other server keeps its loop beside its worker.
    p.placement = {{"main", 2},     {"loop:A", 1},   {"server:A", 2},
                   {"registry", 2}, {"loop:B", 3},   {"server:B", 3},
                   {"app", 3}};
    add_sessions(p, 3, /*steerer=*/true, /*push=*/3,
                 [](int j) { return j > 0; });
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return p;
}

}  // namespace portalbench
