#include "sut.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "app/steerable_app.h"
#include "core/server.h"
#include "grid/gis.h"
#include "gen_network.h"
#include "http/http_message.h"
#include "net/os_network.h"
#include "orb/orb.h"
#include "proto/messages.h"
#include "procstat.h"
#include "wire/cdr.h"
#include "workload/scenario.h"  // RegistryNode

namespace portalbench {

namespace app = discover::app;
namespace core = discover::core;
namespace net = discover::net;
namespace proto = discover::proto;
namespace util = discover::util;

std::uint64_t header_u64(const util::Bytes& msg, const char* name) {
  const std::size_t len = std::strlen(name);
  const auto* head = msg.data();
  const std::size_t n = msg.size();
  for (std::size_t i = 0; i + len + 2 <= n; ++i) {
    if (head[i] == '\r' && i + 3 < n && head[i + 2] == '\r') break;  // body
    if (head[i] == name[0] && std::memcmp(head + i, name, len) == 0 &&
        head[i + len] == ':') {
      std::uint64_t v = 0;
      for (std::size_t j = i + len + 1; j < n; ++j) {
        const char c = static_cast<char>(head[j]);
        if (c == ' ') continue;
        if (c < '0' || c > '9') break;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
      }
      return v;
    }
  }
  return 0;
}

namespace {

pid_t gettid_now() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

/// Bench-local app: `p0` is the steerable parameter, `emit_ns` stamps each
/// update with CLOCK_MONOTONIC at the step that emits it, and filler
/// sensors pad the update to the workload's message size.
class BenchApp final : public app::SteerableApp {
 public:
  BenchApp(net::Network& network, app::AppConfig config, int filler)
      : SteerableApp(network, std::move(config)), filler_(filler) {}

 protected:
  void init_control(app::ControlNetwork& control) override {
    control.bind_double("p0", "", -1e15, 1e15, &p0_);
    control.add_sensor("emit_ns", "ns",
                       [this] { return proto::ParamValue{emit_ns_}; });
    for (int i = 0; i < filler_; ++i) {
      char name[16];
      std::snprintf(name, sizeof name, "f%03d", i);
      control.add_sensor(name, "", [this, i] {
        return proto::ParamValue{emit_ns_ * 1e-9 + i};
      });
    }
  }
  void compute_step(std::uint64_t) override {
    emit_ns_ = static_cast<double>(mono_ns());
  }

 private:
  int filler_;
  double p0_ = 0;
  double emit_ns_ = 0;
};

enum class NodeKind { registry, server, app };

/// Thin wrapper in front of one SUT node's on_message.  On its first call
/// it records the worker thread id (thread -> layer mapping for /proc CPU)
/// and pins that thread to its role's CPU.  Until set-up completes it runs
/// the readiness check after each message; in the traced run it records
/// spans around the real handler.
class Probe final : public net::MessageHandler {
 public:
  Probe(NodeKind kind, std::uint32_t node, bool trace, int cpu)
      : kind_(kind), node_(node), trace_(trace), cpu_(cpu) {}

  void set_inner(net::MessageHandler* inner) { inner_ = inner; }
  /// Runs after every message until it returns true.
  void set_until_ready(std::function<bool()> fn) { until_ready_ = std::move(fn); }

  void on_message(const net::Message& msg) override {
    if (tid_.load(std::memory_order_relaxed) == 0) {
      tid_.store(gettid_now(), std::memory_order_relaxed);
      // A refused pin shows in the placement the generator checks.
      pin_to_cpu(0, cpu_);
    }
    if (!trace_) {
      inner_->on_message(msg);
    } else {
      const std::int64_t t0 = mono_ns();
      inner_->on_message(msg);
      const std::int64_t t1 = mono_ns();
      record(msg, t0, t1);
    }
    if (until_ready_ && until_ready_()) until_ready_ = nullptr;
  }

  [[nodiscard]] pid_t tid() const {
    return tid_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] NodeKind kind() const { return kind_; }

  // Owned by the node's worker; read only after the network stopped.
  std::vector<SutSpan> spans;
  std::vector<util::Bytes> giop_capture;
  std::uint64_t giop_bytes = 0;

 private:
  static constexpr std::size_t kMaxSpans = 2'000'000;
  static constexpr std::size_t kMaxGiopCapture = 2000;

  void record(const net::Message& msg, std::int64_t t0, std::int64_t t1) {
    if (spans.size() >= kMaxSpans) return;
    SutSpan s;
    s.node = node_;
    s.peer = msg.src.value();
    s.t0 = t0;
    s.t1 = t1;
    if (kind_ == NodeKind::app) {
      if (msg.channel != net::Channel::command) return;
      s.kind = SpanKind::app_cmd;
    } else if (kind_ != NodeKind::server) {
      return;
    } else if (msg.channel == net::Channel::http) {
      s.kind = SpanKind::http_in;
      s.a = header_u64(msg.payload, "X-Request-Id");
    } else if (msg.channel == net::Channel::main_channel) {
      auto framed = proto::decode_framed(msg.payload);
      if (!framed.ok()) return;
      const auto* up = std::get_if<proto::AppUpdate>(&framed.value());
      if (up == nullptr) return;
      s.kind = SpanKind::update_in;
      s.a = up->app_id.local;
      s.b = up->iteration;
    } else if (msg.channel == net::Channel::giop) {
      s.kind = SpanKind::giop_in;
      giop_bytes += msg.payload.size();
      if (giop_capture.size() < kMaxGiopCapture) {
        giop_capture.push_back(msg.payload.bytes());
      }
    } else {
      return;
    }
    spans.push_back(s);
  }

  NodeKind kind_;
  std::uint32_t node_;
  bool trace_;
  int cpu_;
  net::MessageHandler* inner_ = nullptr;
  std::function<bool()> until_ready_;  // only touched by the node's worker
  std::atomic<pid_t> tid_{0};
};

/// Set-up completion, signalled by the probes rather than polled for: the
/// SUT is ready once every app holds its registration and server A lists
/// every app.  Each condition turns true inside a message some probe
/// wraps, and each probe re-evaluates all of them under the mutex after
/// its message, so the probe of the last one to turn true wakes the wait.
/// The app conditions are atomics anyone may read; whether A lists apps
/// hosted at a peer is read on A's worker and posted here.
class Readiness {
 public:
  /// `need_peer`: A must also report, through poke(true), that it lists
  /// the apps hosted at its peer.
  Readiness(bool need_peer, std::function<bool()> atomics)
      : atomics_(std::move(atomics)), need_peer_(need_peer) {}

  /// Re-evaluates after a message was handled; true once ready.
  bool poke(bool peer_listed = false) {
    const std::lock_guard<std::mutex> lock(mutex_);
    peer_listed_ = peer_listed_ || peer_listed;
    if (!ready_locked()) return false;
    cv_.notify_all();
    return true;
  }

  /// Blocks until ready or `deadline`.
  bool wait(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [this] { return ready_locked(); });
  }

 private:
  bool ready_locked() const {
    return (!need_peer_ || peer_listed_) && atomics_();
  }

  std::function<bool()> atomics_;
  std::mutex mutex_;
  std::condition_variable cv_;
  const bool need_peer_;
  bool peer_listed_ = false;
};

/// Network seen by a traced server: forwards everything to the real
/// transport and timestamps each HTTP reply / pushed update on its way out.
/// Shard cores send concurrently, hence the mutex.
class TapNetwork final : public net::Network {
 public:
  explicit TapNetwork(net::Network& inner) : inner_(inner) {}

  net::NodeId add_node(std::string name, net::MessageHandler* handler,
                       net::DomainId domain) override {
    return inner_.add_node(std::move(name), handler, domain);
  }
  void send(net::NodeId from, net::NodeId to, net::Channel channel,
            net::Payload payload) override {
    if (channel == net::Channel::http) note(from, to, payload);
    inner_.send(from, to, channel, std::move(payload));
  }
  net::TimerId schedule(net::NodeId node, util::Duration delay,
                        std::function<void()> fn) override {
    return inner_.schedule(node, delay, std::move(fn));
  }
  void cancel(net::TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] bool supports_sharding() const override {
    return inner_.supports_sharding();
  }
  [[nodiscard]] util::TimePoint now() const override { return inner_.now(); }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] net::TrafficStats traffic() const override {
    return inner_.traffic();
  }
  void reset_traffic() override { inner_.reset_traffic(); }
  [[nodiscard]] const std::string& node_name(net::NodeId id) const override {
    return inner_.node_name(id);
  }
  [[nodiscard]] net::DomainId node_domain(net::NodeId id) const override {
    return inner_.node_domain(id);
  }

  /// The recorded spans, pushes resolved to (app, iteration).  Call once
  /// the network has stopped.
  std::vector<SutSpan> take_spans() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uintptr_t, std::pair<std::uint64_t, std::uint64_t>>
        updates;
    for (const net::Payload& p : held_) {
      auto resp = discover::http::parse_response(p.bytes());
      if (!resp.ok()) continue;
      try {
        const auto reply = proto::decode_poll_reply(resp.value().body);
        if (reply.events.size() == 1 &&
            reply.events[0].kind == proto::EventKind::update) {
          updates[address_of(p)] = {reply.events[0].app.local,
                                    reply.events[0].iteration};
        }
      } catch (const std::exception&) {
      }
    }
    std::vector<SutSpan> out;
    out.reserve(spans_.size());
    for (SutSpan s : spans_) {
      if (s.kind == SpanKind::push_out) {
        const auto it = updates.find(s.a);
        if (it == updates.end()) continue;
        s.a = it->second.first;
        s.b = it->second.second;
      }
      out.push_back(s);
    }
    spans_.clear();
    held_.clear();
    return out;
  }

 private:
  static std::uintptr_t address_of(const net::Payload& p) {
    return reinterpret_cast<std::uintptr_t>(&p.bytes());
  }

  void note(net::NodeId from, net::NodeId to, const net::Payload& payload) {
    SutSpan s;
    s.node = from.value();
    s.peer = to.value();
    s.t0 = s.t1 = mono_ns();
    const bool push = header_u64(payload.bytes(), "X-Push") != 0;
    if (!push) {
      s.kind = SpanKind::http_reply;
      s.a = header_u64(payload.bytes(), "X-Request-Id");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= 4'000'000) return;
    if (push) {
      // One buffer goes to every push recipient of an event.  Holding it
      // keeps its address unique, so the address names the event until
      // take_spans() decodes each buffer once, off the measured path.
      s.kind = SpanKind::push_out;
      s.a = address_of(payload);
      if (held_.empty() || address_of(held_.back()) != s.a) {
        held_.push_back(payload);
      }
    }
    spans_.push_back(s);
  }

  net::Network& inner_;
  std::mutex mutex_;
  std::vector<SutSpan> spans_;
  std::vector<net::Payload> held_;  // distinct push buffers, in order
};

std::set<pid_t> task_set() {
  const auto v = thread_ids(getpid());
  return {v.begin(), v.end()};
}

std::vector<pid_t> new_tasks(const std::set<pid_t>& before) {
  std::vector<pid_t> out;
  for (const pid_t t : thread_ids(getpid())) {
    if (before.count(t) == 0) out.push_back(t);
  }
  return out;
}

std::string join_tids(const std::vector<pid_t>& v) {
  std::string s;
  for (const pid_t t : v) {
    if (t == 0) continue;
    if (!s.empty()) s += ',';
    s += std::to_string(t);
  }
  return s.empty() ? "-" : s;
}

bool write_line(int fd, const std::string& line) {
  const std::string s = line + "\n";
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& line) {
  line.clear();
  char c = 0;
  while (true) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line += c;
  }
}

/// Replays captured peer frames through the GIOP header peek and the CDR
/// decode of their forward_events batches; ns per frame (0 if none).
double giop_decode_ns(const std::vector<util::Bytes>& frames) {
  std::vector<const util::Bytes*> batches;
  for (const auto& f : frames) {
    const auto head = discover::orb::peek_giop_header(f);
    if (!head.valid || !head.is_request) continue;
    try {
      discover::wire::Decoder d(f);
      d.u32();
      d.u8();
      d.u64();
      d.u64();
      if (d.str() == "forward_events") batches.push_back(&f);
    } catch (const std::exception&) {
    }
  }
  if (batches.empty()) return 0;
  constexpr int kReps = 20;
  std::size_t events = 0;
  const std::int64_t t0 = mono_ns();
  for (int r = 0; r < kReps; ++r) {
    for (const util::Bytes* f : batches) {
      const auto head = discover::orb::peek_giop_header(*f);
      discover::wire::Decoder d(*f);
      d.u32();
      d.u8();
      d.u64();
      d.u64();
      d.str();
      const util::Bytes args = d.bytes();
      discover::wire::Decoder a(args);
      const auto frames_out = proto::decode_event_frames(a);
      events += frames_out.size() + (head.valid ? 0 : 1);
    }
  }
  const std::int64_t t1 = mono_ns();
  return events == 0 ? 0
                     : static_cast<double>(t1 - t0) /
                           static_cast<double>(kReps * batches.size());
}

}  // namespace

int run_sut(const Plan& plan, int ctl_in, int ctl_out,
            const std::string& span_path) {
  const bool fed = plan.federated;
  const std::uint32_t n_nodes = plan.node_count();
  const auto is_b_local = [&](std::uint32_t id) {
    return fed && (id == plan.server_b_node() ||
                   (id >= plan.app_node(0) && id < plan.app_node(plan.apps)));
  };
  const auto is_a_local = [&](std::uint32_t id) {
    return id == plan.registry_node() || id == plan.server_a_node() ||
           (!fed && id >= plan.app_node(0) && id < plan.app_node(plan.apps));
  };
  // Threads inherit their creator's CPU, so the control thread moves to
  // each role's CPU while it creates that role's threads.  The generator
  // checks the placement that results against the plan.
  const int main_cpu = plan.cpu_of("main");
  pin_to_cpu(0, main_cpu);

  net::OsNetwork net_a;
  std::unique_ptr<net::OsNetwork> net_b;
  TapNetwork tap_a(net_a);
  std::unique_ptr<TapNetwork> tap_b;

  std::vector<std::unique_ptr<Probe>> probes(n_nodes);
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    if (!is_a_local(id) && !is_b_local(id)) continue;
    NodeKind kind = NodeKind::app;
    std::string role = "app";
    if (id == plan.registry_node()) {
      kind = NodeKind::registry;
      role = "registry";
    } else if (id == plan.server_a_node()) {
      kind = NodeKind::server;
      role = "server:A";
    } else if (fed && id == plan.server_b_node()) {
      kind = NodeKind::server;
      role = "server:B";
    }
    probes[id] =
        std::make_unique<Probe>(kind, id, plan.trace, plan.cpu_of(role));
  }

  core::ServerConfig scfg;
  scfg.shard_count = plan.shard_count;
  scfg.peer_refresh_period = plan.peer_refresh;
  scfg.identity_refresh_period = plan.peer_refresh;
  // The calibration burns model 2001 hardware; the benchmark measures this
  // stack as it is.
  scfg.servlet_cpu_cost = 0;
  scfg.app_event_cpu_cost = 0;

  discover::workload::RegistryNode registry(net_a);
  scfg.name = "A";
  core::DiscoverServer server_a(plan.trace ? static_cast<net::Network&>(tap_a)
                                           : net_a,
                                scfg);
  std::unique_ptr<core::DiscoverServer> server_b;
  if (fed) {
    net_b = std::make_unique<net::OsNetwork>();
    tap_b = std::make_unique<TapNetwork>(*net_b);
    core::ServerConfig bcfg = scfg;
    bcfg.name = "B";
    bcfg.shard_count = 1;
    server_b = std::make_unique<core::DiscoverServer>(
        plan.trace ? static_cast<net::Network&>(*tap_b) : *net_b, bcfg);
  }
  net::OsNetwork& app_net = fed ? *net_b : net_a;
  std::vector<std::unique_ptr<BenchApp>> apps;
  std::vector<discover::security::AclEntry> acl;
  for (const auto& s : plan.sessions) {
    acl.push_back({s.user, discover::security::Privilege::steer, 0});
  }
  for (int i = 0; i < plan.apps; ++i) {
    app::AppConfig acfg;
    acfg.name = plan.app_name(i);
    acfg.acl = acl;
    acfg.step_time = plan.step_time + i * plan.step_skew;
    acfg.update_every = plan.update_every;
    acfg.interact_every = 1;
    acfg.interaction_window = plan.interaction_window;
    apps.push_back(
        std::make_unique<BenchApp>(app_net, acfg, plan.filler_sensors));
  }
  const auto handler_of = [&](std::uint32_t id) -> net::MessageHandler* {
    if (id == plan.registry_node()) return &registry;
    if (id == plan.server_a_node()) return &server_a;
    if (fed && id == plan.server_b_node()) return server_b.get();
    return apps[id - plan.app_node(0)].get();
  };

  // Ready once every app holds its registration and server A lists every
  // app.  Unfederated, A lists an app as soon as it has registered it: the
  // server counts the registration before it sends the ack, so the app
  // probe that handles the last ack sees every count.  Federated, A lists
  // B's apps once its directory of B holds them all, which A's probe sees
  // after the list_apps_since reply that filled it.
  Readiness ready(fed, [&] {
    return server_a.live_apps_registered() >=
               (fed ? 0u : static_cast<std::uint64_t>(plan.apps)) &&
           std::all_of(apps.begin(), apps.end(),
                       [](const auto& a) { return a->registered(); });
  });
  for (int i = 0; i < plan.apps; ++i) {
    probes[plan.app_node(i)]->set_until_ready([&] { return ready.poke(); });
  }
  if (fed) {
    probes[plan.server_a_node()]->set_until_ready([&] {
      const auto dir = server_a.peer_directory(plan.server_b_node());
      int listed = 0;
      for (int i = 0; i < plan.apps; ++i) {
        listed += std::any_of(dir.begin(), dir.end(), [&](const auto& info) {
          return info.name == plan.app_name(i);
        });
      }
      return ready.poke(listed == plan.apps);
    });
  }

  // Topology, in the global order both processes share.  Generator nodes
  // and the other net's nodes are remote with port 0: their routes are
  // adopted from the HELLO of the connection they arrive on.
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    const std::string name = plan.node_name(id);
    if (is_a_local(id)) {
      probes[id]->set_inner(handler_of(id));
      net_a.add_node(name, probes[id].get());
    } else {
      net_a.add_remote(name, "127.0.0.1", 0);
    }
  }
  registry.attach(net::NodeId{plan.registry_node()});
  std::set<pid_t> before = task_set();
  if (plan.shard_count > 1) pin_to_cpu(0, plan.cpu_of("shard:A"));
  server_a.attach(net::NodeId{plan.server_a_node()});
  pin_to_cpu(0, main_cpu);
  const std::vector<pid_t> shard_tids = new_tasks(before);
  server_a.set_registry(registry.naming_ref(), registry.trader_ref());
  if (fed) {
    // Every user's apps live at B, so server A authenticates them through
    // the GIS-style identity directory (paper section 6.3).
    auto gis = std::make_shared<discover::grid::GridInformationService>();
    for (const auto& s : plan.sessions) gis->add_identity(s.user, 0);
    server_a.set_identity_directory(registry.orb().activate(gis));
  }

  // start() spawns the event loop and one worker per local node; the
  // workers move to their own CPUs when their probe first runs.
  before = task_set();
  pin_to_cpu(0, plan.cpu_of("loop:A"));
  const bool a_up = net_a.start().ok();
  pin_to_cpu(0, main_cpu);
  // The networks' threads call into the probes and handlers below, so every
  // return from here on stops them first.
  const auto stop_networks = [&] {
    if (net_b) net_b->stop();
    net_a.stop();
  };
  if (!a_up) return 3;
  const std::vector<pid_t> net_a_tids = new_tasks(before);
  std::vector<pid_t> net_b_tids;
  const std::uint16_t port_a = net_a.listen_port();
  std::uint16_t port_b = 0;
  if (fed) {
    for (std::uint32_t id = 0; id < n_nodes; ++id) {
      const std::string name = plan.node_name(id);
      if (is_b_local(id)) {
        probes[id]->set_inner(handler_of(id));
        net_b->add_node(name, probes[id].get());
      } else if (is_a_local(id)) {
        net_b->add_remote(name, "127.0.0.1", port_a);
      } else {
        net_b->add_remote(name, "127.0.0.1", 0);
      }
    }
    server_b->attach(net::NodeId{plan.server_b_node()});
    server_b->set_registry(registry.naming_ref(), registry.trader_ref());
    before = task_set();
    pin_to_cpu(0, plan.cpu_of("loop:B"));
    const bool b_up = net_b->start().ok();
    pin_to_cpu(0, main_cpu);
    if (!b_up) {
      stop_networks();
      return 3;
    }
    net_b_tids = new_tasks(before);
    port_b = net_b->listen_port();
  }
  for (int i = 0; i < plan.apps; ++i) apps[i]->attach(
      net::NodeId{plan.app_node(i)});

  net_a.post(net::NodeId{plan.server_a_node()}, [&] { server_a.start(); });
  if (fed) {
    net_b->post(net::NodeId{plan.server_b_node()},
                [&] { server_b->start(); });
  }
  const net::NodeId host{fed ? plan.server_b_node() : plan.server_a_node()};
  for (auto& a : apps) {
    BenchApp* ap = a.get();
    app_net.post(ap->node(), [ap, host] { ap->connect(host); });
  }
  if (!write_line(ctl_out, "up " + std::to_string(port_a) + " " +
                               std::to_string(port_b))) {
    stop_networks();
    return 5;
  }
  if (!ready.wait(std::chrono::steady_clock::now() + std::chrono::seconds(20))) {
    stop_networks();
    return 4;
  }

  // Threads by role.  Every worker is named by its probe's first call, so
  // what remains of start()'s threads are the event loops.
  std::map<pid_t, std::string> role_of;
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    const auto& p = probes[id];
    if (!p || p->tid() == 0) continue;
    role_of[p->tid()] = p->kind() == NodeKind::app        ? "app"
                        : p->kind() == NodeKind::registry ? "registry"
                        : id == plan.server_a_node()      ? "server:A"
                                                          : "server:B";
  }
  for (const pid_t t : shard_tids) role_of[t] = "shard:A";
  const auto tids_in_role = [&](const std::vector<pid_t>& started,
                                const char* loop_role) {
    std::vector<pid_t> loops;
    for (const pid_t t : started) {
      if (role_of.count(t) == 0) loops.push_back(t);
    }
    for (const pid_t t : loops) role_of[t] = loop_role;
    return loops;
  };
  std::vector<pid_t> loops = tids_in_role(net_a_tids, "loop:A");
  for (const pid_t t : tids_in_role(net_b_tids, "loop:B")) loops.push_back(t);
  // Every thread of the SUT and the CPUs it may run on, for the result.
  std::string placement;
  for (const pid_t t : thread_ids(getpid())) {
    const auto it = role_of.find(t);
    placement += (placement.empty() ? "" : ",") +
                 (it == role_of.end() ? std::string("main") : it->second) +
                 "@" + affinity_of(t);
  }
  if (!write_line(ctl_out, "ready " + placement)) {
    stop_networks();
    return 5;
  }

  const auto layer_tids = [&] {
    std::vector<pid_t> server, app, reg;
    for (const auto& [tid, role] : role_of) {
      if (role == "app") {
        app.push_back(tid);
      } else if (role == "registry") {
        reg.push_back(tid);
      } else if (role.rfind("server:", 0) == 0) {
        server.push_back(tid);
      }
    }
    const std::size_t expected_loops = fed ? 2 : 1;
    std::ostringstream out;
    out << " tid.loop=" << join_tids(loops.size() == expected_loops
                                         ? loops
                                         : std::vector<pid_t>{})
        << " tid.server=" << join_tids(server) << " tid.app=" << join_tids(app)
        << " tid.registry=" << join_tids(reg)
        << " tid.shard=" << join_tids(shard_tids);
    return out.str();
  };
  const auto net_stats = [&](const char* tag, const net::OsNetwork& n) {
    const net::OsNetworkStats st = n.os_stats();
    std::ostringstream out;
    out << " " << tag << ".frames_in=" << st.frames_in << " " << tag
        << ".frames_out=" << st.frames_out << " " << tag
        << ".bytes_in=" << st.bytes_in << " " << tag
        << ".bytes_out=" << st.bytes_out << " " << tag
        << ".partial_writes=" << st.partial_writes << " " << tag
        << ".eagain_writes=" << st.eagain_writes << " " << tag
        << ".dropped=" << (st.dropped_no_route + st.dropped_overflow +
                           st.dropped_reconnect_exhausted);
    return out.str();
  };
  const auto app_stats = [&] {
    std::ostringstream out;
    std::uint64_t cmds = 0;
    std::uint64_t updates = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      cmds += apps[i]->commands_executed();
      // Update k carries iteration k * update_every, and updates_sent()
      // counts updates already handed to the transport.
      updates += apps[i]->updates_sent();
      out << " app." << i << ".sent_iter="
          << apps[i]->updates_sent() * plan.update_every;
    }
    out << " app.commands=" << cmds << " app.updates=" << updates;
    return out.str();
  };

  std::string line;
  bool quit = false;
  bool write_spans = false;
  while (!quit && read_line(ctl_in, line)) {
    std::string reply = "S";
    if (line == "stats") {
      reply += net_stats("netA", net_a);
      if (fed) reply += net_stats("netB", *net_b);
      reply += layer_tids();
      reply += app_stats();
      reply += " sut.recv_calls=" + std::to_string(recv_calls());
      // The calibration burns as the servers were configured, so the
      // generator can check they are off.
      util::Duration burn = server_a.config().servlet_cpu_cost +
                            server_a.config().app_event_cpu_cost;
      if (server_b) {
        burn += server_b->config().servlet_cpu_cost +
                server_b->config().app_event_cpu_cost;
      }
      reply += " cfg.calibration_ns=" + std::to_string(burn);
    } else if (line == "quit" || line == "quit spans") {
      quit = true;
      write_spans = plan.trace && line == "quit spans";
    }
    if (!quit && !write_line(ctl_out, reply)) break;
  }

  stop_networks();
  server_a.drain_shards();
  if (server_b) server_b->drain_shards();

  if (!quit) std::fprintf(stderr, "sut: control pipe closed before quit\n");
  std::string final_line = "S";
  if (write_spans) {
    std::vector<SutSpan> spans = tap_a.take_spans();
    if (tap_b) {
      auto b = tap_b->take_spans();
      spans.insert(spans.end(), b.begin(), b.end());
    }
    std::uint64_t giop_bytes = 0;
    std::vector<util::Bytes> giop;
    for (const auto& p : probes) {
      if (!p) continue;
      spans.insert(spans.end(), p->spans.begin(), p->spans.end());
      if (p->kind() == NodeKind::server &&
          p.get() == probes[plan.server_a_node()].get()) {
        giop_bytes += p->giop_bytes;
        giop = p->giop_capture;
      }
    }
    FILE* f = std::fopen(span_path.c_str(), "wb");
    const bool wrote =
        f != nullptr &&
        (spans.empty() || std::fwrite(spans.data(), sizeof(SutSpan),
                                      spans.size(), f) == spans.size());
    if (f != nullptr && std::fclose(f) != 0) {
      final_line += " spans.error=close";
    }
    final_line += " spans.written=" + std::to_string(wrote ? spans.size() : 0);
    std::ostringstream out;
    out << " giop.bytes_in_a=" << giop_bytes
        << " wire.giop_decode_ns=" << giop_decode_ns(giop);
    final_line += out.str();
  }
  write_line(ctl_out, final_line);
  return 0;
}

}  // namespace portalbench
