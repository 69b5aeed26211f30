#include "generator.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "gen_network.h"
#include "http/http_client.h"
#include "http/http_message.h"
#include "procstat.h"
#include "proto/messages.h"
#include "sut.h"
#include "util/rng.h"

namespace portalbench {

namespace core = discover::core;
namespace http = discover::http;
namespace net = discover::net;
namespace proto = discover::proto;
namespace util = discover::util;

namespace {

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;
constexpr std::int64_t kWindow = kSec / 2;  // open-loop measurement window
// Set-ups start at least this far apart, so that the median samples the
// host over seconds, not over one 50 ms stretch of it.
constexpr std::int64_t kSetupSpacing = kSec / 5;

using KV = std::map<std::string, std::string>;

double num(const KV& kv, const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::vector<pid_t> tids(const KV& kv, const std::string& key) {
  std::vector<pid_t> out;
  const auto it = kv.find(key);
  if (it == kv.end()) return out;
  std::istringstream in(it->second);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (!tok.empty() && tok != "-") out.push_back(std::atoi(tok.c_str()));
  }
  return out;
}

/// Exact percentile (nearest rank) of `v`; 0 when empty.
double pct(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// The SUT child process and its control pipe.
// ---------------------------------------------------------------------------

class SutProcess {
 public:
  SutProcess(const Plan& plan, const std::string& span_path) {
    int down[2];
    int up[2];
    if (pipe(down) != 0 || pipe(up) != 0) throw std::runtime_error("pipe");
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork");
    if (pid_ == 0) {
      // The generator is single-threaded, so forking it is safe.  The SUT
      // dies with its parent.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::close(down[1]);
      ::close(up[0]);
      int rc = 1;
      try {
        rc = run_sut(plan, down[0], up[1], span_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sut: %s\n", e.what());
      }
      std::fflush(stderr);
      _exit(rc);
    }
    ::close(down[0]);
    ::close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
  }
  ~SutProcess() { kill_and_wait(); }
  SutProcess(const SutProcess&) = delete;
  SutProcess& operator=(const SutProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Next line from the child, or false on EOF / timeout.
  bool read_line(std::string& line, std::int64_t timeout_ns) {
    const std::int64_t deadline = mono_ns() + timeout_ns;
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const std::int64_t left = deadline - mono_ns();
      if (left <= 0) return false;
      pollfd pfd{from_child_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left / kMs) + 1) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(from_child_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends `cmd` and parses the "S k=v ..." answer (empty on failure).
  KV request(const std::string& cmd, std::int64_t timeout_ns = 15 * kSec) {
    KV kv;
    const std::string s = cmd + "\n";
    if (::write(to_child_, s.data(), s.size()) !=
        static_cast<ssize_t>(s.size())) {
      return kv;
    }
    std::string line;
    if (!read_line(line, timeout_ns)) return kv;
    std::istringstream in(line);
    std::string tok;
    in >> tok;
    if (tok != "S") return kv;
    kv["ok"] = "1";
    while (in >> tok) {
      const auto eq = tok.find('=');
      if (eq != std::string::npos) kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
    return kv;
  }

  /// Orderly stop: "quit" (or "quit spans"), its final answer, then reap.
  KV quit(bool spans = false) {
    KV kv = request(spans ? "quit spans" : "quit", 60 * kSec);
    reap(10 * kSec);
    return kv;
  }

  void kill_and_wait() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap(10 * kSec);
  }

 private:
  void reap(std::int64_t timeout_ns) {
    if (pid_ <= 0) return;
    const std::int64_t deadline = mono_ns() + timeout_ns;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (mono_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ >= 0) ::close(from_child_);
    to_child_ = from_child_ = -1;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Generator-side nodes.
// ---------------------------------------------------------------------------

/// Reads /discover/metrics (Prometheus text) from one server.
class Scraper final : public net::MessageHandler {
 public:
  explicit Scraper(GenNetwork& network) : http_(network, NodeId{0}) {}
  void attach(NodeId self) { http_.set_self(self); }
  void on_message(const net::Message& msg) override { http_.handle(msg); }

  void scrape(NodeId server, std::function<void(std::map<std::string, double>)>
                                 done) {
    http::HttpRequest req;
    req.method = http::Method::get;
    req.path = core::kPathMetrics;
    http_.request(server, std::move(req),
                  [done = std::move(done)](util::Result<http::HttpResponse> r) {
                    std::map<std::string, double> out;
                    if (r.ok() && r.value().status == 200) {
                      std::istringstream in(util::to_string(r.value().body));
                      std::string line;
                      while (std::getline(in, line)) {
                        if (line.empty() || line[0] == '#') continue;
                        const auto sp = line.rfind(' ');
                        if (sp == std::string::npos) continue;
                        out[line.substr(0, sp)] =
                            std::strtod(line.c_str() + sp + 1, nullptr);
                      }
                    }
                    done(std::move(out));
                  },
                  util::seconds(5));
  }

 private:
  http::HttpClient http_;
};

enum class OpType : std::uint8_t { poll, get, set, readback };

/// One traced request: every timestamp on its path (CLOCK_MONOTONIC ns).
struct OpTrace {
  std::uint32_t client = 0;
  std::uint64_t rid = 0;
  OpType type = OpType::poll;
  std::int64_t due = 0, fire = 0, sent = 0, enter = 0, exit = 0, reply = 0,
               recv = 0, done = 0;
};

/// One pushed update as the generator decoded it.
struct PushTrace {
  std::uint32_t client = 0;
  std::uint64_t app = 0, iter = 0;
  std::int64_t emit = 0, recv = 0, done = 0;
};

struct Session {
  SessionSpec spec;
  std::unique_ptr<core::DiscoverClient> client;
  proto::AppId app;
  // Update-stream checks.
  std::vector<std::int64_t> iters;  // every update iteration, as received
  std::int64_t last_iter = -1;
  std::uint64_t shed = 0;           // resync-marker counts (poll sessions)
  std::uint64_t order_violations = 0;
  // Steering.
  bool lock_granted = false;
  std::uint64_t set_seq = 0;
  double last_set = 0;
  bool has_set = false;
  std::uint64_t readback_rid = 0;
  bool readback_seen = false;
  double readback_value = 0;
  // The session's current wait loop (lock grant at set-up, catch-up at the
  // end); replies and timers call back into it through the session.
  std::function<void()> retry;
  std::function<void()> on_granted;  // set-up waiting for the lock grant
};

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

class Bench final : public FrameObserver {
 public:
  Bench(const Plan& plan, std::string out_dir)
      : plan_(plan), out_dir_(std::move(out_dir)) {}

  int run();

  void frame_sent(NodeId from, NodeId, Channel channel,
                  const util::Bytes& payload, std::int64_t t) override {
    if (channel != Channel::http) return;
    const auto it = op_index_.find(key(from.value(),
                                       header_u64(payload, "X-Request-Id")));
    if (it == op_index_.end()) return;
    traces_[it->second].sent = t;
    if (captured_requests_.size() < 2000) captured_requests_.push_back(payload);
  }
  void frame_received(const net::Frame& frame, std::int64_t t) override {
    cur_read_ns_ = t;
    if (frame.channel_raw != static_cast<std::uint32_t>(Channel::http)) return;
    const std::uint64_t rid = header_u64(frame.payload, "X-Request-Id");
    if (rid == 0) return;  // a push
    const auto it = op_index_.find(key(frame.dst.value(), rid));
    if (it == op_index_.end()) return;
    traces_[it->second].recv = t;
    if (captured_replies_.size() < 2000) {
      captured_replies_.push_back(frame.payload);
      if (traces_[it->second].type == OpType::poll &&
          captured_poll_replies_.size() < 2000) {
        captured_poll_replies_.push_back(frame.payload);
      }
    }
  }

 private:
  static std::uint64_t key(std::uint32_t client, std::uint64_t rid) {
    return (static_cast<std::uint64_t>(client) << 40) ^ rid;
  }

  /// One set-up's phases (s): fork -> SUT up, -> server A lists every app,
  /// -> every session ready; and their sum.
  struct SetupTimes {
    double sut_ready = 0, listed = 0, sessions = 0, total = 0;
  };
  bool setup_once(SetupTimes& out);
  void teardown();
  void start_streams();
  void schedule_stream(Session& s, OpType type, double rate,
                       std::int64_t due, util::Rng* rng);
  void issue(Session& s, OpType type, std::int64_t due);
  void on_event(Session& s, const proto::ClientEvent& ev);
  void poll_until_drained(std::int64_t timeout_ns);
  std::map<std::string, double> scrape_all();
  struct CpuSnap {
    std::map<std::string, std::int64_t> layer;  // loop/server/shard/app/...
    std::int64_t sut = 0;
    TaskCounters task;  // the SUT's threads, summed
    IoCounters io;
    std::int64_t gen = 0;
    std::int64_t steal = 0;
    std::int64_t at = 0;
  };
  CpuSnap cpu_snap(const KV& stats);
  void check(const KV& end, std::map<std::string, double>& scraped,
             std::vector<std::string>& problems);
  void trace_outputs(const KV& fin, std::map<std::string, double>& layer);

  const Plan& plan_;
  std::string out_dir_;
  std::unique_ptr<SutProcess> sut_;
  std::unique_ptr<GenNetwork> net_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unique_ptr<Scraper> scraper_a_, scraper_b_;
  std::vector<std::unique_ptr<util::Rng>> rngs_;

  // Window state.
  std::int64_t t_start_ = 0, t_open_end_ = 0;
  bool ending_ = false;
  bool has_push_ = false;
  bool draining_ = false;

  // Results.
  std::vector<std::int64_t> lag_;          // fire - due, open loop
  std::uint64_t ops_ok_open_ = 0;
  std::uint64_t events_in_window_ = 0;
  std::uint64_t polls_in_window_ = 0;
  std::uint64_t empty_polls_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t lock_denials_ = 0;
  std::uint64_t departures_ = 0;
  std::vector<std::string> setup_errors_;
  std::vector<SetupTimes> setups_;
  std::int64_t next_setup_ = 0;  // earliest start of the next set-up
  std::string placement_;  // the SUT's "role@cpus" list, as it reported it
  std::uint64_t commands_in_flight_ = 0;
  // Half-second windows of the open-loop phase (see run()).
  struct Window {
    std::vector<std::int64_t> op_lat;     // by due time
    std::vector<std::int64_t> event_age;  // by decode time
    std::uint64_t ops_done = 0;           // by completion time
    std::uint64_t events = 0;             // by decode time
    bool quiet = false;                   // low host steal (see run())
  };
  std::vector<Window> windows_;
  [[nodiscard]] Window* window_at(std::int64_t t) {
    if (t < t_start_ || t >= t_open_end_) return nullptr;
    const auto k = static_cast<std::size_t>((t - t_start_) / kWindow);
    return k < windows_.size() ? &windows_[k] : nullptr;
  }
  std::map<int, std::int64_t> final_iter_;

  // Tracing.
  std::unordered_map<std::uint64_t, std::size_t> op_index_;
  std::vector<OpTrace> traces_;
  std::vector<PushTrace> pushes_;
  std::int64_t cur_read_ns_ = 0;
  std::vector<util::Bytes> captured_requests_, captured_replies_,
      captured_poll_replies_;
  std::vector<proto::SharedClientEvent> captured_events_;
};

// -- setup --------------------------------------------------------------------

/// The entries of a SUT placement ("role@cpus,...") whose CPUs are not the
/// one the plan gives their role, each as "role@cpus (plan: cpu)"; empty
/// when every thread sits where the plan put it.
std::string misplaced(const Plan& plan, const std::string& placement) {
  std::string bad;
  std::istringstream in(placement);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    const auto at = entry.find('@');
    const auto it = plan.placement.find(entry.substr(0, at));
    const std::string want =
        it == plan.placement.end() ? "?" : std::to_string(host_cpu(it->second));
    if (at == std::string::npos || entry.substr(at + 1) != want) {
      bad += (bad.empty() ? "" : ", ") + entry + " (plan: " + want + ")";
    }
  }
  return placement.empty() ? "no threads reported" : bad;
}

bool Bench::setup_once(SetupTimes& out) {
  if (const std::int64_t wait = next_setup_ - mono_ns(); wait > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  const std::int64_t t0 = mono_ns();
  next_setup_ = t0 + kSetupSpacing;
  sut_ = std::make_unique<SutProcess>(plan_, out_dir_ + "/sut-spans.bin");
  std::string line;
  unsigned port_a = 0;
  unsigned port_b = 0;
  if (!sut_->read_line(line, 60 * kSec) ||
      std::sscanf(line.c_str(), "up %u %u", &port_a, &port_b) != 2) {
    setup_errors_.push_back("SUT did not start");
    return false;
  }
  const std::int64_t t_up = mono_ns();
  // The SUT answers "ready" once server A lists every app (federated: B's
  // apps, through the peer link).
  if (!sut_->read_line(line, 60 * kSec) || line.rfind("ready ", 0) != 0) {
    setup_errors_.push_back("apps never listed at server A");
    return false;
  }
  const std::int64_t t_listed = mono_ns();
  placement_ = line.substr(6);
  if (const std::string bad = misplaced(plan_, placement_); !bad.empty()) {
    setup_errors_.push_back("SUT threads not placed as planned: " + bad);
    return false;
  }

  net_ = std::make_unique<GenNetwork>(plan_.conns_total());
  GenNetwork& n = *net_;
  // The global node-id order of plan.h, as the SUT built it.
  for (std::uint32_t id = 0; id < plan_.session_node(0); ++id) {
    n.add_remote(plan_.node_name(id));
  }
  for (std::size_t c = 0; c < plan_.conns_a; ++c) {
    (void)n.add_connection(c, "127.0.0.1", static_cast<std::uint16_t>(port_a));
  }
  if (plan_.federated) {
    (void)n.add_connection(plan_.conns_a, "127.0.0.1",
                           static_cast<std::uint16_t>(port_b));
  }
  sessions_.clear();
  for (std::size_t i = 0; i < plan_.sessions.size(); ++i) {
    auto s = std::make_unique<Session>();
    s->spec = plan_.sessions[i];
    core::ClientConfig cfg;
    cfg.user = s->spec.user;
    cfg.poll_max_events = plan_.poll_max_events;
    cfg.request_timeout = plan_.request_timeout;
    cfg.record_events = false;
    s->client = std::make_unique<core::DiscoverClient>(n, cfg);
    Session* sp = s.get();
    s->client->set_event_handler(
        [this, sp](const proto::ClientEvent& ev) { on_event(*sp, ev); });
    const NodeId id = n.add_node(plan_.node_name(plan_.session_node(i)),
                                 s->client.get());
    s->client->attach(id);
    s->client->set_server(NodeId{plan_.server_a_node()});
    n.bind(id, s->spec.conn);
    sessions_.push_back(std::move(s));
  }
  scraper_a_ = std::make_unique<Scraper>(n);
  const NodeId sa = n.add_node("scraper:A", scraper_a_.get());
  scraper_a_->attach(sa);
  n.bind(sa, 0);
  if (plan_.federated) {
    scraper_b_ = std::make_unique<Scraper>(n);
    const NodeId sb = n.add_node("scraper:B", scraper_b_.get());
    scraper_b_->attach(sb);
    n.bind(sb, plan_.conns_a);
  }
  if (const auto st = n.connect_all(); !st.ok()) {
    setup_errors_.push_back(st.error().message);
    return false;
  }

  // Every session: login, select, (push), (lock).  Each step starts when
  // the previous one's reply arrives; nothing waits on a timer.
  std::size_t ready = 0;
  std::size_t errors = 0;
  const auto fail = [&](const std::string& what) {
    ++errors;
    setup_errors_.push_back(what);
  };
  for (auto& sp : sessions_) {
    Session* s = sp.get();
    // A grant arrives as a lock_notice event: pushed, or in the reply to
    // the next poll.  Poll sessions poll again as each reply arrives.
    const auto await_grant = [s, &ready] {
      if (s->lock_granted) {
        ++ready;
        return;
      }
      s->on_granted = [&ready] { ++ready; };
      if (s->spec.push) return;
      s->retry = [s] {
        s->client->poll(s->app, [s](auto) {
          if (!s->lock_granted) s->retry();
        });
      };
      s->retry();
    };
    const auto after_push = [s, &ready, fail, await_grant] {
      if (s->spec.role != Role::steerer) {
        ++ready;
        return;
      }
      s->client->acquire_lock(
          s->app, [fail, await_grant](util::Result<proto::CommandAck> r) {
            if (!r.ok() || !r.value().accepted) {
              fail("acquire_lock refused");
              return;
            }
            await_grant();
          });
    };
    const auto after_select = [s, fail, after_push] {
      if (!s->spec.push) {
        after_push();
        return;
      }
      s->client->group_op(
          s->app, proto::GroupOp::enable_push, "",
          [fail, after_push](util::Result<proto::CollabAck> r) {
            if (!r.ok() || !r.value().ok) {
              fail("enable_push refused");
              return;
            }
            after_push();
          });
    };
    s->client->login([this, s, fail, after_select](
                         util::Result<proto::LoginReply> r) {
      if (!r.ok() || !r.value().ok) {
        fail("login refused for " + s->spec.user);
        return;
      }
      const std::string want = plan_.app_name(s->spec.app);
      bool found = false;
      for (const auto& info : r.value().applications) {
        if (info.name != want) continue;
        s->app = info.id;
        found = true;
      }
      if (!found) {
        fail("login reply does not list " + want);
        return;
      }
      s->client->select_app(
          s->app, [fail, after_select](util::Result<proto::SelectAppReply> r2) {
            if (!r2.ok() || !r2.value().ok) {
              fail("select refused");
              return;
            }
            after_select();
          });
    });
  }
  n.run_until([&] { return ready == sessions_.size() || errors > 0; },
              30 * kSec);
  if (ready != sessions_.size()) {
    if (errors == 0) setup_errors_.push_back("set-up timed out");
    return false;
  }
  const std::int64_t t_end = mono_ns();
  out.sut_ready = static_cast<double>(t_up - t0) / 1e9;
  out.listed = static_cast<double>(t_listed - t_up) / 1e9;
  out.sessions = static_cast<double>(t_end - t_listed) / 1e9;
  out.total = static_cast<double>(t_end - t0) / 1e9;
  return true;
}

void Bench::teardown() {
  if (net_) net_->close_all();
  sessions_.clear();
  scraper_a_.reset();
  scraper_b_.reset();
  net_.reset();
  if (sut_) sut_->quit();
  sut_.reset();
}

// -- load ---------------------------------------------------------------------

void Bench::start_streams() {
  std::uint64_t stream = 0;
  const std::int64_t t = mono_ns();
  for (auto& sp : sessions_) {
    Session& s = *sp;
    const auto add = [&](OpType type, double rate) {
      if (rate <= 0) return;
      rngs_.push_back(std::make_unique<util::Rng>(
          plan_.seed * 0x9E3779B97F4A7C15ULL + (++stream) * 0xBF58476D1CE4E5B9ULL));
      schedule_stream(s, type, rate, t, rngs_.back().get());
    };
    if (!s.spec.push) add(OpType::poll, plan_.poll_rate);
    if (s.spec.getter) add(OpType::get, plan_.get_rate);
    if (s.spec.role == Role::steerer) add(OpType::set, plan_.set_rate);
  }
}

/// Poisson arrivals: the next op is due an exponential gap after the
/// previous *due* time, whether or not earlier ops have completed.
void Bench::schedule_stream(Session& s, OpType type, double rate,
                            std::int64_t prev_due, util::Rng* rng) {
  const double gap_s = -std::log(1.0 - rng->uniform()) / rate;
  const std::int64_t due = prev_due + static_cast<std::int64_t>(gap_s * 1e9);
  net_->schedule(s.client->node(), due - mono_ns(),
                 [this, &s, type, rate, due, rng] {
                   const bool stop = type == OpType::poll
                                         ? ending_
                                         : due >= t_open_end_;
                   if (stop) return;
                   issue(s, type, due);
                   schedule_stream(s, type, rate, due, rng);
                 });
}

void Bench::issue(Session& s, OpType type, std::int64_t due) {
  const std::int64_t fire = mono_ns();
  const bool counted =
      type != OpType::readback && due >= t_start_ && due < t_open_end_;
  const bool accounted = counted || type == OpType::readback;
  if (accounted) ++attempted_;
  if (counted) lag_.push_back(fire - due);
  std::size_t ti = SIZE_MAX;
  if (plan_.trace && counted) {
    OpTrace t;
    t.client = s.client->node().value();
    t.rid = s.client->http().requests_sent() + 1;
    t.type = type;
    t.due = due;
    t.fire = fire;
    ti = traces_.size();
    op_index_[key(t.client, t.rid)] = ti;
    traces_.push_back(t);
  }
  const bool command = type != OpType::poll;
  if (command) ++commands_in_flight_;
  auto finish = [this, counted, accounted, command, due, ti](bool ok) {
    const std::int64_t done = mono_ns();
    if (command) --commands_in_flight_;
    if (!ok) {
      if (accounted) ++failed_;
      return;
    }
    if (counted) {
      ++ops_ok_open_;
      if (Window* w = window_at(due)) w->op_lat.push_back(done - due);
    }
    if (Window* w = window_at(done)) ++w->ops_done;
    if (ti != SIZE_MAX) traces_[ti].done = done;
  };
  switch (type) {
    case OpType::poll:
      s.client->poll(s.app, [this, &s, counted,
                             finish](util::Result<proto::PollReply> r) {
        const bool ok = r.ok() && r.value().ok;
        if (ok) {
          if (counted) {
            ++polls_in_window_;
            if (r.value().events.empty()) ++empty_polls_;
          }
        }
        finish(ok);
      });
      break;
    case OpType::get:
    case OpType::readback:
      if (type == OpType::readback) {
        // send_command stamps the client's next request id; read it ahead
        // so the response event can be matched.
        s.readback_rid = s.client->next_request_id() + 1;
      }
      s.client->send_command(
          s.app, proto::CommandKind::get_param, "p0", {},
          [finish](util::Result<proto::CommandAck> r) {
            finish(r.ok() && r.value().accepted);
          });
      break;
    case OpType::set: {
      const double value =
          static_cast<double>(plan_.seed % 1000) * 1e6 +
          static_cast<double>(++s.set_seq);
      s.client->set_param(s.app, "p0", value,
                          [&s, value, finish](util::Result<proto::CommandAck> r) {
                            const bool ok = r.ok() && r.value().accepted;
                            if (ok && (!s.has_set || value > s.last_set)) {
                              s.last_set = value;
                              s.has_set = true;
                            }
                            finish(ok);
                          });
      break;
    }
  }
}

void Bench::on_event(Session& s, const proto::ClientEvent& ev) {
  const std::int64_t now = mono_ns();
  const bool in_window = now >= t_start_ && now < t_open_end_;
  // Per-event figures are per update decoded; responses, lock notices and
  // markers are not counted.
  if (in_window && ev.kind == proto::EventKind::update) {
    ++events_in_window_;
    if (Window* w = window_at(now)) ++w->events;
  }
  switch (ev.kind) {
    case proto::EventKind::update: {
      const auto iter = static_cast<std::int64_t>(ev.iteration);
      if (iter <= s.last_iter) ++s.order_violations;
      s.last_iter = std::max(s.last_iter, iter);
      s.iters.push_back(iter);
      const auto it = ev.metrics.find("emit_ns");
      // Where the workload has push sessions, event age is theirs alone:
      // a polled update's age is mostly the poll schedule.
      if (it != ev.metrics.end() && in_window &&
          (s.spec.push || !has_push_)) {
        const auto emit = static_cast<std::int64_t>(it->second);
        if (Window* w = window_at(now)) w->event_age.push_back(now - emit);
        if (plan_.trace && s.spec.push && pushes_.size() < 1'000'000) {
          pushes_.push_back(PushTrace{s.client->node().value(), ev.app.local,
                                      ev.iteration, emit, cur_read_ns_, now});
        }
      }
      if (plan_.trace && captured_events_.size() < 2000) {
        captured_events_.push_back(std::make_shared<const proto::ClientEvent>(ev));
      }
      break;
    }
    case proto::EventKind::resync:
      if (const auto* v = std::get_if<std::int64_t>(&ev.value)) {
        s.shed += static_cast<std::uint64_t>(*v);
      }
      break;
    case proto::EventKind::response:
      if (s.readback_rid != 0 && ev.user == s.spec.user &&
          ev.request_id == s.readback_rid) {
        s.readback_seen = true;
        if (const auto* v = std::get_if<double>(&ev.value)) {
          s.readback_value = *v;
        }
      }
      break;
    case proto::EventKind::lock_notice:
      if (ev.user == s.spec.user) {
        if (ev.text == "granted") {
          s.lock_granted = true;
          if (auto granted = std::exchange(s.on_granted, nullptr)) granted();
        }
        if (ev.text == "denied") {
          ++lock_denials_;
          ++failed_;
        }
      }
      break;
    case proto::EventKind::system:
      if (!ending_ && ev.text.rfind("application departed", 0) == 0) {
        ++departures_;
        ++failed_;
      }
      break;
    default:
      break;
  }
}

std::map<std::string, double> Bench::scrape_all() {
  std::map<std::string, double> out;
  int pending = 0;
  const auto take = [&](const std::string& prefix) {
    ++pending;
    return [&, prefix](std::map<std::string, double> m) {
      for (auto& [k, v] : m) out[prefix + k] = v;
      --pending;
    };
  };
  scraper_a_->scrape(NodeId{plan_.server_a_node()}, take("A."));
  if (scraper_b_) scraper_b_->scrape(NodeId{plan_.server_b_node()}, take("B."));
  net_->run_until([&] { return pending == 0; }, 10 * kSec);
  return out;
}

void Bench::poll_until_drained(std::int64_t timeout_ns) {
  // Push sessions just wait; poll sessions poll back-to-back until they
  // hold their app's marked update.
  const auto caught_up = [this](const Session& s) {
    return s.last_iter >= final_iter_[s.spec.app];
  };
  draining_ = true;
  for (auto& sp : sessions_) {
    Session* s = sp.get();
    if (s->spec.push) continue;
    s->retry = [this, s, caught_up] {
      if (!draining_ || caught_up(*s)) return;
      s->client->poll(s->app, [this, s](util::Result<proto::PollReply>) {
        net_->schedule(s->client->node(), util::milliseconds(1),
                       [s] { s->retry(); });
      });
    };
    s->retry();
  }
  net_->run_until(
      [&] {
        return std::all_of(sessions_.begin(), sessions_.end(),
                           [&](const auto& s) { return caught_up(*s); });
      },
      timeout_ns);
  // Polls still in flight after a timeout find the flag down and stop.
  draining_ = false;
}

Bench::CpuSnap Bench::cpu_snap(const KV& stats) {
  CpuSnap c;
  const pid_t pid = sut_->pid();
  for (const char* layer : {"loop", "server", "shard", "app", "registry"}) {
    std::int64_t sum = 0;
    for (const pid_t t : tids(stats, std::string("tid.") + layer)) {
      sum += thread_cpu_ns(pid, t);
    }
    c.layer[layer] = sum;
  }
  c.task = task_counters(pid);
  c.io = io_counters(pid);
  c.sut = c.task.cpu_ns;
  c.gen = self_cpu_ns();
  c.steal = host_steal_ns();
  c.at = mono_ns();
  return c;
}

void Bench::check(const KV& mark, std::map<std::string, double>& scraped,
                  std::vector<std::string>& problems) {
  const double outbox_dropped =
      plan_.federated ? scraped["B.outbox_dropped"] : 0.0;
  const auto every = static_cast<std::int64_t>(plan_.update_every);
  std::uint64_t expected = 0, received = 0, counted_shed = 0;
  for (const auto& sp : sessions_) {
    const Session& s = *sp;
    const std::string who = s.spec.user;
    if (s.order_violations > 0) {
      problems.push_back(who + ": update iterations went backwards or repeated");
    }
    // Every update the app emitted between this session's first one and
    // the mark must have arrived, or be covered by a counted shed.
    const std::int64_t last = final_iter_[s.spec.app];
    std::uint64_t got = 0;
    std::int64_t first = -1;
    for (const std::int64_t it : s.iters) {
      if (it > last) continue;
      if (first < 0) first = it;
      ++got;
    }
    if (first < 0) {
      problems.push_back(who + ": received no updates");
      continue;
    }
    const auto want = static_cast<std::uint64_t>((last - first) / every) + 1;
    const double shed = s.spec.push ? outbox_dropped : static_cast<double>(s.shed);
    if (got > want) {
      problems.push_back(who + ": " + std::to_string(got - want) +
                         " duplicate updates");
    } else if (static_cast<double>(want - got) > shed) {
      problems.push_back(who + ": " + std::to_string(want - got) +
                         " updates missing, only " +
                         std::to_string(static_cast<std::uint64_t>(shed)) +
                         " counted as shed");
    }
    expected += want;
    received += got;
    counted_shed += static_cast<std::uint64_t>(shed);
    if (s.spec.role == Role::steerer && s.has_set &&
        (!s.readback_seen || s.readback_value != s.last_set)) {
      problems.push_back(who + ": read back " +
                         std::to_string(s.readback_value) + ", last set " +
                         std::to_string(s.last_set));
    }
  }
  // Delivered = emitted x subscribers - counted sheds.
  if (received > expected || expected - received > counted_shed) {
    problems.push_back("delivered " + std::to_string(received) +
                       " updates, expected " + std::to_string(expected) +
                       " minus " + std::to_string(counted_shed) + " shed");
  }
  if (num(mark, "ok") == 0) problems.push_back("SUT did not answer the mark");
}

namespace {

struct SpanIndex {
  std::unordered_map<std::uint64_t, std::pair<std::int64_t, std::int64_t>>
      http_in;
  std::unordered_map<std::uint64_t, std::int64_t> http_reply;
  std::unordered_map<std::uint64_t, std::int64_t> update_in;
  std::unordered_map<std::uint64_t, std::int64_t> push_out;
  std::vector<std::int64_t> app_cmd;
  std::vector<SutSpan> app_spans;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL + (a << 6));
}

std::vector<SutSpan> read_spans(const std::string& path) {
  std::vector<SutSpan> out;
  std::ifstream in(path, std::ios::binary);
  SutSpan s;
  while (in.read(reinterpret_cast<char*>(&s), sizeof s)) out.push_back(s);
  return out;
}

template <typename Fn>
double time_ns_per(std::size_t items, Fn fn) {
  if (items == 0) return 0;
  constexpr int kReps = 20;
  const std::int64_t t0 = mono_ns();
  for (int r = 0; r < kReps; ++r) fn();
  return static_cast<double>(mono_ns() - t0) /
         static_cast<double>(kReps * items);
}

}  // namespace

void Bench::trace_outputs(const KV& fin, std::map<std::string, double>& layer) {
  const std::vector<SutSpan> spans = read_spans(out_dir_ + "/sut-spans.bin");
  if (num(fin, "spans.written") != static_cast<double>(spans.size())) {
    std::fprintf(stderr, "trace: SUT wrote %.0f spans, read back %zu\n",
                 num(fin, "spans.written"), spans.size());
  }
  SpanIndex idx;
  for (const SutSpan& s : spans) {
    switch (s.kind) {
      case SpanKind::http_in:
        idx.http_in[key(s.peer, s.a)] = {s.t0, s.t1};
        break;
      case SpanKind::http_reply:
        idx.http_reply[key(s.peer, s.a)] = s.t0;
        break;
      case SpanKind::update_in:
        idx.update_in[mix(s.a, s.b)] = s.t0;
        break;
      case SpanKind::push_out:
        idx.push_out[mix(mix(s.peer, s.a), s.b)] = s.t0;
        break;
      case SpanKind::app_cmd:
        if (s.t0 >= t_start_ && s.t0 < t_open_end_) {
          idx.app_cmd.push_back(s.t1 - s.t0);
          if (idx.app_spans.size() < 2000) idx.app_spans.push_back(s);
        }
        break;
      default:
        break;
    }
  }

  // Request ledger: the telescoping stamps of one op sum to its latency.
  // Every line exists even when no sample joined (e.g. no pushes in steer).
  std::map<std::string, std::vector<std::int64_t>> op_lines{
      {"1_gen.lag", {}},      {"2_gen.encode", {}},   {"3_net.inbound", {}},
      {"4_core.handler", {}}, {"5_core.relay", {}},   {"6_net.outbound", {}},
      {"7_gen.decode", {}},   {"total", {}}};
  std::vector<std::int64_t> handler;
  std::vector<const OpTrace*> joined;
  // Like the end-to-end latencies, the ledgers use the quiet windows only.
  const auto quiet_at = [this](std::int64_t t) {
    const Window* w = window_at(t);
    return w != nullptr && w->quiet;
  };
  for (OpTrace& t : traces_) {
    if (!quiet_at(t.due)) continue;
    const auto in = idx.http_in.find(key(t.client, t.rid));
    const auto rep = idx.http_reply.find(key(t.client, t.rid));
    if (t.done == 0 || t.sent == 0 || t.recv == 0 || in == idx.http_in.end() ||
        rep == idx.http_reply.end()) {
      continue;
    }
    t.enter = in->second.first;
    t.exit = in->second.second;
    t.reply = rep->second;
    const std::int64_t own_end = std::min(t.exit, t.reply);
    op_lines["1_gen.lag"].push_back(t.fire - t.due);
    op_lines["2_gen.encode"].push_back(t.sent - t.fire);
    op_lines["3_net.inbound"].push_back(t.enter - t.sent);
    op_lines["4_core.handler"].push_back(own_end - t.enter);
    op_lines["5_core.relay"].push_back(t.reply - own_end);
    op_lines["6_net.outbound"].push_back(t.recv - t.reply);
    op_lines["7_gen.decode"].push_back(t.done - t.recv);
    op_lines["total"].push_back(t.done - t.due);
    handler.push_back(t.exit - t.enter);
    joined.push_back(&t);
  }
  // Event ledger for pushed updates: emit -> server ingest -> hand-off to
  // the transport for this client -> generator read -> decoded.
  std::map<std::string, std::vector<std::int64_t>> ev_lines{
      {"1_app.to_core", {}},  {"2_core.to_push", {}}, {"3_net.outbound", {}},
      {"4_gen.decode", {}},   {"total", {}}};
  for (const PushTrace& p : pushes_) {
    if (!quiet_at(p.done)) continue;
    const auto in = idx.update_in.find(mix(p.app, p.iter));
    const auto out = idx.push_out.find(mix(mix(p.client, p.app), p.iter));
    if (in == idx.update_in.end() || out == idx.push_out.end()) continue;
    ev_lines["1_app.to_core"].push_back(in->second - p.emit);
    ev_lines["2_core.to_push"].push_back(out->second - in->second);
    ev_lines["3_net.outbound"].push_back(p.recv - out->second);
    ev_lines["4_gen.decode"].push_back(p.done - p.recv);
    ev_lines["total"].push_back(p.done - p.emit);
  }

  // Each line is its mean over the requests whose end-to-end time lies in
  // the 45th..55th percentile band, so the lines add up to (about) the
  // median they explain; per-line medians would not add up.
  std::ostringstream ledger;
  const auto emit_ledger = [&](const char* title,
                               std::map<std::string, std::vector<std::int64_t>>&
                                   lines,
                               const char* prefix) {
    const std::vector<std::int64_t>& total = lines["total"];
    const double lo = pct(total, 0.45);
    const double hi = pct(total, 0.55);
    std::vector<std::size_t> band;
    for (std::size_t i = 0; i < total.size(); ++i) {
      const auto t = static_cast<double>(total[i]);
      if (t >= lo && t <= hi) band.push_back(i);
    }
    ledger << title << ": " << total.size() << " samples, " << band.size()
           << " in the median band; us\n";
    double sum = 0;
    for (auto& [name, v] : lines) {
      if (name == "total") continue;
      double mean = 0;
      for (const std::size_t i : band) mean += static_cast<double>(v[i]);
      mean = band.empty() ? 0 : mean / static_cast<double>(band.size()) / 1e3;
      sum += mean;
      layer[std::string(prefix) + name.substr(2) + "_us"] = mean;
      ledger << "  " << name.substr(2) << ": " << mean << "\n";
    }
    const double p50 = pct(total, 0.5) / 1e3;
    ledger << "  sum of lines: " << sum << "   measured p50: " << p50 << "\n";
    layer[std::string(prefix) + "sum_us"] = sum;
    layer[std::string(prefix) + "total_p50_us"] = p50;
  };
  emit_ledger("request ledger", op_lines, "ledger.op.");
  emit_ledger("pushed-update ledger", ev_lines, "ledger.event.");
  if (!idx.app_cmd.empty()) {
    ledger << "app hop (command handler at the app, off the ack path): p50 "
           << pct(idx.app_cmd, 0.5) / 1e3 << " us\n";
  }
  std::ofstream(out_dir_ + "/ledger.txt") << ledger.str();
  std::fprintf(stderr, "%s", ledger.str().c_str());

  layer["net.inbound_us_p50"] = pct(op_lines["3_net.inbound"], 0.5) / 1e3;
  layer["net.outbound_us_p50"] = pct(op_lines["6_net.outbound"], 0.5) / 1e3;
  layer["core.handler_us_p50"] = pct(handler, 0.5) / 1e3;
  layer["app.handler_us_p50"] = pct(idx.app_cmd, 0.5) / 1e3;

  // Codec costs, replayed from captured wire bytes.
  layer["http.parse_request_ns"] =
      time_ns_per(captured_requests_.size(), [&] {
        for (const auto& b : captured_requests_) (void)http::parse_request(b);
      });
  std::vector<http::HttpResponse> responses;
  for (const auto& b : captured_replies_) {
    auto r = http::parse_response(b);
    if (r.ok()) responses.push_back(std::move(r.value()));
  }
  layer["http.serialize_response_ns"] = time_ns_per(responses.size(), [&] {
    for (const auto& r : responses) (void)http::serialize(r);
  });
  layer["proto.event_encode_ns"] = time_ns_per(captured_events_.size(), [&] {
    std::vector<proto::SharedClientEvent> one(1);
    for (const auto& ev : captured_events_) {
      one[0] = ev;
      (void)proto::encode_poll_reply_shared(true, "", one, 0);
    }
  });
  std::vector<util::Bytes> bodies;
  std::size_t poll_events = 0;
  for (const auto& b : captured_poll_replies_) {
    auto r = http::parse_response(b);
    if (!r.ok()) continue;
    try {
      poll_events += proto::decode_poll_reply(r.value().body).events.size();
      bodies.push_back(r.value().body);
    } catch (const std::exception&) {
    }
  }
  layer["proto.poll_reply_decode_ns_per_event"] =
      poll_events == 0 ? 0
                       : time_ns_per(bodies.size(), [&] {
                           for (const auto& b : bodies) {
                             (void)proto::decode_poll_reply(b);
                           }
                         }) * static_cast<double>(bodies.size()) /
                             static_cast<double>(poll_events);

  // Chrome trace-event JSON: the first requests of the window, one lane
  // per layer.
  std::ofstream tr(out_dir_ + "/trace.json");
  tr << "{\"traceEvents\":[\n";
  bool first = true;
  const auto ev = [&](const char* name, int pid, std::uint32_t tid,
                      std::int64_t t0, std::int64_t t1, std::uint64_t rid) {
    tr << (first ? "" : ",\n") << "{\"name\":\"" << name
       << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"ts\":" << static_cast<double>(t0 - t_start_) / 1e3
       << ",\"dur\":" << static_cast<double>(std::max<std::int64_t>(t1 - t0, 0)) / 1e3
       << ",\"args\":{\"rid\":" << rid << "}}";
    first = false;
  };
  std::size_t written = 0;
  for (const OpTrace* t : joined) {
    if (++written > 2000) break;
    const std::uint32_t lane = t->client;
    ev("op", 1, lane, t->due, t->done, t->rid);
    ev("gen.encode", 1, lane, t->fire, t->sent, t->rid);
    ev("net.inbound", 2, 0, t->sent, t->enter, t->rid);
    ev("core.handler", 3, plan_.server_a_node(), t->enter, t->exit, t->rid);
    ev("net.outbound", 2, 1, t->reply, t->recv, t->rid);
    ev("gen.decode", 1, lane, t->recv, t->done, t->rid);
  }
  for (const SutSpan& s : idx.app_spans) ev("app.command", 4, s.node, s.t0, s.t1, 0);
  tr << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

int Bench::run() {
  std::vector<std::string> problems;
  // The generator owns its CPU from the first set-up on; the SUT pins its
  // own threads (sut.cpp).
  if (!pin_to_cpu(0, Plan::kGenCpu)) {
    std::fprintf(stderr, "setup: cannot pin the generator to its CPU\n");
    return 2;
  }
  // Half the set-ups run here and half after the measured phase, so that
  // setup_s samples the host at both ends of the run; the last one here
  // is the SUT the run measures.
  const int reps_before = (plan_.setup_reps + 1) / 2;
  for (int r = 0; r < reps_before; ++r) {
    SetupTimes times;
    if (!setup_once(times)) {
      teardown();
      for (const auto& e : setup_errors_) std::fprintf(stderr, "setup: %s\n", e.c_str());
      return 2;
    }
    setups_.push_back(times);
    if (r + 1 < reps_before) teardown();
  }
  const pid_t sut_pid = sut_->pid();
  has_push_ = std::any_of(plan_.sessions.begin(), plan_.sessions.end(),
                          [](const SessionSpec& s) { return s.push; });
  // Open-loop timers fire on time only without the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL);
  if (plan_.trace) net_->set_observer(this);

  const std::int64_t warmup = std::max<std::int64_t>(plan_.warmup, kSec);
  t_start_ = mono_ns() + warmup;
  t_open_end_ = t_start_ + static_cast<std::int64_t>(plan_.seconds * 1e9);
  start_streams();
  net_->run_for(t_start_ - mono_ns());

  // The open-loop phase is measured in half-second windows, so that the
  // latencies can leave out the windows a burst of host interference hit
  // and the CPU ratios can take a median over windows (see the metrics
  // below).
  windows_.assign(static_cast<std::size_t>((t_open_end_ - t_start_) / kWindow),
                  Window{});
  const KV st0 = sut_->request("stats");
  if (st0.count("cfg.calibration_ns") == 0 || num(st0, "cfg.calibration_ns") != 0) {
    problems.push_back("calibration burns (servlet/app_event_cpu_cost) are not 0");
  }
  std::vector<CpuSnap> snaps{cpu_snap(st0)};
  for (std::size_t k = 1; k <= windows_.size(); ++k) {
    net_->schedule(NodeId{plan_.scraper_a_node()},
                   t_start_ + static_cast<std::int64_t>(k) * kWindow - mono_ns(),
                   [this, &snaps, &st0] { snaps.push_back(cpu_snap(st0)); });
  }
  const CpuSnap c0 = snaps.front();
  const GenNetworkStats g0 = net_->stats();
  auto sc0 = scrape_all();
  net_->run_for(t_open_end_ - mono_ns());
  net_->run_until([&] { return snaps.size() == windows_.size() + 1; }, kSec);
  const KV st1 = sut_->request("stats");
  const CpuSnap c1 = cpu_snap(st0);
  const GenNetworkStats g1 = net_->stats();
  const double rss_mb = peak_rss_mb(sut_pid);
  auto sc1 = scrape_all();
  net_->run_until([&] { return commands_in_flight_ == 0; },
                  plan_.request_timeout + kSec);

  // Read back every steerer's last accepted value.
  std::vector<Session*> readers;
  for (auto& s : sessions_) {
    if (s->spec.role == Role::steerer && s->has_set) {
      readers.push_back(s.get());
      issue(*s, OpType::readback, mono_ns());
    }
  }
  net_->run_until(
      [&] {
        return std::all_of(readers.begin(), readers.end(),
                           [](Session* s) { return s->readback_seen; });
      },
      plan_.request_timeout + kSec);

  // Mark each app's last emitted update; the apps keep running while every
  // session catches up to it.
  ending_ = true;
  const KV mark = sut_->request("stats");
  for (int a = 0; a < plan_.apps; ++a) {
    final_iter_[a] = static_cast<std::int64_t>(
        num(mark, "app." + std::to_string(a) + ".sent_iter"));
  }
  poll_until_drained(5 * kSec);
  auto sc_end = scrape_all();
  check(mark, sc_end, problems);
  net_->close_all();
  std::remove((out_dir_ + "/sut-spans.bin").c_str());
  const KV fin = sut_->quit(plan_.trace);
  teardown();
  for (int r = reps_before; r < plan_.setup_reps; ++r) {
    SetupTimes times;
    const bool ok = setup_once(times);
    teardown();
    if (!ok) {
      problems.push_back("a set-up after the measured phase failed: " +
                         (setup_errors_.empty() ? std::string("?")
                                                : setup_errors_.back()));
      break;
    }
    setups_.push_back(times);
  }
  // -- metrics ----------------------------------------------------------------
  const double nproc = static_cast<double>(cpu_count());
  const double ops = static_cast<double>(std::max<std::uint64_t>(ops_ok_open_, 1));
  const double events =
      static_cast<double>(std::max<std::uint64_t>(events_in_window_, 1));
  const double wall_ns = static_cast<double>(c1.at - c0.at);
  const double sut_cpu = static_cast<double>(c1.sut - c0.sut);
  const auto dcpu = [&](const char* l) {
    return static_cast<double>(c1.layer.at(l) - c0.layer.at(l));
  };
  const auto dst = [&](const std::string& k) { return num(st1, k) - num(st0, k); };
  const auto dsc = [&](const std::string& k) { return sc1[k] - sc0[k]; };
  const std::string host = plan_.federated ? "B." : "A.";
  const auto p50_us = [&](const std::string& k) {
    return sc1[k + "{quantile=\"0.5\"}"] / 1e3;
  };

  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Latency statistics pool the windows whose steal (CPU the hypervisor
  // gave to another tenant) is at most 1% of the host's CPU or at most the
  // lower quartile of the windows', so host interference, which comes and
  // goes within a run, shifts a run's figure as little as it can.  On a
  // quiet host that is every window.
  const auto steal_of = [&](std::size_t k) {
    return snaps[k + 1].steal - snaps[k].steal;
  };
  std::vector<std::size_t> quiet;
  {
    std::vector<std::int64_t> steals;
    for (std::size_t k = 0; k + 1 < snaps.size() && k < windows_.size(); ++k) {
      steals.push_back(steal_of(k));
    }
    const double cut = std::max(pct(steals, 0.25),
                                static_cast<double>(cpu_count()) * kWindow / 100);
    for (std::size_t k = 0; k < steals.size(); ++k) {
      if (static_cast<double>(steals[k]) <= cut) {
        quiet.push_back(k);
        windows_[k].quiet = true;
      }
    }
  }
  const auto pooled = [&](std::vector<std::int64_t> Window::*samples, double q) {
    std::vector<std::int64_t> v;
    for (const std::size_t k : quiet) {
      const auto& w = windows_[k].*samples;
      v.insert(v.end(), w.begin(), w.end());
    }
    return pct(std::move(v), q);
  };
  // CPU ratios are medians over every window: the quiet ones showed no
  // less spread.
  const auto over_windows = [&](const auto& stat) {
    std::vector<double> v;
    for (std::size_t k = 0; k < windows_.size(); ++k) {
      const double x = stat(k, windows_[k]);
      if (x > 0) v.push_back(x);
    }
    return median_of(v);
  };
  const auto win_cpu = [&](std::size_t k) {
    return k + 1 < snaps.size()
               ? static_cast<double>(snaps[k + 1].sut - snaps[k].sut)
               : 0.0;
  };
  {
    // The per-window figures behind the medians, for inspection.
    std::ofstream out(out_dir_ + "/windows.json");
    out << "[";
    for (std::size_t k = 0; k < windows_.size(); ++k) {
      const Window& w = windows_[k];
      out << (k ? ",\n " : "") << "{\"op_p50_us\": " << pct(w.op_lat, 0.5) / 1e3
          << ", \"op_p99_us\": " << pct(w.op_lat, 0.99) / 1e3
          << ", \"event_age_p50_us\": " << pct(w.event_age, 0.5) / 1e3
          << ", \"cpu_us_per_op\": "
          << ratio(win_cpu(k) / 1e3, static_cast<double>(w.ops_done))
          << ", \"cpu_us_per_event\": "
          << ratio(win_cpu(k) / 1e3, static_cast<double>(w.events))
          << ", \"steal_ms\": "
          << (k + 1 < snaps.size() ? static_cast<double>(steal_of(k)) / 1e6 : 0.0)
          << ", \"quiet\": " << (w.quiet ? "true" : "false") << "}";
    }
    out << "]\n";
  }
  std::map<std::string, double> e2e;
  const auto setup_median = [&](double SetupTimes::*phase) {
    std::vector<double> v;
    for (const SetupTimes& s : setups_) v.push_back(s.*phase);
    return median_of(v);
  };
  e2e["setup_s"] = setup_median(&SetupTimes::total);
  e2e["op_p50_ms"] = pooled(&Window::op_lat, 0.5) / 1e6;
  e2e["event_age_p50_ms"] = pooled(&Window::event_age, 0.5) / 1e6;
  e2e["sut_cpu_us_per_op"] = over_windows([&](std::size_t k, const Window& w) {
    return ratio(win_cpu(k) / 1e3, static_cast<double>(w.ops_done));
  });
  e2e["sut_cpu_us_per_event"] =
      over_windows([&](std::size_t k, const Window& w) {
        return ratio(win_cpu(k) / 1e3, static_cast<double>(w.events));
      });
  e2e["sut_rss_mb"] = rss_mb;

  std::map<std::string, double> layer;
  // Tails repeat too poorly between runs on a shared host to gate on;
  // they are reported here, over the same quiet windows as the medians.
  layer["tail.op_p99_ms"] = pooled(&Window::op_lat, 0.99) / 1e6;
  layer["tail.event_age_p99_ms"] = pooled(&Window::event_age, 0.99) / 1e6;
  layer["setup.sut_ready_s"] = setup_median(&SetupTimes::sut_ready);
  layer["setup.listed_s"] = setup_median(&SetupTimes::listed);
  layer["setup.sessions_s"] = setup_median(&SetupTimes::sessions);
  // Counts of the SUT's own work, which host load does not change.
  // syscr misses recv(), so socket reads come from the SUT's own count.
  layer["net.read_syscalls_per_op"] =
      (static_cast<double>(c1.io.syscr - c0.io.syscr) + dst("sut.recv_calls")) /
      ops;
  layer["net.write_syscalls_per_op"] =
      static_cast<double>(c1.io.syscw - c0.io.syscw) / ops;
  layer["sut.wakeups_per_op"] =
      static_cast<double>(c1.task.wakeups - c0.task.wakeups) / ops;
  layer["sut.wakeups_per_event"] =
      static_cast<double>(c1.task.wakeups - c0.task.wakeups) / events;
  layer["sut.runq_wait_us_per_op"] =
      static_cast<double>(c1.task.runq_ns - c0.task.runq_ns) / 1e3 / ops;
  layer["app.updates_per_s"] = dst("app.updates") * 1e9 / wall_ns;
  const double frames = dst("netA.frames_in") + dst("netA.frames_out") +
                        dst("netB.frames_in") + dst("netB.frames_out");
  layer["net.loop_cpu_us_per_op"] = dcpu("loop") / 1e3 / ops;
  layer["net.frames_per_op"] = frames / ops;
  layer["net.bytes_out_per_event"] = dst("netA.bytes_out") / events;
  layer["net.partial_write_ratio"] =
      ratio(dst("netA.partial_writes") + dst("netB.partial_writes"),
            dst("netA.frames_out") + dst("netB.frames_out"));
  layer["net.eagain_writes"] = dst("netA.eagain_writes") + dst("netB.eagain_writes");
  layer["net.inbound_us_p50"] = 0;
  layer["net.outbound_us_p50"] = 0;
  layer["http.service_us_p50"] = p50_us("A.http_service_ns");
  layer["http.bytes_per_op"] =
      static_cast<double>(g1.bytes_in + g1.bytes_out - g0.bytes_in - g0.bytes_out) /
      ops;
  layer["http.parse_request_ns"] = 0;
  layer["http.serialize_response_ns"] = 0;
  layer["core.worker_cpu_us_per_op"] = dcpu("server") / 1e3 / ops;
  layer["core.handler_us_p50"] = 0;
  layer["core.stage_poll_us_p50"] = p50_us("A.stage_poll_ns");
  layer["core.stage_lock_grant_us_p50"] = p50_us(host + "stage_lock_grant_ns");
  layer["core.commands_buffered_ratio"] =
      ratio(dsc(host + "commands_buffered"), dsc(host + "commands_accepted"));
  layer["core.events_per_poll"] =
      ratio(dsc("A.events_delivered"), dsc("A.polls_served"));
  layer["core.empty_poll_ratio"] =
      ratio(static_cast<double>(empty_polls_), static_cast<double>(polls_in_window_));
  layer["core.stage_deliver_us_p50"] = p50_us("A.stage_deliver_ns");
  layer["core.shard_cpu_us_per_event"] = dcpu("shard") / 1e3 / events;
  layer["core.shard_hops_per_event"] =
      ratio(dsc("A.shard_routed_total"), dsc("A.events_delivered"));
  layer["core.fifo_shed"] = dsc("A.events_dropped");
  layer["core.resync_markers"] = dsc("A.resync_markers");
  layer["core.peak_fifo_backlog"] = sc1["A.peak_fifo_backlog"];
  layer["core.peer_events_per_batch"] =
      ratio(dsc("B.peer_events_out"), dsc("B.peer_batches_out"));
  layer["core.flush_timer_ratio"] =
      ratio(dsc("B.flushes_by_timer"), dsc("B.peer_batches_out"));
  layer["core.outbox_dropped"] = dsc("B.outbox_dropped");
  layer["core.stage_peer_flush_rtt_us_p50"] = p50_us("B.stage_peer_flush_rtt_ns");
  layer["orb.call_us_p50"] = p50_us("A.orb_call_ns");
  layer["orb.calls_per_remote_op"] =
      ratio(dsc("A.orb_call_ns_count"), dsc("A.remote_commands_out"));
  layer["wire.peer_bytes_per_event"] =
      ratio(num(fin, "giop.bytes_in_a"), sc_end["A.peer_events_in"]);
  layer["wire.giop_decode_ns"] = num(fin, "wire.giop_decode_ns");
  layer["proto.event_encode_ns"] = 0;
  layer["proto.poll_reply_decode_ns_per_event"] = 0;
  layer["app.worker_cpu_us_per_cmd"] =
      ratio(dcpu("app") / 1e3, dst("app.commands"));
  layer["app.handler_us_p50"] = 0;
  layer["gen.lag_p99_ms"] = pct(lag_, 0.99) / 1e6;
  layer["gen.cpu_util"] = static_cast<double>(c1.gen - c0.gen) / wall_ns;
  layer["sut.cpu_util"] = sut_cpu / wall_ns / nproc;
  layer["host.steal_ratio"] = static_cast<double>(c1.steal - c0.steal) / wall_ns / nproc;
  if (plan_.trace) trace_outputs(fin, layer);

  // -- result -------------------------------------------------------------------
  std::ostringstream js;
  js.precision(10);
  const auto obj = [&](const std::map<std::string, double>& m) {
    js << "{";
    bool f = true;
    for (const auto& [k, v] : m) {
      js << (f ? "" : ", ") << "\"" << k << "\": " << (std::isfinite(v) ? v : 0.0);
      f = false;
    }
    js << "}";
  };
  js << "{\"workload\": \"" << plan_.workload << "\", \"seed\": " << plan_.seed
     << ", \"trace\": " << (plan_.trace ? 1 : 0)
     << ", \"correct\": " << (problems.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"ops_ok_open\": " << ops_ok_open_ << ", \"events\": " << events_in_window_
     << ", \"lock_denials\": " << lock_denials_ << ", \"departures\": " << departures_
     << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    js << (i ? ", " : "") << "\"" << problems[i] << "\"";
  }
  js << "], \"placement\": \"" << placement_ << "\", \"end_to_end\": ";
  obj(e2e);
  js << ", \"per_layer\": ";
  obj(layer);
  js << ", \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setups_.size(); ++i) {
    const SetupTimes& s = setups_[i];
    js << (i ? ", " : "") << "[" << s.sut_ready << ", " << s.listed << ", "
       << s.sessions << "]";
  }
  js << "], \"host\": {";
  bool f = true;
  for (const auto& [k, v] : host_info()) {
    js << (f ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
    f = false;
  }
  js << "}, \"config\": {\"shard_count\": " << plan_.shard_count
     << ", \"servers\": " << (plan_.federated ? 2 : 1)
     << ", \"calibration_ns\": " << num(st0, "cfg.calibration_ns")
     << ", \"sessions\": " << plan_.sessions.size()
     << ", \"apps\": " << plan_.apps
     << ", \"generator_connections\": " << plan_.conns_total()
     << ", \"generator_threads\": 1}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}
}  // namespace

int run_benchmark(const Plan& plan, const std::string& out_dir) {
  Bench bench(plan, out_dir);
  return bench.run();
}

}  // namespace portalbench
