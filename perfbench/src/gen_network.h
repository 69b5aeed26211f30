// Single-threaded net::Network for the benchmark's load generator.
//
// OsNetwork gives every local node its own worker thread, so hosting
// hundreds of portal clients on it would make the generator, not the
// system under test, the thing being measured.  GenNetwork hosts every
// local node (real core::DiscoverClient instances) on the calling thread
// and multiplexes them over a fixed, small set of TCP connections.  It
// speaks the transport's own wire format through the public codec
// (encode_frame_header / encode_hello / FrameDecoder): each connection
// opens with a HELLO that advertises the client ids bound to it, so the
// server's OsNetwork routes every reply back over that connection.
//
// Nothing runs unless the owner pumps the loop (run_once / run_until);
// handlers and timers then fire on the pumping thread, one at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame_codec.h"
#include "net/network.h"
#include "util/clock.h"
#include "util/result.h"

namespace portalbench {

using discover::net::Channel;
using discover::net::DomainId;
using discover::net::NodeId;
using discover::net::Payload;
using discover::net::TimerId;

/// Optional tap on every frame the generator writes or reads, used by the
/// traced run to timestamp requests at the socket boundary.
class FrameObserver {
 public:
  virtual ~FrameObserver() = default;
  /// When the write carrying the frame was issued.
  virtual void frame_sent(NodeId from, NodeId to, Channel channel,
                          const discover::util::Bytes& payload,
                          std::int64_t mono_ns) = 0;
  /// Before the frame is dispatched to its handler; `mono_ns` is when the
  /// read() that completed it returned.
  virtual void frame_received(const discover::net::Frame& frame,
                              std::int64_t mono_ns) = 0;
};

struct GenNetworkStats {
  std::uint64_t frames_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t protocol_errors = 0;
};

/// CLOCK_MONOTONIC in nanoseconds.  The epoch is shared by every process on
/// the host, which is what lets the benchmark age an event stamped in the
/// system under test against the moment the generator decoded it.
std::int64_t mono_ns();

class GenNetwork final : public discover::net::Network {
 public:
  /// `max_connections` caps the sockets this instance may ever open.
  explicit GenNetwork(std::size_t max_connections);
  ~GenNetwork() override;

  GenNetwork(const GenNetwork&) = delete;
  GenNetwork& operator=(const GenNetwork&) = delete;

  /// A node hosted on this thread.
  NodeId add_node(std::string name, discover::net::MessageHandler* handler,
                  DomainId domain = DomainId{0}) override;
  /// A node hosted by another process.  Frames toward it leave on the
  /// connection the *sending* local node is bound to; a frame whose sender
  /// is unbound, or whose destination is local, is dropped and counted.
  NodeId add_remote(std::string name, DomainId domain = DomainId{0});

  /// Declares connection `index` (dense, from 0) toward host:port.  Fails
  /// once more than max_connections connections would exist.
  discover::util::Status add_connection(std::size_t index, std::string host,
                                        std::uint16_t port);
  /// Routes every frame sent by local node `node` over connection `index`
  /// and advertises the node in that connection's HELLO.
  void bind(NodeId node, std::size_t index);
  /// Connects every declared connection (blocking connect, then
  /// nonblocking I/O) and sends each one's HELLO.
  discover::util::Status connect_all();
  /// Closes every socket.  Idempotent.
  void close_all();

  /// One pump: runs due timers, writes what they queued, waits for socket
  /// readiness until the next timer or `max_wait_ns`, dispatches the frames
  /// that arrived, runs timers again and writes.  Frames sent during a pump
  /// leave in one write per connection at its end.
  void run_once(std::int64_t max_wait_ns);
  /// Pumps until `done()` or `timeout_ns` elapses; returns done().
  bool run_until(const std::function<bool()>& done, std::int64_t timeout_ns);
  /// Pumps for `duration_ns`.
  void run_for(std::int64_t duration_ns);

  void set_observer(FrameObserver* observer) { observer_ = observer; }

  // -- net::Network ----------------------------------------------------------
  void send(NodeId from, NodeId to, Channel channel, Payload payload) override;
  TimerId schedule(NodeId node, discover::util::Duration delay,
                   std::function<void()> fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] discover::util::TimePoint now() const override {
    return clock_.now();
  }
  [[nodiscard]] const discover::util::Clock& clock() const override {
    return clock_;
  }
  [[nodiscard]] discover::net::TrafficStats traffic() const override {
    return traffic_;
  }
  void reset_traffic() override { traffic_ = {}; }
  [[nodiscard]] const std::string& node_name(NodeId id) const override;
  [[nodiscard]] DomainId node_domain(NodeId id) const override;

  [[nodiscard]] const GenNetworkStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }
  [[nodiscard]] std::size_t open_connections() const;
  /// Local node ids advertised in connection `index`'s HELLO.
  [[nodiscard]] std::vector<std::uint32_t> advertised(std::size_t index) const;

 private:
  struct NodeRec {
    std::string name;
    discover::net::MessageHandler* handler = nullptr;  // null => remote
    DomainId domain{0};
    std::size_t conn = SIZE_MAX;  // binding of a local node
  };
  struct Conn {
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    std::vector<std::uint32_t> nodes;
    discover::net::FrameDecoder decoder;
    std::vector<std::uint8_t> out;  // bytes the kernel has not taken yet
    std::size_t out_off = 0;
    bool want_write = false;
    struct Sent {
      NodeId from;
      NodeId to;
      Channel channel;
      Payload payload;
    };
    std::vector<Sent> unreported;  // frames not yet shown to the observer
  };
  struct TimerKey {
    std::int64_t at;
    std::uint64_t id;
    bool operator>(const TimerKey& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };

  void flush(Conn& conn);
  void flush_all();
  void update_interest(Conn& conn);
  void read_ready(Conn& conn);
  void dispatch(discover::net::Frame&& frame, std::int64_t read_ns);
  void run_due();
  void fail_conn(Conn& conn, const char* why);

  discover::util::SystemClock clock_;
  std::size_t max_connections_;
  std::vector<NodeRec> nodes_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epfd_ = -1;
  FrameObserver* observer_ = nullptr;
  GenNetworkStats stats_;
  discover::net::TrafficStats traffic_;
  // A cancelled timer leaves its key in the heap; it is skipped when it
  // surfaces because its callback is gone from timer_fns_.
  std::priority_queue<TimerKey, std::vector<TimerKey>, std::greater<>> timers_;
  std::unordered_map<std::uint64_t, std::function<void()>> timer_fns_;
  std::uint64_t next_timer_ = 1;
  std::vector<std::uint8_t> read_buf_;
  std::vector<discover::net::Frame> frames_;
};

}  // namespace portalbench
