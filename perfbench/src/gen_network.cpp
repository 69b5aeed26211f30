#include "gen_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace portalbench {

namespace net = discover::net;
namespace util = discover::util;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

GenNetwork::GenNetwork(std::size_t max_connections)
    : max_connections_(max_connections), read_buf_(256 * 1024) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

GenNetwork::~GenNetwork() {
  close_all();
  if (epfd_ >= 0) ::close(epfd_);
}

NodeId GenNetwork::add_node(std::string name, net::MessageHandler* handler,
                            DomainId domain) {
  nodes_.push_back(NodeRec{std::move(name), handler, domain, SIZE_MAX});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

NodeId GenNetwork::add_remote(std::string name, DomainId domain) {
  nodes_.push_back(NodeRec{std::move(name), nullptr, domain, SIZE_MAX});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

util::Status GenNetwork::add_connection(std::size_t index, std::string host,
                                        std::uint16_t port) {
  if (index >= max_connections_) {
    return util::Error{util::Errc::resource_exhausted,
                       "connection index beyond the generator's cap"};
  }
  if (conns_.size() <= index) conns_.resize(index + 1);
  if (!conns_[index]) conns_[index] = std::make_unique<Conn>();
  conns_[index]->host = std::move(host);
  conns_[index]->port = port;
  return util::Status{};
}

void GenNetwork::bind(NodeId node, std::size_t index) {
  NodeRec& rec = nodes_.at(node.value());
  if (rec.handler == nullptr || index >= conns_.size() || !conns_[index]) {
    throw std::invalid_argument("bind: not a local node or no such connection");
  }
  rec.conn = index;
  conns_[index]->nodes.push_back(node.value());
}

util::Status GenNetwork::connect_all() {
  for (auto& slot : conns_) {
    if (!slot || slot->fd >= 0) continue;
    Conn& conn = *slot;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return util::Error{util::Errc::unavailable, "socket() failed"};
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(conn.port);
    if (inet_pton(AF_INET, conn.host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return util::Error{util::Errc::unavailable,
                         "connect " + conn.host + ":" +
                             std::to_string(conn.port) + ": " +
                             std::strerror(errno)};
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    conn.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &conn;
    epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    // The HELLO names every client bound here, so the server adopts this
    // socket as the route back to each of them.  We never listen.
    net::HelloFrame hello;
    hello.local_nodes = conn.nodes;
    const util::Bytes body = net::encode_hello(hello);
    const auto head = net::encode_frame_header(
        NodeId{conn.nodes.empty() ? 0u : conn.nodes.front()}, NodeId{0},
        net::kHelloChannel, body.size());
    conn.out.insert(conn.out.end(), head.begin(), head.end());
    conn.out.insert(conn.out.end(), body.begin(), body.end());
    flush(conn);
    if (conn.fd < 0) {
      return util::Error{util::Errc::unavailable, "HELLO write failed"};
    }
  }
  return util::Status{};
}

void GenNetwork::close_all() {
  for (auto& slot : conns_) {
    if (!slot || slot->fd < 0) continue;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, slot->fd, nullptr);
    ::close(slot->fd);
    slot->fd = -1;
    slot->out.clear();
    slot->out_off = 0;
    slot->want_write = false;
    slot->unreported.clear();
  }
}

std::size_t GenNetwork::open_connections() const {
  std::size_t n = 0;
  for (const auto& slot : conns_) n += (slot && slot->fd >= 0) ? 1 : 0;
  return n;
}

std::vector<std::uint32_t> GenNetwork::advertised(std::size_t index) const {
  return index < conns_.size() && conns_[index] ? conns_[index]->nodes
                                                : std::vector<std::uint32_t>{};
}

void GenNetwork::send(NodeId from, NodeId to, Channel channel,
                      Payload payload) {
  traffic_.messages++;
  traffic_.bytes += payload.size();
  const std::size_t ci =
      from.value() < nodes_.size() ? nodes_[from.value()].conn : SIZE_MAX;
  const bool to_local =
      to.value() < nodes_.size() && nodes_[to.value()].handler != nullptr;
  if (to_local || ci >= conns_.size() || !conns_[ci] || conns_[ci]->fd < 0) {
    ++stats_.dropped_no_route;
    return;
  }
  Conn& conn = *conns_[ci];
  const auto head = net::encode_frame_header(
      from, to, static_cast<std::uint32_t>(channel), payload.size());
  conn.out.insert(conn.out.end(), head.begin(), head.end());
  conn.out.insert(conn.out.end(), payload.bytes().begin(),
                  payload.bytes().end());
  ++stats_.frames_out;
  stats_.bytes_out += head.size() + payload.size();
  if (observer_ != nullptr) {
    conn.unreported.push_back(Conn::Sent{from, to, channel, std::move(payload)});
  }
}

void GenNetwork::flush_all() {
  for (auto& slot : conns_) {
    if (slot && slot->fd >= 0 && !slot->want_write &&
        slot->out_off < slot->out.size()) {
      flush(*slot);
    }
  }
}

void GenNetwork::flush(Conn& conn) {
  if (!conn.unreported.empty()) {
    const std::int64_t t = mono_ns();
    for (const Conn::Sent& f : conn.unreported) {
      observer_->frame_sent(f.from, f.to, f.channel, f.payload.bytes(), t);
    }
    conn.unreported.clear();
  }
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fail_conn(conn, "write failed");
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  update_interest(conn);
}

void GenNetwork::update_interest(Conn& conn) {
  const bool want = conn.out_off < conn.out.size();
  if (want == conn.want_write || conn.fd < 0) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.ptr = &conn;
  epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void GenNetwork::fail_conn(Conn& conn, const char* why) {
  (void)why;
  ++stats_.protocol_errors;
  if (conn.fd >= 0) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  }
  conn.out.clear();
  conn.out_off = 0;
  conn.want_write = false;
  conn.unreported.clear();
}

void GenNetwork::read_ready(Conn& conn) {
  for (;;) {
    const ssize_t n = ::read(conn.fd, read_buf_.data(), read_buf_.size());
    if (n == 0) {
      fail_conn(conn, "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) fail_conn(conn, "read");
      return;
    }
    const std::int64_t t = mono_ns();
    stats_.bytes_in += static_cast<std::uint64_t>(n);
    frames_.clear();
    if (!conn.decoder.feed(read_buf_.data(), static_cast<std::size_t>(n),
                           frames_)
             .ok()) {
      fail_conn(conn, "bad frame");
      return;
    }
    for (auto& frame : frames_) dispatch(std::move(frame), t);
    if (conn.fd < 0) return;
    if (static_cast<std::size_t>(n) < read_buf_.size()) return;
  }
}

void GenNetwork::dispatch(net::Frame&& frame, std::int64_t read_ns) {
  if (frame.is_hello()) return;
  const std::uint32_t dst = frame.dst.value();
  if (dst >= nodes_.size() || nodes_[dst].handler == nullptr) {
    ++stats_.dropped_no_route;
    return;
  }
  ++stats_.frames_in;
  if (observer_ != nullptr) observer_->frame_received(frame, read_ns);
  net::Message msg;
  msg.src = frame.src;
  msg.dst = frame.dst;
  msg.channel = frame.channel();
  msg.payload = Payload(std::move(frame.payload));
  msg.sent_at = now();
  nodes_[dst].handler->on_message(msg);
}

TimerId GenNetwork::schedule(NodeId /*node*/, util::Duration delay,
                             std::function<void()> fn) {
  const std::uint64_t id = next_timer_++;
  timers_.push(TimerKey{now() + std::max<util::Duration>(delay, 0), id});
  timer_fns_.emplace(id, std::move(fn));
  return TimerId{id};
}

void GenNetwork::cancel(TimerId id) { timer_fns_.erase(id.value()); }

void GenNetwork::run_due() {
  const std::int64_t t = now();
  while (!timers_.empty() && timers_.top().at <= t) {
    const std::uint64_t id = timers_.top().id;
    timers_.pop();
    const auto it = timer_fns_.find(id);
    if (it == timer_fns_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    timer_fns_.erase(it);
    fn();
  }
}

void GenNetwork::run_once(std::int64_t max_wait_ns) {
  run_due();
  flush_all();
  std::int64_t wait = std::max<std::int64_t>(max_wait_ns, 0);
  if (!timers_.empty()) {
    wait = std::min(wait, std::max<std::int64_t>(timers_.top().at - now(), 0));
  }
  epoll_event events[16];
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
  const int n = epoll_pwait2(epfd_, events, 16, &ts, nullptr);
  for (int i = 0; i < n; ++i) {
    Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
    if (conn.fd < 0) continue;
    if (events[i].events & (EPOLLERR | EPOLLHUP)) {
      read_ready(conn);  // drain what arrived before the hang-up
      if (conn.fd >= 0) fail_conn(conn, "hang-up");
      continue;
    }
    if (events[i].events & EPOLLOUT) flush(conn);
    if (conn.fd >= 0 && (events[i].events & EPOLLIN)) read_ready(conn);
  }
  run_due();
  flush_all();
}

bool GenNetwork::run_until(const std::function<bool()>& done,
                           std::int64_t timeout_ns) {
  const std::int64_t deadline = now() + timeout_ns;
  while (!done()) {
    const std::int64_t left = deadline - now();
    if (left <= 0) return done();
    run_once(std::min<std::int64_t>(left, 5'000'000));
  }
  return true;
}

void GenNetwork::run_for(std::int64_t duration_ns) {
  const std::int64_t deadline = now() + duration_ns;
  for (std::int64_t left = duration_ns; left > 0; left = deadline - now()) {
    run_once(left);
  }
}

const std::string& GenNetwork::node_name(NodeId id) const {
  return nodes_.at(id.value()).name;
}

DomainId GenNetwork::node_domain(NodeId id) const {
  return nodes_.at(id.value()).domain;
}

}  // namespace portalbench
