// Routes incoming HTTP messages to mounted servlets and sends responses.
//
// Not a MessageHandler itself: the owning server node demultiplexes its
// channels and calls handle() for Channel::http traffic.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "http/servlet.h"
#include "net/network.h"
#include "util/stats.h"
#include "util/trace.h"

namespace discover::http {

/// Handle for completing an HTTP response after the servlet returned.
class DeferredHttpReply {
 public:
  DeferredHttpReply(net::Network& network, net::NodeId self,
                    net::NodeId client, HttpResponse seed)
      : network_(network), self_(self), client_(client),
        seed_(std::move(seed)) {}

  /// Sends `resp` with the header order of a direct reply: the
  /// correlation/cookie headers the container put on the seed response
  /// first, then the servlet's own.  Whether it runs while the servlet is
  /// still in service or later, the bytes are the same.
  void complete(HttpResponse resp);

  /// Container hook: observes the final serialized response (fills the
  /// duplicate-request cache for deferred replies).
  void set_on_complete(std::function<void(const util::Bytes&)> fn) {
    on_complete_ = std::move(fn);
  }

 private:
  net::Network& network_;
  net::NodeId self_;
  net::NodeId client_;
  HttpResponse seed_;
  std::function<void(const util::Bytes&)> on_complete_;
  bool done_ = false;
};

class ServletContainer {
 public:
  ServletContainer(net::Network& network, net::NodeId self);

  /// Mounts a servlet at a path prefix; longest prefix wins.
  void mount(std::string path_prefix, std::shared_ptr<Servlet> servlet);

  /// Processes one HTTP request message and replies on Channel::http.
  void handle(const net::Message& msg);

  /// Server-side request-service latency (parse -> response serialized).
  [[nodiscard]] const util::LatencyHistogram& service_latency() const {
    return service_latency_;
  }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_;
  }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] bool has_session(std::uint64_t id) const {
    return sessions_.count(id) != 0;
  }

  /// Drops sessions idle longer than `max_idle`.
  void expire_sessions(util::Duration max_idle);

  /// Attaches the owning node's tracer.  Requests to traced() servlets run
  /// under a context parsed from the `X-Trace-Context` header (or minted
  /// here — servlets are the trace ingress), the response echoes the
  /// header, and a span is recorded per serviced request.
  void set_tracer(util::Tracer* tracer) { tracer_ = tracer; }

  /// Duplicate requests (client retries / network duplicates) answered from
  /// the response cache rather than re-executed.
  [[nodiscard]] std::uint64_t dedup_hits() const { return dedup_hits_; }

 private:
  // Responses are cached by (client node, X-Request-Id) so a retried or
  // duplicated request replays the original response instead of
  // re-executing the servlet.
  using DedupKey = std::pair<std::uint32_t, std::uint64_t>;

  HttpSession& session_for(const HttpRequest& req, HttpResponse& resp);
  Servlet* route(const std::string& path) const;
  void cache_response(const DedupKey& key, const util::Bytes& wire);

  net::Network& network_;
  net::NodeId self_;
  std::vector<std::pair<std::string, std::shared_ptr<Servlet>>> mounts_;
  std::unordered_map<std::uint64_t, std::unique_ptr<HttpSession>> sessions_;
  std::map<DedupKey, util::Bytes> response_cache_;
  std::deque<DedupKey> response_cache_order_;
  std::set<DedupKey> inflight_;  // deferred dispatches in progress
  static constexpr std::size_t kResponseCacheCap = 1024;
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t next_session_ = 1;
  std::uint64_t requests_served_ = 0;
  util::LatencyHistogram service_latency_;
  util::Tracer* tracer_ = nullptr;
};

}  // namespace discover::http
