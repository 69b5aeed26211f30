#include "http/servlet_container.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "util/log.h"

namespace discover::http {

namespace {
constexpr const char* kSessionCookie = "DISCOVERID=";

std::uint64_t cookie_session_id(const HttpRequest& req) {
  const auto cookie = req.headers.get("Cookie");
  if (!cookie) return 0;
  const std::size_t at = cookie->find(kSessionCookie);
  if (at == std::string::npos) return 0;
  return std::strtoull(cookie->c_str() + at + std::strlen(kSessionCookie),
                       nullptr, 10);
}
}  // namespace

ServletContainer::ServletContainer(net::Network& network, net::NodeId self)
    : network_(network), self_(self) {}

void ServletContainer::mount(std::string path_prefix,
                             std::shared_ptr<Servlet> servlet) {
  mounts_.emplace_back(std::move(path_prefix), std::move(servlet));
  // Longest prefix first so route() can take the first match.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
}

Servlet* ServletContainer::route(const std::string& path) const {
  for (const auto& [prefix, servlet] : mounts_) {
    if (path.rfind(prefix, 0) == 0) return servlet.get();
  }
  return nullptr;
}

HttpSession& ServletContainer::session_for(const HttpRequest& req,
                                           HttpResponse& resp) {
  const util::TimePoint now = network_.now();
  const std::uint64_t id = cookie_session_id(req);
  if (id != 0) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      it->second->touch(now);
      return *it->second;
    }
  }
  const std::uint64_t fresh = next_session_++;
  auto session = std::make_unique<HttpSession>(fresh, now);
  HttpSession& ref = *session;
  sessions_.emplace(fresh, std::move(session));
  resp.headers.set("Set-Cookie",
                   std::string(kSessionCookie) + std::to_string(fresh));
  return ref;
}

void DeferredHttpReply::complete(HttpResponse resp) {
  if (done_) return;
  done_ = true;
  // The bytes the servlet would have produced on the direct response: the
  // seed's correlation and session headers first, its own set on top.
  HttpResponse out = std::move(seed_);
  out.status = resp.status;
  out.reason = reason_for(resp.status);
  for (const auto& [n, v] : resp.headers.all()) out.headers.set(n, v);
  out.body = std::move(resp.body);
  util::Bytes wire = serialize(out);
  if (on_complete_) on_complete_(wire);
  network_.send(self_, client_, net::Channel::http, std::move(wire));
}

void ServletContainer::cache_response(const DedupKey& key,
                                      const util::Bytes& wire) {
  if (!response_cache_.emplace(key, wire).second) return;
  response_cache_order_.push_back(key);
  while (response_cache_order_.size() > kResponseCacheCap) {
    response_cache_.erase(response_cache_order_.front());
    response_cache_order_.pop_front();
  }
}

void ServletContainer::handle(const net::Message& msg) {
  const util::TimePoint start = network_.now();
  auto parsed = parse_request(msg.payload);
  HttpResponse resp;
  std::shared_ptr<DeferredHttpReply> deferred;
  DedupKey dedup_key{0, 0};
  bool has_dedup_key = false;
  if (!parsed.ok()) {
    resp.status = 400;
    resp.reason = reason_for(400);
    resp.body = util::to_bytes(parsed.error().message);
  } else {
    const HttpRequest& req = parsed.value();
    // Duplicate-request handling: a retried request (same client, same
    // X-Request-Id) replays the cached response; a copy whose deferred
    // dispatch is still in progress is swallowed (the eventual reply
    // answers every attempt).
    if (const auto rid = req.headers.get("X-Request-Id")) {
      dedup_key = {msg.src.value(),
                   std::strtoull(rid->c_str(), nullptr, 10)};
      has_dedup_key = dedup_key.second != 0;
    }
    if (has_dedup_key) {
      const auto cached = response_cache_.find(dedup_key);
      if (cached != response_cache_.end()) {
        ++dedup_hits_;
        network_.send(self_, msg.src, net::Channel::http, cached->second);
        return;
      }
      if (inflight_.count(dedup_key) != 0) {
        ++dedup_hits_;
        return;
      }
    }
    HttpSession& session = session_for(req, resp);
    // Correlate the reply with the request for the async client.
    if (const auto rid = req.headers.get("X-Request-Id")) {
      resp.headers.set("X-Request-Id", *rid);
    }
    Servlet* servlet = route(req.path_without_query());
    if (servlet == nullptr) {
      resp.status = 404;
      resp.reason = reason_for(404);
      resp.body = util::to_bytes("no servlet mounted at " + req.path);
    } else {
      // Trace ingress: continue a context carried by the client, otherwise
      // mint one here (subject to sampling).  The servlet — and everything
      // it triggers, including ORB calls — runs under this context.
      util::TraceContext trace;
      std::optional<util::Tracer::Scope> trace_scope;
      if (tracer_ != nullptr && tracer_->enabled() && servlet->traced()) {
        if (const auto th = req.headers.get("X-Trace-Context")) {
          if (const auto carried = util::parse_trace_header(*th)) {
            trace = tracer_->child_of(*carried);
          }
        }
        if (!trace.valid()) trace = tracer_->mint_root();
        if (trace.valid()) {
          // Set on the pre-service response so deferred replies carry it
          // too (the seed headers survive DeferredHttpReply::complete).
          resp.headers.set("X-Trace-Context",
                           util::encode_trace_header(trace));
        }
        trace_scope.emplace(*tracer_, trace);
      }
      ServletContext ctx;
      ctx.client = msg.src;
      ctx.session = &session;
      ctx.now = start;
      ctx.defer = [this, &deferred, &resp, &msg, dedup_key, has_dedup_key] {
        deferred = std::make_shared<DeferredHttpReply>(network_, self_,
                                                       msg.src, resp);
        if (has_dedup_key) {
          inflight_.insert(dedup_key);
          deferred->set_on_complete(
              [this, dedup_key](const util::Bytes& wire) {
                inflight_.erase(dedup_key);
                cache_response(dedup_key, wire);
              });
        }
        return deferred;
      };
      servlet->service(req, resp, ctx);
      resp.reason = reason_for(resp.status);
      if (trace.valid()) {
        tracer_->record(trace, "http:" + req.path_without_query(), start,
                        network_.now() - start);
      }
    }
  }
  ++requests_served_;
  service_latency_.record(network_.now() - start);
  if (!deferred) {
    util::Bytes wire = serialize(resp);
    if (has_dedup_key) cache_response(dedup_key, wire);
    network_.send(self_, msg.src, net::Channel::http, std::move(wire));
  }
}

void ServletContainer::expire_sessions(util::Duration max_idle) {
  const util::TimePoint now = network_.now();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second->last_active() > max_idle) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace discover::http
