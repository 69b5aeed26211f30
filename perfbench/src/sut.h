// The system under test: registry, DiscoverServer(s) and steerable apps on
// OsNetwork, run unmodified in a child process.  Only the benchmark's own
// wrappers sit around it: a Probe in front of each node's on_message and,
// in the traced run, a TapNetwork under each server that timestamps the
// HTTP replies and pushes the server hands to the transport.
//
// Every SUT thread is pinned to the CPU its role has in the plan.
//
// Control protocol (one text line per message over a pipe pair):
//   SUT -> parent  "up <portA> <portB>" once its transports listen
//   SUT -> parent  "ready <role>@<cpus>,..." once every app is registered
//                  and server A lists every app; one entry per SUT thread
//   parent -> SUT  "stats" | "quit" | "quit spans" (traced run: write the
//                  spans to span_path first)
//   SUT -> parent  "S key=value ..." answering each of them
#pragma once

#include <cstdint>
#include <string>

#include "plan.h"
#include "util/bytes.h"

namespace portalbench {

enum class SpanKind : std::uint8_t {
  http_in = 1,     // server on_message for a portal request: a=rid
  http_reply = 2,  // server handed an HTTP reply to the transport: a=rid
  push_out = 3,    // server handed a pushed update to the transport
  app_cmd = 4,     // app on_message for a forwarded command
  update_in = 5,   // server on_message for an app update
  giop_in = 6,     // server on_message for a peer ORB frame
};

/// One SUT-side span; `peer` is the client node for HTTP/push spans.
/// For update spans a = app id local part, b = iteration.
struct SutSpan {
  SpanKind kind = SpanKind::http_in;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Value of header `name` (e.g. "X-Request-Id") in an HTTP message head,
/// or 0 when absent.
std::uint64_t header_u64(const discover::util::Bytes& msg, const char* name);

/// Runs the SUT until "quit" (or the control pipe closes); on "quit spans"
/// in the traced run writes its spans to `span_path`.  Returns the process
/// exit code.
int run_sut(const Plan& plan, int ctl_in, int ctl_out,
            const std::string& span_path);

}  // namespace portalbench
