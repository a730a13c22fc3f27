// Concurrent TCP transport for the mechanism service — the daemon's one
// TCP transport.
//
// The event loop multiplexes thousands of concurrent connections over one
// I/O thread (epoll) with:
//
//   - per-connection read/write buffers with partial-line reassembly
//     (a 1 MiB request-line cap; a final unterminated line is answered
//     on half-close),
//   - TCP_NODELAY on every protocol connection: each reply is sent the
//     moment it is written, instead of Nagle holding it until the
//     client's delayed ACK (up to ~40 ms) acknowledges the previous one,
//   - one BatchWindow per connection, so many batch windows can be open
//     simultaneously (each still capped at 4096 queries),
//   - write backpressure: a reply that does not fit the socket buffer is
//     kept in the connection's outbox and drained on writability,
//   - an idle-connection timer wheel replacing SO_RCVTIMEO — a slow-loris
//     client holding a half-received line is dropped unanswered,
//   - graceful drain on shutdown: stop accepting, finish in-flight
//     batches, flush every outbox, then persist and return.
//
// The QueryPipeline stays the backpressure point: batches that may SOLVE
// are enqueued on a small executor pool and the connection is resumed when
// its reply is ready, while batches whose every signature is already
// cached execute inline on the I/O thread — so a slow cold solve on one
// connection never stalls cached-signature traffic on the others.
// Admission-level shedding (cache max_pending, executor queue bound)
// answers Unavailable + retry_after_ms; connections are always accepted.
//
// The fault points `server.accept`, `server.recv` and `server.send` fire
// on accept, on each receive and on each outbox flush.

#ifndef GEOPRIV_SERVICE_EVENT_LOOP_H_
#define GEOPRIV_SERVICE_EVENT_LOOP_H_

#include <ostream>

#include "service/server.h"
#include "util/status.h"

namespace geopriv {

/// Serves the JSONL protocol on 127.0.0.1:`port` (0 picks a free port)
/// with the concurrent event loop described above.  Announces
/// "geopriv_serve listening on 127.0.0.1:<port>" on `announce` before
/// accepting.  Returns after a shutdown request has drained, persisting
/// when configured.  ServiceOptions consulted: workers, idle_timeout_ms,
/// retry_after_ms (shed hint), persist_dir.
Status ServeTcpEventLoop(int port, MechanismService& service,
                         std::ostream& announce);

}  // namespace geopriv

#endif  // GEOPRIV_SERVICE_EVENT_LOOP_H_
