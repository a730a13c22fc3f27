#include "service/event_loop.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/protocol.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace geopriv {

namespace {

// Event-loop metrics, interned once.  Everything here updates off the
// per-query hot path (loop wakeups, accepts, sheds, drops) except the
// send histogram, whose two clock reads ride on a send(2) syscall.
struct LoopMetrics {
  metrics::Histogram* wait_us;
  metrics::Histogram* send_us;
  metrics::Gauge* queue_depth;
  metrics::Gauge* connections_open;
  metrics::Counter* connections_accepted;
  metrics::Counter* idle_dropped;
  metrics::Counter* backpressure;
  metrics::Counter* shed_executor_queue;

  static const LoopMetrics& Get() {
    static const LoopMetrics m = [] {
      metrics::Registry* registry = metrics::Registry::Default();
      LoopMetrics out;
      out.wait_us = registry->GetHistogram(
          "geopriv_eventloop_wait_us",
          "Time the I/O thread spent blocked in the poller per wakeup, "
          "microseconds");
      out.send_us = registry->GetHistogram(
          "geopriv_send_us", "Reply send (outbox flush) time, microseconds");
      out.queue_depth = registry->GetGauge(
          "geopriv_executor_queue_depth",
          "Batch-executor jobs queued at the last loop wakeup");
      out.connections_open = registry->GetGauge(
          "geopriv_connections_open", "Connections currently open");
      out.connections_accepted = registry->GetCounter(
          "geopriv_connections_accepted_total", "Connections accepted");
      out.idle_dropped = registry->GetCounter(
          "geopriv_connections_idle_dropped_total",
          "Connections dropped by the idle timeout");
      out.backpressure = registry->GetCounter(
          "geopriv_outbox_backpressure_total",
          "Reply flushes that left residual bytes waiting for writability");
      out.shed_executor_queue = registry->GetCounter(
          "geopriv_sheds_total", "Requests shed, by cause",
          {{"cause", "executor_queue"}});
      return out;
    }();
    return m;
  }
};

// One protocol line is small; a client streaming unbounded bytes with no
// newline is the same DoS class as an unbounded batch window.
constexpr size_t kMaxLineBytes = 1 << 20;

// Executor admission bound: decoded batches queued beyond this are shed
// with Unavailable + retry_after_ms instead of growing an unbounded queue
// behind a slow solve.  Shedding happens here, per admission — connections
// themselves are always accepted.
constexpr size_t kMaxQueuedJobs = 256;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// ---- Readiness demultiplexer: epoll ----------------------------------------
//
// epoll is O(ready) per wakeup.  The interest map mirrors what is
// registered so Modify can skip a redundant epoll_ctl.
class Poller {
 public:
  enum : uint32_t { kRead = 1u, kWrite = 2u };
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // EPOLLERR/EPOLLHUP — the peer is gone or broken
  };

  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool ok() const { return epfd_ >= 0; }

  bool Add(int fd, uint32_t mask) {
    interest_[fd] = mask;
    return Control(EPOLL_CTL_ADD, fd, mask);
  }

  bool Modify(int fd, uint32_t mask) {
    auto it = interest_.find(fd);
    if (it == interest_.end()) return false;
    if (it->second == mask) return true;
    it->second = mask;
    return Control(EPOLL_CTL_MOD, fd, mask);
  }

  void Remove(int fd) {
    interest_.erase(fd);
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }

  /// Waits up to `timeout_ms` (-1 = forever) and fills `out` with the
  /// ready set.  Returns false on an unrecoverable demultiplexer error.
  bool Wait(int timeout_ms, std::vector<Event>* out) {
    out->clear();
    std::array<epoll_event, 256> ready;
    const int n = ::epoll_wait(epfd_, ready.data(),
                               static_cast<int>(ready.size()), timeout_ms);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      Event event;
      event.fd = ready[i].data.fd;
      event.readable = (ready[i].events & EPOLLIN) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(event);
    }
    return true;
  }

 private:
  bool Control(int op, int fd, uint32_t mask) {
    epoll_event ev{};
    if (mask & kRead) ev.events |= EPOLLIN;
    if (mask & kWrite) ev.events |= EPOLLOUT;
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, op, fd, &ev) == 0;
  }

  int epfd_;
  std::unordered_map<int, uint32_t> interest_;
};

// ---- Idle-connection timer wheel --------------------------------------------
//
// Replaces a per-client SO_RCVTIMEO: one wheel holds every
// idle deadline, Arm/Cancel are O(1), and each tick only touches the due
// bucket.  Cancellation is lazy — a bucket entry whose stored deadline no
// longer matches the armed deadline is stale and dropped when its bucket
// comes due, so re-arming on every received byte costs no removal scan.
class TimerWheel {
 public:
  explicit TimerWheel(int64_t timeout_ms)
      : timeout_ms_(timeout_ms),
        tick_ms_(std::max<int64_t>(1, timeout_ms / 16)) {}

  int64_t tick_ms() const { return tick_ms_; }
  bool AnyArmed() const { return !armed_.empty(); }

  void Arm(int fd, int64_t now_ms) {
    const int64_t deadline = now_ms + timeout_ms_;
    armed_[fd] = deadline;
    Bucket(deadline).push_back({fd, deadline});
  }

  void Cancel(int fd) { armed_.erase(fd); }

  /// Appends every fd whose armed deadline passed to `expired` and disarms
  /// it.  Sweeps only the buckets that became due since the last call
  /// (capped at one full lap).
  void Expire(int64_t now_ms, std::vector<int>* expired) {
    if (last_ms_ == 0) last_ms_ = now_ms;
    int64_t t = std::max(last_ms_,
                         now_ms - tick_ms_ * static_cast<int64_t>(kBuckets - 1));
    for (; t <= now_ms; t += tick_ms_) {
      std::vector<std::pair<int, int64_t>>& bucket = Bucket(t);
      size_t keep = 0;
      for (const std::pair<int, int64_t>& entry : bucket) {
        auto it = armed_.find(entry.first);
        if (it == armed_.end() || it->second != entry.second) continue;
        if (entry.second <= now_ms) {
          armed_.erase(it);
          expired->push_back(entry.first);
        } else {
          bucket[keep++] = entry;  // a future lap of the same slot
        }
      }
      bucket.resize(keep);
    }
    last_ms_ = now_ms;
  }

 private:
  static constexpr size_t kBuckets = 64;
  std::vector<std::pair<int, int64_t>>& Bucket(int64_t ms) {
    return buckets_[static_cast<size_t>((ms / tick_ms_) %
                                        static_cast<int64_t>(kBuckets))];
  }

  int64_t timeout_ms_;
  int64_t tick_ms_;
  int64_t last_ms_ = 0;
  std::array<std::vector<std::pair<int, int64_t>>, kBuckets> buckets_;
  std::unordered_map<int, int64_t> armed_;
};

// ---- Batch executor ---------------------------------------------------------
//
// Solve-bearing work runs here so the I/O thread never blocks on the
// solver mutex.  One job per connection may be in flight at a time (the
// loop stops parsing a connection's buffer while it is busy), so a worker
// owns the connection's BatchWindow for the duration of its job.
struct Job {
  int fd = -1;
  ServiceRequest request;
  BatchWindow* window = nullptr;
  int64_t enqueued_us = 0;  ///< steady-clock stamp at Submit, for queue_us
};

struct Completion {
  int fd = -1;
  std::string response;
};

class Executor {
 public:
  Executor(MechanismService& service, int workers, int wake_fd)
      : service_(service), wake_fd_(wake_fd) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  ~Executor() { Stop(); }

  /// Lets queued jobs finish, then joins the workers.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  size_t QueueDepth() {
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
  }

  void Submit(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }

  std::vector<Completion> DrainCompletions() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(completions_);
  }

 private:
  void WorkerLoop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop requested and queue drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      // The shutdown op is classified inline-only, so workers never see it
      // and the shutdown flag can be dropped here.
      job.request.queue_us = NowMicros() - job.enqueued_us;
      {
        static metrics::Histogram* const queue_wait =
            metrics::Registry::Default()->GetHistogram(
                "geopriv_executor_queue_wait_us",
                "Executor queue wait per dispatched job, microseconds");
        queue_wait->Observe(job.request.queue_us);
      }
      std::string response =
          service_.HandleRequest(job.request, job.window, nullptr);
      {
        std::lock_guard<std::mutex> lock(mu_);
        completions_.push_back({job.fd, std::move(response)});
      }
      const char byte = 1;
      // A full wake pipe is fine: the loop drains completions on every
      // wakeup, so one pending byte already guarantees delivery.
      (void)!::write(wake_fd_, &byte, 1);
    }
  }

  MechanismService& service_;
  const int wake_fd_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> jobs_;
  std::vector<Completion> completions_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ---- Per-connection state ---------------------------------------------------

struct Connection {
  int fd = -1;
  bool http = false;  // a metrics-endpoint connection, not a protocol one
  BatchWindow window;
  std::string inbox;   // received, not yet parsed
  std::string outbox;  // formatted, not yet sent
  size_t out_off = 0;
  bool busy = false;     // a job for this connection is queued or running
  bool eof = false;      // peer half-closed; answer what it sent, then close
  bool closing = false;  // no further input; close once the outbox drains
  bool doomed = false;   // hard drop (transport/fault failure); no flush owed
  bool oversized = false;  // unterminated line exceeded the cap; error owed
  uint32_t interest = 0;  // mask currently registered with the poller
  /// Replies held until the wakeup's ledger sync: inline replies carrying
  /// a charge, plus every reply queued behind one (per-connection order).
  struct Held {
    std::string response;
    bool charged = false;
  };
  std::vector<Held> held;
};

// RAII for a POSIX fd.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

// ---- The loop ---------------------------------------------------------------

class EventLoopServer {
 public:
  EventLoopServer(MechanismService& service, std::ostream& announce)
      : service_(service), announce_(announce) {}

  Status Serve(int port) {
    if (!poller_.ok()) return Status::Internal("epoll_create1() failed");
    GEOPRIV_RETURN_IF_ERROR(Listen(port));
    if (service_.options().metrics_port >= 0) {
      GEOPRIV_RETURN_IF_ERROR(ListenMetrics(service_.options().metrics_port));
    }
    if (::pipe(wake_pipe_) != 0) {
      return Status::Internal("pipe() failed");
    }
    Fd wake_rd{wake_pipe_[0]};
    Fd wake_wr{wake_pipe_[1]};
    SetNonBlocking(wake_rd.fd);
    SetNonBlocking(wake_wr.fd);

    poller_.Add(listen_.fd, Poller::kRead);
    if (metrics_listen_.fd >= 0) poller_.Add(metrics_listen_.fd, Poller::kRead);
    poller_.Add(wake_rd.fd, Poller::kRead);

    const int64_t idle_ms = service_.options().idle_timeout_ms;
    if (idle_ms > 0) wheel_ = std::make_unique<TimerWheel>(idle_ms);

    Executor executor(service_, Workers(), wake_wr.fd);
    executor_ = &executor;

    std::vector<Poller::Event> events;
    std::vector<int> expired;
    while (!(draining_ && conns_.empty())) {
      int timeout_ms = -1;
      if (wheel_ != nullptr && wheel_->AnyArmed()) {
        timeout_ms = static_cast<int>(wheel_->tick_ms());
      }
      // Drain is completion-driven, but a bounded tick keeps it live even
      // if a wake byte is ever lost.
      if (draining_) timeout_ms = 50;
      Stopwatch wait_watch;
      if (!poller_.Wait(timeout_ms, &events)) {
        break;  // demultiplexer failure: fall through to drain + persist
      }
      const LoopMetrics& lm = LoopMetrics::Get();
      if (metrics::Enabled()) {
        lm.wait_us->Observe(
            static_cast<int64_t>(wait_watch.ElapsedMicros()));
        lm.queue_depth->Set(
            static_cast<int64_t>(executor.QueueDepth()));
      }
      for (const Poller::Event& event : events) {
        if (event.fd == wake_rd.fd) {
          char sink[256];
          while (::read(wake_rd.fd, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (event.fd == listen_.fd) {
          AcceptReady(listen_.fd, /*http=*/false);
          continue;
        }
        if (metrics_listen_.fd >= 0 && event.fd == metrics_listen_.fd) {
          AcceptReady(metrics_listen_.fd, /*http=*/true);
          continue;
        }
        HandleConnEvent(event);
      }
      for (Completion& done : executor.DrainCompletions()) {
        HandleCompletion(done);
      }
      ReleaseHeld();
      if (wheel_ != nullptr) {
        expired.clear();
        wheel_->Expire(NowMs(), &expired);
        for (int fd : expired) HandleIdleExpiry(fd);
      }
    }

    // All connections are gone; queued jobs (if any) finished with them.
    executor.Stop();
    executor_ = nullptr;
    return service_.Persist();
  }

 private:
  int Workers() const {
    int workers = service_.options().workers;
    if (workers <= 0) {
      int hw = static_cast<int>(std::thread::hardware_concurrency());
      if (hw < 1) hw = 1;
      workers = std::min(8, std::max(2, hw / 2));
    }
    return workers;
  }

  Status Listen(int port) {
    listen_.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_.fd < 0) return Status::Internal("socket() failed");
    const int one = 1;
    ::setsockopt(listen_.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(listen_.fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal("bind to 127.0.0.1:" + std::to_string(port) +
                              " failed");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_.fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      return Status::Internal("getsockname failed");
    }
    if (::listen(listen_.fd, 128) != 0) {
      return Status::Internal("listen failed");
    }
    if (!SetNonBlocking(listen_.fd)) {
      return Status::Internal("cannot make the listen socket nonblocking");
    }
    announce_ << "geopriv_serve listening on 127.0.0.1:"
              << ntohs(addr.sin_port) << "\n"
              << std::flush;
    return Status::OK();
  }

  /// Loopback HTTP listener for GET /metrics, served by the same loop.
  Status ListenMetrics(int port) {
    metrics_listen_.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (metrics_listen_.fd < 0) {
      return Status::Internal("metrics socket() failed");
    }
    const int one = 1;
    ::setsockopt(metrics_listen_.fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(metrics_listen_.fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::Internal("metrics bind to 127.0.0.1:" +
                              std::to_string(port) + " failed");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(metrics_listen_.fd,
                      reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return Status::Internal("metrics getsockname failed");
    }
    if (::listen(metrics_listen_.fd, 16) != 0) {
      return Status::Internal("metrics listen failed");
    }
    if (!SetNonBlocking(metrics_listen_.fd)) {
      return Status::Internal("cannot make the metrics socket nonblocking");
    }
    announce_ << "geopriv_serve metrics on 127.0.0.1:" << ntohs(addr.sin_port)
              << "\n"
              << std::flush;
    return Status::OK();
  }

  void AcceptReady(int listen_fd, bool http) {
    for (;;) {
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        // Transient per-connection failures (a client aborting between the
        // handshake and our accept, fd pressure) never take the daemon
        // down — there is no client to lose yet.
        return;
      }
      if (fault_injection::Armed() &&
          !fault_injection::Fire("server.accept").ok()) {
        // An injected accept failure plays the client that aborted right
        // after the handshake: this connection is dropped, the daemon
        // lives.
        ::close(cfd);
        continue;
      }
      if (draining_ || !SetNonBlocking(cfd)) {
        ::close(cfd);
        continue;
      }
      if (!http) {
        // Each reply is complete when it is written, so send it at once.
        // Under Nagle a reply written while the previous one is still
        // unacknowledged waits for the client's delayed ACK (~40 ms on
        // Linux) — the whole wire time of a pipelined release.  A
        // metrics connection writes one response and closes, so it keeps
        // the default.
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = cfd;
      conn->http = http;
      conn->interest = Poller::kRead;
      poller_.Add(cfd, Poller::kRead);
      if (wheel_ != nullptr) wheel_->Arm(cfd, NowMs());
      conns_.emplace(cfd, std::move(conn));
      if (metrics::Enabled()) {
        const LoopMetrics& lm = LoopMetrics::Get();
        lm.connections_accepted->Increment();
        lm.connections_open->Add(1);
      }
    }
  }

  void HandleConnEvent(const Poller::Event& event) {
    auto it = conns_.find(event.fd);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if (event.error) conn.doomed = true;
    if (!conn.doomed && event.writable) {
      if (!FlushOutbox(conn)) conn.doomed = true;
    }
    if (!conn.doomed && event.readable && !conn.closing) {
      ReadReady(conn);
    }
    ProcessBuffered(event.fd);
    Maintain(event.fd);
  }

  void ReadReady(Connection& conn) {
    bool got_bytes = false;
    char chunk[65536];
    while (!conn.busy && !conn.doomed && !conn.eof && !conn.oversized) {
      if (fault_injection::Armed() &&
          !fault_injection::Fire("server.recv").ok()) {
        // Injected receive failure: the connection "died" mid-request.  A
        // half-received line is dropped unanswered.
        conn.doomed = true;
        break;
      }
      const ssize_t k = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (k > 0) {
        got_bytes = true;
        conn.inbox.append(chunk, static_cast<size_t>(k));
        // The cap is per LINE: the inbox may legitimately hold more than
        // the cap as complete lines (buffered behind a busy batch), so
        // only the unterminated tail counts.  Complete lines received
        // ahead of the oversized tail are still answered — the error is
        // queued by ProcessBuffered after they execute, in arrival order.
        const size_t last_nl = conn.inbox.rfind('\n');
        const size_t tail = last_nl == std::string::npos
                                ? conn.inbox.size()
                                : conn.inbox.size() - last_nl - 1;
        if (tail > kMaxLineBytes) {
          conn.oversized = true;
          break;
        }
        // A short read drained the socket.  The poller is level-triggered,
        // so bytes that arrive later, and EOF, wake the loop again; a
        // second recv here would only return EAGAIN.
        if (static_cast<size_t>(k) < sizeof(chunk)) break;
        continue;
      }
      if (k == 0) {
        conn.eof = true;  // half-close: answer what was sent, then close
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.doomed = true;
      break;
    }
    if (got_bytes && wheel_ != nullptr && !conn.doomed) {
      wheel_->Arm(conn.fd, NowMs());
    }
  }

  /// Parses as many buffered lines as possible.  Stops when the
  /// connection goes busy (a job was dispatched — its reply must come
  /// back before later lines may run, preserving per-connection order).
  ///
  /// Looks the connection up by fd after every dispatched line: a
  /// shutdown line triggers BeginDrain, which may close and erase THIS
  /// connection before control returns here.
  void ProcessBuffered(int fd) {
    Connection* conn = FindConn(fd);
    if (conn == nullptr) return;
    if (conn->http) {
      ProcessHttp(*conn);
      return;
    }
    // Each line is parsed where it sits in the inbox; the answered prefix
    // is erased once, after the loop.  Nothing appends to the inbox while
    // a line is handled, so the view stays valid for its parse.
    size_t consumed = 0;
    while (!conn->busy && !conn->doomed && !conn->closing && !draining_) {
      const size_t newline = conn->inbox.find('\n', consumed);
      if (newline == std::string::npos) break;
      const std::string_view line(conn->inbox.data() + consumed,
                                  newline - consumed);
      consumed = newline + 1;
      HandleLine(*conn, line);
      conn = FindConn(fd);
      if (conn == nullptr) return;
    }
    conn->inbox.erase(0, consumed);
    // The oversized-line error goes out only after every complete line
    // ahead of it was answered.
    if (conn->oversized && !conn->busy && !conn->doomed && !conn->closing) {
      QueueResponse(*conn,
                    FormatErrorReply("parse",
                                     Status::InvalidArgument(
                                         "request line exceeds 1 MiB")));
      conn->inbox.clear();
      conn->closing = true;
    }
    // A client that half-closes without a trailing newline still sent a
    // complete request; answer it before dropping the connection.
    if (conn->eof && !conn->busy && !conn->doomed && !conn->closing &&
        !draining_ && !conn->inbox.empty() &&
        conn->inbox.find('\n') == std::string::npos) {
      std::string line = std::move(conn->inbox);
      conn->inbox.clear();
      HandleLine(*conn, line);
      conn = FindConn(fd);
      if (conn == nullptr) return;
    }
    if (conn->eof && !conn->busy && conn->inbox.empty()) conn->closing = true;
    if (draining_) conn->closing = true;
  }

  Connection* FindConn(int fd) {
    auto it = conns_.find(fd);
    return it == conns_.end() ? nullptr : it->second.get();
  }

  /// Minimal HTTP/1.0-style handler for the metrics listener: one request
  /// per connection, `GET /metrics` answered with the Prometheus text
  /// exposition, everything else with 404.  The response goes straight
  /// into the outbox (no protocol newline framing) and the connection
  /// closes once it drains — exactly what a scraper expects from
  /// `Connection: close`.
  void ProcessHttp(Connection& conn) {
    if (conn.closing) return;
    size_t header_end = conn.inbox.find("\r\n\r\n");
    size_t skip = 4;
    if (header_end == std::string::npos) {
      header_end = conn.inbox.find("\n\n");
      skip = 2;
    }
    if (header_end == std::string::npos) {
      // Headers incomplete.  A half-closed or oversized connection will
      // never complete them; drop it.
      if (conn.eof || conn.oversized) conn.doomed = true;
      return;
    }
    const std::string request_line =
        conn.inbox.substr(0, conn.inbox.find_first_of("\r\n"));
    conn.inbox.erase(0, header_end + skip);
    std::string status_line;
    std::string body;
    if (request_line == "GET /metrics" ||
        request_line.rfind("GET /metrics ", 0) == 0) {
      status_line = "HTTP/1.0 200 OK";
      body = service_.MetricsText();
    } else {
      status_line = "HTTP/1.0 404 Not Found";
      body = "not found: only GET /metrics is served here\n";
    }
    conn.outbox += status_line;
    conn.outbox +=
        "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
        "\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    conn.outbox += body;
    conn.closing = true;
    if (!FlushOutbox(conn)) conn.doomed = true;
  }

  void HandleLine(Connection& conn, std::string_view line) {
    // Blank lines are keep-alives, not requests.
    if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) return;
    Stopwatch parse_watch;
    Result<ServiceRequest> request = ParseRequestLine(line);
    if (!request.ok()) {
      QueueResponse(conn, FormatErrorReply("parse", request.status()));
      return;
    }
    request->parse_us = static_cast<int64_t>(parse_watch.ElapsedMicros());
    if (NeedsExecutor(*request, conn)) {
      if (executor_->QueueDepth() >= kMaxQueuedJobs) {
        if (metrics::Enabled()) {
          LoopMetrics::Get().shed_executor_queue->Increment();
        }
        QueueResponse(conn, ShedResponse(*request, conn));
        return;
      }
      conn.busy = true;
      executor_->Submit(
          Job{conn.fd, std::move(*request), &conn.window, NowMicros()});
      return;
    }
    bool shutdown = false;
    // cached_only=true: this work was classified as fully cached, but
    // under eviction that classification can go stale before it executes.
    // The flag makes the failure mode a transient Unavailable shed (the
    // client's retry re-classifies — now a miss — and routes through the
    // executor) instead of a cold solve stalling the I/O thread.
    //
    // The ledger sync is deferred: a charged reply is held until
    // ReleaseHeld's one sync for the whole wakeup has returned.
    uint64_t unsynced = 0;
    std::string response =
        service_.HandleRequest(*request, &conn.window, &shutdown,
                               /*cached_only=*/true, &unsynced);
    if (unsynced != 0) {
      Hold(conn, std::move(response), /*charged=*/true);
      unsynced_ = std::max(unsynced_, unsynced);
    } else {
      QueueResponse(conn, response);
    }
    if (shutdown) BeginDrain();
  }

  void Hold(Connection& conn, std::string response, bool charged) {
    if (conn.held.empty()) held_fds_.push_back(conn.fd);
    conn.held.push_back({std::move(response), charged});
  }

  /// Group commit for the inline path: one ledger sync covers every
  /// charged reply of this wakeup, and only then are they sent.  If the
  /// sync fails, the charged replies are withheld with the same "persist"
  /// error the executor path returns.
  void ReleaseHeld() {
    if (held_fds_.empty()) return;
    const Status synced = service_.SyncLedger(unsynced_);
    unsynced_ = 0;
    std::vector<int> fds = std::move(held_fds_);
    held_fds_.clear();
    for (int fd : fds) {
      Connection* conn = FindConn(fd);
      if (conn == nullptr) continue;
      std::vector<Connection::Held> held = std::move(conn->held);
      conn->held.clear();
      for (const Connection::Held& h : held) {
        QueueResponse(*conn, synced.ok() || !h.charged
                                 ? h.response
                                 : FormatErrorReply("persist", synced));
      }
      Maintain(fd);
    }
  }

  /// True when the request may run a solve: a query (or batch_end) whose
  /// signature set is not fully cached.  Cached-signature work executes
  /// inline on the I/O thread — microseconds — so it can never queue
  /// behind another connection's slow solve.
  ///
  /// Post-eviction contract: Contains() is advisory in BOTH directions.
  /// A stale false sends already-cached work to the executor (wasted
  /// hand-off, harmless); a stale true — possible now that the LRU bound
  /// can evict between this probe and execution — runs the inline path,
  /// whose cached_only flag degrades the vanished entry to a transient
  /// Unavailable shed rather than a wrong reply or an inline cold solve.
  /// Misclassification may cost a re-route or a retry; it can never cost
  /// correctness or stall the I/O thread.
  bool NeedsExecutor(const ServiceRequest& request,
                     const Connection& conn) const {
    const MechanismCache& cache = service_.cache();
    switch (request.op) {
      case ServiceOp::kQuery:
        if (conn.window.open) return false;  // a "queued" ack, no execution
        return !cache.Contains(request.query.signature);
      case ServiceOp::kBatchEnd: {
        if (!conn.window.open) return false;  // protocol error, no execution
        for (const ServiceQuery& query : conn.window.pending) {
          if (!cache.Contains(query.signature)) return true;
        }
        return false;
      }
      default:
        return false;  // control ops never block
    }
  }

  /// Unavailable replies for an executor-queue shed, shaped exactly like
  /// the pipeline's shed replies so clients need one retry path.
  std::string ShedResponse(const ServiceRequest& request, Connection& conn) {
    const int64_t retry_ms = service_.options().retry_after_ms;
    const auto shed_one = [&](const ServiceQuery& query) {
      ServiceReply reply;
      reply.status = Status::Unavailable(
          "service executor queue is full; retry later");
      reply.retry_after_ms = retry_ms;
      reply.cache = "shed";
      reply.budget = service_.ledger().budget();
      return FormatQueryReply(query, reply);
    };
    if (request.op == ServiceOp::kQuery) return shed_one(request.query);
    // batch_end: shed every buffered query, close the window.
    std::string out;
    std::vector<ServiceQuery> batch = std::move(conn.window.pending);
    conn.window.Reset();
    for (const ServiceQuery& query : batch) {
      out += shed_one(query) + "\n";
    }
    out += "{\"op\":\"batch_end\",\"ok\":true,\"batched\":" +
           std::to_string(batch.size()) + "}";
    return out;
  }

  void HandleCompletion(Completion& done) {
    auto it = conns_.find(done.fd);
    if (it == conns_.end()) return;  // cannot happen: busy conns are kept
    Connection& conn = *it->second;
    conn.busy = false;
    if (!conn.doomed) {
      QueueResponse(conn, done.response);
      if (wheel_ != nullptr) wheel_->Arm(conn.fd, NowMs());
      ProcessBuffered(done.fd);  // more lines may already be buffered
    }
    Maintain(done.fd);
  }

  void HandleIdleExpiry(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if (conn.busy) {
      // Not idle — the server owes this connection a reply.  Re-arm; the
      // clock restarts when the reply is queued.
      if (wheel_ != nullptr) wheel_->Arm(fd, NowMs());
      return;
    }
    // Idle timeout: drop without answering.  A half-received line is not
    // a request, and the client stopped talking — the slow-loris case.
    if (metrics::Enabled()) LoopMetrics::Get().idle_dropped->Increment();
    conn.doomed = true;
    Maintain(fd);
  }

  void QueueResponse(Connection& conn, const std::string& response) {
    if (response.empty()) return;
    if (!conn.held.empty()) {
      Hold(conn, response, /*charged=*/false);  // stays behind held replies
      return;
    }
    conn.outbox += response;
    conn.outbox += '\n';
    if (!FlushOutbox(conn)) conn.doomed = true;
  }

  /// Sends as much of the outbox as the socket accepts; the rest waits
  /// for writability (write backpressure).  False = the peer is gone.
  bool FlushOutbox(Connection& conn) {
    if (conn.out_off < conn.outbox.size() && fault_injection::Armed() &&
        !fault_injection::Fire("server.send").ok()) {
      // An injected send failure plays the peer that vanished mid-reply:
      // this client is dropped, the daemon lives.
      return false;
    }
    const bool timed = metrics::Enabled() && conn.out_off < conn.outbox.size();
    Stopwatch send_watch;
    while (conn.out_off < conn.outbox.size()) {
      const ssize_t k =
          ::send(conn.fd, conn.outbox.data() + conn.out_off,
                 conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
      if (k > 0) {
        conn.out_off += static_cast<size_t>(k);
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (k < 0 && errno == EINTR) continue;
      return false;
    }
    if (timed) {
      const LoopMetrics& lm = LoopMetrics::Get();
      lm.send_us->Observe(static_cast<int64_t>(send_watch.ElapsedMicros()));
      if (conn.out_off < conn.outbox.size()) lm.backpressure->Increment();
    }
    if (conn.out_off == conn.outbox.size()) {
      conn.outbox.clear();
      conn.out_off = 0;
    }
    return true;
  }

  /// Re-registers the poller interest and closes the connection when it
  /// has nothing left to do.  The single place a connection dies.
  void Maintain(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    // A busy connection is kept alive even when doomed: its worker still
    // holds the BatchWindow, so the object must survive until completion.
    if (conn.busy) {
      SetInterest(conn, conn.outbox.empty() ? 0u : Poller::kWrite);
      return;
    }
    const bool flushed = conn.outbox.empty() && conn.held.empty();
    if (conn.doomed || (conn.closing && flushed)) {
      poller_.Remove(fd);
      if (wheel_ != nullptr) wheel_->Cancel(fd);
      ::close(fd);
      conns_.erase(it);
      if (metrics::Enabled()) LoopMetrics::Get().connections_open->Add(-1);
      return;
    }
    uint32_t mask = 0;
    if (!conn.closing && !conn.eof && !conn.oversized && !draining_) {
      mask |= Poller::kRead;
    }
    if (!conn.outbox.empty()) mask |= Poller::kWrite;
    SetInterest(conn, mask);
  }

  void SetInterest(Connection& conn, uint32_t mask) {
    if (conn.interest == mask) return;
    conn.interest = mask;
    poller_.Modify(conn.fd, mask);
  }

  /// Graceful drain: stop accepting, let in-flight batches finish, flush
  /// every outbox, then close.  Buffered-but-unparsed input is dropped:
  /// shutdown stops service for every other client immediately.
  void BeginDrain() {
    if (draining_) return;
    draining_ = true;
    poller_.Remove(listen_.fd);
    ::close(listen_.fd);
    listen_.fd = -1;
    if (metrics_listen_.fd >= 0) {
      poller_.Remove(metrics_listen_.fd);
      ::close(metrics_listen_.fd);
      metrics_listen_.fd = -1;
    }
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      it->second->closing = true;
      Maintain(fd);
    }
  }

  MechanismService& service_;
  std::ostream& announce_;
  Poller poller_;
  Fd listen_;
  Fd metrics_listen_;
  int wake_pipe_[2] = {-1, -1};
  std::unique_ptr<TimerWheel> wheel_;
  Executor* executor_ = nullptr;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  bool draining_ = false;
  std::vector<int> held_fds_;  ///< connections with held replies
  uint64_t unsynced_ = 0;      ///< ledger ticket the held replies wait on
};

}  // namespace

Status ServeTcpEventLoop(int port, MechanismService& service,
                         std::ostream& announce) {
  EventLoopServer server(service, announce);
  Status served = server.Serve(port);
  if (!served.ok()) {
    // Transport failures must not lose charged budget: persist before the
    // error surfaces.
    (void)service.Persist();
  }
  return served;
}

}  // namespace geopriv
