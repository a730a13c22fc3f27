#include "service/loadgen.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rng/engine.h"
#include "util/metrics.h"

namespace geopriv {

namespace {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoadConn {
  int fd = -1;
  bool established = false;
  bool dead = false;
  std::string outbox;
  size_t out_off = 0;
  std::string inbox;
  /// Reference times for the replies this connection owes, FIFO: the
  /// scheduled arrival (open loop) or the actual send (closed loop).
  std::deque<double> owed;
  ~LoadConn() {
    if (fd >= 0) ::close(fd);
  }
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

Result<LoadStats> RunLoad(const LoadOptions& options) {
  if (options.connections < 1) {
    return Status::InvalidArgument("connections must be >= 1");
  }
  if (options.line_prefix.empty()) {
    return Status::InvalidArgument("line_prefix must be set");
  }
  const bool open_loop = options.rate > 0.0;
  const int depth = std::max(1, options.depth);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + options.host +
                                   "' (dotted IPv4 only)");
  }

  // Nonblocking connects, all launched up front.  A connection the
  // server never accepts parks in the listen backlog; its requests stay
  // unanswered until the drain deadline, which is not an error.
  std::vector<std::unique_ptr<LoadConn>> conns;
  conns.reserve(static_cast<size_t>(options.connections));
  for (int c = 0; c < options.connections; ++c) {
    auto conn = std::make_unique<LoadConn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return Status::Internal("socket() failed");
    const int flags = ::fcntl(conn->fd, F_GETFL, 0);
    ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int rc = ::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    if (rc == 0) {
      conn->established = true;
    } else if (errno != EINPROGRESS) {
      conn->dead = true;
    }
    conns.push_back(std::move(conn));
  }

  LoadStats stats;
  std::vector<double> latencies;
  Xoshiro256 rng(options.seed);
  uint64_t seed_counter = options.seed;

  const double start = NowS();
  const double gen_end = start + static_cast<double>(options.duration_ms) / 1e3;
  const double drain_end =
      gen_end + static_cast<double>(options.drain_ms) / 1e3;
  double next_arrival = start;
  double last_reply = start;
  size_t rr = 0;  // round-robin cursor over established connections

  const auto queue_request = [&](LoadConn& conn, double reference_time) {
    conn.outbox += options.line_prefix;
    conn.outbox += std::to_string(seed_counter++);
    conn.outbox += "}\n";
    conn.owed.push_back(reference_time);
    ++stats.sent;
  };

  // Flushes what the socket accepts; leftover bytes wait for POLLOUT.
  const auto flush = [](LoadConn& conn) {
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
      conn.dead = true;
      break;
    }
    if (conn.out_off == conn.outbox.size()) {
      conn.outbox.clear();
      conn.out_off = 0;
    }
  };

  const auto consume_replies = [&](LoadConn& conn, double now) {
    size_t newline;
    while ((newline = conn.inbox.find('\n')) != std::string::npos) {
      const std::string line = conn.inbox.substr(0, newline);
      conn.inbox.erase(0, newline + 1);
      if (line.empty()) continue;
      if (conn.owed.empty() || line.front() != '{' ||
          line.find("\"op\"") == std::string::npos) {
        ++stats.malformed;
        continue;
      }
      const double reference = conn.owed.front();
      conn.owed.pop_front();
      ++stats.completed;
      last_reply = now;
      latencies.push_back((now - reference) * 1e3);
      if (line.find("\"ok\":true") == std::string::npos) {
        if (line.find("\"error\":\"Unavailable\"") != std::string::npos) {
          ++stats.rejected;
        } else {
          ++stats.errors;
        }
      }
      // Closed loop: replace the completed request while the window is
      // open, keeping `depth` outstanding.
      if (!open_loop && now < gen_end) queue_request(conn, now);
    }
  };

  std::vector<pollfd> pollset;
  for (;;) {
    const double now = NowS();
    if (now >= drain_end) break;

    // Established connections, in stable order, for round-robin and for
    // the closed-loop priming below.
    std::vector<LoadConn*> live;
    for (auto& conn : conns) {
      if (conn->established && !conn->dead) live.push_back(conn.get());
    }

    if (open_loop) {
      // Emit every arrival whose scheduled time has come.  Arrivals keep
      // their schedule even when no connection is up yet (the server owns
      // that delay too).
      while (next_arrival <= now && next_arrival < gen_end) {
        if (!live.empty()) {
          LoadConn& conn = *live[rr++ % live.size()];
          queue_request(conn, next_arrival);
        }
        next_arrival += -std::log(rng.NextDoublePositive()) / options.rate;
      }
    } else {
      // Prime (and keep) `depth` requests outstanding per connection.
      for (LoadConn* conn : live) {
        while (now < gen_end &&
               conn->owed.size() < static_cast<size_t>(depth)) {
          queue_request(*conn, now);
        }
      }
    }

    // Done once the window closed and nothing is owed anywhere.
    if (now >= gen_end) {
      bool outstanding = false;
      for (auto& conn : conns) {
        if (!conn->dead && conn->established && !conn->owed.empty()) {
          outstanding = true;
          break;
        }
      }
      if (!outstanding) break;
    }

    pollset.clear();
    for (auto& conn : conns) {
      if (conn->dead) continue;
      pollfd p{};
      p.fd = conn->fd;
      if (!conn->established) {
        p.events = POLLOUT;  // connect completion
      } else {
        p.events = POLLIN;
        if (!conn->outbox.empty()) p.events |= POLLOUT;
      }
      pollset.push_back(p);
    }
    if (pollset.empty()) break;  // every connection died

    int timeout_ms = 10;
    if (open_loop && next_arrival < gen_end) {
      const double wait_s = next_arrival - NowS();
      timeout_ms = std::max(0, std::min(10, static_cast<int>(wait_s * 1e3)));
    }
    const int n = ::poll(pollset.data(), static_cast<nfds_t>(pollset.size()),
                         timeout_ms);
    if (n < 0 && errno != EINTR) return Status::Internal("poll() failed");

    size_t pi = 0;
    for (auto& conn : conns) {
      if (conn->dead) continue;
      const pollfd& p = pollset[pi++];
      if (p.revents == 0) continue;
      const double reply_now = NowS();
      if (!conn->established) {
        if (p.revents & (POLLERR | POLLHUP)) {
          conn->dead = true;
          continue;
        }
        if (p.revents & POLLOUT) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            conn->dead = true;
          } else {
            conn->established = true;
          }
        }
        continue;
      }
      if (p.revents & POLLOUT) flush(*conn);
      if (p.revents & POLLIN) {
        char chunk[65536];
        for (;;) {
          const ssize_t k = ::recv(conn->fd, chunk, sizeof(chunk), 0);
          if (k > 0) {
            conn->inbox.append(chunk, static_cast<size_t>(k));
            continue;
          }
          if (k == 0) conn->dead = true;  // server closed on us
          if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR) {
            conn->dead = true;
          }
          break;
        }
        consume_replies(*conn, reply_now);
      }
      if ((p.revents & (POLLERR | POLLNVAL)) != 0) conn->dead = true;
    }

    // Kick fresh bytes out without waiting a poll cycle for POLLOUT.
    for (auto& conn : conns) {
      if (!conn->dead && conn->established && !conn->outbox.empty()) {
        flush(*conn);
      }
    }
  }

  for (auto& conn : conns) {
    if (conn->established) ++stats.connected;
  }
  if (stats.connected == 0) {
    return Status::NotFound("no connection to " + options.host + ":" +
                            std::to_string(options.port) +
                            " could be established");
  }

  stats.elapsed_s = std::max(1e-9, (stats.completed > 0 ? last_reply : NowS()) -
                                       start);
  stats.throughput_qps =
      static_cast<double>(stats.completed) / stats.elapsed_s;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    stats.p50_ms = Percentile(latencies, 0.50);
    stats.p99_ms = Percentile(latencies, 0.99);
    stats.p999_ms = Percentile(latencies, 0.999);
    stats.max_ms = latencies.back();
    double sum = 0.0;
    for (double v : latencies) sum += v;
    stats.mean_ms = sum / static_cast<double>(latencies.size());
    // Server-comparable histogram: same log2 microsecond buckets as
    // util/metrics.h histograms.
    stats.latency_us_buckets.assign(metrics::kBuckets + 1, 0);
    for (double ms : latencies) {
      const auto us = static_cast<int64_t>(ms * 1e3);
      ++stats.latency_us_buckets[static_cast<size_t>(
          metrics::Histogram::BucketFor(us))];
    }
  }
  return stats;
}

std::string FormatLoadStats(const LoadStats& stats) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"connected\":%d,\"sent\":%llu,\"completed\":%llu,"
      "\"rejected\":%llu,\"errors\":%llu,\"malformed\":%llu,"
      "\"elapsed_s\":%.3f,\"throughput_qps\":%.1f,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"p999_ms\":%.3f,"
      "\"mean_ms\":%.3f,\"max_ms\":%.3f}",
      stats.connected, static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.malformed), stats.elapsed_s,
      stats.throughput_qps, stats.p50_ms, stats.p99_ms, stats.p999_ms,
      stats.mean_ms, stats.max_ms);
  return buf;
}

std::string FormatLatencyHistogram(const LoadStats& stats) {
  // Cumulative counts (Prometheus `le` convention), flat keys so CI can
  // grep bucket lines the same way it greps the stats line.  Empty bucket
  // vector (no completed requests) renders all-zero.
  std::string out = "{\"histogram\":\"latency_us\"";
  uint64_t total = 0;
  char buf[64];
  for (int i = 0; i <= metrics::kBuckets; ++i) {
    const uint64_t n = i < static_cast<int>(stats.latency_us_buckets.size())
                           ? stats.latency_us_buckets[static_cast<size_t>(i)]
                           : 0;
    total += n;
    if (i < metrics::kBuckets) {
      std::snprintf(buf, sizeof(buf), ",\"le_%lldus\":%llu",
                    static_cast<long long>(metrics::Histogram::BucketBound(i)),
                    static_cast<unsigned long long>(total));
    } else {
      std::snprintf(buf, sizeof(buf), ",\"le_inf\":%llu",
                    static_cast<unsigned long long>(total));
    }
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"count\":%llu}",
                static_cast<unsigned long long>(total));
  out += buf;
  return out;
}

}  // namespace geopriv
