// Framing, concurrency and drain semantics of the event-loop transport.
//
// These tests drive ServeTcpEventLoop (via ServeTcp, the default) with
// raw blocking sockets so they control exactly which bytes hit the wire
// and when: one-byte writes (reassembly), interleaved batch windows on
// concurrent connections, an oversized line behind a valid one, a
// slow-loris half line against the idle timer wheel, graceful drain, and
// a send-fault that must drop one client without touching the daemon or
// its neighbors.  The concurrency
// bit-identity test pins the per-request seed contract: the reply SET for
// a fixed query set is byte-identical whether it arrives over 1
// connection or 32.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "service/server.h"
#include "util/fault_injection.h"

namespace geopriv {
namespace {

// Captures the daemon's "listening on 127.0.0.1:<port>" announce line and
// hands the port to the test thread through a promise.
class AnnouncedPort : public std::stringbuf {
 public:
  std::future<int> port() { return port_.get_future(); }

 protected:
  int sync() override {
    const std::string text = str();
    const size_t nl = text.find('\n');
    if (!set_ && nl != std::string::npos) {
      const size_t colon = text.rfind(':', nl);
      port_.set_value(std::atoi(text.c_str() + colon + 1));
      set_ = true;
    }
    return 0;
  }

 private:
  std::promise<int> port_;
  bool set_ = false;
};

// A blocking test client with explicit control over the bytes sent.
struct Client {
  int fd = -1;
  std::string buffered;

  ~Client() { Close(); }

  bool Connect(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t k = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (k <= 0) return false;
      sent += static_cast<size_t>(k);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return Send(line + "\n"); }

  /// One '\n'-terminated reply line (without the newline); empty string on
  /// EOF or timeout.
  std::string ReadLine() {
    char chunk[4096];
    for (;;) {
      const size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
      if (k <= 0) return "";
      buffered.append(chunk, static_cast<size_t>(k));
    }
  }

  /// Everything until the server closes (plus what was buffered).
  std::string ReadToEof() {
    std::string out = std::move(buffered);
    buffered.clear();
    char chunk[4096];
    for (;;) {
      const ssize_t k = ::recv(fd, chunk, sizeof(chunk), 0);
      if (k <= 0) return out;
      out.append(chunk, static_cast<size_t>(k));
    }
  }

  void HalfClose() { ::shutdown(fd, SHUT_WR); }

  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

std::string Query(const std::string& consumer, uint64_t seed) {
  return "{\"op\":\"query\",\"consumer\":\"" + consumer +
         "\",\"n\":4,\"alpha\":\"1/2\",\"loss\":\"absolute\",\"count\":1,"
         "\"seed\":" + std::to_string(seed) + "}";
}

class EventLoopTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault_injection::Disarm();
    if (server_.joinable()) {
      (void)TcpRequest("127.0.0.1", port_, "{\"op\":\"shutdown\"}");
      server_.join();
    }
  }

  void Start(ServiceOptions options = {}) {
    options.threads = options.threads == 0 ? 2 : options.threads;
    service_ = std::make_unique<MechanismService>(options);
    // The server thread co-owns the announce buffer: Start() returns the
    // moment the promise fires, which can be before the daemon finishes
    // the `<< std::flush` that fired it — a stack-local buffer here would
    // be written after this frame is gone.
    auto buffer = std::make_shared<AnnouncedPort>();
    std::future<int> announced = buffer->port();
    serve_status_ = Status::OK();
    server_ = std::thread([this, buffer] {
      std::ostream announce(buffer.get());
      serve_status_ = ServeTcp(0, *service_, announce);
    });
    port_ = announced.get();
    ASSERT_GT(port_, 0);
  }

  void ShutdownAndJoin() {
    auto bye = TcpRequest("127.0.0.1", port_, "{\"op\":\"shutdown\"}");
    ASSERT_TRUE(bye.ok()) << bye.status().ToString();
    EXPECT_NE(bye->find("\"op\":\"shutdown\",\"ok\":true"),
              std::string::npos);
    server_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  std::unique_ptr<MechanismService> service_;
  std::thread server_;
  Status serve_status_ = Status::OK();
  int port_ = 0;
};

TEST_F(EventLoopTest, ReassemblesOneByteWrites) {
  Start();
  Client client;
  ASSERT_TRUE(client.Connect(port_));
  const std::string line = Query("alice", 7) + "\n";
  for (char c : line) {
    ASSERT_TRUE(client.Send(std::string(1, c)));
  }
  const std::string reply = client.ReadLine();
  EXPECT_NE(reply.find("\"op\":\"query\",\"ok\":true"), std::string::npos);
  EXPECT_NE(reply.find("\"released\":"), std::string::npos);
  // Framing intact afterwards: a normal request still round-trips.
  ASSERT_TRUE(client.SendLine("{\"op\":\"ping\"}"));
  EXPECT_NE(client.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
            std::string::npos);
}

TEST_F(EventLoopTest, BatchWindowsOnConcurrentConnectionsAreIndependent) {
  Start();
  Client a, b;
  ASSERT_TRUE(a.Connect(port_));
  ASSERT_TRUE(b.Connect(port_));
  // Interleave: both windows open at once, each buffers its own queries.
  ASSERT_TRUE(a.SendLine("{\"op\":\"batch_begin\"}"));
  EXPECT_NE(a.ReadLine().find("\"op\":\"batch_begin\",\"ok\":true"),
            std::string::npos);
  ASSERT_TRUE(b.SendLine("{\"op\":\"batch_begin\"}"));
  EXPECT_NE(b.ReadLine().find("\"op\":\"batch_begin\",\"ok\":true"),
            std::string::npos);
  ASSERT_TRUE(a.SendLine(Query("alice", 1)));
  EXPECT_NE(a.ReadLine().find("\"op\":\"queued\",\"ok\":true,\"index\":0"),
            std::string::npos);
  ASSERT_TRUE(b.SendLine(Query("bob", 2)));
  ASSERT_TRUE(b.SendLine(Query("bob", 3)));
  EXPECT_NE(b.ReadLine().find("\"index\":0"), std::string::npos);
  EXPECT_NE(b.ReadLine().find("\"index\":1"), std::string::npos);
  // a's batch_end must flush exactly a's one query, not b's two.
  ASSERT_TRUE(a.SendLine("{\"op\":\"batch_end\"}"));
  EXPECT_NE(a.ReadLine().find("\"consumer\":\"alice\""), std::string::npos);
  EXPECT_NE(a.ReadLine().find("\"op\":\"batch_end\",\"ok\":true,"
                              "\"batched\":1"),
            std::string::npos);
  ASSERT_TRUE(b.SendLine("{\"op\":\"batch_end\"}"));
  EXPECT_NE(b.ReadLine().find("\"consumer\":\"bob\""), std::string::npos);
  EXPECT_NE(b.ReadLine().find("\"consumer\":\"bob\""), std::string::npos);
  EXPECT_NE(b.ReadLine().find("\"batched\":2"), std::string::npos);
}

TEST_F(EventLoopTest, OversizedLineMidStreamAnswersThenRejects) {
  Start();
  Client client;
  ASSERT_TRUE(client.Connect(port_));
  // A valid query, then > 1 MiB with no newline in the same burst.  The
  // query must be answered; the oversized tail draws the parse error and
  // the connection closes.
  ASSERT_TRUE(client.Send(Query("alice", 5) + "\n"));
  ASSERT_TRUE(client.Send(std::string((1 << 20) + 4096, 'x')));
  const std::string first = client.ReadLine();
  EXPECT_NE(first.find("\"op\":\"query\",\"ok\":true"), std::string::npos);
  const std::string rest = client.ReadToEof();
  EXPECT_NE(rest.find("exceeds 1 MiB"), std::string::npos);
}

TEST_F(EventLoopTest, ReplySetIsBitIdenticalAcross1And32Connections) {
  constexpr int kQueries = 128;
  constexpr int kConns = 32;
  // Distinct consumers and seeds: every reply is then a deterministic
  // function of its own request — ledger interleaving across connections
  // has nothing to change.
  const auto run = [this](int conns) {
    std::vector<std::string> replies(kQueries);
    // Prewarm so every measured reply is a cache hit in both runs (which
    // query solves cold is scheduling-dependent with 32 connections).
    Client warm;
    EXPECT_TRUE(warm.Connect(port_));
    EXPECT_TRUE(warm.SendLine(Query("warmup", 1)));
    EXPECT_NE(warm.ReadLine().find("\"ok\":true"), std::string::npos);
    std::vector<std::thread> threads;
    const int per_conn = kQueries / conns;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([this, c, per_conn, &replies] {
        Client client;
        ASSERT_TRUE(client.Connect(port_));
        for (int q = c * per_conn; q < (c + 1) * per_conn; ++q) {
          ASSERT_TRUE(client.SendLine(
              Query("consumer-" + std::to_string(q),
                    static_cast<uint64_t>(1000 + q))));
          replies[static_cast<size_t>(q)] = client.ReadLine();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return replies;
  };

  Start();
  std::vector<std::string> serial = run(1);
  ShutdownAndJoin();
  Start();  // fresh service: same ledger state as the first run saw
  std::vector<std::string> concurrent = run(kConns);

  // Same request -> byte-identical reply, regardless of the transport's
  // interleaving (the per-request seed contract).
  for (int q = 0; q < kQueries; ++q) {
    EXPECT_FALSE(serial[static_cast<size_t>(q)].empty());
    EXPECT_EQ(serial[static_cast<size_t>(q)],
              concurrent[static_cast<size_t>(q)])
        << "reply " << q << " differs between 1 and 32 connections";
  }
  std::sort(serial.begin(), serial.end());
  std::sort(concurrent.begin(), concurrent.end());
  EXPECT_EQ(serial, concurrent);
}

TEST_F(EventLoopTest, SlowLorisHalfLineIsDroppedUnansweredOnIdleTimeout) {
  ServiceOptions options;
  options.idle_timeout_ms = 300;
  Start(options);
  Client loris, healthy;
  ASSERT_TRUE(loris.Connect(port_));
  ASSERT_TRUE(healthy.Connect(port_));
  // The slow loris parks half a request and goes quiet.
  ASSERT_TRUE(loris.Send("{\"op\":\"pi"));
  // The healthy neighbor keeps talking through the loris's timeout window
  // and must never be disturbed.
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(healthy.SendLine("{\"op\":\"ping\"}"));
    EXPECT_NE(healthy.ReadLine().find("\"ok\":true"), std::string::npos);
  }
  // ~500ms elapsed > 300ms timeout: the loris is gone, and its half line
  // was dropped UNANSWERED — EOF with zero reply bytes.
  EXPECT_EQ(loris.ReadToEof(), "");
}

TEST_F(EventLoopTest, PipelinedRepliesAreNotHeldForTheDelayedAck) {
  // Two requests in one segment draw two replies, sent one after the
  // other.  Under Nagle the second waits until the client ACKs the first,
  // and the client delays that ACK (~40 ms on Linux) because it has
  // nothing to send; TCP_NODELAY on the daemon's side removes the wait.
  Start();
  Client client;
  ASSERT_TRUE(client.Connect(port_));
  // Warm the connection first: a fresh connection ACKs every segment at
  // once (quick-ACK), which hides the hold.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.SendLine("{\"op\":\"ping\"}"));
    ASSERT_NE(client.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
              std::string::npos);
  }
  std::vector<double> pair_ms;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Send("{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
    ASSERT_NE(client.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
              std::string::npos);
    ASSERT_NE(client.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
              std::string::npos);
    pair_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::sort(pair_ms.begin(), pair_ms.end());
  EXPECT_LT(pair_ms[pair_ms.size() / 2], 10.0)
      << "median time to read both pipelined replies";
}

TEST_F(EventLoopTest, FinalUnterminatedLineIsAnsweredOnHalfClose) {
  Start();
  Client client;
  ASSERT_TRUE(client.Connect(port_));
  ASSERT_TRUE(client.Send("{\"op\":\"ping\"}"));  // no trailing newline
  client.HalfClose();
  const std::string all = client.ReadToEof();
  EXPECT_NE(all.find("\"op\":\"ping\",\"ok\":true"), std::string::npos);
}

TEST_F(EventLoopTest, ShutdownDrainsAndClosesEveryConnection) {
  Start();
  Client idle, closer;
  ASSERT_TRUE(idle.Connect(port_));
  ASSERT_TRUE(closer.Connect(port_));
  // Prove `idle` is actually registered before the drain begins.
  ASSERT_TRUE(idle.SendLine("{\"op\":\"ping\"}"));
  EXPECT_NE(idle.ReadLine().find("\"ok\":true"), std::string::npos);
  ASSERT_TRUE(closer.SendLine("{\"op\":\"shutdown\"}"));
  EXPECT_NE(closer.ReadLine().find("\"op\":\"shutdown\",\"ok\":true"),
            std::string::npos);
  // The shutdown requester and the idle bystander both get clean EOFs.
  EXPECT_EQ(closer.ReadToEof(), "");
  EXPECT_EQ(idle.ReadToEof(), "");
  server_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  // The listener is gone: further connects are refused.
  Client late;
  EXPECT_FALSE(late.Connect(port_));
}

TEST_F(EventLoopTest, EvictionChurnNeverYieldsWrongOrLostReplies) {
  // Post-eviction serving contract, end to end: with max_entries=1 the
  // cache evicts on nearly every publish, so the Contains-based executor
  // classification is stale all the time.  The contract is that a stale
  // "cached" classification degrades to a transient shed the client's
  // retry absorbs — every query eventually answers ok, none answers
  // wrong, and the I/O thread never wedges.
  ServiceOptions options;
  options.max_entries = 1;
  options.retry_after_ms = 1;
  Start(options);
  RetryOptions retry;
  retry.attempts = 8;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 8;
  // One structural class (fixed n), four alphas: the class anchor (the
  // smallest denominator, 1/2) is pinned, so the other three churn
  // through the single remaining slot.  Distinct n values would NOT
  // churn — each n is its own class whose lone entry is its anchor.
  const char* alphas[] = {"1/2", "1/3", "2/5", "3/7"};
  for (int round = 0; round < 3; ++round) {
    for (const char* alpha : alphas) {
      const std::string line =
          "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":5,\"alpha\":\"" +
          std::string(alpha) +
          "\",\"mode\":\"geometric\",\"count\":1,"
          "\"seed\":" + std::to_string(round) + "}";
      auto reply = TcpRequestWithRetry("127.0.0.1", port_, line, retry);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_NE(reply->find("\"op\":\"query\",\"ok\":true"),
                std::string::npos)
          << *reply;
      // The reply echoes the canonical signature: right answer, right
      // signature, even while that signature churns in and out of cache.
      EXPECT_NE(reply->find(";alpha=" + std::string(alpha)),
                std::string::npos)
          << *reply;
    }
  }
  // The bound held (the anchor may pin one extra entry above it).
  EXPECT_LE(service_->cache().GetStats().entries, 2u);
  EXPECT_GE(service_->cache().GetStats().evictions, 1u);
  ShutdownAndJoin();
}

TEST_F(EventLoopTest, SendFaultDropsOnlyThatClient) {
  Start();
  ASSERT_TRUE(fault_injection::ArmFromSpec("server.send=fail").ok());
  Client victim;
  ASSERT_TRUE(victim.Connect(port_));
  ASSERT_TRUE(victim.SendLine("{\"op\":\"ping\"}"));
  // The injected send failure plays a vanished peer: dropped, no reply.
  EXPECT_EQ(victim.ReadToEof(), "");
  fault_injection::Disarm();
  // The daemon survived and serves the next client normally.
  Client healthy;
  ASSERT_TRUE(healthy.Connect(port_));
  ASSERT_TRUE(healthy.SendLine("{\"op\":\"ping\"}"));
  EXPECT_NE(healthy.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
            std::string::npos);
}

TEST_F(EventLoopTest, InlineChargedRepliesWaitForTheLedgerSync) {
  const std::string dir = ::testing::TempDir() + "/geopriv_eventloop_sync";
  std::filesystem::remove_all(dir);
  ServiceOptions options;
  options.persist_dir = dir;
  Start(options);
  Client client;
  ASSERT_TRUE(client.Connect(port_));
  // The first batch solves on the executor; later queries are inline
  // hits.  Its 40 accounts make the first snapshot large enough that the
  // single charges below append to the journal instead of compacting.
  ASSERT_TRUE(client.SendLine("{\"op\":\"batch_begin\"}"));
  ASSERT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  ASSERT_TRUE(client.SendLine(Query("alice", 1)));
  ASSERT_NE(client.ReadLine().find("\"queued\""), std::string::npos);
  for (int i = 0; i < 39; ++i) {
    ASSERT_TRUE(client.SendLine(Query("pad" + std::to_string(i), i)));
    ASSERT_NE(client.ReadLine().find("\"queued\""), std::string::npos);
  }
  ASSERT_TRUE(client.SendLine("{\"op\":\"batch_end\"}"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  }
  ASSERT_NE(client.ReadLine().find("\"batched\":40"), std::string::npos);

  // A slow fdatasync holds the inline reply for at least its duration.
  ASSERT_TRUE(fault_injection::ArmFromSpec("ledger.fsync=delay:150").ok());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.SendLine(Query("bob", 2)));
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(150));
  EXPECT_GE(fault_injection::HitCount("ledger.fsync"), 1);

  // A failed sync withholds the charged reply; the ping pipelined behind
  // it is still answered, in order.
  ASSERT_TRUE(fault_injection::ArmFromSpec("ledger.fsync=fail").ok());
  ASSERT_TRUE(client.Send(Query("carol", 3) + "\n{\"op\":\"ping\"}\n"));
  EXPECT_NE(client.ReadLine().find("\"op\":\"persist\",\"ok\":false"),
            std::string::npos);
  EXPECT_NE(client.ReadLine().find("\"op\":\"ping\",\"ok\":true"),
            std::string::npos);
  fault_injection::Disarm();
  ASSERT_TRUE(client.SendLine(Query("dave", 4)));
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  client.Close();
  ShutdownAndJoin();

  MechanismService reloaded(options);
  ASSERT_TRUE(reloaded.LoadPersisted().ok());
  for (const char* answered : {"alice", "bob", "dave"}) {
    EXPECT_EQ(reloaded.ledger().Level(answered), 0.5) << answered;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace geopriv
