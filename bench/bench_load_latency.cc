// Load latency and saturation throughput of the TCP transport.
//
// Drives an in-process event-loop daemon with the open-loop generator
// from service/loadgen.h over cached signatures, so the numbers isolate
// the transport + pipeline — no LP solves on the measured path.
//
// Two disciplines per connection count N in {1, 16, 64}:
//   open/...    fixed Poisson offered load; p50/p99/p999 measured from
//               each request's SCHEDULED arrival (queueing delay counts)
//   sat/...     closed loop (depth 8 per connection); the recorded value
//               is milliseconds per completed request (1000 / throughput)

#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include "bench/harness.h"
#include "service/loadgen.h"
#include "service/server.h"

namespace {

using namespace geopriv;

constexpr char kLinePrefix[] =
    "{\"op\":\"query\",\"consumer\":\"load\",\"n\":5,\"alpha\":\"1/2\","
    "\"loss\":\"absolute\",\"count\":2,\"seed\":";

// Captures the "listening on 127.0.0.1:<port>" announce line and hands
// the port over through a promise.
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

// One daemon lifetime: start, hand the port to `body`, shut down.
template <typename Body>
void WithServer(Body&& body) {
  ServiceOptions options;
  options.threads = 2;
  options.workers = 2;
  MechanismService service(options);
  // Prewarm the one signature the load uses: the measured path must be
  // all cache hits.
  bool shutdown = false;
  (void)service.HandleLine(std::string(kLinePrefix) + "1}", &shutdown);
  AnnouncedPort buffer;
  std::future<int> announced = buffer.port();
  std::thread server([&] {
    std::ostream announce(&buffer);
    (void)ServeTcp(0, service, announce);
  });
  const int port = announced.get();
  body(port);
  (void)TcpRequest("127.0.0.1", port, "{\"op\":\"shutdown\"}");
  server.join();
}

LoadOptions BaseLoad(int port, int connections, int64_t duration_ms) {
  LoadOptions load;
  load.port = port;
  load.connections = connections;
  load.duration_ms = duration_ms;
  load.drain_ms = 2000;
  load.seed = 42;
  load.line_prefix = kLinePrefix;
  return load;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_load_latency", argc, argv);
  const int64_t duration_ms = h.large() ? 2000 : 500;
  const int kConns[] = {1, 16, 64};

  // Open-loop latency under a fixed offered load.
  WithServer([&](int port) {
    for (int n : kConns) {
      LoadOptions load = BaseLoad(port, n, duration_ms);
      load.rate = 2000.0;
      Result<LoadStats> stats = RunLoad(load);
      if (!stats.ok()) {
        std::fprintf(stderr, "open-loop N=%d failed: %s\n", n,
                     stats.status().ToString().c_str());
        continue;
      }
      const std::string tag = "open/rate=2000/N=" + std::to_string(n);
      h.Record(tag + "/p50", stats->p50_ms);
      h.Record(tag + "/p99", stats->p99_ms);
      h.Record(tag + "/p999", stats->p999_ms);
      std::printf("    (N=%d: %llu sent, %llu completed, %.0f qps)\n", n,
                  static_cast<unsigned long long>(stats->sent),
                  static_cast<unsigned long long>(stats->completed),
                  stats->throughput_qps);
    }
  });

  // Closed-loop saturation: ms per completed request.
  WithServer([&](int port) {
    for (int n : kConns) {
      LoadOptions load = BaseLoad(port, n, duration_ms);
      load.depth = 8;
      Result<LoadStats> stats = RunLoad(load);
      if (!stats.ok() || stats->completed == 0) {
        std::fprintf(stderr, "saturation (event) N=%d failed\n", n);
        continue;
      }
      h.Record("sat/event/N=" + std::to_string(n) + "/per_req",
               1e3 / stats->throughput_qps);
      std::printf("    (event N=%d: %.0f qps saturated)\n", n,
                  stats->throughput_qps);
    }
  });
  return h.Finish();
}
