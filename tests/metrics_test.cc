// The metrics plane: registry primitives (bucket math, striped
// concurrency, Prometheus exposition), the per-request trace fields on
// query replies, the slow-query log, and the stats and metrics ops, which
// read the cache's own counters at render time.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"
#include "util/metrics.h"

namespace geopriv {
namespace {

// ---- bucket math ------------------------------------------------------------

TEST(HistogramBuckets, BoundaryEdges) {
  using metrics::Histogram;
  // v <= 1 lands in bucket 0; after that, bucket i is (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 0);
  EXPECT_EQ(Histogram::BucketFor(2), 1);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 2);
  EXPECT_EQ(Histogram::BucketFor(5), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 3);
  EXPECT_EQ(Histogram::BucketFor(9), 4);
  EXPECT_EQ(Histogram::BucketFor(1024), 10);
  EXPECT_EQ(Histogram::BucketFor(1025), 11);
  // The last finite bound is 2^(kBuckets-1); above it is +Inf.
  const int64_t top = Histogram::BucketBound(metrics::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(top), metrics::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(top + 1), metrics::kBuckets);
  EXPECT_EQ(Histogram::BucketFor(INT64_MAX), metrics::kBuckets);
}

TEST(HistogramBuckets, ObservationsLandWhereBucketForSays) {
  metrics::Registry registry;
  metrics::Histogram* h = registry.GetHistogram("t_hist", "test");
  h->Observe(0);
  h->Observe(1);
  h->Observe(7);
  h->Observe(100);
  EXPECT_EQ(h->Count(), 4);
  EXPECT_EQ(h->Sum(), 108);
  std::vector<int64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(metrics::kBuckets + 1));
  EXPECT_EQ(buckets[0], 2);  // 0 and 1
  EXPECT_EQ(buckets[3], 1);  // 7 in (4, 8]
  EXPECT_EQ(buckets[7], 1);  // 100 in (64, 128]
}

// ---- exposition golden ------------------------------------------------------

TEST(Exposition, PrometheusTextFormat) {
  metrics::Registry registry;
  registry.GetCounter("t_requests_total", "Requests", {{"op", "query"}})
      ->Add(3);
  registry.GetCounter("t_requests_total", "Requests", {{"op", "ping"}})
      ->Add(1);
  registry.GetGauge("t_depth", "Queue depth")->Set(5);
  metrics::Histogram* h = registry.GetHistogram("t_wait_us", "Wait");
  h->Observe(1);
  h->Observe(3);

  const std::string text = metrics::RenderPrometheus(registry.Collect());
  // One HELP/TYPE pair per name, shared across label variants; samples
  // sorted by (name, labels).
  EXPECT_NE(text.find("# HELP t_requests_total Requests\n"
                      "# TYPE t_requests_total counter\n"
                      "t_requests_total{op=\"ping\"} 1\n"
                      "t_requests_total{op=\"query\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE t_depth gauge\nt_depth 5\n"),
            std::string::npos)
      << text;
  // Histogram: cumulative le buckets, then +Inf == count, sum, count.
  EXPECT_NE(text.find("# TYPE t_wait_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_us_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_wait_us_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("t_wait_us_count 2\n"), std::string::npos);
  // HELP/TYPE appear exactly once per name.
  EXPECT_EQ(text.find("# HELP t_wait_us"), text.rfind("# HELP t_wait_us"));
}

TEST(Exposition, DisabledRegistryRecordsNothing) {
  metrics::Registry registry;
  metrics::Counter* c = registry.GetCounter("t_off_total", "off");
  metrics::SetEnabled(false);
  c->Increment();
  metrics::SetEnabled(true);
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

// ---- concurrency (validated under TSan in CI) -------------------------------

TEST(Concurrency, StripedUpdatesSumExactly) {
  metrics::Registry registry;
  metrics::Counter* counter = registry.GetCounter("t_conc_total", "test");
  metrics::Gauge* gauge = registry.GetGauge("t_conc_gauge", "test");
  metrics::Histogram* hist = registry.GetHistogram("t_conc_us", "test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        hist->Observe(i % 257);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(gauge->Value(), 0);  // half added, half subtracted
  EXPECT_EQ(hist->Count(), int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : hist->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->Count());
}

// ---- per-request tracing ----------------------------------------------------

std::string QueryLine(bool trace) {
  std::string line =
      "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":5,\"alpha\":\"1/2\","
      "\"count\":2,\"seed\":7";
  if (trace) line += ",\"trace\":true";
  return line + "}";
}

TEST(Tracing, TraceTrueRepliesCarryStageSpans) {
  MechanismService service(ServiceOptions{});
  bool shutdown = false;
  const std::string reply = service.HandleLine(QueryLine(true), &shutdown);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  for (const char* key :
       {"\"trace_parse_us\":", "\"trace_queue_us\":", "\"trace_solve_us\":",
        "\"trace_charge_us\":", "\"trace_sample_us\":",
        "\"trace_persist_us\":", "\"trace_serialize_us\":"}) {
    EXPECT_NE(reply.find(key), std::string::npos) << key << " in " << reply;
  }
}

TEST(Tracing, UntracedRepliesStayClean) {
  MechanismService service(ServiceOptions{});
  bool shutdown = false;
  const std::string reply = service.HandleLine(QueryLine(false), &shutdown);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  EXPECT_EQ(reply.find("trace_"), std::string::npos) << reply;
}

// ---- slow-query log ---------------------------------------------------------

TEST(SlowQueryLog, ColdSolveAboveThresholdLogsOneLine) {
  std::ostringstream log;
  ServiceOptions options;
  options.slow_query_ms = 1;  // a cold n=12 exact solve exceeds 1ms
  options.slow_query_log = &log;
  MechanismService service(options);
  bool shutdown = false;
  const std::string reply = service.HandleLine(
      "{\"op\":\"query\",\"consumer\":\"alice\",\"n\":12,\"alpha\":\"1/2\","
      "\"count\":3,\"seed\":7}",
      &shutdown);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  const std::string line = log.str();
  EXPECT_NE(line.find("\"slow_query\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"consumer\":\"alice\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_us\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"solve_us\":"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "one JSONL line: " << line;
}

TEST(SlowQueryLog, FastQueriesBelowThresholdDoNotLog) {
  std::ostringstream log;
  ServiceOptions options;
  options.slow_query_ms = 60000;  // far above any test query
  options.slow_query_log = &log;
  MechanismService service(options);
  bool shutdown = false;
  (void)service.HandleLine(QueryLine(false), &shutdown);
  (void)service.HandleLine(QueryLine(false), &shutdown);
  EXPECT_TRUE(log.str().empty()) << log.str();
}

// ---- the protocol metrics op & stats unification ----------------------------

TEST(MetricsOp, ReportsRegistryAndAgreesWithStats) {
  MechanismService service(ServiceOptions{});
  bool shutdown = false;
  (void)service.HandleLine(QueryLine(false), &shutdown);  // one cold solve
  (void)service.HandleLine(QueryLine(false), &shutdown);  // one cache hit

  const std::string metrics_reply =
      service.HandleLine("{\"op\":\"metrics\"}", &shutdown);
  EXPECT_NE(metrics_reply.find("\"op\":\"metrics\",\"ok\":true"),
            std::string::npos)
      << metrics_reply;
  // The cache gauges the stats op reads come from the same registry.
  EXPECT_NE(metrics_reply.find("\"geopriv_cache_entries\":1"),
            std::string::npos)
      << metrics_reply;
  EXPECT_NE(metrics_reply.find("\"geopriv_cache_hits\":1"),
            std::string::npos)
      << metrics_reply;

  const std::string stats_reply =
      service.HandleLine("{\"op\":\"stats\"}", &shutdown);
  EXPECT_NE(stats_reply.find("\"entries\":1,\"hits\":1,\"misses\":1"),
            std::string::npos)
      << stats_reply;
  EXPECT_NE(stats_reply.find("\"persist_failures\":0"), std::string::npos)
      << stats_reply;

  // Prometheus text carries the same values.
  const std::string text = service.MetricsText();
  EXPECT_NE(text.find("geopriv_cache_entries 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE geopriv_cache_solve_latency_us histogram"),
            std::string::npos)
      << text;
}

TEST(MetricsOp, StatsReplyKeepsTheLegacyKeyOrder) {
  MechanismService service(ServiceOptions{});
  bool shutdown = false;
  (void)service.HandleLine(QueryLine(false), &shutdown);  // one cold solve
  (void)service.HandleLine(QueryLine(false), &shutdown);  // one cache hit
  const std::string expected =
      "{\"op\":\"stats\",\"ok\":true,\"entries\":1,\"hits\":1,\"misses\":1,"
      "\"warm_starts\":0,\"bytes\":" +
      std::to_string(service.cache().GetStats().bytes) +
      ",\"evictions\":0,\"quarantined\":0,\"basis_warm_reloads\":0,"
      "\"persist_failures\":0}";
  EXPECT_EQ(service.HandleLine("{\"op\":\"stats\"}", &shutdown), expected);
  // The cache's own counters answer even with registry recording off.
  metrics::SetEnabled(false);
  const std::string disabled =
      service.HandleLine("{\"op\":\"stats\"}", &shutdown);
  metrics::SetEnabled(true);
  EXPECT_EQ(disabled, expected);
}

TEST(MetricsOp, TwoServicesEachReportTheirOwnCache) {
  // One process registry, two caches: every exposition path reads the
  // cache of the service it is asked through.
  MechanismService one(ServiceOptions{});
  MechanismService two(ServiceOptions{});
  bool shutdown = false;
  (void)one.HandleLine(QueryLine(false), &shutdown);
  (void)two.HandleLine(QueryLine(false), &shutdown);
  (void)two.HandleLine(QueryLine(false), &shutdown);
  (void)two.HandleLine(
      "{\"op\":\"query\",\"consumer\":\"bob\",\"n\":4,\"alpha\":\"1/2\","
      "\"count\":1,\"seed\":3}",
      &shutdown);
  for (int round = 0; round < 2; ++round) {
    EXPECT_NE(one.HandleLine("{\"op\":\"stats\"}", &shutdown)
                  .find("\"entries\":1,\"hits\":0,\"misses\":1"),
              std::string::npos);
    EXPECT_NE(two.HandleLine("{\"op\":\"stats\"}", &shutdown)
                  .find("\"entries\":2,\"hits\":1,\"misses\":2"),
              std::string::npos);
    const std::string json_one =
        one.HandleLine("{\"op\":\"metrics\"}", &shutdown);
    const std::string json_two =
        two.HandleLine("{\"op\":\"metrics\"}", &shutdown);
    EXPECT_NE(json_one.find("\"geopriv_cache_entries\":1,"), std::string::npos)
        << json_one;
    EXPECT_NE(json_one.find("\"geopriv_ledger_consumers\":1,"),
              std::string::npos)
        << json_one;
    EXPECT_NE(json_two.find("\"geopriv_cache_entries\":2,"), std::string::npos)
        << json_two;
    EXPECT_NE(json_two.find("\"geopriv_ledger_consumers\":2,"),
              std::string::npos)
        << json_two;
    EXPECT_NE(one.MetricsText().find("\ngeopriv_cache_hits 0\n"),
              std::string::npos);
    EXPECT_NE(two.MetricsText().find("\ngeopriv_cache_hits 1\n"),
              std::string::npos);
  }
}

TEST(MetricsOp, ServiceGaugesMergeIntoTheRegistryOrder) {
  MechanismService service(ServiceOptions{});
  bool shutdown = false;
  (void)service.HandleLine(QueryLine(false), &shutdown);
  const std::string text = service.MetricsText();
  // The cache's gauges interleave with its registry histogram by name,
  // each under exactly one HELP/TYPE header.
  const size_t shed = text.find("# HELP geopriv_cache_shed ");
  const size_t solve = text.find("# HELP geopriv_cache_solve_latency_us ");
  const size_t timeouts = text.find("# HELP geopriv_cache_timeouts ");
  ASSERT_NE(shed, std::string::npos) << text;
  ASSERT_NE(solve, std::string::npos) << text;
  ASSERT_NE(timeouts, std::string::npos) << text;
  EXPECT_LT(shed, solve);
  EXPECT_LT(solve, timeouts);
  EXPECT_EQ(text.find("# TYPE geopriv_cache_shed gauge"),
            text.rfind("# TYPE geopriv_cache_shed gauge"));
  EXPECT_NE(text.find("# TYPE geopriv_cache_hits gauge\ngeopriv_cache_hits 0\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace geopriv
