// Tests for the observability layer (src/obs/): sharded counters under
// OpenMP, histogram bucketing, the JSON value tree, span tracing, and the
// RunReport — plus an end-to-end check that the kernel counters recorded
// during a counting run agree with the dense wedge specification.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dense/spec.hpp"
#include "la/count.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/spans.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace bfc {
namespace {

// ---------------------------------------------------------------- Counter

TEST(ObsCounter, AddAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), 6);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsCounter, AggregatesAcrossOmpThreads) {
  // Every thread hammers the same counter; the per-thread shards must sum
  // to the exact total regardless of how iterations were distributed.
  obs::Counter c;
  constexpr int kThreads = 4;
  constexpr int kIters = 100000;
  ThreadCountGuard guard(kThreads);
#pragma omp parallel num_threads(kThreads)
  {
#pragma omp for
    for (int i = 0; i < kIters; ++i) c.add(1);
  }
  EXPECT_EQ(c.value(), kIters);
}

TEST(ObsRegistry, CounterReferencesStableAcrossReset) {
  obs::Counter& a = obs::Registry::instance().counter("test.obs.stable");
  a.add(3);
  obs::Registry::instance().reset();
  EXPECT_EQ(a.value(), 0);
  obs::Counter& b = obs::Registry::instance().counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  b.add(2);
  EXPECT_EQ(a.value(), 2);
}

// -------------------------------------------------------------- Histogram

TEST(ObsHistogram, ExponentialBucketing) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);  // empty histogram reports 0, not the sentinel
  EXPECT_EQ(h.max(), 0);

  h.observe(0);   // bucket 0 (upper bound 0)
  h.observe(1);   // bucket 1 (upper bound 1)
  h.observe(2);   // bucket 2 (upper bound 3)
  h.observe(3);   // bucket 2
  h.observe(4);   // bucket 3 (upper bound 7)
  h.observe(-7);  // clamped to 0, lands in bucket 0

  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 4);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(obs::Histogram::bucket_upper(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_upper(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 3);
  EXPECT_EQ(obs::Histogram::bucket_upper(3), 7);

  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(ObsHistogram, HugeValuesClampIntoLastBucket) {
  obs::Histogram h;
  h.observe(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets - 1), 1);
}

// ------------------------------------------------------------------- JSON

TEST(ObsJson, DumpParseRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["int"] = obs::Json(std::int64_t{42});
  doc["neg"] = obs::Json(std::int64_t{-7});
  doc["pi"] = obs::Json(3.25);  // exactly representable
  doc["flag"] = obs::Json(true);
  doc["null"] = obs::Json(nullptr);
  doc["text"] = obs::Json("line1\nline2 \"quoted\" \\slash");
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(std::int64_t{1}));
  arr.push_back(obs::Json("two"));
  doc["arr"] = arr;

  for (const int indent : {0, 2}) {
    const obs::Json back = obs::Json::parse(doc.dump(indent));
    EXPECT_EQ(back.at("int").as_int(), 42);
    EXPECT_EQ(back.at("neg").as_int(), -7);
    EXPECT_DOUBLE_EQ(back.at("pi").as_double(), 3.25);
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("null").is_null());
    EXPECT_EQ(back.at("text").as_string(), "line1\nline2 \"quoted\" \\slash");
    EXPECT_EQ(back.at("arr").size(), 2u);
    EXPECT_EQ(back.at("arr").at(0).as_int(), 1);
    EXPECT_EQ(back.at("arr").at(1).as_string(), "two");
  }
}

TEST(ObsJson, KeysAreSortedAndStable) {
  obs::Json doc = obs::Json::object();
  doc["zebra"] = obs::Json(1);
  doc["apple"] = obs::Json(2);
  const std::string text = doc.dump();
  EXPECT_LT(text.find("apple"), text.find("zebra"));
  EXPECT_EQ(text, obs::Json::parse(text).dump());
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("'single'"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\" 1}"), std::runtime_error);
}

TEST(ObsJson, ParsesUnicodeEscapes) {
  const std::string utf8_eacute =
      "a\xc3\xa9"
      "b";  // "aéb" in UTF-8
  // é must decode to the two-byte UTF-8 sequence...
  EXPECT_EQ(obs::Json::parse(R"("a\u00e9b")").as_string(), utf8_eacute);
  // ...and raw UTF-8 bytes inside a string pass through untouched.
  EXPECT_EQ(obs::Json::parse("\"" + utf8_eacute + "\"").as_string(),
            utf8_eacute);
}

// ------------------------------------------------------------------ Trace

obs::Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return obs::Json::parse(buf.str());
}

TEST(ObsTrace, RecordsSpansOnlyWhenEnabled) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(false);
  { const obs::Span phase("test.disabled"); }
  EXPECT_TRUE(obs::SpanLog::snapshot().empty());

  obs::SpanLog::set_enabled(true);
  { const obs::Span phase("test.enabled"); }
  obs::SpanLog::set_enabled(false);

  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.enabled");
  // A phase span roots its own trace.
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_GE(spans[0].ts_us, 0);
  EXPECT_GE(spans[0].dur_us, 0);
  obs::SpanLog::clear();
}

TEST(ObsTrace, ChromeJsonRendersPhaseAndRequestSpans) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(true);
  {
    obs::Span phase("span.phase");
    phase.tag("shard", std::uint64_t{3});
  }
  {
    obs::Span request(obs::TraceContext::root(), "span.request");
    request.tag("outcome", "exact");
  }
  obs::SpanLog::set_enabled(false);

  const std::string path = ::testing::TempDir() + "bfc_trace_test.json";
  obs::SpanLog::write_chrome_json(path);
  const obs::Json doc = read_json_file(path);
  ASSERT_TRUE(doc.has("traceEvents"));
  const obs::Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::Json& ev = events.at(i);
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_TRUE(ev.at("ts").is_number());
    EXPECT_TRUE(ev.at("dur").is_number());
    EXPECT_TRUE(ev.at("tid").is_int());
  }
  // Phase and request spans render alike, tags becoming chrome args.
  EXPECT_EQ(events.at(0).at("name").as_string(), "span.phase");
  EXPECT_EQ(events.at(0).at("args").at("shard").as_string(), "3");
  EXPECT_EQ(events.at(1).at("name").as_string(), "span.request");
  EXPECT_EQ(events.at(1).at("args").at("outcome").as_string(), "exact");
  EXPECT_EQ(doc.at("otherData").at("dropped").as_int(), 0);
  obs::SpanLog::clear();
  std::remove(path.c_str());
}

TEST(ObsTrace, ChromeJsonCarriesTheDroppedCount) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_capacity(2);
  obs::SpanLog::set_enabled(true);
  for (int i = 0; i < 5; ++i) obs::Span("span.phase").close();
  obs::SpanLog::set_enabled(false);

  const std::string path = ::testing::TempDir() + "bfc_trace_dropped.json";
  obs::SpanLog::write_chrome_json(path);
  const obs::Json doc = read_json_file(path);
  EXPECT_EQ(doc.at("traceEvents").size(), 2u);
  EXPECT_EQ(doc.at("otherData").at("dropped").as_int(), 3);
  obs::SpanLog::clear();
  obs::SpanLog::set_capacity(obs::SpanLog::kDefaultCapacity);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- RunReport

TEST(ObsReport, TopLevelKeysAndSampleStats) {
  obs::RunReport report;
  report.set_config("scale", obs::Json(0.5));
  Samples s;
  s.add(0.1);
  s.add(0.3);
  s.add(0.2);
  report.add_sample("cell", s);
  report.capture_environment();
  report.set_metrics_from_registry();

  // Round-trip through text so we validate what a consumer actually reads.
  const obs::Json doc = obs::Json::parse(report.to_json().dump(2));
  for (const char* key : {"config", "environment", "metrics", "samples"})
    EXPECT_TRUE(doc.has(key)) << key;

  EXPECT_DOUBLE_EQ(doc.at("config").at("scale").as_double(), 0.5);
  EXPECT_EQ(doc.at("environment").at("metrics_enabled").as_bool(),
            obs::kMetricsEnabled);
  EXPECT_GE(doc.at("environment").at("omp_max_threads").as_int(), 1);

  ASSERT_EQ(doc.at("samples").size(), 1u);
  const obs::Json& cell = doc.at("samples").at(0);
  EXPECT_EQ(cell.at("label").as_string(), "cell");
  EXPECT_EQ(cell.at("count").as_int(), 3);
  ASSERT_EQ(cell.at("seconds").size(), 3u);  // every rep retained
  EXPECT_DOUBLE_EQ(cell.at("median").as_double(), 0.2);
  EXPECT_DOUBLE_EQ(cell.at("min").as_double(), 0.1);
  EXPECT_DOUBLE_EQ(cell.at("max").as_double(), 0.3);
  EXPECT_NEAR(cell.at("stddev").as_double(), 0.1, 1e-12);
}

// ------------------------------------------------- Samples (timer.hpp adds)

TEST(ObsSamples, StddevAndPercentile) {
  Samples s;
  EXPECT_THROW(static_cast<void>(s.stddev()), std::exception);  // empty
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);  // a single sample has no spread
  for (const double v : {2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(2.5));  // sample stddev, n-1
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 4.6);  // linear interpolation
  EXPECT_THROW(static_cast<void>(s.percentile(-1)), std::exception);
  EXPECT_THROW(static_cast<void>(s.percentile(101)), std::exception);
}

// --------------------------------- kernel counters vs. the dense oracles

TEST(ObsKernels, WedgeCounterMatchesDenseSpec) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  // K_{6,8}: every V1 degree is >= 2, so every wedge is visited by the
  // row-family kernels and the la.wedges counter must equal Eq. (6).
  const dense::DenseMatrix d = dense::DenseMatrix::ones(6, 8);
  const graph::BipartiteGraph g = testing::complete_bipartite(6, 8);
  const count_t want_butterflies = dense::butterflies_spec(d);
  const count_t want_wedges = dense::wedges_spec(d);  // C(6,2)*8 = 120
  ASSERT_EQ(want_wedges, 120);

  for (const la::Engine engine :
       {la::Engine::kUnblocked, la::Engine::kWedge, la::Engine::kBlocked}) {
    obs::Registry::instance().reset();
    la::CountOptions opts;
    opts.engine = engine;
    EXPECT_EQ(la::count_butterflies(g, la::Invariant::kInv6, opts),
              want_butterflies);
    EXPECT_EQ(obs::Registry::instance().counter("la.wedges").value(),
              want_wedges);
    EXPECT_GT(obs::Registry::instance().counter("la.lines_processed").value(),
              0);
  }
  obs::Registry::instance().reset();
}

TEST(ObsKernels, CountersPresentInSnapshotAfterRandomRun) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::Registry::instance().reset();
  const graph::BipartiteGraph g = testing::random_graph(40, 30, 0.2, 7);
  const count_t got = la::count_butterflies(g, la::Invariant::kInv2);
  EXPECT_EQ(got, dense::butterflies_spec(
                     testing::random_dense01(40, 30, 0.2, 7)));

  bool saw_wedges = false;
  for (const obs::MetricSnapshot& m : obs::Registry::instance().snapshot()) {
    if (m.name == "la.wedges") {
      saw_wedges = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kCounter);
      EXPECT_GT(m.value, 0);
    }
  }
  EXPECT_TRUE(saw_wedges);
  obs::Registry::instance().reset();
}

// ---------------------------------------------------------------- Samples

TEST(ObsSamples, StddevIsStableForLargeOffsets) {
  // Sum-of-squares stddev loses the spread of {1e9, 1e9+1, 1e9+2} to
  // catastrophic cancellation (1e18-scale squares, unit-scale variance);
  // the Welford implementation must return exactly sqrt(1).
  Samples s;
  s.add(1e9);
  s.add(1e9 + 1.0);
  s.add(1e9 + 2.0);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-9);

  Samples tight;  // 1e9-scale values with 1e-3-scale spread
  for (const double d : {0.0, 1e-3, 2e-3, 1e-3, 0.0}) tight.add(4e9 + d);
  EXPECT_NEAR(tight.stddev(), 8.3666e-4, 1e-7);
}

// ------------------------------------------------------------------ Spans

TEST(ObsSpans, RootContextsAreUniqueAndActive) {
  const obs::TraceContext a = obs::TraceContext::root();
  const obs::TraceContext b = obs::TraceContext::root();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, 0u);
  EXPECT_FALSE(obs::TraceContext{}.active());
}

TEST(ObsSpans, InertUnlessEnabledAndRooted) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(false);
  {
    obs::Span span(obs::TraceContext::root(), "disabled");
    EXPECT_FALSE(span.armed());
  }
  obs::SpanLog::set_enabled(true);
  {
    obs::Span span(obs::TraceContext{}, "unrooted");  // inactive parent
    EXPECT_FALSE(span.armed());
  }
  EXPECT_TRUE(obs::SpanLog::snapshot().empty());
  obs::SpanLog::set_enabled(false);
}

TEST(ObsSpans, RecordsParentageTagsAndIdempotentClose) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(true);
  const obs::TraceContext root = obs::TraceContext::root();
  {
    obs::Span parent(root, "parent");
    parent.tag("k", "v");
    {
      obs::Span child(parent.context(), "child");
      child.close();
      child.close();                  // idempotent
      child.tag("late", "dropped");   // after close: dropped
    }
  }  // parent closes via RAII
  obs::SpanLog::set_enabled(false);

  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  ASSERT_EQ(spans.size(), 2u);  // completion order: child first
  const obs::SpanRecord& child = spans[0];
  const obs::SpanRecord& parent = spans[1];
  EXPECT_EQ(parent.name, "parent");
  EXPECT_EQ(parent.trace_id, root.trace_id);
  EXPECT_EQ(parent.parent_id, 0u);
  EXPECT_EQ(parent.tag("k"), "v");
  EXPECT_EQ(child.name, "child");
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_id, parent.span_id);
  EXPECT_TRUE(child.tag("late").empty());
  obs::SpanLog::clear();
}

TEST(ObsSpans, BoundedLogDropsOldestAndCounts) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_capacity(4);
  obs::SpanLog::set_enabled(true);
  const obs::TraceContext root = obs::TraceContext::root();
  // Span names must outlive the log, so the test names are literals.
  static constexpr const char* kNames[] = {"s0", "s1", "s2", "s3",
                                           "s4", "s5", "s6"};
  for (const char* name : kNames) obs::Span(root, name).close();
  obs::SpanLog::set_enabled(false);
  const std::vector<obs::SpanRecord> spans = obs::SpanLog::snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "s3");  // 0..2 dropped
  EXPECT_EQ(spans.back().name, "s6");
  EXPECT_EQ(obs::SpanLog::dropped(), 3);
  obs::SpanLog::clear();
  obs::SpanLog::set_capacity(obs::SpanLog::kDefaultCapacity);
}

TEST(ObsSpans, WriteJsonRoundTrips) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::SpanLog::clear();
  obs::SpanLog::set_enabled(true);
  {
    obs::Span span(obs::TraceContext::root(), "io");
    span.tag("outcome", "exact");
  }
  obs::SpanLog::set_enabled(false);
  const std::string path =
      ::testing::TempDir() + "bfc_spans_roundtrip.json";
  obs::SpanLog::write_json(path);
  const obs::Json doc = read_json_file(path);
  ASSERT_TRUE(doc.has("spans"));
  ASSERT_EQ(doc.at("spans").size(), 1u);
  const obs::Json& span = doc.at("spans").at(0);
  EXPECT_EQ(span.at("name").as_string(), "io");
  EXPECT_EQ(span.at("parent").as_int(), 0);
  EXPECT_EQ(span.at("tags").at("outcome").as_string(), "exact");
  std::remove(path.c_str());
  obs::SpanLog::clear();
}

// ------------------------------------------------------------ OpenMetrics

TEST(ObsExport, NameManglingFollowsTheCharset) {
  EXPECT_EQ(obs::openmetrics_name("svc.latency_us.tip_v1"),
            "svc_latency_us_tip_v1");
  EXPECT_EQ(obs::openmetrics_name("chk.failures"), "chk_failures");
  EXPECT_EQ(obs::openmetrics_name("9lives"), "_9lives");  // leading digit
  EXPECT_EQ(obs::openmetrics_name(""), "_");
}

TEST(ObsExport, RenderContainsEveryInstrumentKind) {
  obs::Registry::instance().reset();
  obs::Registry::instance().counter("test.export.counter").add(7);
  obs::Registry::instance().gauge("test.export.gauge").set(2.5);
  obs::Histogram& h = obs::Registry::instance().histogram("test.export.hist");
  h.observe(1);
  h.observe(100);
  const std::string text = obs::render_openmetrics();

  EXPECT_NE(text.find("# TYPE test_export_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_counter_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_export_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_export_gauge 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_export_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_hist_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_export_hist_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("test_export_hist_count 2\n"), std::string::npos);
  // # EOF terminates the exposition and nothing follows it.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  obs::Registry::instance().reset();
}

TEST(ObsExport, WriteFileIsAtomicAndTerminated) {
  obs::Registry::instance().counter("test.export.file").add(1);
  const std::string path = ::testing::TempDir() + "bfc_openmetrics_test.txt";
  obs::write_openmetrics_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::string last;
  bool saw_sample = false;
  while (std::getline(in, line)) {
    if (line.rfind("test_export_file_total ", 0) == 0) saw_sample = true;
    last = line;
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_EQ(last, "# EOF");
  std::remove(path.c_str());
  obs::Registry::instance().reset();
}

TEST(ObsExport, HttpServerServesOpenMetrics) {
  std::unique_ptr<obs::MetricsHttpServer> server;
  try {
    server = std::make_unique<obs::MetricsHttpServer>(0);  // ephemeral port
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind a loopback socket: " << e.what();
  }
  ASSERT_GT(server->port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server->port()));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (ssize_t n = 0; (n = ::read(fd, buf, sizeof(buf))) > 0;)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(response.find("# EOF\n"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 1);
}

// --------------------------------------------------------------- Profiler

TEST(ObsProfiler, StartStopAndFoldedStacks) {
  ASSERT_TRUE(obs::Profiler::start(200));
  EXPECT_TRUE(obs::Profiler::running());
  EXPECT_FALSE(obs::Profiler::start(200));  // already running
  // Burn CPU so ITIMER_PROF has something to charge against. The effective
  // rate is capped by the kernel tick, so only assert non-negativity plus
  // internal consistency, not a sample count.
  volatile double sink = 0.0;
  const Timer t;
  while (t.seconds() < 0.2) {
    for (int i = 1; i < 2000; ++i) sink = sink + 1.0 / i;
  }
  obs::Profiler::stop();
  EXPECT_FALSE(obs::Profiler::running());

  const std::int64_t captured = obs::Profiler::samples_captured();
  EXPECT_GE(captured, 0);
  EXPECT_GE(obs::Profiler::samples_dropped(), 0);
  std::int64_t folded_total = 0;
  for (const auto& [stack, count] : obs::Profiler::folded()) {
    EXPECT_FALSE(stack.empty());
    folded_total += count;
  }
  EXPECT_EQ(folded_total, captured);
  if (captured > 0) {
    const std::string path = ::testing::TempDir() + "bfc_folded_test.txt";
    obs::Profiler::write_folded(path);
    std::ifstream in(path);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_NE(first.find(' '), std::string::npos);  // "stack count"
    std::remove(path.c_str());
  }
  obs::Profiler::clear();
  EXPECT_EQ(obs::Profiler::samples_captured(), 0);
}

// -------------------------------------------------------- Flight recorder

TEST(ObsFlight, RecordsSnapshotInOrder) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::FlightRecorder::clear();
  obs::FlightRecorder::record("publish", "epoch", 3, 0, 0);
  obs::FlightRecorder::record("degrade", "approx", 3, 17, 42);
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "publish");
  EXPECT_STREQ(events[0].detail, "epoch");
  EXPECT_EQ(events[0].a, 3);
  EXPECT_STREQ(events[1].kind, "degrade");
  EXPECT_EQ(events[1].b, 17);
  EXPECT_EQ(events[1].trace_id, 42u);
  EXPECT_EQ(obs::FlightRecorder::recorded(), 2);
  obs::FlightRecorder::clear();
}

TEST(ObsFlight, RingWrapsKeepingTheNewest) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::FlightRecorder::clear();
  const int total = static_cast<int>(obs::FlightRecorder::kCapacity) + 50;
  for (int i = 0; i < total; ++i)
    obs::FlightRecorder::record("tick", "", i, 0, 0);
  const std::vector<obs::FlightEvent> events =
      obs::FlightRecorder::snapshot();
  ASSERT_EQ(events.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(events.front().a, 50);  // the oldest 50 were overwritten
  EXPECT_EQ(events.back().a, total - 1);
  EXPECT_EQ(obs::FlightRecorder::recorded(), total);
  obs::FlightRecorder::clear();
}

TEST(ObsFlight, DumpWritesParseableJson) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with BFC_METRICS=OFF";
  }
  obs::FlightRecorder::clear();
  obs::FlightRecorder::record("check_fail", "x > 0 \"quoted\"", 9, 0, 0);
  const std::string path = ::testing::TempDir() + "bfc_flight_test.json";
  ASSERT_TRUE(obs::FlightRecorder::dump(path, "unit test"));
  const obs::Json doc = read_json_file(path);
  EXPECT_EQ(doc.at("reason").as_string(), "unit test");
  EXPECT_EQ(doc.at("recorded").as_int(), 1);
  ASSERT_EQ(doc.at("events").size(), 1u);
  EXPECT_EQ(doc.at("events").at(0).at("kind").as_string(), "check_fail");
  EXPECT_EQ(doc.at("events").at(0).at("a").as_int(), 9);
  std::remove(path.c_str());
  obs::FlightRecorder::clear();
}

}  // namespace
}  // namespace bfc
