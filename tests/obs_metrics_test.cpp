// MetricsRegistry and leveled-logging tests: registration idempotence,
// label rendering, the Prometheus exposition and "[metrics]" dump shapes
// (the lines smoke scripts grep), cross-process merge semantics (counters
// accumulate, gauges and unknown series are skipped), and the DISCO_LOG
// threshold parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/log.h"
#include "obs/metrics.h"

namespace disco::obs {
namespace {

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndStable) {
  MetricsRegistry reg;
  Counter& a = reg.RegisterCounter("t_total", "help", "grp", "a");
  Counter& again = reg.RegisterCounter("t_total", "help", "grp", "a");
  EXPECT_EQ(&a, &again);
  a.Inc();
  a.Add(4);
  EXPECT_EQ(a.Value(), 5u);
  EXPECT_EQ(again.Value(), 5u);

  // Same family, different labels: a distinct series.
  Counter& labeled =
      reg.RegisterCounter("t_total", "help", "grp", "b", {{"k", "v"}});
  EXPECT_NE(&a, &labeled);
  labeled.Inc();
  EXPECT_EQ(a.Value(), 5u);
  EXPECT_EQ(labeled.Value(), 1u);
}

TEST(MetricsRegistryTest, GaugeGoesUpAndDown) {
  MetricsRegistry reg;
  Gauge& g = reg.RegisterGauge("g", "help", "grp", "g");
  g.Inc();
  g.Inc();
  g.Dec();
  EXPECT_EQ(g.Value(), 1);
  g.Add(-3);
  EXPECT_EQ(g.Value(), -2);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
}

TEST(MetricsRegistryTest, DumpTextKeepsRegistrationOrderAndNote) {
  MetricsRegistry reg;
  // Registration order must survive into the dump (the smoke scripts grep
  // "dijkstra=0 " etc., which depends on key order within the line).
  reg.RegisterCounter("s_ram_total", "h", "store trees", "ram").Inc();
  reg.RegisterCounter("s_dij_total", "h", "store trees", "dijkstra");
  reg.RegisterCounter("g_gen_total", "h", "graph sources", "generated");
  EXPECT_EQ(reg.DumpText(),
            "[metrics] store trees: ram=1 dijkstra=0\n"
            "[metrics] graph sources: generated=0\n");
  EXPECT_EQ(reg.DumpText("driver process only"),
            "[metrics] store trees: ram=1 dijkstra=0 (driver process only)\n"
            "[metrics] graph sources: generated=0 (driver process only)\n");
}

TEST(MetricsRegistryTest, PrometheusTextIsSortedAndTyped) {
  MetricsRegistry reg;
  reg.RegisterCounter("z_total", "last family", "grp", "z").Add(2);
  reg.RegisterCounter("a_total", "first family", "grp", "a").Add(1);
  reg.RegisterGauge("m_gauge", "middle", "grp", "m").Set(-3);
  reg.RegisterCounter("a_total", "first family", "grp", "al",
                      {{"kind", "x"}})
      .Add(9);
  const std::string text = reg.PrometheusText();
  EXPECT_EQ(text,
            "# HELP a_total first family\n"
            "# TYPE a_total counter\n"
            "a_total 1\n"
            "a_total{kind=\"x\"} 9\n"
            "# HELP m_gauge middle\n"
            "# TYPE m_gauge gauge\n"
            "m_gauge -3\n"
            "# HELP z_total last family\n"
            "# TYPE z_total counter\n"
            "z_total 2\n");
  // Byte-stable: a second exposition of unchanged values is identical.
  EXPECT_EQ(reg.PrometheusText(), text);
}

TEST(MetricsRegistryTest, MergeAccumulatesKnownCountersOnly) {
  MetricsRegistry reg;
  Counter& plain = reg.RegisterCounter("c_total", "h", "grp", "c");
  Counter& labeled =
      reg.RegisterCounter("c_total", "h", "grp", "cl", {{"k", "v"}});
  Gauge& gauge = reg.RegisterGauge("g_gauge", "h", "grp", "g");
  plain.Add(10);
  gauge.Set(5);

  const std::size_t merged = reg.MergeFromPrometheusText(
      "# HELP c_total h\n"
      "# TYPE c_total counter\n"
      "c_total 7\n"
      "c_total{k=\"v\"} 3\n"
      "g_gauge 99\n"          // gauges are instantaneous: skipped
      "unknown_total 42\n"    // never registered here: skipped
      "c_total garbage\n"     // unparseable value: skipped
      "c_total -5\n"          // negative: skipped, not added as 2^64-5
      "c_total 99999999999999999999999\n");  // past 2^64: skipped
  EXPECT_EQ(merged, 2u);
  EXPECT_EQ(plain.Value(), 17u);
  EXPECT_EQ(labeled.Value(), 3u);
  EXPECT_EQ(gauge.Value(), 5);

  EXPECT_EQ(reg.MergedSourceCount(), 0u);
  reg.NoteMergedSource();
  EXPECT_EQ(reg.MergedSourceCount(), 1u);
}

TEST(MetricsRegistryTest, MergeRoundTripsThroughExposition) {
  // A worker's whole exposition folded into a same-shaped registry doubles
  // every counter — the procs/net drain path end to end.
  MetricsRegistry reg;
  Counter& c = reg.RegisterCounter("w_total", "h", "grp", "w");
  Counter& cl =
      reg.RegisterCounter("w_total", "h", "grp", "wl", {{"e", "r"}});
  c.Add(4);
  cl.Add(6);
  EXPECT_EQ(reg.MergeFromPrometheusText(reg.PrometheusText()), 2u);
  EXPECT_EQ(c.Value(), 8u);
  EXPECT_EQ(cl.Value(), 12u);
}

class LogLevelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("DISCO_LOG");
    ResetLogLevelForTest();
  }
  void SetLevel(const char* level) {
    ::setenv("DISCO_LOG", level, 1);
    ResetLogLevelForTest();
  }
};

TEST_F(LogLevelTest, DefaultIsWarn) {
  ::unsetenv("DISCO_LOG");
  ResetLogLevelForTest();
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
}

TEST_F(LogLevelTest, ThresholdsFollowEnv) {
  SetLevel("error");
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_FALSE(LogEnabled(LogLevel::kWarn));
  SetLevel("info");
  EXPECT_TRUE(LogEnabled(LogLevel::kInfo));
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  SetLevel("debug");
  EXPECT_TRUE(LogEnabled(LogLevel::kDebug));
}

TEST_F(LogLevelTest, UnknownValueFallsBackToWarn) {
  SetLevel("shouty");
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
}

}  // namespace
}  // namespace disco::obs
