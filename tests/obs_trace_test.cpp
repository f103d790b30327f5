// Span tracer tests: a fixed injected clock makes the flushed trace JSON
// byte-stable (and parseable by the util/json-backed reader); begin/end
// events nest per (pid,tid); ring-buffer overflow drops-and-counts instead
// of reallocating; and — through the exec_test_worker helper — a procs
// backend run merges the traces its workers send home in their goodbye
// frames into one valid timeline spanning multiple processes, writing no
// file but the one it was asked for.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "exec/executor.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracefile.h"

#ifndef EXEC_TEST_WORKER_PATH
#error "build must define EXEC_TEST_WORKER_PATH (see CMakeLists.txt)"
#endif

namespace disco {
namespace {

// Deterministic test clock: advances 1 microsecond per read.
std::uint64_t g_fake_now_ns = 0;
std::uint64_t FakeClock() { return g_fake_now_ns += 1000; }

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ResetTracingForTest();
    exec::ResetJobNumberingForTest();
  }
  void TearDown() override {
    obs::SetClockForTest(nullptr);
    obs::ResetTracingForTest();
  }

  std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "obs_" + info->name() +
                             "_" + name + "_" + std::to_string(::getpid());
    std::remove(path.c_str());
    return path;
  }
};

void EmitSampleSpans() {
  DISCO_TRACE_SPAN("outer");
  {
    DISCO_TRACE_SPAN("inner");
    obs::TracePoint("tick");
  }
}

TEST_F(ObsTraceTest, FixedClockProducesByteStableParseableJson) {
  const std::string path = TempPath("trace.json");
  obs::SetClockForTest(&FakeClock);

  g_fake_now_ns = 0;
  obs::ConfigureTracing(path);
  EmitSampleSpans();
  ASSERT_EQ(obs::FlushTrace(), path);
  const std::string first = ReadFileOrEmpty(path);
  ASSERT_FALSE(first.empty());

  // Same clock sequence, same spans: identical bytes.
  obs::ResetTracingForTest();
  g_fake_now_ns = 0;
  obs::ConfigureTracing(path);
  EmitSampleSpans();
  ASSERT_EQ(obs::FlushTrace(), path);
  EXPECT_EQ(ReadFileOrEmpty(path), first);

  // The file round-trips through the util/json-backed parser with every
  // event and its fixed-point timestamp intact.
  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::ParseTraceJson(first, &doc, &error)) << error;
  ASSERT_EQ(doc.events.size(), 5u);  // outer B, inner B, tick i, inner E, outer E
  EXPECT_EQ(doc.events[0].name, "outer");
  EXPECT_EQ(doc.events[0].phase, 'B');
  EXPECT_EQ(doc.events[0].ts_ns, 1000u);
  EXPECT_EQ(doc.events[2].phase, 'i');
  EXPECT_EQ(doc.events[4].name, "outer");
  EXPECT_EQ(doc.events[4].phase, 'E');
  EXPECT_EQ(doc.dropped, 0u);
  EXPECT_TRUE(obs::ValidateTrace(doc, &error)) << error;
}

TEST_F(ObsTraceTest, SpansNestPerThread) {
  const std::string path = TempPath("trace.json");
  obs::ConfigureTracing(path);
  {
    DISCO_TRACE_SPAN("main.outer");
    std::thread t1([] { EmitSampleSpans(); });
    std::thread t2([] { EmitSampleSpans(); });
    t1.join();
    t2.join();
  }
  ASSERT_EQ(obs::FlushTrace(), path);

  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::ParseTraceJson(ReadFileOrEmpty(path), &doc, &error))
      << error;
  ASSERT_TRUE(obs::ValidateTrace(doc, &error)) << error;

  // Three distinct tids (main + two workers), and within each tid the
  // B/E sequence nests: replay it with an explicit stack.
  std::set<std::uint64_t> tids;
  std::map<std::uint64_t, std::vector<std::string>> stacks;
  for (const obs::TraceEvent& e : doc.events) {
    tids.insert(e.tid);
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else if (e.phase == 'E') {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  EXPECT_EQ(tids.size(), 3u);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST_F(ObsTraceTest, OverflowDropsAndCountsInsteadOfGrowing) {
  const std::string path = TempPath("trace.json");
  obs::ConfigureTracing(path, /*per_thread_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    DISCO_TRACE_SPAN("tight");
  }
  // Two spans fit (B+E each); the other eight dropped their B.
  EXPECT_EQ(obs::DroppedTraceEvents(), 8u);
  ASSERT_EQ(obs::FlushTrace(), path);

  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::ParseTraceJson(ReadFileOrEmpty(path), &doc, &error))
      << error;
  EXPECT_EQ(doc.events.size(), 4u);
  EXPECT_EQ(doc.dropped, 8u);
  EXPECT_TRUE(obs::ValidateTrace(doc, &error)) << error;
  // The drop count survives the JSON round trip via otherData.
  EXPECT_NE(ReadFileOrEmpty(path).find("\"droppedEvents\":\"8\""),
            std::string::npos);
}

// A traced two-worker procs run of the echo helper into `path`; returns
// the flushed trace, parsed and validated.
obs::TraceDoc TracedProcsRun(const std::string& path) {
  obs::ConfigureTracing(path);

  exec::ExecOptions opts;
  opts.backend = exec::Backend::kProcs;
  opts.workers = 2;
  opts.worker_argv = {EXEC_TEST_WORKER_PATH, "--mode=echo",
                      "--trace=" + path};
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(
      8,
      [](std::size_t) -> std::string {
        throw std::logic_error("driver-side task function must not run");
      },
      &results);
  EXPECT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results.size(), 8u);

  EXPECT_EQ(obs::FlushTrace(), path);
  obs::TraceDoc doc;
  std::string error;
  EXPECT_TRUE(obs::ParseTraceJson(ReadFileOrEmpty(path), &doc, &error))
      << error;
  EXPECT_TRUE(obs::ValidateTrace(doc, &error)) << error;
  return doc;
}

std::set<std::uint64_t> Pids(const obs::TraceDoc& doc) {
  std::set<std::uint64_t> pids;
  for (const obs::TraceEvent& e : doc.events) pids.insert(e.pid);
  return pids;
}

TEST_F(ObsTraceTest, ProcsRunMergesWorkerTracesIntoOneTimeline) {
  const obs::TraceDoc doc = TracedProcsRun(TempPath("trace.json"));
  ASSERT_FALSE(HasFailure());

  // The merged timeline spans the driver plus both worker processes, is
  // time-ordered, and carries the workers' per-task spans.
  std::size_t task_spans = 0;
  std::uint64_t last_ts = 0;
  for (const obs::TraceEvent& e : doc.events) {
    if (e.name == "exec.task" && e.phase == 'B') ++task_spans;
    EXPECT_GE(e.ts_ns, last_ts);
    last_ts = e.ts_ns;
  }
  EXPECT_GE(Pids(doc).size(), 3u);  // driver + 2 workers
  EXPECT_EQ(task_spans, 8u);
}

TEST_F(ObsTraceTest, RepeatedProcsRunsWriteOnlyTheirOwnTrace) {
  // Two runs into one path: the second must hold its own processes only,
  // never spans a previous run left behind, and nothing but the requested
  // file may appear next to it.
  std::string dir = ::testing::TempDir() + "obs_repeat_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/run.json";

  const obs::TraceDoc first = TracedProcsRun(path);
  obs::ResetTracingForTest();
  exec::ResetJobNumberingForTest();
  const obs::TraceDoc second = TracedProcsRun(path);
  EXPECT_EQ(Pids(first).size(), 3u);
  EXPECT_EQ(Pids(second).size(), 3u);

  std::vector<std::string> entries;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") entries.push_back(name);
    }
    ::closedir(d);
  }
  EXPECT_EQ(entries, std::vector<std::string>{"run.json"});
  for (const std::string& name : entries) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

// Trace JSON comes from outside the process (worker goodbye frames, files
// handed to disco_tracecat): integers it cannot represent are errors, not
// wrapped values or undefined float-to-integer casts.
TEST(ObsTraceParse, RejectsUnrepresentableIntegers) {
  const auto trace = [](const std::string& dropped, const std::string& pid,
                        const std::string& tid) {
    return "{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"a\",\"ts\":1,"
           "\"pid\":" + pid + ",\"tid\":" + tid +
           "}],\"otherData\":{\"droppedEvents\":\"" + dropped + "\"}}";
  };
  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::ParseTraceJson(trace("8", "7", "3"), &doc, &error))
      << error;
  EXPECT_EQ(doc.dropped, 8u);
  ASSERT_EQ(doc.events.size(), 1u);
  EXPECT_EQ(doc.events[0].pid, 7u);
  EXPECT_EQ(doc.events[0].tid, 3u);
  // The largest double below 2^64 still fits.
  ASSERT_TRUE(obs::ParseTraceJson(trace("0", "18446744073709549568", "0"),
                                  &doc, &error))
      << error;
  EXPECT_EQ(doc.events[0].pid, 18446744073709549568u);

  for (const char* dropped :
       {"-1", "18446744073709551616", "99999999999999999999999", "1.5",
        " 1", "x"}) {
    error.clear();
    EXPECT_FALSE(obs::ParseTraceJson(trace(dropped, "7", "3"), &doc, &error))
        << "droppedEvents " << dropped;
    EXPECT_NE(error.find("droppedEvents"), std::string::npos) << error;
  }
  for (const char* bad : {"-1", "1.5", "18446744073709551616", "1e300"}) {
    error.clear();
    EXPECT_FALSE(obs::ParseTraceJson(trace("0", bad, "3"), &doc, &error))
        << "pid " << bad;
    EXPECT_NE(error.find("pid or tid"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(obs::ParseTraceJson(trace("0", "7", bad), &doc, &error))
        << "tid " << bad;
    EXPECT_NE(error.find("pid or tid"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace disco
