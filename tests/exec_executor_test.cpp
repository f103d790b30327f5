// Executor-layer tests: thread-backend semantics, wire round-trips, the
// TaskScheduler's failure accounting, env-knob parsing, and — through the
// exec_test_worker helper binary — the procs coordinator's failure
// handling: a SIGKILLed worker's task rescheduled onto a survivor
// (converging to the same bytes as the in-process run, with exactly one
// slot death counted), a drained pool surfacing an error, a poison task,
// a forged frame index, a protocol-error frame, one worker for a
// one-task run, and a clean run's goodbye accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "obs/metrics.h"
#include "util/parse_int.h"

#ifndef EXEC_TEST_WORKER_PATH
#error "build must define EXEC_TEST_WORKER_PATH (see CMakeLists.txt)"
#endif

namespace disco {
namespace {

std::vector<std::string> ExpectedResults(std::size_t count) {
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < count; ++i) {
    expected.push_back("result-" + std::to_string(i));
  }
  return expected;
}

// The procs backend never evaluates the task function driver-side.
exec::TaskFn NotCalled() {
  return [](std::size_t) -> std::string {
    throw std::logic_error("driver-side task function must not run");
  };
}

// The coordinator's disco_exec_tasks_total{event="slot_death"} series.
obs::Counter& SlotDeaths() {
  return obs::Global().RegisterCounter(
      "disco_exec_tasks_total", "Executor scheduling decisions",
      "exec tasks", "slot_deaths", {{"event", "slot_death"}});
}

class ExecutorTest : public ::testing::Test {
 protected:
  // Each test is one independent "driver" process as far as job numbering
  // is concerned: its first Run call must claim job 0, because that is the
  // job its helper workers are told to serve.
  void SetUp() override { exec::ResetJobNumberingForTest(); }

  std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "exec_" +
                             info->name() + "_" + name + "_" +
                             std::to_string(::getpid());
    std::remove(path.c_str());
    return path;
  }

  exec::ExecOptions ProcOpts(std::size_t workers,
                             std::vector<std::string> helper_flags) {
    exec::ExecOptions opts;
    opts.backend = exec::Backend::kProcs;
    opts.workers = workers;
    opts.worker_argv = {EXEC_TEST_WORKER_PATH};
    for (std::string& f : helper_flags) {
      opts.worker_argv.push_back(std::move(f));
    }
    return opts;
  }
};

TEST_F(ExecutorTest, WireRoundTripsExactly) {
  std::string buf;
  exec::PutU64(&buf, 0x0123456789abcdefULL);
  exec::PutDouble(&buf, 0.1);  // not exactly representable: bits must ship
  exec::PutString(&buf, std::string("with\0byte\n", 10));
  exec::WireReader r(buf);
  std::uint64_t u = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU64(&u));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u, 0x0123456789abcdefULL);
  EXPECT_EQ(d, 0.1);
  EXPECT_EQ(s, std::string("with\0byte\n", 10));
  EXPECT_FALSE(r.GetU64(&u));  // exhausted
  EXPECT_FALSE(r.ok());

  exec::TextBundle bundle;
  bundle.parts = {"line one\n", ""};
  bundle.files = {{"a.tsv", "1\t2\n"}, {"b.tsv", ""}};
  exec::TextBundle parsed;
  ASSERT_TRUE(exec::TextBundle::Parse(bundle.Serialize(), &parsed));
  EXPECT_EQ(parsed.parts, bundle.parts);
  EXPECT_EQ(parsed.files, bundle.files);
  EXPECT_FALSE(exec::TextBundle::Parse("truncated", &parsed));
}

TEST_F(ExecutorTest, ThreadBackendReturnsResultsInTaskOrder) {
  const auto executor = exec::MakeExecutor(exec::ExecOptions{});
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(
      64, [](std::size_t i) { return "result-" + std::to_string(i); },
      &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(64));
}

TEST_F(ExecutorTest, ThreadBackendNamesTheLowestFailingTask) {
  const auto executor = exec::MakeExecutor(exec::ExecOptions{});
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(
      16,
      [](std::size_t i) -> std::string {
        if (i == 5 || i == 11) throw std::runtime_error("boom");
        return "ok";
      },
      &results);
  ASSERT_FALSE(status.ok);
  ASSERT_TRUE(status.task_known);
  EXPECT_EQ(status.failed_task, 5u);
  EXPECT_NE(status.error.find("task 5"), std::string::npos) << status.error;
}

TEST_F(ExecutorTest, ProcsBackendMatchesThreadBackendBytes) {
  const auto executor = exec::MakeExecutor(ProcOpts(3, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(8));
}

TEST_F(ExecutorTest, SigkilledWorkerTaskReschedulesAndBytesConverge) {
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      ProcOpts(2, {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  // One worker really did die mid-task 2...
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-self marker was never created: no worker died";
  // ...and the run still converged to exactly the in-process bytes,
  // task 2 included (rescheduled onto the surviving worker).
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

TEST_F(ExecutorTest, KilledWorkerCountsExactlyOneSlotDeath) {
  const std::string marker = TempPath("marker");
  const std::uint64_t deaths = SlotDeaths().Value();
  const auto executor = exec::MakeExecutor(
      ProcOpts(2, {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(6));
  EXPECT_EQ(SlotDeaths().Value(), deaths + 1);
  std::remove(marker.c_str());
}

TEST_F(ExecutorTest, CleanRunCountsNoSlotDeathAndMergesEveryGoodbye) {
  // A slot that never opened is not dead: a clean run must leave the
  // slot-death counter alone, and each of the two workers must deliver
  // its kObs goodbye.
  const std::uint64_t deaths = SlotDeaths().Value();
  const std::size_t merged = obs::Global().MergedSourceCount();
  const auto executor = exec::MakeExecutor(ProcOpts(2, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(SlotDeaths().Value(), deaths);
  EXPECT_EQ(obs::Global().MergedSourceCount(), merged + 2);
}

TEST_F(ExecutorTest, PoisonTaskExhaustsRetriesAndIsNamed) {
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(ProcOpts(2, {"--mode=fail-task1"}))
          ->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  ASSERT_TRUE(status.task_known);
  EXPECT_EQ(status.failed_task, 1u);
  EXPECT_NE(status.error.find("task 1"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("3 attempt"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("poisoned"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, DrainedWorkerPoolSurfacesAnError) {
  // Task 2 kills every worker that touches it, and a procs worker is
  // never respawned: the run must end in an error, not a hang.
  const auto executor =
      exec::MakeExecutor(ProcOpts(2, {"--mode=kill-always-task2"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_FALSE(status.error.empty());
}

TEST_F(ExecutorTest, SchedulerRunsEachTaskOnOneSlotAtATime) {
  // A running task is never handed to a second slot; only a failed
  // attempt puts it back in the queue, once, until its third failure
  // fails the run.
  std::vector<std::string> results;
  exec::TaskScheduler sched(1, &results);
  const std::size_t s0 = sched.AddSlot();
  const std::size_t s1 = sched.AddSlot();
  ASSERT_EQ(sched.NextTask(s0), 0u);
  EXPECT_EQ(sched.NextTask(s1), exec::TaskScheduler::kNoTask);

  ASSERT_TRUE(sched.OnSlotDeath(s0, "worker 0 lost"));
  ASSERT_EQ(sched.NextTask(s1), 0u);
  EXPECT_EQ(sched.NextTask(s0), exec::TaskScheduler::kNoTask);

  ASSERT_TRUE(sched.OnSlotDeath(s1, "worker 1 lost"));
  ASSERT_EQ(sched.NextTask(s0), 0u);
  EXPECT_FALSE(sched.OnTaskError(s0, 0, "boom"));
  EXPECT_TRUE(sched.task_known());
  EXPECT_EQ(sched.failed_task(), 0u);
  EXPECT_NE(sched.error().find("3 attempt(s)"), std::string::npos)
      << sched.error();
  EXPECT_FALSE(sched.done());
}

TEST_F(ExecutorTest, SchedulerRejectsFramesForTasksTheSlotDoesNotHold) {
  // A frame index is only trusted when it names the task the slot was
  // handed: crediting a worker-reported index blindly would let a buggy
  // worker finish or requeue a task some other slot is running.
  std::vector<std::string> results;
  exec::TaskScheduler sched(2, &results);
  const std::size_t s0 = sched.AddSlot();
  ASSERT_EQ(sched.NextTask(s0), 0u);
  EXPECT_FALSE(sched.OnResult(s0, 1, "forged"));
  EXPECT_NE(sched.error().find("task 1 while running task 0"),
            std::string::npos)
      << sched.error();

  std::vector<std::string> results2;
  exec::TaskScheduler idle(2, &results2);
  const std::size_t i0 = idle.AddSlot();
  EXPECT_FALSE(idle.OnResult(i0, 0, "unsolicited"));
  EXPECT_NE(idle.error().find("while idle"), std::string::npos)
      << idle.error();
}

TEST_F(ExecutorTest, EnvKnobsRejectOverflowAndGarbage) {
  // Env knobs (DISCO_THREADS, DISCO_TREE_CACHE_ENTRIES) must clamp-check
  // exactly like flag parsing: strtol on "99999999999" saturates to
  // LONG_MAX (no ERANGE check meant it was truncated into whatever int
  // cast fell out) and garbage must not read as 0.
  const char* const knob = "DISCO_EXEC_TEST_KNOB";
  ASSERT_EQ(::setenv(knob, "99999999999", 1), 0);
  EXPECT_EQ(EnvIntOr(knob, 5), 5);  // overflow -> default
  ASSERT_EQ(::setenv(knob, "7x", 1), 0);
  EXPECT_EQ(EnvIntOr(knob, 5), 5);  // garbage -> default
  ASSERT_EQ(::setenv(knob, "7", 1), 0);
  EXPECT_EQ(EnvIntOr(knob, 5), 7);  // sane value honored
  ASSERT_EQ(::unsetenv(knob), 0);
}

TEST_F(ExecutorTest, WorkerForgingAWrongIndexFrameFailsTheRun) {
  // Task 1's worker emits a result frame claiming to be task 0 (which
  // another slot holds or already finished). The run must fail with the
  // mismatch named — not credit task 0 with bytes it never produced.
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(ProcOpts(2, {"--mode=wrong-index-task1"}))
          ->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("while running task"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, WorkerProtocolErrorFrameFailsTheRun) {
  // A protocol-error frame is attributable to no task, so it must fail
  // the whole run — the old text protocol echoed the garbage back as a
  // task error and charged an innocent task a retry.
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(ProcOpts(2, {"--mode=badreq-task1"}))
          ->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("protocol error"), std::string::npos)
      << status.error;
}

TEST_F(ExecutorTest, SingleTaskRunStartsOneWorker) {
  // A slot opens only while pending tasks outnumber the idle open slots:
  // with one task and two slots configured, exactly one worker process
  // may start (each appends one byte to the fresh path `marker`). A
  // surplus slot would spawn a worker that replays the binary's set-up
  // for nothing.
  const std::string marker = TempPath("marker");
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(ProcOpts(2, {"--mode=mark-each-worker",
                                      "--marker=" + marker}))
          ->Run(1, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(1));
  std::ifstream in(marker, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str().size(), 1u)
      << "expected exactly one worker process for a one-task run";
  std::remove(marker.c_str());
}

}  // namespace
}  // namespace disco
