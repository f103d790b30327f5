// Executor-layer tests: thread-backend semantics, wire round-trips, the
// TaskScheduler's failure accounting, and — through the exec_test_worker
// helper binary — the coordinator's failure handling on the procs
// transport: a SIGKILLed worker's task rescheduled onto a survivor
// (converging to the same bytes as the in-process run), a drained pool
// surfacing an error, and the cases exec_fault_cases.h shares with the
// net transport (poison task, forged frame index, protocol-error frame,
// straggler duplication).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "exec/wire.h"
#include "exec_fault_cases.h"

#ifndef EXEC_TEST_WORKER_PATH
#error "build must define EXEC_TEST_WORKER_PATH (see CMakeLists.txt)"
#endif

namespace disco {
namespace {

using testing::ExpectedResults;
using testing::NotCalled;

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
    opts.max_retries = 2;
    opts.straggler_ms = 0;
    opts.worker_argv = {EXEC_TEST_WORKER_PATH};
    for (std::string& f : helper_flags) {
      opts.worker_argv.push_back(std::move(f));
    }
    return opts;
  }

  testing::MakeExecOptions Procs() {
    return [this](std::vector<std::string> flags) {
      return ProcOpts(2, std::move(flags));
    };
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

TEST_F(ExecutorTest, PoisonTaskExhaustsRetriesAndIsNamed) {
  testing::CheckPoisonTaskExhaustsRetriesAndIsNamed(Procs());
}

TEST_F(ExecutorTest, DrainedWorkerPoolSurfacesAnError) {
  // Task 2 kills every worker that touches it; with retries to spare the
  // pool itself runs dry, which must be an error, not a hang.
  exec::ExecOptions opts = ProcOpts(2, {"--mode=kill-always-task2"});
  opts.max_retries = 5;
  const auto executor = exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_FALSE(status.error.empty());
}

TEST_F(ExecutorTest, SchedulerSkipsStaleDoneEntriesInPending) {
  // A task can sit in the pending queue after it already finished (the
  // straggler path re-queues an in-flight task; the original may then
  // complete first). Handing out the stale entry would run a done task
  // again and stall a live one; returning "no task" on first pop — the
  // old dispatch-loop bug — idles the slot while real work waits behind
  // the stale entry.
  std::vector<std::string> results;
  exec::TaskScheduler sched(3, /*max_retries=*/2, /*straggler_ms=*/0,
                            &results);
  const std::size_t s0 = sched.AddSlot();
  const std::size_t s1 = sched.AddSlot();
  const auto now = std::chrono::steady_clock::now();
  ASSERT_EQ(sched.NextTask(s0, now), 0u);
  sched.PushPendingFrontForTest(0);  // straggler-style duplicate entry
  ASSERT_TRUE(sched.OnResult(s0, 0, "r0"));  // original finishes first
  // The stale 0 at the queue front must be skipped, not dispensed and
  // not treated as "queue empty".
  EXPECT_EQ(sched.NextTask(s1, now), 1u);
  EXPECT_EQ(sched.NextTask(s0, now), 2u);
  ASSERT_TRUE(sched.OnResult(s1, 1, "r1"));
  ASSERT_TRUE(sched.OnResult(s0, 2, "r2"));
  EXPECT_TRUE(sched.done());
  EXPECT_EQ(results, (std::vector<std::string>{"r0", "r1", "r2"}));
}

TEST_F(ExecutorTest, SchedulerRejectsFramesForTasksTheSlotDoesNotHold) {
  // A frame index is only trusted when it names the task the slot was
  // handed. Crediting a worker-reported index blindly let a buggy worker
  // drive a task's inflight count negative and strand the run.
  std::vector<std::string> results;
  exec::TaskScheduler sched(2, 2, 0, &results);
  const std::size_t s0 = sched.AddSlot();
  ASSERT_EQ(sched.NextTask(s0, std::chrono::steady_clock::now()), 0u);
  EXPECT_FALSE(sched.OnResult(s0, 1, "forged"));
  EXPECT_NE(sched.error().find("task 1 while running task 0"),
            std::string::npos)
      << sched.error();

  std::vector<std::string> results2;
  exec::TaskScheduler idle(2, 2, 0, &results2);
  const std::size_t i0 = idle.AddSlot();
  EXPECT_FALSE(idle.OnResult(i0, 0, "unsolicited"));
  EXPECT_NE(idle.error().find("while idle"), std::string::npos)
      << idle.error();
}

TEST_F(ExecutorTest, EnvKnobsRejectOverflowAndGarbage) {
  // The env fallbacks must clamp-check exactly like flag parsing:
  // strtol on "99999999999" saturates to LONG_MAX (no ERANGE check meant
  // it was truncated into whatever int cast fell out) and garbage must
  // not read as 0.
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "99999999999", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // overflow -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "7x", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // garbage -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "-3", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // negative -> default
  ASSERT_EQ(::setenv("DISCO_EXEC_RETRIES", "7", 1), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 7);  // sane value honored
  ASSERT_EQ(::unsetenv("DISCO_EXEC_RETRIES"), 0);
  EXPECT_EQ(exec::EffectiveMaxRetries(-1), 2);  // unset -> default

  ASSERT_EQ(::setenv("DISCO_EXEC_NET_RECONNECTS", "99999999999", 1), 0);
  EXPECT_EQ(exec::EffectiveNetReconnects(), 5);
  ASSERT_EQ(::unsetenv("DISCO_EXEC_NET_RECONNECTS"), 0);
}

TEST_F(ExecutorTest, WorkerForgingAWrongIndexFrameFailsTheRun) {
  testing::CheckWorkerForgingAWrongIndexFrameFailsTheRun(Procs());
}

TEST_F(ExecutorTest, WorkerProtocolErrorFrameFailsTheRun) {
  testing::CheckWorkerProtocolErrorFrameFailsTheRun(Procs());
}

TEST_F(ExecutorTest, StragglerIsSpeculativelyDuplicated) {
  testing::CheckStragglerIsSpeculativelyDuplicated(Procs(),
                                                   TempPath("marker"));
}

}  // namespace
}  // namespace disco
