// Fault-handling cases run against both distributed transports. The procs
// (exec_executor_test) and net (exec_net_test) backends drive one
// coordinator loop, so each exec_test_worker fault mode must fail — or
// converge — the same way on either. A case takes `make`, which builds
// two-slot ExecOptions for the transport under test from exec_test_worker
// flags.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace disco::testing {

using MakeExecOptions =
    std::function<exec::ExecOptions(std::vector<std::string> helper_flags)>;

inline std::vector<std::string> ExpectedResults(std::size_t count) {
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < count; ++i) {
    expected.push_back("result-" + std::to_string(i));
  }
  return expected;
}

// The distributed backends never evaluate the task function driver-side.
inline exec::TaskFn NotCalled() {
  return [](std::size_t) -> std::string {
    throw std::logic_error("driver-side task function must not run");
  };
}

inline void CheckPoisonTaskExhaustsRetriesAndIsNamed(
    const MakeExecOptions& make) {
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(make({"--mode=fail-task1"}))
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

// Task 1's worker emits a result frame claiming to be task 0 (which
// another slot holds or already finished). The run must fail with the
// mismatch named — not credit task 0 with bytes it never produced.
inline void CheckWorkerForgingAWrongIndexFrameFailsTheRun(
    const MakeExecOptions& make) {
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(make({"--mode=wrong-index-task1"}))
          ->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("while running task"), std::string::npos)
      << status.error;
}

// A protocol-error frame is attributable to no task, so it must fail the
// whole run — the old text protocol echoed the garbage back as a task
// error and charged an innocent task a retry.
inline void CheckWorkerProtocolErrorFrameFailsTheRun(
    const MakeExecOptions& make) {
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(make({"--mode=badreq-task1"}))
          ->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("protocol error"), std::string::npos)
      << status.error;
}

// A slot opens only while pending tasks outnumber the idle open slots:
// with one task and two slots configured, exactly one worker process may
// start (each appends one byte to the fresh path `marker`). A surplus slot
// would spawn a worker that replays the binary's set-up for nothing.
inline void CheckSingleTaskRunStartsOneWorker(const MakeExecOptions& make,
                                              const std::string& marker) {
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(make({"--mode=mark-each-worker",
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

}  // namespace disco::testing
