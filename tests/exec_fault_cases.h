// Fault-handling cases run against both distributed transports. The procs
// (exec_executor_test) and net (exec_net_test) backends drive one
// coordinator loop, so each exec_test_worker fault mode must fail — or
// converge — the same way on either. A case takes `make`, which builds
// two-slot ExecOptions for the transport under test from exec_test_worker
// flags (max_retries 2, no straggler deadline).
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
  exec::ExecOptions opts = make({"--mode=fail-task1"});
  opts.max_retries = 1;
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(opts)->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  ASSERT_TRUE(status.task_known);
  EXPECT_EQ(status.failed_task, 1u);
  EXPECT_NE(status.error.find("task 1"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("2 attempt"), std::string::npos)
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

// `marker` is a fresh path; task 0 appends one byte to it per attempt.
inline void CheckStragglerIsSpeculativelyDuplicated(
    const MakeExecOptions& make, const std::string& marker) {
  exec::ExecOptions opts = make({"--mode=sleep-task0", "--marker=" + marker});
  opts.straggler_ms = 100;  // task 0 sleeps 1200 ms: far past the deadline
  std::vector<std::string> results;
  const exec::RunResult status =
      exec::MakeExecutor(opts)->Run(2, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(2));
  // The original plus the speculative duplicate the idle slot picked up.
  std::ifstream in(marker, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str().size(), 2u)
      << "expected the straggling task to run exactly twice";
  std::remove(marker.c_str());
}

}  // namespace disco::testing
