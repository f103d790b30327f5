// Worker binary for exec_executor_test: a minimal stand-in for a bench
// driver whose argv fully determines its task function, with fault modes
// the test's driver side provokes on purpose.
//
//   --mode=echo              task i returns "result-<i>"
//   --mode=fail-task1        task 1 always throws (retry exhaustion)
//   --mode=kill-self-task2   the first worker handed task 2 SIGKILLs
//                            itself mid-task; --marker=<path> records that
//                            the kill happened so the retry (on a
//                            surviving worker) computes normally
//   --mode=kill-always-task2 every worker handed task 2 dies (drains the
//                            whole pool)
//   --mode=sleep-task0       task 0 appends one byte to --marker and
//                            sleeps 1200 ms — with a short straggler
//                            deadline the driver speculatively duplicates
//                            it, which the marker byte count proves
//   --mode=wrong-index-task1 a worker handed task 1 first emits a forged
//                            result frame for task 0 on the result fd — a
//                            buggy/hostile worker misattributing work; the
//                            driver must fail the run, not credit task 0
//   --mode=badreq-task1      a worker handed task 1 emits a protocol-error
//                            frame, as ServeTasks does for a bad request;
//                            the driver must fail the whole run
//   --mode=kill-parent-task2 the first worker handed task 2 SIGKILLs its
//                            parent process (under --backend=net that is
//                            the disco_workerd daemon: the whole-daemon
//                            loss drill), recording --marker like
//                            kill-self-task2 so retries compute normally
//
// Standalone (no --worker=) it runs its tasks on the thread backend and
// prints them, which is also what the test uses to assert that both
// backends converge to the same bytes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "exec/exec_internal.h"
#include "exec/executor.h"
#include "exec/wire.h"
#include "obs/trace.h"

namespace {
constexpr std::size_t kNumTasks = 16;  // >= any count the test drives

// Forges a frame on the worker's result stream (see ServeTasks in
// process_executor.cpp), as the fault modes below do.
void WriteRawFrame(char type, std::uint64_t index,
                   const std::string& payload) {
  const std::string frame = disco::exec::EncodeFrame(type, index, payload);
  disco::exec::WriteAll(disco::exec::kResultFd, frame.data(), frame.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "echo", marker;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--marker=", 0) == 0) {
      marker = arg.substr(9);
    } else if (arg.rfind("--trace=", 0) == 0) {
      // Like the bench harness: workers re-parse this argv, and worker
      // mode (entered below) switches the flush to a pid-tagged sidecar.
      disco::obs::ConfigureTracing(arg.substr(8));
    } else if (arg.rfind("--worker=", 0) == 0) {
      const char* v = arg.c_str() + 9;
      char* end = nullptr;
      const unsigned long long job = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "--worker needs a job number, got \"%s\"\n", v);
        return 2;
      }
      disco::exec::EnterWorkerMode(static_cast<std::size_t>(job));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const disco::exec::TaskFn fn = [&](std::size_t i) -> std::string {
    if (mode == "fail-task1" && i == 1) {
      throw std::runtime_error("task one is poisoned");
    }
    if (mode == "kill-self-task2" && i == 2) {
      const int fd =
          ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd >= 0) {
        ::close(fd);
        ::raise(SIGKILL);
      }
      // Marker already present: the kill already happened, this is the
      // rescheduled attempt — compute normally.
    }
    if (mode == "kill-always-task2" && i == 2) ::raise(SIGKILL);
    if (mode == "kill-parent-task2" && i == 2 &&
        disco::exec::InWorkerMode()) {
      const int fd =
          ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd >= 0) {
        ::close(fd);
        ::kill(::getppid(), SIGKILL);
        // Our pipes to the dead parent will EOF shortly; die with it so
        // this attempt is cleanly charged rather than racing the close.
        ::raise(SIGKILL);
      }
    }
    if (mode == "wrong-index-task1" && i == 1 &&
        disco::exec::InWorkerMode()) {
      WriteRawFrame(static_cast<char>(disco::exec::FrameType::kResult), 0,
                    "forged-result-0");
    }
    if (mode == "badreq-task1" && i == 1 && disco::exec::InWorkerMode()) {
      WriteRawFrame(
          static_cast<char>(disco::exec::FrameType::kProtocolError), 0,
          "task request index 999 out of range");
    }
    if (mode == "sleep-task0" && i == 0) {
      const int fd =
          ::open(marker.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (fd >= 0) {
        const ssize_t ignored = ::write(fd, "x", 1);
        (void)ignored;
        ::close(fd);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
    return "result-" + std::to_string(i);
  };

  disco::exec::ExecOptions opts;  // thread backend; serves when a worker
  const auto executor = disco::exec::MakeExecutor(opts);
  std::vector<std::string> results;
  const disco::exec::RunResult status =
      executor->Run(kNumTasks, fn, &results);
  if (!status.ok) {
    std::fprintf(stderr, "%s\n", status.error.c_str());
    return 1;
  }
  for (const std::string& r : results) std::printf("%s\n", r.c_str());
  return 0;
}
