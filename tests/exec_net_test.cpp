// Network-backend tests, driving real disco_workerd daemon processes on
// localhost: the net backend must converge to the same bytes as the
// in-process run, a SIGKILLed daemon's in-flight tasks must finish on the
// surviving daemon, a SIGKILLed worker must cost one retry and come back
// through the daemon's respawn-on-reconnect path, and a daemon restarted
// on the same port mid-run must be picked back up by the coordinator's
// backoff reconnect. Slot-death and goodbye accounting is checked through
// the metrics registry, and the fault cases shared with the procs
// transport (exec_fault_cases.h) run over two daemons. The daemon hands
// each connection to its worker: it reads nothing past kSpawn, keeps no
// child around after a clean run, and worker traces come home over the
// connection wherever the daemon runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/executor.h"
#include "exec/net_daemon.h"
#include "exec/wire.h"
#include "exec_fault_cases.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracefile.h"

#ifndef EXEC_TEST_WORKER_PATH
#error "build must define EXEC_TEST_WORKER_PATH (see CMakeLists.txt)"
#endif
#ifndef DISCO_WORKERD_PATH
#error "build must define DISCO_WORKERD_PATH (see CMakeLists.txt)"
#endif

namespace disco {
namespace {

using testing::ExpectedResults;
using testing::NotCalled;

// The coordinator's disco_exec_tasks_total{event="slot_death"} series.
obs::Counter& SlotDeaths() {
  return obs::Global().RegisterCounter(
      "disco_exec_tasks_total", "Executor scheduling decisions",
      "exec tasks", "slot_deaths", {{"event", "slot_death"}});
}

std::set<std::string> DirEntries(const std::string& dir) {
  std::set<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.insert(name);
    }
    ::closedir(d);
  }
  return names;
}

// A fresh directory under the test temp dir (path "" on failure), deleted
// with the plain files in it when the test ends.
struct ScratchDir {
  explicit ScratchDir(const std::string& stem)
      : path(::testing::TempDir() + "net_" + stem + "_XXXXXX") {
    if (::mkdtemp(path.data()) == nullptr) path.clear();
  }
  ~ScratchDir() {
    if (path.empty()) return;
    for (const std::string& name : DirEntries(path)) {
      std::remove((path + "/" + name).c_str());
    }
    ::rmdir(path.c_str());
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string path;
};

// Processes, live or zombie, whose parent is `parent` (the ppid field of
// /proc/<pid>/stat, which follows the parenthesized command name).
std::size_t ChildCount(pid_t parent) {
  std::size_t count = 0;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return 0;
  while (const dirent* e = ::readdir(proc)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/") + e->d_name + "/stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t paren = line.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream rest(line.substr(paren + 1));
    char state = 0;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == parent) ++count;
  }
  ::closedir(proc);
  return count;
}

// Reads from `fd` until `frames` yields a frame; false on EOF, a read
// error or timeout, or a malformed stream.
bool ReadFrame(int fd, exec::FrameBuffer* frames, exec::Frame* out) {
  for (;;) {
    std::string error;
    switch (frames->Next(out, &error)) {
      case exec::FrameBuffer::Status::kFrame:
        return true;
      case exec::FrameBuffer::Status::kMalformed:
        return false;
      case exec::FrameBuffer::Status::kNeedMore:
        break;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return false;
    frames->Append(chunk, static_cast<std::size_t>(n));
  }
}

// One disco_workerd subprocess. The daemon prints its actual endpoint
// ("disco_workerd listening on HOST:PORT") once bound, which is how a
// port-0 launch learns where to connect.
class Daemon {
 public:
  // port 0 = kernel-assigned; a non-empty `cwd` is the daemon's working
  // directory (a stand-in for another host's filesystem). Returns false
  // if the daemon did not come up.
  bool Start(int port = 0, const std::string& cwd = "") {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      if (!cwd.empty() && ::chdir(cwd.c_str()) != 0) _exit(127);
      const std::string listen =
          "--listen=127.0.0.1:" + std::to_string(port);
      ::execl(DISCO_WORKERD_PATH, DISCO_WORKERD_PATH, listen.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(out_pipe[1]);
    // Read the startup line a byte at a time (we only need one line and
    // must not over-read into nothing: the daemon keeps stdout open).
    std::string line;
    char c;
    while (line.find('\n') == std::string::npos) {
      const ssize_t n = ::read(out_pipe[0], &c, 1);
      if (n <= 0) break;
      line.push_back(c);
    }
    ::close(out_pipe[0]);
    const std::size_t colon = line.rfind(':');
    if (line.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      Kill();
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return port_ > 0;
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  std::string HostPort() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

  ~Daemon() { Kill(); }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

class ExecNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::ResetJobNumberingForTest();
    // Keep reconnect cycles snappy: these tests intentionally kill
    // daemons and workers, and default backoff would stretch them.
    ::setenv("DISCO_EXEC_NET_BACKOFF_MS", "20", 1);
    ::setenv("DISCO_EXEC_NET_BACKOFF_MAX_MS", "200", 1);
    ::setenv("DISCO_EXEC_NET_RECONNECTS", "5", 1);
  }

  void TearDown() override {
    obs::ResetTracingForTest();
    ::unsetenv("DISCO_EXEC_NET_BACKOFF_MS");
    ::unsetenv("DISCO_EXEC_NET_BACKOFF_MAX_MS");
    ::unsetenv("DISCO_EXEC_NET_RECONNECTS");
  }

  std::string TempPath(const std::string& name) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "net_" + info->name() +
                             "_" + name + "_" + std::to_string(::getpid());
    std::remove(path.c_str());
    return path;
  }

  exec::ExecOptions NetOpts(const std::vector<std::string>& hosts,
                            std::vector<std::string> helper_flags) {
    exec::ExecOptions opts;
    opts.backend = exec::Backend::kNet;
    opts.hosts = hosts;
    opts.worker_argv = {EXEC_TEST_WORKER_PATH};
    for (std::string& f : helper_flags) {
      opts.worker_argv.push_back(std::move(f));
    }
    return opts;
  }

  testing::MakeExecOptions Net(const Daemon& a, const Daemon& b) {
    const std::vector<std::string> hosts = {a.HostPort(), b.HostPort()};
    return [this, hosts](std::vector<std::string> flags) {
      return NetOpts(hosts, std::move(flags));
    };
  }
};

TEST_F(ExecNetTest, ParseHostPortValidates) {
  std::string host;
  int port = 0;
  EXPECT_TRUE(exec::ParseHostPort("localhost:8080", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 8080);
  EXPECT_FALSE(exec::ParseHostPort("noport", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort(":8080", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:0", &host, &port));
  EXPECT_TRUE(
      exec::ParseHostPort("h:0", &host, &port, /*allow_port_zero=*/true));
  EXPECT_FALSE(exec::ParseHostPort("h:65536", &host, &port));
  EXPECT_FALSE(exec::ParseHostPort("h:12x", &host, &port));
}

TEST_F(ExecNetTest, NetBackendMatchesInProcessBytes) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(8));
}

TEST_F(ExecNetTest, SigkilledDaemonTasksFinishOnSurvivors) {
  // The worker handed task 2 SIGKILLs its own daemon (kill-parent mode):
  // the coordinator must charge the in-flight task, fail over to the
  // surviving daemon, and still converge to the in-process bytes. The
  // dead daemon's endpoint just burns its reconnect budget.
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()},
              {"--mode=kill-parent-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-parent marker was never created: no daemon died";
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, SigkilledWorkerRespawnsThroughReconnect) {
  // kill-self-task2 kills the worker, not the daemon: the daemon closes
  // the connection, the coordinator reconnects to the SAME daemon, and
  // the daemon spawns a fresh worker. With a single daemon slot this is
  // the only way the run can finish — proving the respawn path works.
  Daemon d1;
  ASSERT_TRUE(d1.Start());
  const std::string marker = TempPath("marker");
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort()},
              {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  struct stat st;
  EXPECT_EQ(::stat(marker.c_str(), &st), 0)
      << "the kill-self marker was never created: no worker died";
  EXPECT_EQ(results, ExpectedResults(6));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, DaemonRestartedOnSamePortIsPickedBackUp) {
  // Kill the only daemon mid-run, then restart it on the same port: the
  // coordinator's bounded-backoff reconnect must find the new daemon and
  // finish the run. Run() blocks, so it lives on a helper thread while
  // the test choreographs the kill/restart.
  Daemon d1;
  ASSERT_TRUE(d1.Start());
  const int port = d1.port();
  const std::string marker = TempPath("marker");
  // sleep-task0 holds task 0 long enough for the kill to land mid-task.
  const auto executor = exec::MakeExecutor(NetOpts(
      {d1.HostPort()}, {"--mode=sleep-task0", "--marker=" + marker}));
  std::vector<std::string> results;
  exec::RunResult status;
  std::thread run([&] { status = executor->Run(4, NotCalled(), &results); });

  // Wait for the worker to reach task 0 (it appends a marker byte), so
  // the daemon dies with work genuinely in flight.
  for (int i = 0; i < 500; ++i) {
    struct stat st;
    if (::stat(marker.c_str(), &st) == 0 && st.st_size > 0) break;
    ::usleep(10 * 1000);
  }
  d1.Kill();
  Daemon d2;
  ASSERT_TRUE(d2.Start(port));  // same endpoint, fresh daemon
  run.join();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(4));
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, AllDaemonsUnreachableFailsTheRun) {
  // Nothing listens on the target port (a daemon is started just to
  // learn a free port, then killed). The coordinator must exhaust its
  // reconnect budget and fail, naming an unfinished task — not hang.
  Daemon d1;
  ASSERT_TRUE(d1.Start());
  const std::string host_port = d1.HostPort();
  d1.Kill();
  ::setenv("DISCO_EXEC_NET_RECONNECTS", "2", 1);
  const auto executor =
      exec::MakeExecutor(NetOpts({host_port}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(4, NotCalled(), &results);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("unfinished"), std::string::npos)
      << status.error;
}

TEST_F(ExecNetTest, UnreachableFirstHostHandsItsWorkToTheNext) {
  // A run with fewer tasks than hosts must still reach every listed
  // daemon: when the first endpoint refuses connections, the one task
  // runs on the second instead of failing with every slot lost.
  Daemon dead, live;
  ASSERT_TRUE(dead.Start());
  ASSERT_TRUE(live.Start());
  const std::string dead_host = dead.HostPort();
  dead.Kill();
  ::setenv("DISCO_EXEC_NET_RECONNECTS", "2", 1);
  const auto executor = exec::MakeExecutor(
      NetOpts({dead_host, live.HostPort()}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(1, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(1));
}

TEST_F(ExecNetTest, CleanRunCountsNoSlotDeathAndMergesEveryGoodbye) {
  // Slots that have not connected yet are not dead: a clean run must
  // leave the slot-death counter alone, and each of the two slots must
  // deliver its worker's kObs goodbye.
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const std::uint64_t deaths = SlotDeaths().Value();
  const std::size_t merged = obs::Global().MergedSourceCount();
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(SlotDeaths().Value(), deaths);
  EXPECT_EQ(obs::Global().MergedSourceCount(), merged + 2);
}

TEST_F(ExecNetTest, KilledWorkerCountsExactlyOneSlotDeath) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  const std::string marker = TempPath("marker");
  const std::uint64_t deaths = SlotDeaths().Value();
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()},
              {"--mode=kill-self-task2", "--marker=" + marker}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(6, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(results, ExpectedResults(6));
  EXPECT_EQ(SlotDeaths().Value(), deaths + 1);
  std::remove(marker.c_str());
}

TEST_F(ExecNetTest, PoisonTaskExhaustsRetriesAndIsNamed) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  testing::CheckPoisonTaskExhaustsRetriesAndIsNamed(Net(d1, d2));
}

TEST_F(ExecNetTest, WorkerForgingAWrongIndexFrameFailsTheRun) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  testing::CheckWorkerForgingAWrongIndexFrameFailsTheRun(Net(d1, d2));
}

TEST_F(ExecNetTest, WorkerProtocolErrorFrameFailsTheRun) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  testing::CheckWorkerProtocolErrorFrameFailsTheRun(Net(d1, d2));
}

TEST_F(ExecNetTest, SingleTaskRunStartsOneWorker) {
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start());
  ASSERT_TRUE(d2.Start());
  testing::CheckSingleTaskRunStartsOneWorker(Net(d1, d2), TempPath("marker"));
}

TEST_F(ExecNetTest, TaskPipelinedBehindSpawnReachesTheWorker) {
  // A raw client sends kSpawn and a kTask in one write(). The daemon must
  // read exactly the spawn frame and leave the task bytes in the socket
  // for the worker it spawns on it, which answers with the result.
  Daemon d1;
  ASSERT_TRUE(d1.Start());
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(d1.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const timeval timeout{10, 0};  // a hang fails the test instead
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  exec::FrameBuffer frames;
  exec::Frame hello;
  ASSERT_TRUE(ReadFrame(fd, &frames, &hello));
  EXPECT_EQ(hello.type, static_cast<char>(exec::FrameType::kHello));

  const std::string bytes =
      exec::EncodeFrame(static_cast<char>(exec::FrameType::kSpawn), 0,
                        exec::EncodeSpawnPayload(
                            {EXEC_TEST_WORKER_PATH, "--mode=echo",
                             exec::WorkerFlag(0)},
                            {})) +
      exec::EncodeFrame(static_cast<char>(exec::FrameType::kTask), 3, "");
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  exec::Frame result;
  ASSERT_TRUE(ReadFrame(fd, &frames, &result));
  EXPECT_EQ(result.type, static_cast<char>(exec::FrameType::kResult));
  EXPECT_EQ(result.index, 3u);
  EXPECT_EQ(result.payload, "result-3");

  // The goodbye reaches the worker too: it answers with its kObs frame.
  ::shutdown(fd, SHUT_WR);
  exec::Frame goodbye;
  ASSERT_TRUE(ReadFrame(fd, &frames, &goodbye));
  EXPECT_EQ(goodbye.type, static_cast<char>(exec::FrameType::kObs));
  ::close(fd);
}

TEST_F(ExecNetTest, CleanRunLeavesTheDaemonNoChild) {
  // Two slots on one daemon: after the run each worker has exited on its
  // goodbye, and the daemon holds no child, live or zombie.
  Daemon d1;
  ASSERT_TRUE(d1.Start());
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d1.HostPort()}, {"--mode=echo"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  ASSERT_TRUE(status.ok) << status.error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t children = ChildCount(d1.pid());
  while (children != 0 && std::chrono::steady_clock::now() < deadline) {
    ::usleep(10 * 1000);
    children = ChildCount(d1.pid());
  }
  EXPECT_EQ(children, 0u);
}

TEST_F(ExecNetTest, DaemonInAnotherDirectoryStillMergesWorkerTraces) {
  // Stand-ins for two hosts: the daemons run in one directory, the
  // coordinator in another, and --trace= is relative. The workers' spans
  // must still reach the coordinator's one trace file, over the
  // connection, and neither directory may gain any other file.
  const ScratchDir daemon_dir("daemon"), run_dir("run");
  ASSERT_FALSE(daemon_dir.path.empty());
  ASSERT_FALSE(run_dir.path.empty());
  Daemon d1, d2;
  ASSERT_TRUE(d1.Start(0, daemon_dir.path));
  ASSERT_TRUE(d2.Start(0, daemon_dir.path));

  char* const old_cwd = ::getcwd(nullptr, 0);
  ASSERT_NE(old_cwd, nullptr);
  ASSERT_EQ(::chdir(run_dir.path.c_str()), 0);
  obs::ConfigureTracing("run.json");
  const auto executor = exec::MakeExecutor(
      NetOpts({d1.HostPort(), d2.HostPort()},
              {"--mode=echo", "--trace=run.json"}));
  std::vector<std::string> results;
  const exec::RunResult status = executor->Run(8, NotCalled(), &results);
  const std::string written = obs::FlushTrace();
  EXPECT_EQ(::chdir(old_cwd), 0);
  std::free(old_cwd);

  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(written, "run.json");
  std::ifstream in(run_dir.path + "/run.json");
  std::stringstream text;
  text << in.rdbuf();
  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::ParseTraceJson(text.str(), &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateTrace(doc, &error)) << error;
  std::set<std::uint64_t> pids;
  for (const obs::TraceEvent& e : doc.events) pids.insert(e.pid);
  EXPECT_GE(pids.size(), 3u);  // coordinator + 2 workers
  EXPECT_EQ(DirEntries(run_dir.path), std::set<std::string>{"run.json"});
  EXPECT_TRUE(DirEntries(daemon_dir.path).empty());
}

}  // namespace
}  // namespace disco
