// disco_workerd: worker daemon for --backend=net (see exec/net_daemon.h).
#include <cstdio>
#include <cstring>
#include <string>

#include "exec/net_daemon.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: disco_workerd --listen=HOST:PORT\n"
               "\n"
               "Worker daemon for disco's --backend=net executor. Binds\n"
               "HOST:PORT (PORT 0 = kernel-assigned; the actual endpoint\n"
               "is printed on startup) and serves coordinator connections\n"
               "until killed. Each connection spawns one worker process\n"
               "executing the argv the coordinator sends -- run only on\n"
               "trusted hosts/networks. SIGUSR1 dumps the metrics\n"
               "registry to stderr.\n");
}

}  // namespace

int main(int argc, char** argv) {
  disco::exec::DaemonOptions opts;
  bool have_listen = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg.rfind("--listen=", 0) == 0) {
      const std::string spec = arg.substr(std::strlen("--listen="));
      if (!disco::exec::ParseHostPort(spec, &opts.host, &opts.port,
                                      /*allow_port_zero=*/true)) {
        std::fprintf(stderr,
                     "disco_workerd: bad --listen value \"%s\" "
                     "(want host:port)\n",
                     spec.c_str());
        return 2;
      }
      have_listen = true;
      continue;
    }
    std::fprintf(stderr, "disco_workerd: unknown argument \"%s\"\n",
                 arg.c_str());
    PrintUsage(stderr);
    return 2;
  }
  if (!have_listen) {
    PrintUsage(stderr);
    return 2;
  }
  return disco::exec::RunWorkerDaemon(opts);
}
