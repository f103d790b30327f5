// disco_tracecat: inspect the Chrome trace_event files the span tracer
// writes (src/obs/trace.h). Subcommands:
//
//   validate <file>...         parse each file and check B/E nesting per
//                              (pid,tid); exits non-zero on the first bad
//                              file, naming it and the violation
//   merge <file>... --out=<f>  time-order every event from every input
//                              into one timeline (what the driver does
//                              with its workers' traces at flush)
//   summary <file>...          per-span-name count / total_ms / p95_ms
//                              table over the merged inputs
//
// All three accept any Chrome trace with a traceEvents array of B/E/i
// events, not just our own output.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/tracefile.h"
#include "util/stats.h"

namespace {

using disco::obs::TraceDoc;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: disco_tracecat <command> [args]\n"
      "  validate <file>...          check parse + span nesting\n"
      "  merge --out=<f> <file>...   merge traces into one timeline\n"
      "  summary <file>...           per-span count/total/p95 table\n"
      "  --help                      this message\n");
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return f.good() || f.eof();
}

// Loads and parses one trace file; prints the failure and returns false
// when it cannot be used.
bool LoadTrace(const std::string& path, TraceDoc* doc) {
  std::string text;
  if (!ReadWholeFile(path, &text)) {
    std::fprintf(stderr, "disco_tracecat: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  if (!disco::obs::ParseTraceJson(text, doc, &error)) {
    std::fprintf(stderr, "disco_tracecat: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

int RunValidate(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    TraceDoc doc;
    if (!LoadTrace(path, &doc)) return 1;
    std::string error;
    if (!disco::obs::ValidateTrace(doc, &error)) {
      std::fprintf(stderr, "disco_tracecat: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("%s: ok (%zu events", path.c_str(), doc.events.size());
    if (doc.dropped != 0) {
      std::printf(", %llu dropped",
                  static_cast<unsigned long long>(doc.dropped));
    }
    std::printf(")\n");
  }
  return 0;
}

int RunMerge(const std::string& out_path,
             const std::vector<std::string>& files) {
  std::vector<TraceDoc> docs(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!LoadTrace(files[i], &docs[i])) return 1;
  }
  const TraceDoc merged = disco::obs::MergeTraceDocs(docs);
  if (!disco::WriteFile(out_path, disco::obs::TraceJson(merged))) {
    std::fprintf(stderr, "disco_tracecat: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("%s: %zu events from %zu file(s)\n", out_path.c_str(),
              merged.events.size(), files.size());
  return 0;
}

int RunSummary(const std::vector<std::string>& files) {
  std::vector<TraceDoc> docs(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!LoadTrace(files[i], &docs[i])) return 1;
  }
  std::fputs(
      disco::obs::SummarizeTrace(disco::obs::MergeTraceDocs(docs)).c_str(),
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }
  std::string out_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
      if (out_path.empty()) {
        std::fprintf(stderr, "disco_tracecat: --out needs a file path\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "disco_tracecat: unknown flag \"%s\"\n",
                   arg.c_str());
      PrintUsage(stderr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "disco_tracecat: %s needs at least one file\n",
                 cmd.c_str());
    return 2;
  }
  if (cmd == "validate") return RunValidate(files);
  if (cmd == "merge") {
    if (out_path.empty()) {
      std::fprintf(stderr, "disco_tracecat: merge needs --out=<file>\n");
      return 2;
    }
    return RunMerge(out_path, files);
  }
  if (cmd == "summary") return RunSummary(files);
  std::fprintf(stderr, "disco_tracecat: unknown command \"%s\"\n",
               cmd.c_str());
  PrintUsage(stderr);
  return 2;
}
