#ifndef DISCO_OBS_LOG_H_
#define DISCO_OBS_LOG_H_

// Leveled stderr logging, controlled by DISCO_LOG=error|warn|info|debug
// (default: warn). Diagnostics that used bare fprintf(stderr, ...) —
// executor retry/reconnect notices, bench write warnings —
// route through here so noisy runs can be quieted (DISCO_LOG=error) and
// scheduler decisions surfaced (DISCO_LOG=debug) without recompiling.
// Smoke scripts grep stderr but never byte-compare it; info/debug default
// to silent so their stderr stays stable.

namespace disco {
namespace obs {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

// True when `level` passes the DISCO_LOG threshold (parsed once, lazily).
bool LogEnabled(LogLevel level);

// printf-style; writes "[error|warn|info|debug] <message>\n" to stderr
// when enabled. The newline is appended here.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void Log(LogLevel level, const char* fmt, ...);

// Re-reads DISCO_LOG on the next LogEnabled call (tests mutate the env).
void ResetLogLevelForTest();

}  // namespace obs
}  // namespace disco

#endif  // DISCO_OBS_LOG_H_
