// Byte-exact serialization for executor task results, and the framed wire
// protocol the procs backend's driver and workers speak.
//
// The multi-process backend ships task results between processes as
// opaque byte strings, so anything a task returns must round-trip
// losslessly: doubles travel as their IEEE-754 bit pattern (never through
// text), and strings are length-prefixed. Encoding a value and decoding
// it back is the identity, which is what lets `--backend=procs` output
// stay byte-identical to the in-process run.
//
// Frame layout (one versioned binary framing over each worker's
// socketpair; see executor.h for who sends what):
//
//   offset 0   4 bytes   magic "DWX" + version digit ('1')
//   offset 4   1 byte    frame type (FrameType)
//   offset 5   8 bytes   index, little-endian u64 (task index, or the
//                        worker pid for kObs; 0 when unused)
//   offset 13  8 bytes   payload length, little-endian u64
//   offset 21  ...       payload bytes
//
// A receiver that sees a bad magic, an unknown type, or an absurd length
// is desynced or talking to the wrong peer; FrameBuffer reports that as
// malformed rather than guessing, and the run fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace disco::exec {

inline void PutU64(std::string* buf, std::uint64_t v) { PutU64Le(buf, v); }

/// Inverse of PutU64 on 8 bytes at `p`.
inline std::uint64_t LoadU64(const char* p) {
  return ReadU64Le(reinterpret_cast<const std::uint8_t*>(p));
}

inline void PutDouble(std::string* buf, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(buf, bits);
}

inline void PutString(std::string* buf, const std::string& s) {
  PutU64(buf, s.size());
  buf->append(s);
}

/// Sequential reader over a serialized buffer. Get* return false once the
/// buffer is exhausted or malformed; `ok()` stays false from then on.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  bool ok() const { return ok_; }

  bool GetU64(std::uint64_t* v) {
    if (!ok_ || pos_ + 8 > buf_.size()) return Fail();
    *v = LoadU64(buf_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool GetDouble(double* v) {
    std::uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }

  bool GetString(std::string* s) {
    std::uint64_t len;
    if (!GetU64(&len)) return false;
    if (len > buf_.size() - pos_) return Fail();
    s->assign(buf_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The result shape most bench tasks produce: ordered text fragments the
/// parent prints, plus named files it writes. Tasks must not print or touch
/// the filesystem themselves — in the process backend they run with stdout
/// discarded, and a task may run more than once.
struct TextBundle {
  std::vector<std::string> parts;
  std::vector<std::pair<std::string, std::string>> files;  // name, content

  std::string Serialize() const {
    std::string out;
    PutU64(&out, parts.size());
    for (const std::string& p : parts) PutString(&out, p);
    PutU64(&out, files.size());
    for (const auto& [name, content] : files) {
      PutString(&out, name);
      PutString(&out, content);
    }
    return out;
  }

  static bool Parse(const std::string& buf, TextBundle* out) {
    // Lengths are untrusted bytes: never pre-size from them, let each
    // GetString bounds-check against what the buffer actually holds.
    WireReader r(buf);
    out->parts.clear();
    out->files.clear();
    std::uint64_t n = 0;
    if (!r.GetU64(&n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string p;
      if (!r.GetString(&p)) return false;
      out->parts.push_back(std::move(p));
    }
    if (!r.GetU64(&n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string name, content;
      if (!r.GetString(&name) || !r.GetString(&content)) return false;
      out->files.emplace_back(std::move(name), std::move(content));
    }
    return true;
  }
};

// ------------------------------------------------------------ wire frames

/// "DWX1": disco wire exchange, layout version 1. The version digit is
/// part of the magic so a frame from a future incompatible layout fails
/// the magic check outright.
constexpr char kFrameMagic[4] = {'D', 'W', 'X', '1'};

/// Size of the fixed frame header, and where its payload length sits.
constexpr std::size_t kFrameHeaderBytes = 21;
constexpr std::size_t kFrameLengthOffset = 13;

/// Payload length field of a complete frame header at `header`.
inline std::uint64_t FramePayloadLength(const char* header) {
  return LoadU64(header + kFrameLengthOffset);
}

/// Frames larger than this are treated as stream corruption, not data: a
/// task result is at most a bundle of TSV files, far under 1 GiB.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameType : char {
  kTask = 'T',       // driver -> worker: run task <index> (no payload)
  kResult = 'R',     // worker -> driver: task <index> result bytes
  kTaskError = 'E',  // worker -> driver: task <index> threw; payload names
                     // the error and charges one retry to the task
  kProtocolError = 'B',  // worker -> driver: the request stream itself was
                         // bad (malformed frame, out-of-range index). Not
                         // attributable to any task: the driver fails the
                         // whole run instead of charging an innocent task
  kObs = 'O',        // worker -> driver, once at clean shutdown (EOF on
                     // its channel): index carries the worker pid;
                     // payload is EncodeObsPayload (the worker's trace
                     // JSON + Prometheus metrics text). Optional: a
                     // driver that is done reading may close the stream
                     // first
};

struct Frame {
  char type = 0;
  std::uint64_t index = 0;
  std::string payload;
};

inline std::string EncodeFrame(char type, std::uint64_t index,
                               const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, 4);
  out.push_back(type);
  PutU64(&out, index);
  PutU64(&out, payload.size());
  out.append(payload);
  return out;
}

/// Incremental frame parser over an append-only byte stream (one per pipe
/// or socket). Feed it reads as they arrive; Next yields complete frames
/// in order, kNeedMore when the buffer holds only a partial frame, and
/// kMalformed (with a message) on desync — after which the stream is
/// unusable.
class FrameBuffer {
 public:
  enum class Status { kFrame, kNeedMore, kMalformed };

  void Append(const char* data, std::size_t n) { buf_.append(data, n); }

  Status Next(Frame* out, std::string* error) {
    if (buf_.size() < kFrameHeaderBytes) return Status::kNeedMore;
    if (std::memcmp(buf_.data(), kFrameMagic, 4) != 0) {
      *error = "bad frame magic";
      return Status::kMalformed;
    }
    const char type = buf_[4];
    if (type != static_cast<char>(FrameType::kTask) &&
        type != static_cast<char>(FrameType::kResult) &&
        type != static_cast<char>(FrameType::kTaskError) &&
        type != static_cast<char>(FrameType::kProtocolError) &&
        type != static_cast<char>(FrameType::kObs)) {
      *error = std::string("unknown frame type '") + type + "'";
      return Status::kMalformed;
    }
    const std::uint64_t index = LoadU64(buf_.data() + 5);
    const std::uint64_t len = FramePayloadLength(buf_.data());
    if (len > kMaxFramePayload) {
      *error = "frame payload length " + std::to_string(len) +
               " exceeds the sanity bound";
      return Status::kMalformed;
    }
    const std::size_t size = kFrameHeaderBytes + static_cast<std::size_t>(len);
    if (buf_.size() < size) return Status::kNeedMore;
    out->type = type;
    out->index = index;
    out->payload = buf_.substr(kFrameHeaderBytes, size - kFrameHeaderBytes);
    buf_.erase(0, size);
    return Status::kFrame;
  }

 private:
  std::string buf_;
};

/// kObs payload: the worker's own trace as JSON (obs::TakeWorkerTrace;
/// "" when tracing was off) and its metrics registry in Prometheus text
/// exposition, shipped once at clean worker shutdown so the coordinator
/// can aggregate per-process counters and merge trace timelines.
inline std::string EncodeObsPayload(const std::string& trace_json,
                                    const std::string& metrics_text) {
  std::string out;
  PutString(&out, trace_json);
  PutString(&out, metrics_text);
  return out;
}

inline bool ParseObsPayload(const std::string& buf, std::string* trace_json,
                            std::string* metrics_text) {
  WireReader r(buf);
  return r.GetString(trace_json) && r.GetString(metrics_text);
}

}  // namespace disco::exec
