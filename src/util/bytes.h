// Little-endian fixed-width integer codecs shared by the on-disk formats
// (graph snapshots, artifact-store objects) and the executor's wire
// frames (exec/wire.h).
#pragma once

#include <cstdint>
#include <string>

namespace disco {

inline void PutU32Le(std::string* out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 4);
}

inline void PutU64Le(std::string* out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 8);
}

inline std::uint32_t ReadU32Le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

inline std::uint64_t ReadU64Le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace disco
