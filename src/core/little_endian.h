// Little-endian fixed-width integers: the one byte-order codec of every
// durable format in the tree (collect/binio.h and collect/column_view.h,
// the QuantileSketch blob, classic pcap). Values are assembled byte by
// byte, so the bytes on disk do not depend on host endianness. net/wire.h
// holds the big-endian (network order) counterpart for packet headers.
#pragma once

#include <cstdint>
#include <string>

namespace bismark::core {

/// The W-byte little-endian value at `p`.
template <unsigned W>
[[nodiscard]] inline std::uint64_t LoadLe(const char* p) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < W; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

/// Write the low W bytes of `v` at `p`, least significant first.
template <unsigned W>
inline void StoreLe(char* p, std::uint64_t v) {
  for (unsigned i = 0; i < W; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// Append the low W bytes of `v` to `out`, least significant first.
template <unsigned W>
inline void StoreLe(std::string& out, std::uint64_t v) {
  char bytes[W];
  StoreLe<W>(bytes, v);
  out.append(bytes, W);
}

}  // namespace bismark::core
