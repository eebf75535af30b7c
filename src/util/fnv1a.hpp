// 64-bit FNV-1a, the one implementation behind the serving caches' request
// key (core::service_request_digest) and the experiment journal's seal
// (exp/journal).  Both only need a fast, stable, platform-independent hash:
// FNV-1a collisions are cheap to construct on purpose, so neither use
// treats a matching digest as proof of identity against a hostile input.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace lamps {

struct Fnv1a {
  std::uint64_t h{14695981039346656037ull};

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// Little-endian, so the digest does not depend on the host's byte order.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

}  // namespace lamps
