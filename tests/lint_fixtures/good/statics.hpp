// Thread-safety family, satisfied three ways: a const static, a
// LATDIV_GUARDED_BY annotation, and a comment suppression for a legacy
// static.
#pragma once

#include <cstdint>

namespace fixture_good {

inline std::uint64_t limit() {
  static const std::uint64_t kLimit = 64;
  return kLimit;
}

inline std::uint64_t bump() {
  static std::uint64_t calls LATDIV_GUARDED_BY(mu) = 0;
  return ++calls;
}

inline int legacy_bump() {
  static int legacy = 0;  // lint: mutable-static-ok
  return ++legacy;
}

}  // namespace fixture_good
