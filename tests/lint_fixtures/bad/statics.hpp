// Positive fixtures for the thread-safety family: a mutable static is
// state shared by every simulation in the process (the sweep executor
// runs points on parallel threads), so it must carry
// LATDIV_GUARDED_BY(...) or be const.
#pragma once

#include <cstdint>

namespace fixture {

class Registry {
 private:
  static std::uint64_t instances_;  // expect: mutable-static
  std::uint64_t local_count_ = 0;  // value member: per-instance, fine
};

inline int next_fixture_id() {
  static int counter = 0;  // expect: mutable-static
  return ++counter;
}

}  // namespace fixture
