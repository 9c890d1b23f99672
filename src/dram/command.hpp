// DRAM command vocabulary on the command/address bus.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace latdiv {

enum class DramCmd : std::uint8_t {
  kActivate,   ///< open a row into the bank's row buffer
  kPrecharge,  ///< close the open row
  kRead,       ///< column read, one 128B burst
  kWrite,      ///< column write, one 128B burst
  kRefresh,    ///< all-bank refresh
};

[[nodiscard]] constexpr const char* to_string(DramCmd cmd) noexcept {
  switch (cmd) {
    case DramCmd::kActivate: return "ACT";
    case DramCmd::kPrecharge: return "PRE";
    case DramCmd::kRead: return "RD";
    case DramCmd::kWrite: return "WR";
    case DramCmd::kRefresh: return "REF";
  }
  return "?";
}

/// Column access (RD or WR)?
[[nodiscard]] constexpr bool is_cas(DramCmd cmd) noexcept {
  return cmd == DramCmd::kRead || cmd == DramCmd::kWrite;
}

/// One command as issued by the command scheduler.
struct DramCommand {
  DramCmd cmd = DramCmd::kActivate;
  BankId bank = 0;
  RowId row = kNoRow;  ///< target row for ACT; open-row check for RD/WR
};

}  // namespace latdiv
