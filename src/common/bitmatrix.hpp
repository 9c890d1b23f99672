// Rows of fixed-width bit sets with a find-next-set-bit query.
//
// Arbiters keep one row per port as an occupancy mask ("which requesters
// have something for me") so a grant is a word scan from the round-robin
// pointer instead of a walk over every requester.  The width is chosen
// at construction and spans as many 64-bit words as it needs; all rows
// share one allocation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hpp"

namespace latdiv {

class BitMatrix {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  BitMatrix(std::uint32_t rows, std::uint32_t width)
      : width_(width),
        row_words_((width + 63) / 64),
        words_(static_cast<std::size_t>(rows) * row_words_, 0) {}

  void set(std::uint32_t row, std::uint32_t i) { word(row, i) |= bit(i); }
  void reset(std::uint32_t row, std::uint32_t i) { word(row, i) &= ~bit(i); }
  [[nodiscard]] bool test(std::uint32_t row, std::uint32_t i) const {
    return (word(row, i) & bit(i)) != 0;
  }
  [[nodiscard]] bool any(std::uint32_t row) const {
    const std::uint64_t* w = row_begin(row);
    for (std::size_t k = 0; k < row_words_; ++k) {
      if (w[k] != 0) return true;
    }
    return false;
  }
  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// Lowest set bit of `row` at index >= from, or kNone.
  [[nodiscard]] std::uint32_t find_next(std::uint32_t row,
                                        std::uint32_t from) const {
    if (from >= width_) return kNone;
    const std::uint64_t* w = row_begin(row);
    std::size_t k = from >> 6;
    std::uint64_t bits = w[k] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++k == row_words_) return kNone;
      bits = w[k];
    }
    return static_cast<std::uint32_t>(
        k * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// First set bit of `row` in cyclic order from `from` (from, ...,
  /// width-1, 0, ..., from-1), or kNone when the row is empty.
  [[nodiscard]] std::uint32_t find_next_cyclic(std::uint32_t row,
                                               std::uint32_t from) const {
    const std::uint32_t i = find_next(row, from);
    return i != kNone ? i : find_next(row, 0);
  }

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  static std::uint64_t bit(std::uint32_t i) {
    return std::uint64_t{1} << (i & 63);
  }
  [[nodiscard]] const std::uint64_t* row_begin(std::uint32_t row) const {
    LATDIV_DCHECK(static_cast<std::size_t>(row) * row_words_ < words_.size(),
                  "row out of range");
    return words_.data() + static_cast<std::size_t>(row) * row_words_;
  }
  [[nodiscard]] std::uint64_t& word(std::uint32_t row, std::uint32_t i) {
    LATDIV_DCHECK(i < width_, "bit out of range");
    return words_[static_cast<std::size_t>(row) * row_words_ + (i >> 6)];
  }
  [[nodiscard]] std::uint64_t word(std::uint32_t row, std::uint32_t i) const {
    LATDIV_DCHECK(i < width_, "bit out of range");
    return words_[static_cast<std::size_t>(row) * row_words_ + (i >> 6)];
  }

  std::uint32_t width_;
  std::size_t row_words_;
  std::vector<std::uint64_t> words_;
};

}  // namespace latdiv
