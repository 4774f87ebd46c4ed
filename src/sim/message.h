// Messages for the synchronous message-passing model (paper Section 3).
//
// The paper restricts messages to O(log n) bits, i.e. a constant number of
// "words" where one word holds a node identifier, a bounded counter, or a
// quantized numeric value. We model a message as a short sequence of 64-bit
// words and have the simulator account for the maximum words-per-message, so
// the experiments can verify each algorithm's O(log n)-bits claim (a
// constant word count).
//
// Payload storage is owned by the network, not by the Message: the
// synchronous engine writes every payload once into a per-round arena and
// hands processes WordSpan views into it (broadcasts share one payload
// across all receivers). A Message is therefore only valid for the duration
// of the `on_round()` call that delivered it.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"

namespace ftc::sim {

/// One word of payload: models O(log n) bits.
using Word = std::int64_t;

/// Non-owning view of a message payload (a span with vector-flavored
/// accessors, so process code written against std::vector<Word> still
/// compiles). The referenced words live in the network's round arena.
class WordSpan {
 public:
  constexpr WordSpan() noexcept = default;
  constexpr WordSpan(const Word* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  explicit WordSpan(const std::vector<Word>& words) noexcept
      : data_(words.data()), size_(words.size()) {}
  // A view over a temporary vector would dangle as soon as the full
  // expression ends; force callers to bind to an lvalue they keep alive.
  explicit WordSpan(std::vector<Word>&&) = delete;

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] constexpr const Word* data() const noexcept { return data_; }
  [[nodiscard]] constexpr const Word* begin() const noexcept { return data_; }
  [[nodiscard]] constexpr const Word* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] constexpr Word operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  /// Bounds-checked access, matching std::vector::at.
  [[nodiscard]] Word at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("WordSpan::at");
    return data_[i];
  }
  [[nodiscard]] Word front() const noexcept { return (*this)[0]; }
  [[nodiscard]] Word back() const noexcept { return (*this)[size_ - 1]; }

 private:
  const Word* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A delivered message. `from` is filled in by the network, not the sender.
/// Valid only during the on_round() call it was delivered to (the payload
/// view points into the network's round arena).
struct Message {
  graph::NodeId from = -1;
  WordSpan words;
};

/// Fixed-point encoding for fractional values carried in messages.
///
/// Algorithm 1 exchanges x-values in [0, 1 + (Δ+1)^{-q/t}]; a 2^-40
/// fixed-point representation keeps quantization error far below the 1e-9
/// feasibility epsilon used by the checkers while still fitting a word
/// (log n bits in any realistic deployment; the paper's O(log n) budget
/// allows any polynomially bounded value).
inline constexpr double kFixedPointScale = 1099511627776.0;  // 2^40

/// Quantizes a real to a fixed-point word: std::llround(value · 2^40),
/// i.e. round to nearest with ties away from zero. Inline and exact: the
/// product is exact (a power-of-two scale), truncation to a word is exact
/// below 2^62, and so is the fraction scaled − trunc(scaled), so the tie
/// test sees the true remainder. Non-finite and |scaled| ≥ 2^62 inputs take
/// the library call.
[[nodiscard]] inline Word encode_fixed(double value) noexcept {
  const double scaled = value * kFixedPointScale;
  if (!(std::fabs(scaled) < 0x1p62)) {
    return static_cast<Word>(std::llround(scaled));
  }
  const auto whole = static_cast<Word>(scaled);
  const double frac = scaled - static_cast<double>(whole);
  // Branch-free: the tie tests are data-dependent coin flips.
  return whole + static_cast<Word>(frac >= 0.5) -
         static_cast<Word>(frac <= -0.5);
}

/// Inverse of encode_fixed. Multiplying by the exact reciprocal 2^-40
/// rounds exactly like dividing by 2^40.
[[nodiscard]] inline double decode_fixed(Word word) noexcept {
  return static_cast<double>(word) * 0x1p-40;
}

}  // namespace ftc::sim
