// CompiledDfa: the monitoring-kernel form of a minimal usage DFA -- a dense
// row-major uint32 transition table (states x alphabet) with every dead
// state merged into one appended sink row, packed accepting/live bitmaps,
// and a letter-id event alphabet.  One step() is one bounded load; the
// letter ids double as the wire event ids of the streaming monitor.
//
// The compiled form is the one cached monitor artifact: to_bytes()/
// from_bytes() define a versioned byte format (stored under its own
// BehaviorCache kind, keyed by the class fingerprint) in which any
// truncation or bit flip decodes to a structured BinaryFormatError, never
// UB.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fsm/dfa.hpp"
#include "support/binary.hpp"
#include "support/strings.hpp"
#include "support/symbol.hpp"

namespace shelley::fsm {

class CompiledDfa {
 public:
  /// Event id on the compiled hot path: the index of the event's column in
  /// the transition table.  Letter order is the source DFA's alphabet order
  /// (sorted by symbol id at compile time) and is baked into the table, so
  /// it survives serialization into a process with different interning.
  using Letter = std::uint32_t;
  static constexpr Letter kNoLetter = 0xffffffffu;

  CompiledDfa() = default;

  /// Compiles a minimal usage DFA: computes live states, appends a sink row,
  /// redirects every dead target to the sink, and packs accepting/live
  /// bitmaps.  `table` resolves alphabet symbols to their event names.
  [[nodiscard]] static CompiledDfa compile(const Dfa& dfa,
                                           const SymbolTable& table);

  /// Rows in the compiled table (source states plus the sink row).
  [[nodiscard]] std::uint32_t state_count() const { return states_; }
  [[nodiscard]] std::uint32_t letter_count() const { return letters_; }
  [[nodiscard]] std::uint32_t initial() const { return initial_; }
  /// The merged dead state: self-loops on every letter, never accepting,
  /// never live.  Entering it is what the monitor reports as a violation.
  [[nodiscard]] std::uint32_t sink() const { return sink_; }

  /// One monitor step: a single bounded load.  `state` and `letter` must be
  /// in range (the decoders and compile() guarantee every stored target is).
  [[nodiscard]] std::uint32_t step(std::uint32_t state, Letter letter) const {
    return table_[static_cast<std::size_t>(state) * letters_ + letter];
  }

  [[nodiscard]] bool accepting(std::uint32_t state) const {
    return (accepting_[state / 64] >> (state % 64)) & 1;
  }
  /// True iff some continuation from `state` reaches an accepting state.
  /// The sink is never live.
  [[nodiscard]] bool live(std::uint32_t state) const {
    return (live_[state / 64] >> (state % 64)) & 1;
  }

  /// Letter of an event name / interned symbol; kNoLetter when the event is
  /// not in the class alphabet (a violation for the monitor).
  [[nodiscard]] Letter letter_of(std::string_view event) const;
  [[nodiscard]] Letter letter_of(Symbol symbol) const;

  /// Event name of a letter (reports, allowed-next sets).
  [[nodiscard]] const std::string& event_name(Letter letter) const {
    return names_[letter];
  }
  /// Letter-order event names (serialization order).
  [[nodiscard]] const std::vector<std::string>& event_names() const {
    return names_;
  }
  /// The letter's symbol in the table this instance was compiled against
  /// (or deserialized into).
  [[nodiscard]] Symbol event_symbol(Letter letter) const {
    return symbols_[letter];
  }

  /// Appends (without clearing) the letters allowed next from `state` --
  /// those whose target is live -- in letter order.  The no-allocation
  /// allowed-next path: callers reuse `out` across events.
  void allowed_letters(std::uint32_t state, std::vector<Letter>& out) const;

  /// Raw row-major cells (states x letters), for tests and sweeps.
  [[nodiscard]] const std::vector<std::uint32_t>& cells() const {
    return table_;
  }

  // -- Versioned byte format ------------------------------------------------
  void serialize(support::BinaryWriter& writer) const;
  [[nodiscard]] std::string to_bytes() const;
  /// Decodes and fully validates one compiled table, interning event names
  /// into `table`.  Throws support::BinaryFormatError on any malformation:
  /// version skew, implausible sizes, out-of-range targets, bitmap tail
  /// bits, a corrupted sink row, or a live-target inconsistency.
  [[nodiscard]] static CompiledDfa deserialize(support::BinaryReader& reader,
                                               SymbolTable& table);
  [[nodiscard]] static CompiledDfa from_bytes(std::string_view bytes,
                                              SymbolTable& table);

 private:
  void index_letters();

  std::uint32_t letters_ = 0;
  std::uint32_t states_ = 0;  // includes the sink row
  std::uint32_t initial_ = 0;
  std::uint32_t sink_ = 0;
  std::vector<std::uint32_t> table_;       // states_ x letters_, row-major
  std::vector<std::uint64_t> accepting_;   // packed, bit s of word s/64
  std::vector<std::uint64_t> live_;        // packed, sink bit always 0
  std::vector<std::string> names_;         // letter -> event name
  std::vector<Symbol> symbols_;            // letter -> local symbol
  std::unordered_map<Symbol, Letter> by_symbol_;
  StringMap<Letter> by_name_;
};

/// Version tag of the compiled-table byte format; bumped on layout changes
/// so stale cache entries decode to a structured failure, not garbage.
inline constexpr std::uint32_t kCompiledDfaFormatVersion = 1;

}  // namespace shelley::fsm
