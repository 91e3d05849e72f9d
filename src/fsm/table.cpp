#include "fsm/table.hpp"

#include <bit>
#include <cstring>

#include "fsm/ops.hpp"

namespace shelley::fsm {

namespace {

// Plausibility caps: a corrupted size field must fail bounds checks before
// it can allocate gigabytes.
constexpr std::uint64_t kMaxStates = 1u << 24;
constexpr std::uint64_t kMaxAlphabet = 1u << 20;

constexpr std::size_t bitmap_words(std::uint64_t states) {
  return static_cast<std::size_t>((states + 63) / 64);
}

void set_bit(std::vector<std::uint64_t>& words, std::uint64_t index) {
  words[index / 64] |= std::uint64_t{1} << (index % 64);
}

}  // namespace

void CompiledDfa::index_letters() {
  by_symbol_.clear();
  by_name_.clear();
  by_symbol_.reserve(letters_);
  by_name_.reserve(letters_);
  for (Letter letter = 0; letter < letters_; ++letter) {
    by_symbol_.emplace(symbols_[letter], letter);
    by_name_.emplace(names_[letter], letter);
  }
}

CompiledDfa CompiledDfa::compile(const Dfa& dfa, const SymbolTable& table) {
  CompiledDfa out;
  const std::size_t n = dfa.state_count();
  out.letters_ = static_cast<std::uint32_t>(dfa.alphabet().size());
  out.states_ = static_cast<std::uint32_t>(n + 1);  // + sink row
  out.initial_ = dfa.initial();
  out.sink_ = static_cast<std::uint32_t>(n);

  const std::vector<bool> live = live_states(dfa);
  out.table_.assign(static_cast<std::size_t>(out.states_) * out.letters_,
                    out.sink_);
  const std::vector<StateId>& source = dfa.transition_table();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t l = 0; l < out.letters_; ++l) {
      const StateId target = source[s * out.letters_ + l];
      // Every dead target folds into the sink; dead rows become all-sink
      // automatically (every successor of a dead state is dead).
      out.table_[s * out.letters_ + l] = live[target] ? target : out.sink_;
    }
  }
  // The sink row self-loops (pre-filled by the assign above).

  out.accepting_.assign(bitmap_words(out.states_), 0);
  out.live_.assign(bitmap_words(out.states_), 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (dfa.is_accepting(s)) set_bit(out.accepting_, s);
    if (live[s]) set_bit(out.live_, s);
  }

  out.names_.reserve(out.letters_);
  out.symbols_.reserve(out.letters_);
  for (const Symbol symbol : dfa.alphabet()) {
    out.names_.push_back(table.name(symbol));
    out.symbols_.push_back(symbol);
  }
  out.index_letters();
  return out;
}

CompiledDfa::Letter CompiledDfa::letter_of(std::string_view event) const {
  const auto it = by_name_.find(event);
  return it == by_name_.end() ? kNoLetter : it->second;
}

CompiledDfa::Letter CompiledDfa::letter_of(Symbol symbol) const {
  const auto it = by_symbol_.find(symbol);
  return it == by_symbol_.end() ? kNoLetter : it->second;
}

void CompiledDfa::allowed_letters(std::uint32_t state,
                                  std::vector<Letter>& out) const {
  const std::uint32_t* row =
      table_.data() + static_cast<std::size_t>(state) * letters_;
  for (Letter letter = 0; letter < letters_; ++letter) {
    if (live(row[letter])) out.push_back(letter);
  }
}

void CompiledDfa::serialize(support::BinaryWriter& writer) const {
  writer.u32(kCompiledDfaFormatVersion);
  writer.u32(letters_);
  writer.u32(states_);
  writer.u32(initial_);
  writer.u32(sink_);
  for (const std::string& name : names_) writer.str(name);
  for (const std::uint64_t word : accepting_) writer.u64(word);
  for (const std::uint64_t word : live_) writer.u64(word);
  for (const std::uint32_t cell : table_) writer.u32(cell);
}

std::string CompiledDfa::to_bytes() const {
  support::BinaryWriter writer;
  serialize(writer);
  return writer.take();
}

namespace {

std::vector<std::uint64_t> read_bitmap(support::BinaryReader& reader,
                                       std::uint64_t states,
                                       const char* what) {
  std::vector<std::uint64_t> words(bitmap_words(states));
  for (std::uint64_t& word : words) word = reader.u64();
  // Bits above the state count are corruption: the writer never sets them,
  // and tolerating them would make equal tables compare unequal as bytes.
  const std::uint64_t tail = states % 64;
  if (tail != 0 && (words.back() >> tail) != 0) {
    throw support::BinaryFormatError(std::string("compiled table ") + what +
                                     " bitmap has tail bits set");
  }
  return words;
}

}  // namespace

CompiledDfa CompiledDfa::deserialize(support::BinaryReader& reader,
                                     SymbolTable& table) {
  const std::uint32_t version = reader.u32();
  if (version != kCompiledDfaFormatVersion) {
    throw support::BinaryFormatError("compiled table version unsupported");
  }
  CompiledDfa out;
  out.letters_ = reader.u32();
  out.states_ = reader.u32();
  out.initial_ = reader.u32();
  out.sink_ = reader.u32();
  if (out.letters_ > kMaxAlphabet) {
    throw support::BinaryFormatError("compiled table alphabet implausible");
  }
  if (out.states_ < 1 || out.states_ > kMaxStates + 1) {
    throw support::BinaryFormatError("compiled table state count implausible");
  }
  if (out.initial_ >= out.states_ || out.sink_ >= out.states_) {
    throw support::BinaryFormatError("compiled table state ids out of range");
  }

  out.names_.reserve(out.letters_);
  out.symbols_.reserve(out.letters_);
  for (Letter letter = 0; letter < out.letters_; ++letter) {
    out.names_.push_back(reader.str());
    out.symbols_.push_back(table.intern(out.names_.back()));
  }
  out.index_letters();
  if (out.by_name_.size() != out.names_.size()) {
    throw support::BinaryFormatError("compiled table has duplicate events");
  }

  out.accepting_ = read_bitmap(reader, out.states_, "accepting");
  out.live_ = read_bitmap(reader, out.states_, "live");
  if (out.accepting(out.sink_) || out.live(out.sink_)) {
    throw support::BinaryFormatError("compiled table sink marked live");
  }

  const std::size_t cells =
      static_cast<std::size_t>(out.states_) * out.letters_;
  const std::string_view cell_bytes = reader.raw(cells * 4);
  out.table_.resize(cells);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.table_.data(), cell_bytes.data(), cells * 4);
  } else {
    for (std::size_t i = 0; i < cells; ++i) {
      const auto* at =
          reinterpret_cast<const std::uint8_t*>(cell_bytes.data()) + i * 4;
      out.table_[i] = static_cast<std::uint32_t>(at[0]) |
                      static_cast<std::uint32_t>(at[1]) << 8 |
                      static_cast<std::uint32_t>(at[2]) << 16 |
                      static_cast<std::uint32_t>(at[3]) << 24;
    }
  }
  // Structural invariants the monitor's unchecked step() relies on: every
  // target in range and either live or the sink, and the sink self-looping.
  for (const std::uint32_t target : out.table_) {
    if (target >= out.states_) {
      throw support::BinaryFormatError("compiled table target out of range");
    }
    if (target != out.sink_ && !out.live(target)) {
      throw support::BinaryFormatError("compiled table targets a dead state");
    }
  }
  const std::uint32_t* sink_row =
      out.table_.data() + static_cast<std::size_t>(out.sink_) * out.letters_;
  for (Letter letter = 0; letter < out.letters_; ++letter) {
    if (sink_row[letter] != out.sink_) {
      throw support::BinaryFormatError("compiled table sink row corrupted");
    }
  }
  return out;
}

CompiledDfa CompiledDfa::from_bytes(std::string_view bytes,
                                    SymbolTable& table) {
  support::BinaryReader reader(bytes);
  CompiledDfa out = deserialize(reader, table);
  reader.expect_end();
  return out;
}

}  // namespace shelley::fsm
