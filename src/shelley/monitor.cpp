#include "shelley/monitor.hpp"

#include "shelley/automata.hpp"

namespace shelley::core {

std::string_view to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kDoomed:
      return "doomed";
    case Verdict::kViolation:
      return "violation";
  }
  return "unknown";
}

Monitor::Monitor(const ClassSpec& spec, SymbolTable& table)
    : Monitor(table, usage_dfa(spec, table)) {}

Monitor::Monitor(SymbolTable& table, const fsm::Dfa& dfa)
    : Monitor(table, fsm::CompiledDfa::compile(dfa, table)) {}

Monitor::Monitor(SymbolTable& table, fsm::CompiledDfa compiled)
    : table_(&table),
      compiled_(std::move(compiled)),
      state_(compiled_.initial()) {}

void Monitor::record(std::string_view operation) {
  history_.emplace_back(operation);
  // Amortized O(1) bound: let the vector run to twice the limit, then drop
  // the oldest half in one erase.  Retained size stays in [limit, 2*limit).
  if (history_limit_ != 0 && history_.size() >= history_limit_ * 2) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(history_limit_));
  }
}

Verdict Monitor::feed(std::string_view operation) {
  record(operation);
  ++events_fed_;
  if (violated_) return Verdict::kViolation;

  const auto symbol = table_->lookup(operation);
  const fsm::CompiledDfa::Letter letter =
      symbol ? compiled_.letter_of(*symbol) : fsm::CompiledDfa::kNoLetter;
  return step(letter);
}

Verdict Monitor::feed_letter(fsm::CompiledDfa::Letter letter) {
  ++events_fed_;
  if (violated_) return Verdict::kViolation;
  return step(letter);
}

Verdict Monitor::step(fsm::CompiledDfa::Letter letter) {
  if (letter == fsm::CompiledDfa::kNoLetter) {
    // Not in the class alphabet: a violation that does not move the state
    // (there is no column to follow) -- same as the legacy walk.
    violated_ = true;
    return Verdict::kViolation;
  }
  const std::uint32_t next = compiled_.step(state_, letter);
  if (!compiled_.live(next)) {
    // Entering the sink (every dead state of the source DFA folds into it):
    // undeclared sequences and stuck exits both make completion impossible,
    // so the call is a violation either way for a latching monitor.
    violated_ = true;
    state_ = next;
    return Verdict::kViolation;
  }
  state_ = next;
  return can_complete() ? Verdict::kOk : Verdict::kDoomed;
}

bool Monitor::completed() const {
  return !violated_ && compiled_.accepting(state_);
}

bool Monitor::can_complete() const {
  return !violated_ && compiled_.live(state_);
}

std::vector<std::string> Monitor::allowed_next() const {
  std::vector<std::string> out;
  if (violated_) return out;
  std::vector<fsm::CompiledDfa::Letter> letters;
  compiled_.allowed_letters(state_, letters);
  out.reserve(letters.size());
  for (const fsm::CompiledDfa::Letter letter : letters) {
    out.push_back(compiled_.event_name(letter));
  }
  return out;
}

void Monitor::allowed_next(std::vector<fsm::CompiledDfa::Letter>& out) const {
  out.clear();
  if (violated_) return;
  compiled_.allowed_letters(state_, out);
}

void Monitor::reset() {
  state_ = compiled_.initial();
  violated_ = false;
  events_fed_ = 0;
  history_.clear();
}

}  // namespace shelley::core
