// Runtime monitoring: a Monitor enforces a class specification online, one
// operation call at a time -- the dynamic counterpart of the static checker
// (what Shelley's annotations would enforce if compiled into the firmware).
//
// The walk runs on a CompiledDfa (fsm/table.hpp): one bounded table load
// per event, integer letter ids on the hot path.  The string API remains as
// a thin interning shim over feed_letter().
//   * feed(op) / feed_letter(id) advance; each returns the verdict;
//   * can_complete() says whether the lifecycle can still reach a final
//     operation; completed() whether stopping now is valid;
//   * after a violation the monitor latches kViolation until reset().
//
// Verdict sequences are byte-identical to the pre-compiled DFA walk (pinned
// by the differential suite in tests/monitor/): unknown events violate
// without moving, entering any dead state -- now the single merged sink --
// violates and latches.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fsm/dfa.hpp"
#include "fsm/table.hpp"
#include "shelley/spec.hpp"

namespace shelley::core {

enum class Verdict {
  kOk,          // the call is allowed and the run is still completable
  kDoomed,      // allowed, but no final operation is reachable any more
  kViolation,   // the call is not allowed here
};

[[nodiscard]] std::string_view to_string(Verdict verdict);

class Monitor {
 public:
  /// History entries retained by default; see set_history_limit().
  static constexpr std::size_t kDefaultHistoryLimit = 1024;

  /// Builds a monitor for one instance of `spec`.  Symbols are interned
  /// into `table` as bare operation names.
  Monitor(const ClassSpec& spec, SymbolTable& table);

  /// Builds a monitor from a minimal usage DFA, compiling it; `dfa` must
  /// recognize the valid-usage language of the class being monitored.
  Monitor(SymbolTable& table, const fsm::Dfa& dfa);

  /// Builds a monitor over an already compiled (or cached -- see
  /// QueryEngine::compiled_table) table whose event names are interned in
  /// `table`.
  Monitor(SymbolTable& table, fsm::CompiledDfa compiled);

  /// The compiled table the monitor walks.
  [[nodiscard]] const fsm::CompiledDfa& compiled() const { return compiled_; }

  /// Feeds one operation call by name (interning shim over feed_letter).
  Verdict feed(std::string_view operation);

  /// Feeds one operation call by compiled letter id -- the allocation-free
  /// hot path.  Pass compiled().letter_of(...) results; kNoLetter (an event
  /// outside the class alphabet) is a violation, like an unknown name.
  /// Letter-id feeds do not record history (there is no caller-owned string
  /// to copy); violating letters still latch.
  Verdict feed_letter(fsm::CompiledDfa::Letter letter);

  /// True iff stopping now is a valid complete usage.
  [[nodiscard]] bool completed() const;

  /// True iff some continuation can still complete the usage.
  [[nodiscard]] bool can_complete() const;

  /// True once any violation has been fed (until reset).
  [[nodiscard]] bool violated() const { return violated_; }

  /// The operations that may be called next (empty after a violation), in
  /// letter order -- byte-identical to the legacy symbol-ordered walk.
  [[nodiscard]] std::vector<std::string> allowed_next() const;

  /// The no-allocation form: appends the allowed next letters to `out`
  /// (cleared first); callers reuse `out` across events and resolve names
  /// via compiled().event_name() only when they actually report.
  void allowed_next(std::vector<fsm::CompiledDfa::Letter>& out) const;

  /// The most recent string-fed calls since the last reset (violating call
  /// included).  Bounded: once more than the history limit accumulate, the
  /// oldest entries are dropped in batches -- between limit and 2x limit
  /// entries are retained.  events_fed() always counts every call.
  [[nodiscard]] const std::vector<std::string>& history() const {
    return history_;
  }

  /// Caps retained history (default kDefaultHistoryLimit); 0 disables the
  /// bound entirely (the legacy keep-everything behavior).  Applies from
  /// the next feed; does not truncate retroactively.
  void set_history_limit(std::size_t limit) { history_limit_ = limit; }
  [[nodiscard]] std::size_t history_limit() const { return history_limit_; }

  /// Total calls fed since the last reset (string and letter-id feeds),
  /// independent of history retention.
  [[nodiscard]] std::uint64_t events_fed() const { return events_fed_; }

  void reset();

 private:
  void record(std::string_view operation);
  Verdict step(fsm::CompiledDfa::Letter letter);

  SymbolTable* table_;
  fsm::CompiledDfa compiled_;
  std::uint32_t state_;
  bool violated_ = false;
  std::uint64_t events_fed_ = 0;
  std::size_t history_limit_ = kDefaultHistoryLimit;
  std::vector<std::string> history_;
};

}  // namespace shelley::core
