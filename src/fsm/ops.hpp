// Automata algorithms: subset construction (bitset-based, hash-consed),
// minimization (Hopcroft by default; Moore and Brzozowski as differential
// oracles), boolean products, complement, emptiness, shortest witnesses,
// lazy on-the-fly language inclusion over live successor rows (plain and
// projected), union-find equivalence, alphabet extension, and label
// homomorphisms (projection).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "fsm/dfa.hpp"
#include "fsm/nfa.hpp"
#include "support/arena.hpp"

namespace shelley::fsm {

/// Subset construction.  The result is complete over `alphabet` (a sink is
/// added when needed).  `alphabet` must cover at least the NFA's own
/// alphabet; extra letters simply lead to the sink.
[[nodiscard]] Dfa determinize(const Nfa& nfa, std::vector<Symbol> alphabet);

/// Determinizes over the NFA's own alphabet.
[[nodiscard]] Dfa determinize(const Nfa& nfa);

/// Minimization (keeps the alphabet).  Dispatches to minimize_hopcroft.
[[nodiscard]] Dfa minimize(const Dfa& dfa);

/// Hopcroft's O(n·k·log n) partition refinement with the "smaller half"
/// splitter queue.  The default minimizer.
[[nodiscard]] Dfa minimize_hopcroft(const Dfa& dfa);

/// Moore's O(n²·k) partition refinement.  Kept as an independently
/// implemented oracle for differential testing (tests/props) and as the
/// ablation baseline in bench_scaling.
[[nodiscard]] Dfa minimize_moore(const Dfa& dfa);

/// Brzozowski's minimization: reverse -> determinize -> reverse ->
/// determinize.  Same result as `minimize` up to isomorphism; kept as an
/// independently implemented oracle (the ablation bench compares the two).
[[nodiscard]] Dfa minimize_brzozowski(const Dfa& dfa);

/// Reverses an NFA: every edge flips, initial and accepting states swap.
[[nodiscard]] Nfa reverse(const Nfa& nfa);

/// Rebuilds `dfa` over a larger alphabet; letters not previously in the
/// alphabet go to a (possibly fresh) rejecting sink.
[[nodiscard]] Dfa extend_alphabet(const Dfa& dfa,
                                  const std::vector<Symbol>& alphabet);

/// Rebuilds `dfa` over a larger alphabet where the new letters are *ignored*
/// (self-loops on every state).  The result accepts exactly the words whose
/// projection onto the original alphabet is accepted by `dfa` -- the monitor
/// construction used for subsystem-usage checking.
[[nodiscard]] Dfa extend_alphabet_ignore(const Dfa& dfa,
                                         const std::vector<Symbol>& alphabet);

enum class ProductMode { kIntersection, kUnion, kDifference };

/// Synchronous product.  Both inputs must share the same alphabet (use
/// extend_alphabet first).
[[nodiscard]] Dfa product(const Dfa& a, const Dfa& b, ProductMode mode);

/// Complement (flips acceptance; input must be complete, which Dfa is by
/// construction).
[[nodiscard]] Dfa complement(const Dfa& dfa);

/// True iff the DFA accepts no word.
[[nodiscard]] bool is_empty(const Dfa& dfa);

/// A shortest accepted word (BFS), or nullopt when the language is empty.
[[nodiscard]] std::optional<Word> shortest_word(const Dfa& dfa);

/// Live successor rows of a DFA (docs/KERNEL.md): for every state, its
/// transitions into states that can still reach acceptance, as one CSR run
/// per state with letters ascending.  Transitions into dead states -- above
/// all the rejecting sink of a complete DFA -- are dropped, and dead states
/// get empty runs, so a search walking the rows expands only the letters on
/// which the DFA stays live.  Built with one pass over the transition table
/// (edges into rejecting absorbing states are dropped on sight); liveness
/// and compaction then run over the kept edges only.
///
/// The rows are stored in the calling thread's kernel arena and hold it
/// until destruction: build, use and destroy them on one thread, in plain
/// block scope (kernel calls made while they live nest inside them).  `dfa`
/// must outlive the rows.
class LiveRows {
 public:
  explicit LiveRows(const Dfa& dfa);

  LiveRows(const LiveRows&) = delete;
  LiveRows& operator=(const LiveRows&) = delete;

  [[nodiscard]] const Dfa& dfa() const { return dfa_; }

  /// True iff an accepting state is reachable from `state`.
  [[nodiscard]] bool is_live(StateId state) const {
    return (live_[state / 64] >> (state % 64)) & 1;
  }

  /// State s's run is letters[offsets[s]..offsets[s+1]) / targets[...]:
  /// indices into `dfa().alphabet()`, strictly ascending, each with a live
  /// target.
  [[nodiscard]] const std::uint32_t* offsets() const { return offsets_; }
  [[nodiscard]] const std::uint32_t* letters() const { return letters_; }
  [[nodiscard]] const StateId* targets() const { return targets_; }

 private:
  support::ArenaScope scope_;  // first member: rewinds even if the build throws
  const Dfa& dfa_;
  const std::uint64_t* live_ = nullptr;
  const std::uint32_t* offsets_ = nullptr;  // state_count + 1 entries
  const std::uint32_t* letters_ = nullptr;
  const StateId* targets_ = nullptr;
};

/// A shortest word in L(a) \ L(b), i.e. a witness that L(a) ⊄ L(b);
/// nullopt when L(a) ⊆ L(b).  Alphabets are joined implicitly: a letter
/// that `b` lacks sends `b` to a rejecting sink, and a letter that `a`
/// lacks kills `a`, so neither operand is copied onto the joined alphabet.
/// A lazy on-the-fly BFS over reachable pair states whose `a` side is
/// still live (early exit on the first witness), walking `a`'s live rows
/// instead of materializing the n·m product; the witness is identical to
/// what `shortest_word(product(...))` over the extended operands would
/// return.  Probes the state budget once per expanded pair.
[[nodiscard]] std::optional<Word> inclusion_witness(const Dfa& a,
                                                    const Dfa& b);

/// The same search with the projection semantics of
/// `extend_alphabet_ignore`: a system letter that `usage` lacks leaves
/// `usage` where it is, and letters only `usage` has are never read.  The
/// result is exactly
/// `inclusion_witness(system.dfa(),
///                    extend_alphabet_ignore(usage, system.dfa().alphabet()))`
/// -- a shortest system word whose projection onto `usage`'s alphabet
/// `usage` rejects -- without building the extended monitor.  Build the
/// system's rows once and check every subsystem usage against them.
[[nodiscard]] std::optional<Word> projected_inclusion_witness(
    const LiveRows& system, const Dfa& usage);

/// True iff L(a) ⊆ L(b).
[[nodiscard]] bool included(const Dfa& a, const Dfa& b);

/// True iff L(a) = L(b).  Hopcroft–Karp union-find bisimulation check:
/// near-linear in the number of reachable pair states, with no product
/// automaton and no witness bookkeeping (use inclusion_witness when a
/// counterexample is needed).
[[nodiscard]] bool equivalent(const Dfa& a, const Dfa& b);

/// Rewrites transition labels.  The map returns: the replacement symbol, or
/// an invalid Symbol to turn the edge into ε (projection/erasure).
[[nodiscard]] Nfa map_labels(const Nfa& nfa,
                             const std::function<Symbol(Symbol)>& map);

/// Converts a DFA back into an NFA (for composition).
[[nodiscard]] Nfa to_nfa(const Dfa& dfa);

/// Number of states reachable from the initial state (diagnostic metric).
[[nodiscard]] std::size_t reachable_count(const Dfa& dfa);

/// live[s] is true iff an accepting state is reachable from s.  A word that
/// drives the DFA into a dead state can never be extended to an accepted
/// one -- used to pinpoint the offending step in a counterexample.
[[nodiscard]] std::vector<bool> live_states(const Dfa& dfa);

}  // namespace shelley::fsm
