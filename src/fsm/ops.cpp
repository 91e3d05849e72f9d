#include "fsm/ops.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "fsm/state_set.hpp"
#include "support/alloc.hpp"
#include "support/arena.hpp"
#include "support/guard.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace shelley::fsm {
namespace {

std::vector<Symbol> sorted_union(const std::vector<Symbol>& a,
                                 const std::vector<Symbol>& b) {
  std::vector<Symbol> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Words needed to hold one bit per state.
std::size_t word_stride(std::size_t state_count) {
  return (state_count + 63) / 64;
}

/// The kernel's per-thread scratch arena (see support/arena.hpp).  Every
/// algorithm below borrows it through an ArenaScope, so one call's scratch
/// is released with a single rewind and the chunks stay warm for the next
/// call -- steady state, the kernel performs no heap allocations beyond the
/// automata it returns.
support::Arena& kernel_arena() {
  thread_local support::Arena arena;
  return arena;
}

/// FNV-1a over a packed word row; same function StateSet::hash uses, so the
/// open-addressed subset table behaves like the old unordered_map keying.
std::uint64_t hash_words(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr StateId kNoState = 0xffffffffu;

}  // namespace

Dfa determinize(const Nfa& nfa, std::vector<Symbol> alphabet) {
  support::trace::Span span("fsm.determinize");
  const std::uint64_t allocs_before = support::alloc::allocation_count();
  std::sort(alphabet.begin(), alphabet.end());
  alphabet.erase(std::unique(alphabet.begin(), alphabet.end()),
                 alphabet.end());
  for (Symbol s : nfa.alphabet()) {
    if (!std::binary_search(alphabet.begin(), alphabet.end(), s)) {
      throw std::invalid_argument(
          "determinize: alphabet does not cover the NFA's labels");
    }
  }
  const std::size_t n = nfa.state_count();
  const std::size_t k = alphabet.size();
  const std::size_t width = word_stride(n);

  const Nfa::SymbolCsr csr = nfa.symbol_csr();
  const Nfa::ClosureTable closure = nfa.closures();
  const std::uint64_t* acc_words = nfa.accepting_words();

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();

  // Alphabet index per CSR edge, resolved once so the subset-expansion loop
  // never touches a Symbol again.
  const std::size_t edge_count = csr.offsets[n];
  std::uint32_t* edge_letter = arena.allocate_array<std::uint32_t>(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    edge_letter[e] = static_cast<std::uint32_t>(
        std::lower_bound(alphabet.begin(), alphabet.end(), csr.symbols[e]) -
        alphabet.begin());
  }

  // Hash-cons ε-closed subsets; ids are assigned in discovery order, which
  // matches the order the seed's std::map-based construction explored.  The
  // subset rows live in the arena; the open-addressed id table replaces the
  // old unordered_map (no per-node allocations).
  thread_local std::vector<const std::uint64_t*> sets;  // id -> subset row
  thread_local std::vector<StateId> rows;               // DFA table, row-major
  thread_local std::vector<char> acc;                   // per DFA state
  sets.clear();
  rows.clear();
  acc.clear();

  std::size_t slot_count = 1024;
  std::uint32_t* slots = arena.allocate_array<std::uint32_t>(slot_count);
  std::fill_n(slots, slot_count, kNoState);

  const auto get_id = [&](const std::uint64_t* row) {
    if ((sets.size() + 1) * 10 >= slot_count * 7) {
      const std::size_t grown = slot_count * 2;
      std::uint32_t* fresh = arena.allocate_array<std::uint32_t>(grown);
      std::fill_n(fresh, grown, kNoState);
      for (std::size_t id = 0; id < sets.size(); ++id) {
        std::size_t at = hash_words(sets[id], width) & (grown - 1);
        while (fresh[at] != kNoState) at = (at + 1) & (grown - 1);
        fresh[at] = static_cast<std::uint32_t>(id);
      }
      slots = fresh;
      slot_count = grown;
    }
    std::size_t at = hash_words(row, width) & (slot_count - 1);
    while (slots[at] != kNoState) {
      const StateId id = slots[at];
      if (std::equal(row, row + width, sets[id])) return id;
      at = (at + 1) & (slot_count - 1);
    }
    std::uint64_t* copy = arena.allocate_array<std::uint64_t>(width);
    std::copy(row, row + width, copy);
    const auto id = static_cast<StateId>(sets.size());
    sets.push_back(copy);
    slots[at] = id;
    return id;
  };

  // Seed with the ε-closed initial set.
  std::uint64_t* seed = arena.allocate_array<std::uint64_t>(width);
  std::fill_n(seed, width, 0);
  for (StateId s : nfa.initial_states()) {
    const std::uint64_t* row = closure.row(s);
    for (std::size_t w = 0; w < width; ++w) seed[w] |= row[w];
  }
  const StateId start = get_id(seed);

  // Per-letter successor accumulators; only letters touched by the current
  // subset are cleared afterwards, so untouched letters cost nothing.
  std::uint64_t* succ = arena.allocate_array<std::uint64_t>(k * width);
  std::fill_n(succ, k * width, 0);
  char* touched = arena.allocate_array<char>(k);
  std::fill_n(touched, k, 0);
  std::uint32_t* touched_letters = arena.allocate_array<std::uint32_t>(k);
  std::size_t touched_count = 0;

  // Every untouched letter leads to the same empty subset: intern it once,
  // lazily, so its discovery order still matches the seed construction.
  StateId empty_id = kNoState;
  std::uint64_t* zero_row = arena.allocate_array<std::uint64_t>(width);
  std::fill_n(zero_row, width, 0);

  for (StateId current = 0; current < sets.size(); ++current) {
    support::guard::check_states(sets.size(), "determinization");
    if ((current & 0x3FF) == 0) {
      support::guard::check_deadline("fsm.determinize");
    }
    const std::uint64_t* subset = sets[current];
    // Expand with one scan over the members' CSR runs, bucketing the ε-closed
    // successors per letter word-parallel.
    for (std::size_t w = 0; w < width; ++w) {
      std::uint64_t bits = subset[w];
      while (bits != 0) {
        const auto s = static_cast<StateId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        for (std::uint32_t e = csr.offsets[s]; e < csr.offsets[s + 1]; ++e) {
          const std::uint32_t letter = edge_letter[e];
          std::uint64_t* dst = succ + letter * width;
          if (touched[letter] == 0) {
            touched[letter] = 1;
            touched_letters[touched_count++] = letter;
          }
          const std::uint64_t* src = closure.row(csr.targets[e]);
          for (std::size_t v = 0; v < width; ++v) dst[v] |= src[v];
        }
      }
    }
    bool accepting = false;
    for (std::size_t w = 0; w < width && !accepting; ++w) {
      accepting = (subset[w] & acc_words[w]) != 0;
    }
    acc.push_back(accepting ? 1 : 0);
    for (std::size_t letter = 0; letter < k; ++letter) {
      StateId id;
      if (touched[letter] != 0) {
        id = get_id(succ + letter * width);
      } else if (empty_id != kNoState) {
        id = empty_id;
      } else {
        id = empty_id = get_id(zero_row);
      }
      rows.push_back(id);
    }
    for (std::size_t i = 0; i < touched_count; ++i) {
      const std::uint32_t letter = touched_letters[i];
      std::fill_n(succ + letter * width, width, 0);
      touched[letter] = 0;
    }
    touched_count = 0;
  }

  Dfa dfa = Dfa::from_table(std::move(alphabet),
                            std::vector<StateId>(rows.begin(), rows.end()),
                            std::vector<bool>(acc.begin(), acc.end()), start);
  support::metrics::record_determinize(n, dfa.state_count());
  support::metrics::record_determinize_allocs(
      support::alloc::allocation_count() - allocs_before);
  span.arg("nfa_states", static_cast<std::uint64_t>(n));
  span.arg("dfa_states", static_cast<std::uint64_t>(dfa.state_count()));
  return dfa;
}

Dfa determinize(const Nfa& nfa) { return determinize(nfa, nfa.alphabet()); }

Dfa minimize(const Dfa& dfa) { return minimize_hopcroft(dfa); }

Dfa minimize_moore(const Dfa& dfa) {
  const std::size_t n = dfa.state_count();
  const std::size_t k = dfa.alphabet().size();

  // Restrict to reachable states first (unreachable states would distort the
  // partition refinement's block count, though not its correctness).
  std::vector<bool> reachable(n, false);
  {
    std::deque<StateId> work{dfa.initial()};
    reachable[dfa.initial()] = true;
    while (!work.empty()) {
      const StateId s = work.front();
      work.pop_front();
      for (std::size_t letter = 0; letter < k; ++letter) {
        const StateId t = dfa.transition(s, letter);
        if (!reachable[t]) {
          reachable[t] = true;
          work.push_back(t);
        }
      }
    }
  }

  // Moore refinement: start from {accepting, rejecting}, split until stable.
  std::vector<int> block(n, -1);
  for (StateId s = 0; s < n; ++s) {
    if (reachable[s]) block[s] = dfa.is_accepting(s) ? 1 : 0;
  }
  std::size_t block_count = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    // Signature: (current block, blocks of successors).
    std::map<std::vector<int>, int> signature_to_block;
    std::vector<int> next_block(n, -1);
    int next_count = 0;
    for (StateId s = 0; s < n; ++s) {
      if (!reachable[s]) continue;
      std::vector<int> signature;
      signature.reserve(k + 1);
      signature.push_back(block[s]);
      for (std::size_t letter = 0; letter < k; ++letter) {
        signature.push_back(block[dfa.transition(s, letter)]);
      }
      const auto [it, inserted] =
          signature_to_block.emplace(std::move(signature), next_count);
      if (inserted) ++next_count;
      next_block[s] = it->second;
    }
    if (static_cast<std::size_t>(next_count) != block_count) changed = true;
    block = std::move(next_block);
    block_count = static_cast<std::size_t>(next_count);
  }

  Dfa out(block_count, dfa.alphabet());
  out.set_initial(static_cast<StateId>(block[dfa.initial()]));
  for (StateId s = 0; s < n; ++s) {
    if (!reachable[s]) continue;
    const auto b = static_cast<StateId>(block[s]);
    if (dfa.is_accepting(s)) out.set_accepting(b, true);
    for (std::size_t letter = 0; letter < k; ++letter) {
      out.set_transition(b, letter,
                         static_cast<StateId>(block[dfa.transition(s, letter)]));
    }
  }
  return out;
}

Dfa minimize_hopcroft(const Dfa& dfa) {
  support::trace::Span span("fsm.minimize");
  const std::uint64_t allocs_before = support::alloc::allocation_count();
  const std::size_t total = dfa.state_count();
  const std::size_t k = dfa.alphabet().size();
  const StateId* raw = dfa.transition_table().data();

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();

  // Per-target in-degree counts, kept in four stripes: a high in-degree
  // target (the rejecting sink absorbs almost every edge of a usage
  // automaton) would otherwise serialize the counting pass on one
  // store-to-load-forwarded counter.  Counted during the reachability BFS,
  // which reads every reachable row exactly once anyway; thrown away and
  // redone only if the BFS order turns out not to be the identity.
  std::uint32_t* stripe[4];
  for (auto& counts : stripe) {
    counts = arena.allocate_array<std::uint32_t>(total);
    std::fill_n(counts, total, 0);
  }

  // Restrict to reachable states, remapped densely in BFS discovery order.
  StateId* order = arena.allocate_array<StateId>(total);  // new id -> old id
  StateId* remap = arena.allocate_array<StateId>(total);
  std::size_t n = 0;
  {
    char* seen = arena.allocate_array<char>(total);
    std::fill_n(seen, total, 0);
    StateId* work = arena.allocate_array<StateId>(total);
    std::size_t head = 0;
    std::size_t tail = 0;
    work[tail++] = dfa.initial();
    seen[dfa.initial()] = 1;
    while (head < tail) {
      const StateId s = work[head++];
      remap[s] = static_cast<StateId>(n);
      order[n++] = s;
      const std::size_t base = static_cast<std::size_t>(s) * k;
      const StateId* row = raw + base;
      for (std::size_t letter = 0; letter < k; ++letter) {
        const StateId t = row[letter];
        // Stripe by flat edge id, matching the CSR fill loop's stripe
        // choice -- the cursors derived from these counts must agree with
        // the fill pass entry for entry.
        ++stripe[(base + letter) & 3][t];
        if (seen[t] == 0) {
          seen[t] = 1;
          work[tail++] = t;
        }
      }
    }
  }

  // Subset construction already numbers states in BFS discovery order, so
  // the remap is usually the identity -- alias the input table instead of
  // copying it.
  bool identity = n == total;
  for (std::size_t s = 0; identity && s < n; ++s) identity = order[s] == s;
  const StateId* trans = raw;
  if (!identity) {
    StateId* trans_store = arena.allocate_array<StateId>(n * k);
    for (std::size_t s = 0; s < n; ++s) {
      const StateId* row = raw + static_cast<std::size_t>(order[s]) * k;
      for (std::size_t letter = 0; letter < k; ++letter) {
        trans_store[s * k + letter] = remap[row[letter]];
      }
    }
    trans = trans_store;
  }
  char* acc = arena.allocate_array<char>(n);
  for (std::size_t s = 0; s < n; ++s) {
    acc[s] = dfa.is_accepting(order[s]) ? 1 : 0;
  }

  // Inverse transitions in CSR form, bucketed by target state.  An entry is
  // the flat edge id `from * k + letter` (n·k always fits: a table with 2^32
  // cells would be 16 GB), so one scan over a block's in-edges can group the
  // preimages of *all* letters at once at half the memory traffic of a
  // (from, letter) pair.
  std::uint32_t* in_off = arena.allocate_array<std::uint32_t>(n + 1);
  std::uint32_t* in_data = arena.allocate_array<std::uint32_t>(n * k);
  {
    if (!identity) {
      // The BFS counted raw state ids; redo the counts in remapped space.
      for (auto& counts : stripe) std::fill_n(counts, n, 0);
      for (std::size_t i = 0; i < n * k; ++i) ++stripe[i & 3][trans[i]];
    }
    in_off[0] = 0;
    for (std::size_t t = 0; t < n; ++t) {
      // Turn the per-stripe counts into per-stripe write cursors.
      std::uint32_t base = in_off[t];
      for (auto& counts : stripe) {
        const std::uint32_t count = counts[t];
        counts[t] = base;
        base += count;
      }
      in_off[t + 1] = base;
    }
    for (std::size_t i = 0; i < n * k; ++i) {
      in_data[stripe[i & 3][trans[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Refinable partition: states grouped contiguously in `elems`, one
  // [begin, end) range per block, marks swapped to the front of a block.
  // Block counts only grow and never exceed n, so every per-block array is
  // a flat arena slab with a running count.
  int* blk = arena.allocate_array<int>(n);
  StateId* elems = arena.allocate_array<StateId>(n);
  std::uint32_t* loc = arena.allocate_array<std::uint32_t>(n);
  std::uint32_t* begin_of = arena.allocate_array<std::uint32_t>(n + 1);
  std::uint32_t* end_of = arena.allocate_array<std::uint32_t>(n + 1);
  std::uint32_t* marks = arena.allocate_array<std::uint32_t>(n + 1);
  std::uint64_t* weight = arena.allocate_array<std::uint64_t>(n + 1);
  char* in_worklist = arena.allocate_array<char>(n + 1);
  std::size_t blocks = 0;

  std::fill_n(blk, n, 0);
  const std::size_t accepting_count = static_cast<std::size_t>(
      std::count(acc, acc + n, static_cast<char>(1)));
  if (accepting_count == 0 || accepting_count == n) {
    // A single block: already minimal with respect to acceptance.
    std::iota(elems, elems + n, 0);
    begin_of[0] = 0;
    end_of[0] = static_cast<std::uint32_t>(n);
    marks[0] = 0;
    in_worklist[0] = 0;
    blocks = 1;
  } else {
    // Block 0 = accepting, block 1 = rejecting, members in state order.
    std::uint32_t next_acc = 0;
    std::uint32_t next_rej = static_cast<std::uint32_t>(accepting_count);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t pos = acc[s] != 0 ? next_acc++ : next_rej++;
      elems[pos] = static_cast<StateId>(s);
      blk[s] = acc[s] != 0 ? 0 : 1;
    }
    begin_of[0] = 0;
    end_of[0] = static_cast<std::uint32_t>(accepting_count);
    begin_of[1] = static_cast<std::uint32_t>(accepting_count);
    end_of[1] = static_cast<std::uint32_t>(n);
    marks[0] = 0;
    marks[1] = 0;
    in_worklist[0] = 0;
    in_worklist[1] = 0;
    blocks = 2;
  }
  for (std::size_t i = 0; i < n; ++i) loc[elems[i]] = i;

  // The cost of popping a splitter is the number of transitions *into* it,
  // not its member count, so "smaller half" is measured in in-edge mass:
  // weight(B) = Σ_{s∈B} indegree(s).  Either half of a split is a valid
  // pending splitter, and a block's weight at least halves every time it is
  // re-queued, so every edge is scanned O(log E) times.  The cardinality
  // rule is pathological for usage automata: the rejecting sink is a
  // 1-state block carrying ~all of the edges, and seeding with it costs a
  // full Θ(n·k) scan before any refinement happens.
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t w = 0;
    for (std::uint32_t i = begin_of[b]; i < end_of[b]; ++i) {
      const StateId s = elems[i];
      w += in_off[s + 1] - in_off[s];
    }
    weight[b] = w;
  }

  // Block-level splitter worklist: popping a block processes *all* letters
  // at once by scanning the block's in-edges and bucketing the sources per
  // letter.  Equivalent to the per-(block, letter) formulation but with a
  // k-fold smaller queue -- decisive when the alphabet is as large as the
  // state count (usage automata have one letter per operation) and most
  // letters have an empty preimage at any given block.
  int* worklist = arena.allocate_array<int>(n + 1);
  std::size_t worklist_top = 0;
  const auto push_splitter = [&](int b) {
    if (in_worklist[b] != 0) return;
    in_worklist[b] = 1;
    worklist[worklist_top++] = b;
  };
  if (blocks == 2) {
    push_splitter(weight[0] <= weight[1] ? 0 : 1);  // the lighter half
  }

  // Per-letter preimage buckets as one flat slab: a counting pass over the
  // splitter's in-edges sizes the buckets, a fill pass populates them, and
  // only letters actually touched pay for clearing.
  std::uint32_t* letter_count = arena.allocate_array<std::uint32_t>(k);
  std::fill_n(letter_count, k, 0);
  std::uint32_t* letter_cursor = arena.allocate_array<std::uint32_t>(k);
  std::uint32_t* letter_begin = arena.allocate_array<std::uint32_t>(k);
  std::uint32_t* touched_letters = arena.allocate_array<std::uint32_t>(k);
  StateId* preimage = arena.allocate_array<StateId>(n * k);
  int* touched = arena.allocate_array<int>(n + 1);
  while (worklist_top > 0) {
    const int splitter = worklist[--worklist_top];
    in_worklist[splitter] = 0;

    // Snapshot δ⁻¹(splitter, ·) grouped by letter before any swap moves the
    // splitter's members.
    std::size_t touched_letter_count = 0;
    for (std::uint32_t i = begin_of[splitter]; i < end_of[splitter]; ++i) {
      const StateId target = elems[i];
      for (std::uint32_t j = in_off[target]; j < in_off[target + 1]; ++j) {
        const auto letter = static_cast<std::uint32_t>(in_data[j] % k);
        if (letter_count[letter]++ == 0) {
          touched_letters[touched_letter_count++] = letter;
        }
      }
    }
    std::uint32_t cursor = 0;
    for (std::size_t t = 0; t < touched_letter_count; ++t) {
      const std::uint32_t letter = touched_letters[t];
      letter_begin[t] = cursor;
      letter_cursor[letter] = cursor;
      cursor += letter_count[letter];
    }
    for (std::uint32_t i = begin_of[splitter]; i < end_of[splitter]; ++i) {
      const StateId target = elems[i];
      for (std::uint32_t j = in_off[target]; j < in_off[target + 1]; ++j) {
        const std::uint32_t edge = in_data[j];
        preimage[letter_cursor[edge % k]++] =
            static_cast<StateId>(edge / k);
      }
    }

    for (std::size_t t = 0; t < touched_letter_count; ++t) {
      const std::uint32_t letter = touched_letters[t];
      const std::uint32_t begin = letter_begin[t];
      const std::uint32_t end = begin + letter_count[letter];
      letter_count[letter] = 0;
      std::size_t touched_count = 0;
      for (std::uint32_t i = begin; i < end; ++i) {
        const StateId s = preimage[i];
        const int b = blk[s];
        if (end_of[b] - begin_of[b] == 1) continue;  // singletons never split
        if (marks[b] == 0) touched[touched_count++] = b;
        const std::uint32_t dest = begin_of[b] + marks[b];
        const std::uint32_t pos = loc[s];
        if (pos < dest) continue;  // already marked
        std::swap(elems[pos], elems[dest]);
        loc[elems[pos]] = pos;
        loc[elems[dest]] = dest;
        ++marks[b];
      }

      for (std::size_t i = 0; i < touched_count; ++i) {
        const int b = touched[i];
        const std::uint32_t m = marks[b];
        marks[b] = 0;
        const std::uint32_t size = end_of[b] - begin_of[b];
        if (m == size) continue;  // every member hit: no split
        // The marked front half becomes a fresh block; b keeps the rest.
        const int fresh = static_cast<int>(blocks);
        begin_of[fresh] = begin_of[b];
        end_of[fresh] = begin_of[b] + m;
        marks[fresh] = 0;
        in_worklist[fresh] = 0;
        ++blocks;
        begin_of[b] += m;
        std::uint64_t fresh_weight = 0;
        for (std::uint32_t j = begin_of[fresh]; j < end_of[fresh]; ++j) {
          const StateId moved = elems[j];
          blk[moved] = fresh;
          fresh_weight += in_off[moved + 1] - in_off[moved];
        }
        weight[fresh] = fresh_weight;
        weight[b] -= fresh_weight;
        // Hopcroft's rule: if b is still queued the (shrunk) b remains a
        // pending splitter and the fresh half must join it; otherwise the
        // lighter half alone suffices.
        if (in_worklist[b] != 0) {
          push_splitter(fresh);
        } else {
          push_splitter(weight[fresh] <= weight[b] ? fresh : b);
        }
      }
    }
  }

  // Renumber blocks by first appearance in (reachability-BFS) state order,
  // so the initial state's block is 0 -- mirroring Moore's numbering scheme.
  // One representative per block supplies its row; members are equivalent.
  const std::size_t block_count = blocks;
  int* out_id = arena.allocate_array<int>(block_count);
  std::fill_n(out_id, block_count, -1);
  StateId* rep = arena.allocate_array<StateId>(block_count);
  int next_id = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (out_id[blk[s]] < 0) {
      out_id[blk[s]] = next_id;
      rep[next_id] = static_cast<StateId>(s);
      ++next_id;
    }
  }
  // Per-state output id, precomposed so the row-copy loop below gathers
  // once per cell instead of twice (out_id[blk[t]]).
  StateId* new_id = arena.allocate_array<StateId>(n);
  for (std::size_t s = 0; s < n; ++s) {
    new_id[s] = static_cast<StateId>(out_id[blk[s]]);
  }
  std::vector<StateId> out_table(block_count * k);
  std::vector<bool> out_acc(block_count, false);
  for (std::size_t b = 0; b < block_count; ++b) {
    const StateId r = rep[b];
    out_acc[b] = acc[r] != 0;
    const StateId* row = trans + static_cast<std::size_t>(r) * k;
    for (std::size_t letter = 0; letter < k; ++letter) {
      out_table[b * k + letter] = new_id[row[letter]];
    }
  }
  support::metrics::record_minimize(dfa.state_count(), block_count);
  support::metrics::record_minimize_allocs(
      support::alloc::allocation_count() - allocs_before);
  span.arg("states_in", static_cast<std::uint64_t>(dfa.state_count()));
  span.arg("states_out", static_cast<std::uint64_t>(block_count));
  return Dfa::from_table(dfa.alphabet(), std::move(out_table),
                         std::move(out_acc), new_id[0]);
}

Nfa reverse(const Nfa& nfa) {
  Nfa out;
  out.add_states(nfa.state_count());
  for (const Transition& t : nfa.transitions()) {
    out.add_transition(t.to, t.symbol, t.from);
  }
  for (StateId s : nfa.accepting_states()) out.mark_initial(s);
  for (StateId s : nfa.initial_states()) out.mark_accepting(s);
  return out;
}

Dfa minimize_brzozowski(const Dfa& dfa) {
  const std::vector<Symbol> alphabet = dfa.alphabet();
  const Dfa reversed = determinize(reverse(to_nfa(dfa)), alphabet);
  return determinize(reverse(to_nfa(reversed)), alphabet);
}

Dfa extend_alphabet(const Dfa& dfa, const std::vector<Symbol>& alphabet) {
  std::vector<Symbol> sigma = alphabet;
  std::sort(sigma.begin(), sigma.end());
  sigma.erase(std::unique(sigma.begin(), sigma.end()), sigma.end());
  std::vector<Symbol> joined = sorted_union(sigma, dfa.alphabet());

  // Fresh rejecting sink for the new letters.  The whole table is built
  // flat: the per-letter source column is resolved once, then every row is
  // a straight gather from the input table.
  const std::size_t n = dfa.state_count();
  const std::size_t k = dfa.alphabet().size();
  const std::size_t j = joined.size();
  const StateId sink = static_cast<StateId>(n);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> column(j, kNone);
  for (std::size_t letter = 0; letter < j; ++letter) {
    const auto old_letter = dfa.letter_index(joined[letter]);
    if (old_letter) column[letter] = *old_letter;
  }

  const StateId* raw = dfa.transition_table().data();
  std::vector<StateId> table((n + 1) * j, sink);
  for (std::size_t s = 0; s < n; ++s) {
    const StateId* row = raw + s * k;
    StateId* out_row = table.data() + s * j;
    for (std::size_t letter = 0; letter < j; ++letter) {
      if (column[letter] != kNone) out_row[letter] = row[column[letter]];
    }
  }
  std::vector<bool> acc(n + 1, false);
  for (StateId s = 0; s < n; ++s) acc[s] = dfa.is_accepting(s);
  return Dfa::from_table(std::move(joined), std::move(table), std::move(acc),
                         dfa.initial());
}

Dfa extend_alphabet_ignore(const Dfa& dfa,
                           const std::vector<Symbol>& alphabet) {
  std::vector<Symbol> sigma = alphabet;
  std::sort(sigma.begin(), sigma.end());
  sigma.erase(std::unique(sigma.begin(), sigma.end()), sigma.end());
  std::vector<Symbol> joined = sorted_union(sigma, dfa.alphabet());

  const std::size_t n = dfa.state_count();
  const std::size_t k = dfa.alphabet().size();
  const std::size_t j = joined.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> column(j, kNone);
  for (std::size_t letter = 0; letter < j; ++letter) {
    const auto old_letter = dfa.letter_index(joined[letter]);
    if (old_letter) column[letter] = *old_letter;
  }

  const StateId* raw = dfa.transition_table().data();
  std::vector<StateId> table(n * j);
  for (std::size_t s = 0; s < n; ++s) {
    const StateId* row = raw + s * k;
    StateId* out_row = table.data() + s * j;
    for (std::size_t letter = 0; letter < j; ++letter) {
      // New letters are ignored: self-loop.
      out_row[letter] = column[letter] != kNone
                            ? row[column[letter]]
                            : static_cast<StateId>(s);
    }
  }
  std::vector<bool> acc(n, false);
  for (StateId s = 0; s < n; ++s) acc[s] = dfa.is_accepting(s);
  return Dfa::from_table(std::move(joined), std::move(table), std::move(acc),
                         dfa.initial());
}

Dfa product(const Dfa& a, const Dfa& b, ProductMode mode) {
  if (a.alphabet() != b.alphabet()) {
    throw std::invalid_argument(
        "product: alphabets differ; call extend_alphabet first");
  }
  const std::size_t k = a.alphabet().size();
  const std::size_t n = a.state_count();
  const std::size_t m = b.state_count();
  const StateId* ra = a.transition_table().data();
  const StateId* rb = b.transition_table().data();
  std::vector<StateId> table(n * m * k);
  std::vector<bool> acc(n * m, false);
  for (StateId x = 0; x < n; ++x) {
    const bool in_a = a.is_accepting(x);
    const StateId* row_a = ra + static_cast<std::size_t>(x) * k;
    for (StateId y = 0; y < m; ++y) {
      const bool in_b = b.is_accepting(y);
      bool accepting = false;
      switch (mode) {
        case ProductMode::kIntersection:
          accepting = in_a && in_b;
          break;
        case ProductMode::kUnion:
          accepting = in_a || in_b;
          break;
        case ProductMode::kDifference:
          accepting = in_a && !in_b;
          break;
      }
      const std::size_t id = static_cast<std::size_t>(x) * m + y;
      acc[id] = accepting;
      const StateId* row_b = rb + static_cast<std::size_t>(y) * k;
      StateId* out_row = table.data() + id * k;
      for (std::size_t letter = 0; letter < k; ++letter) {
        out_row[letter] = static_cast<StateId>(
            static_cast<std::size_t>(row_a[letter]) * m + row_b[letter]);
      }
    }
  }
  return Dfa::from_table(
      a.alphabet(), std::move(table), std::move(acc),
      static_cast<StateId>(static_cast<std::size_t>(a.initial()) * m +
                           b.initial()));
}

Dfa complement(const Dfa& dfa) {
  Dfa out = dfa;
  for (StateId s = 0; s < dfa.state_count(); ++s) {
    out.set_accepting(s, !dfa.is_accepting(s));
  }
  return out;
}

bool is_empty(const Dfa& dfa) {
  // Reachability with a packed visited bitmap and early exit on the first
  // accepting state.
  if (dfa.is_accepting(dfa.initial())) return false;
  const std::size_t k = dfa.alphabet().size();
  const std::size_t n = dfa.state_count();
  const StateId* raw = dfa.transition_table().data();
  const std::uint64_t* acc = dfa.accepting_words();

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();
  const std::size_t width = word_stride(n);
  std::uint64_t* visited = arena.allocate_array<std::uint64_t>(width);
  std::fill_n(visited, width, 0);
  StateId* work = arena.allocate_array<StateId>(n);
  std::size_t head = 0;
  std::size_t tail = 0;
  work[tail++] = dfa.initial();
  visited[dfa.initial() / 64] |= std::uint64_t{1} << (dfa.initial() % 64);
  while (head < tail) {
    const StateId s = work[head++];
    const StateId* row = raw + static_cast<std::size_t>(s) * k;
    for (std::size_t letter = 0; letter < k; ++letter) {
      const StateId t = row[letter];
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);
      if ((visited[t / 64] & bit) != 0) continue;
      if ((acc[t / 64] & bit) != 0) return false;
      visited[t / 64] |= bit;
      work[tail++] = t;
    }
  }
  return true;
}

std::optional<Word> shortest_word(const Dfa& dfa) {
  const std::size_t k = dfa.alphabet().size();
  const std::size_t n = dfa.state_count();
  const StateId* raw = dfa.transition_table().data();
  struct Parent {
    StateId state;
    std::uint32_t letter;
    bool has_parent;
  };

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();
  const std::size_t width = word_stride(n);
  std::uint64_t* visited = arena.allocate_array<std::uint64_t>(width);
  std::fill_n(visited, width, 0);
  Parent* parents = arena.allocate_array<Parent>(n);
  std::fill_n(parents, n, Parent{0, 0, false});
  StateId* work = arena.allocate_array<StateId>(n);
  std::size_t head = 0;
  std::size_t tail = 0;
  work[tail++] = dfa.initial();
  visited[dfa.initial() / 64] |= std::uint64_t{1} << (dfa.initial() % 64);

  std::optional<StateId> goal;
  if (dfa.is_accepting(dfa.initial())) goal = dfa.initial();
  while (!goal && head < tail) {
    const StateId s = work[head++];
    const StateId* row = raw + static_cast<std::size_t>(s) * k;
    for (std::size_t letter = 0; letter < k && !goal; ++letter) {
      const StateId t = row[letter];
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);
      if ((visited[t / 64] & bit) != 0) continue;
      visited[t / 64] |= bit;
      parents[t] = Parent{s, static_cast<std::uint32_t>(letter), true};
      if (dfa.is_accepting(t)) goal = t;
      work[tail++] = t;
    }
  }
  if (!goal) return std::nullopt;

  Word word;
  StateId s = *goal;
  while (parents[s].has_parent) {
    word.push_back(dfa.alphabet()[parents[s].letter]);
    s = parents[s].state;
  }
  std::reverse(word.begin(), word.end());
  return word;
}

LiveRows::LiveRows(const Dfa& dfa) : scope_(kernel_arena()), dfa_(dfa) {
  const std::size_t n = dfa.state_count();
  const std::size_t k = dfa.alphabet().size();
  const StateId* raw = dfa.transition_table().data();
  support::Arena& arena = scope_.arena();

  // Rejecting absorbing states are dead on sight; a non-sink row usually
  // stops the scan at its first cell.
  char* sink = arena.allocate_array<char>(n);
  for (std::size_t s = 0; s < n; ++s) {
    const StateId* row = raw + s * k;
    sink[s] = !dfa.is_accepting(static_cast<StateId>(s)) &&
              std::all_of(row, row + k, [s](StateId t) { return t == s; });
  }

  // The one pass over the table: every edge not into a sink, letters
  // ascending per row.  Sinks absorb most edges of a complete DFA, so the
  // edge arrays start small and double when full.
  std::uint32_t* offsets = arena.allocate_array<std::uint32_t>(n + 1);
  std::size_t cap = 2 * n + 16;
  std::uint32_t* letters = arena.allocate_array<std::uint32_t>(cap);
  StateId* targets = arena.allocate_array<StateId>(cap);
  std::size_t edges = 0;
  for (std::size_t s = 0; s < n; ++s) {
    offsets[s] = static_cast<std::uint32_t>(edges);
    if (sink[s] != 0) continue;
    const StateId* row = raw + s * k;
    for (std::size_t letter = 0; letter < k; ++letter) {
      if (sink[row[letter]] != 0) continue;
      if (edges == cap) {
        std::uint32_t* more_letters =
            arena.allocate_array<std::uint32_t>(cap * 2);
        StateId* more_targets = arena.allocate_array<StateId>(cap * 2);
        std::copy_n(letters, edges, more_letters);
        std::copy_n(targets, edges, more_targets);
        letters = more_letters;
        targets = more_targets;
        cap *= 2;
      }
      letters[edges] = static_cast<std::uint32_t>(letter);
      targets[edges] = row[letter];
      ++edges;
    }
  }
  offsets[n] = static_cast<std::uint32_t>(edges);

  // Liveness over the kept edges: reverse them by counting sort on the
  // target, then BFS backwards from the accepting states.
  std::uint32_t* in = arena.allocate_array<std::uint32_t>(n + 1);
  std::fill_n(in, n + 1, 0);
  for (std::size_t e = 0; e < edges; ++e) ++in[targets[e] + 1];
  for (std::size_t t = 0; t < n; ++t) in[t + 1] += in[t];
  StateId* preds = arena.allocate_array<StateId>(edges);
  StateId* work = arena.allocate_array<StateId>(n);  // fill cursors first
  std::copy_n(in, n, work);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      preds[work[targets[e]]++] = static_cast<StateId>(s);
    }
  }
  const std::size_t width = word_stride(n);
  std::uint64_t* live = arena.allocate_array<std::uint64_t>(width);
  std::copy_n(dfa.accepting_words(), width, live);
  std::size_t tail = 0;
  for (std::size_t w = 0; w < width; ++w) {
    for (std::uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      work[tail++] = static_cast<StateId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  for (std::size_t head = 0; head < tail; ++head) {
    const StateId t = work[head];
    for (std::uint32_t i = in[t]; i < in[t + 1]; ++i) {
      const StateId p = preds[i];
      const std::uint64_t bit = std::uint64_t{1} << (p % 64);
      if ((live[p / 64] & bit) == 0) {
        live[p / 64] |= bit;
        work[tail++] = p;
      }
    }
  }
  live_ = live;

  // Keep the live rows' live edges, compacted in place (order preserved).
  std::uint32_t kept = 0;
  for (std::size_t s = 0, begin = 0; s < n; ++s) {
    const std::size_t end = offsets[s + 1];
    offsets[s] = kept;
    if (is_live(static_cast<StateId>(s))) {
      for (std::size_t e = begin; e < end; ++e) {
        if (!is_live(targets[e])) continue;
        letters[kept] = letters[e];
        targets[kept] = targets[e];
        ++kept;
      }
    }
    begin = end;
  }
  offsets[n] = kept;
  offsets_ = offsets;
  letters_ = letters;
  targets_ = targets;
}

namespace {

/// What the right-hand DFA of a pair search does on a letter outside its
/// alphabet: fall into a rejecting sink (extend_alphabet) or stay where it
/// is (extend_alphabet_ignore).
enum class Missing { kSink, kStay };

/// Lazy difference-emptiness over the pairs (x, y) of `rows.dfa()` and `b`:
/// a BFS looking for a pair accepted by the left side but not by `b`, that
/// walks the left side's live rows and steps `b` through a letter map.
///
/// The witness is identical to shortest_word(product(ax, bx, kDifference))
/// over the operands extended to the joined alphabet.  A witness lies in
/// the left language, and a pair at a dead left state only reaches dead
/// pairs, so skipping those pairs keeps every live pair in the same FIFO
/// position; the live rows keep the joined alphabet's letter order.  The
/// visited set is an open-addressed key table and the FIFO doubles as the
/// parent store, both in the kernel arena.
std::optional<Word> live_pair_search(support::trace::Span& span,
                                     const LiveRows& rows, const Dfa& b,
                                     Missing missing) {
  const Dfa& a = rows.dfa();
  const std::vector<Symbol>& sigma = a.alphabet();
  const std::vector<Symbol>& sigma_b = b.alphabet();
  const std::size_t kb = sigma_b.size();
  const StateId* table_b = b.transition_table().data();
  const std::uint64_t m = b.state_count();
  // extend_alphabet numbers its fresh sink one past b's states; without a
  // sink no state can carry that id.
  const StateId sink =
      missing == Missing::kSink ? static_cast<StateId>(m) : kNoState;

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();

  // Left letter index -> b's letter index, or kNoState when b lacks it.
  std::uint32_t* to_b = arena.allocate_array<std::uint32_t>(sigma.size());
  for (std::size_t i = 0, j = 0; i < sigma.size(); ++i) {
    while (j < kb && sigma_b[j] < sigma[i]) ++j;
    to_b[i] = j < kb && sigma_b[j] == sigma[i] ? static_cast<std::uint32_t>(j)
                                               : kNoState;
  }

  constexpr std::uint32_t kRoot = 0xffffffffu;
  constexpr std::uint64_t kFree = ~std::uint64_t{0};
  struct Node {
    StateId x;
    StateId y;
    std::uint32_t parent;  // FIFO index of the pair this one was found from
    std::uint32_t letter;  // left letter index of that step
  };
  const auto mix = [](std::uint64_t x) {
    // splitmix64 finalizer: pair keys are sequential-ish, so spread them.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };

  std::size_t node_cap = 64;
  Node* nodes = arena.allocate_array<Node>(node_cap);
  std::size_t count = 0;
  std::size_t slot_cap = 128;
  std::uint64_t* slots = arena.allocate_array<std::uint64_t>(slot_cap);
  std::fill_n(slots, slot_cap, kFree);

  const auto place = [&](std::uint64_t key) -> std::uint64_t& {
    std::size_t at = mix(key) & (slot_cap - 1);
    while (slots[at] != kFree && slots[at] != key) {
      at = (at + 1) & (slot_cap - 1);
    }
    return slots[at];
  };
  // Appends (x, y) to the FIFO unless already discovered.
  const auto discover = [&](StateId x, StateId y, std::uint32_t parent,
                            std::uint32_t letter) {
    if ((count + 1) * 10 >= slot_cap * 7) {
      const std::uint64_t* old = slots;
      const std::size_t old_cap = slot_cap;
      slot_cap *= 2;
      slots = arena.allocate_array<std::uint64_t>(slot_cap);
      std::fill_n(slots, slot_cap, kFree);
      for (std::size_t i = 0; i < old_cap; ++i) {
        if (old[i] != kFree) place(old[i]) = old[i];
      }
    }
    const std::uint64_t key = static_cast<std::uint64_t>(x) * (m + 1) + y;
    std::uint64_t& slot = place(key);
    if (slot == key) return false;
    slot = key;
    if (count == node_cap) {
      Node* grown = arena.allocate_array<Node>(node_cap * 2);
      std::memcpy(grown, nodes, count * sizeof(Node));
      nodes = grown;
      node_cap *= 2;
    }
    nodes[count++] = Node{x, y, parent, letter};
    return true;
  };
  const auto is_goal = [&](StateId x, StateId y) {
    return a.is_accepting(x) && (y == sink || !b.is_accepting(y));
  };

  // An initial state that cannot reach acceptance means L(a) is empty.
  bool found = false;
  if (rows.is_live(a.initial())) {
    discover(a.initial(), b.initial(), kRoot, 0);
    found = is_goal(a.initial(), b.initial());
  }
  const std::uint32_t* offsets = rows.offsets();
  const std::uint32_t* letters = rows.letters();
  const StateId* targets = rows.targets();
  for (std::size_t head = 0; !found && head < count; ++head) {
    support::guard::check_states(count, "inclusion");
    if ((head & 0xFFF) == 0xFFF) {
      support::guard::check_deadline("fsm.inclusion");
    }
    const StateId x = nodes[head].x;
    const StateId y = nodes[head].y;
    for (std::uint32_t e = offsets[x]; e < offsets[x + 1]; ++e) {
      const std::uint32_t letter = letters[e];
      const std::uint32_t column = to_b[letter];
      StateId ty;
      if (column == kNoState) {
        ty = missing == Missing::kSink ? sink : y;
      } else {
        ty = y == sink ? sink : table_b[y * kb + column];
      }
      if (!discover(targets[e], ty, static_cast<std::uint32_t>(head),
                    letter)) {
        continue;
      }
      if (is_goal(targets[e], ty)) {
        found = true;
        break;
      }
    }
  }
  support::metrics::record_product_pairs(count);
  span.arg("included",
           found ? std::string_view("false") : std::string_view("true"));
  if (!found) return std::nullopt;

  Word word;
  for (std::size_t at = count - 1; nodes[at].parent != kRoot;
       at = nodes[at].parent) {
    word.push_back(sigma[nodes[at].letter]);
  }
  std::reverse(word.begin(), word.end());
  support::metrics::record_counterexample(word.size());
  span.arg("witness_len", static_cast<std::uint64_t>(word.size()));
  return word;
}

}  // namespace

std::optional<Word> inclusion_witness(const Dfa& a, const Dfa& b) {
  support::trace::Span span("fsm.inclusion");
  const LiveRows rows(a);
  return live_pair_search(span, rows, b, Missing::kSink);
}

std::optional<Word> projected_inclusion_witness(const LiveRows& system,
                                                const Dfa& usage) {
  support::trace::Span span("fsm.inclusion");
  return live_pair_search(span, system, usage, Missing::kStay);
}

bool included(const Dfa& a, const Dfa& b) {
  return !inclusion_witness(a, b).has_value();
}

bool equivalent(const Dfa& a, const Dfa& b) {
  support::trace::Span span("fsm.equivalence");
  const std::vector<Symbol> joined = sorted_union(a.alphabet(), b.alphabet());
  const Dfa ax = extend_alphabet(a, joined);
  const Dfa bx = extend_alphabet(b, joined);
  const std::size_t k = joined.size();
  const std::size_t offset = ax.state_count();

  // Hopcroft–Karp: merge the initial pair, then propagate successor merges;
  // the languages differ iff some merged pair disagrees on acceptance.
  std::vector<std::uint32_t> parent(offset + bx.state_count());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::uint32_t s) {
    while (parent[s] != s) {
      parent[s] = parent[parent[s]];  // path halving
      s = parent[s];
    }
    return s;
  };
  const auto unite = [&](std::uint32_t p, std::uint32_t q) {
    p = find(p);
    q = find(q);
    if (p == q) return false;
    parent[p] = q;
    return true;
  };

  std::vector<std::pair<StateId, StateId>> stack;
  std::uint64_t pairs = 1;
  unite(ax.initial(), static_cast<std::uint32_t>(offset) + bx.initial());
  stack.emplace_back(ax.initial(), bx.initial());
  while (!stack.empty()) {
    const auto [x, y] = stack.back();
    stack.pop_back();
    if (ax.is_accepting(x) != bx.is_accepting(y)) {
      support::metrics::record_product_pairs(pairs);
      span.arg("pairs", pairs);
      return false;
    }
    for (std::size_t letter = 0; letter < k; ++letter) {
      const StateId tx = ax.transition(x, letter);
      const StateId ty = bx.transition(y, letter);
      if (unite(tx, static_cast<std::uint32_t>(offset) + ty)) {
        ++pairs;
        stack.emplace_back(tx, ty);
      }
    }
  }
  support::metrics::record_product_pairs(pairs);
  span.arg("pairs", pairs);
  return true;
}

Nfa map_labels(const Nfa& nfa, const std::function<Symbol(Symbol)>& map) {
  Nfa out;
  out.add_states(nfa.state_count());
  for (const Transition& t : nfa.transitions()) {
    if (t.is_epsilon()) {
      out.add_epsilon(t.from, t.to);
    } else {
      const Symbol mapped = map(t.symbol);
      if (mapped.valid()) {
        out.add_transition(t.from, mapped, t.to);
      } else {
        out.add_epsilon(t.from, t.to);
      }
    }
  }
  for (StateId s : nfa.initial_states()) out.mark_initial(s);
  for (StateId s : nfa.accepting_states()) out.mark_accepting(s);
  return out;
}

Nfa to_nfa(const Dfa& dfa) {
  Nfa out;
  out.add_states(dfa.state_count());
  for (StateId s = 0; s < dfa.state_count(); ++s) {
    for (std::size_t letter = 0; letter < dfa.alphabet().size(); ++letter) {
      out.add_transition(s, dfa.alphabet()[letter],
                         dfa.transition(s, letter));
    }
    if (dfa.is_accepting(s)) out.mark_accepting(s);
  }
  out.mark_initial(dfa.initial());
  return out;
}

std::vector<bool> live_states(const Dfa& dfa) {
  const LiveRows rows(dfa);
  std::vector<bool> live(dfa.state_count());
  for (StateId s = 0; s < dfa.state_count(); ++s) live[s] = rows.is_live(s);
  return live;
}

std::size_t reachable_count(const Dfa& dfa) {
  const std::size_t k = dfa.alphabet().size();
  const std::size_t n = dfa.state_count();
  const StateId* raw = dfa.transition_table().data();

  support::ArenaScope scope(kernel_arena());
  support::Arena& arena = scope.arena();
  const std::size_t width = word_stride(n);
  std::uint64_t* visited = arena.allocate_array<std::uint64_t>(width);
  std::fill_n(visited, width, 0);
  StateId* work = arena.allocate_array<StateId>(n);
  std::size_t head = 0;
  std::size_t tail = 0;
  work[tail++] = dfa.initial();
  visited[dfa.initial() / 64] |= std::uint64_t{1} << (dfa.initial() % 64);
  while (head < tail) {
    const StateId s = work[head++];
    const StateId* row = raw + static_cast<std::size_t>(s) * k;
    for (std::size_t letter = 0; letter < k; ++letter) {
      const StateId t = row[letter];
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);
      if ((visited[t / 64] & bit) == 0) {
        visited[t / 64] |= bit;
        work[tail++] = t;
      }
    }
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < width; ++w) {
    count += static_cast<std::size_t>(std::popcount(visited[w]));
  }
  return count;
}

}  // namespace shelley::fsm
