#include "corpus.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace perfbench {

std::string op_name(std::size_t index) { return "op" + std::to_string(index); }

namespace {

bool contains(const std::vector<std::size_t>& values, std::size_t value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

std::string quoted_list(const std::vector<std::size_t>& ops) {
  std::string out = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + op_name(ops[i]) + "\"";
  }
  return out + "]";
}

std::string decorator(const OpDecl& op) {
  if (op.initial && op.final) return "@op_initial_final";
  if (op.initial) return "@op_initial";
  if (op.final) return "@op_final";
  return "@op";
}

std::string indent(std::size_t columns) { return std::string(columns, ' '); }

/// The return branches of one operation: `return` for one exit, an
/// if/elif/else chain for several, with `inside(e)` emitted before the
/// return of exit e.
template <typename Inside>
void render_returns(std::string& out, const OpDecl& op, std::size_t at,
                    const Inside& inside) {
  if (op.exits.size() == 1) {
    inside(0, at);
    out += indent(at) + "return " + quoted_list(op.exits[0]) + "\n";
    return;
  }
  for (std::size_t e = 0; e < op.exits.size(); ++e) {
    if (e == 0) {
      out += indent(at) + "if x:\n";
    } else if (e + 1 < op.exits.size()) {
      out += indent(at) + "elif y" + std::to_string(e) + ":\n";
    } else {
      out += indent(at) + "else:\n";
    }
    inside(e, at + 4);
    out += indent(at + 4) + "return " + quoted_list(op.exits[e]) + "\n";
  }
}

/// An end operation returns exactly ["op0"]: calling it closes a walk.
bool is_end(const OpDecl& op) {
  return op.final && op.exits.size() == 1 && op.exits[0].size() == 1 &&
         op.exits[0][0] == 0;
}

/// Emits one walk over `protocol` from `start`: a plain call for a
/// single-exit operation, a `match` with one case per exit otherwise, and
/// each exit's first successor next, until an end operation.
void emit_walk(std::string& out, const std::string& field,
               const Protocol& protocol, std::size_t start, std::size_t at) {
  std::size_t op = start;
  for (;;) {
    const OpDecl& decl = protocol.ops[op];
    const std::string call = "self." + field + "." + op_name(op) + "()";
    if (decl.exits.size() == 1) {
      out += indent(at) + call + "\n";
      if (is_end(decl)) return;
      op = decl.exits[0].front();
      continue;
    }
    out += indent(at) + "match " + call + ":\n";
    for (const auto& successors : decl.exits) {
      out += indent(at + 4) + "case " + quoted_list(successors) + ":\n";
      emit_walk(out, field, protocol, successors.front(), at + 8);
    }
    return;
  }
}

}  // namespace

Walker::Walker(const Protocol& protocol) {
  const std::size_t n = protocol.ops.size();
  next_.resize(n);
  final_.resize(n);
  reachable_.assign(n, false);
  live_.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const OpDecl& op = protocol.ops[i];
    final_[i] = op.final;
    if (op.initial) initial_.push_back(i);
    std::set<std::size_t> union_of_exits;
    for (const auto& exit : op.exits) {
      union_of_exits.insert(exit.begin(), exit.end());
    }
    next_[i].assign(union_of_exits.begin(), union_of_exits.end());
  }
  std::vector<std::size_t> work = initial_;
  for (std::size_t op : work) reachable_[op] = true;
  while (!work.empty()) {
    const std::size_t op = work.back();
    work.pop_back();
    for (std::size_t s : next_[op]) {
      if (!reachable_[s]) {
        reachable_[s] = true;
        work.push_back(s);
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (live_[i]) continue;
      bool live = final_[i];
      for (std::size_t s : next_[i]) live = live || live_[s];
      if (live) {
        live_[i] = true;
        changed = true;
      }
    }
  }
}

bool Walker::allows(std::size_t last, std::size_t op) const {
  return contains(next(last), op) && live_[op];
}

const std::vector<std::size_t>& Walker::next(std::size_t last) const {
  return last == kFresh ? initial_ : next_[last];
}

void Expected::add_failure(const std::string& owner) {
  findings.push_back(owner);
}

void Expected::add_subsystem(const std::string& owner,
                             const std::string& field,
                             const std::string& cls) {
  add_failure(owner);
  findings.push_back(owner + "/" + field + ":" + cls);
}

void Expected::add_claim(const std::string& owner,
                         const std::string& formula) {
  add_failure(owner);
  findings.push_back(owner + "/claim:" + formula);
}

void Expected::normalize() {
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
}

Protocol cyclic_protocol(Rng& rng, std::string name, std::size_t ops,
                         std::size_t max_exits) {
  Protocol protocol;
  protocol.class_name = std::move(name);
  protocol.ops.resize(std::max<std::size_t>(ops, 2));
  const std::size_t n = protocol.ops.size();
  const std::size_t ends = std::max<std::size_t>(1, n / 3);
  const std::size_t first_end = n - ends;
  // Layers: op0, then middle operations alternating between two layers,
  // then ends.  Successors always lie in a later layer, so every walk
  // terminates.  Layers and exit counts depend only on the operation
  // count, so one size always gives one shape; the seed picks successors.
  std::vector<int> layer(n, 3);
  layer[0] = 0;
  for (std::size_t i = 1; i < first_end; ++i) layer[i] = i % 2 == 1 ? 1 : 2;
  protocol.ops[0].initial = true;
  for (std::size_t i = first_end; i < n; ++i) {
    protocol.ops[i].final = true;
    protocol.ops[i].exits = {{0}};
  }
  const auto later = [&](std::size_t i) {
    std::vector<std::size_t> out;
    for (std::size_t j = 1; j < n; ++j) {
      if (layer[j] > layer[i] && (layer[i] != 0 || layer[j] != 2)) {
        out.push_back(j);
      }
    }
    return out;
  };
  const auto same_set = [](std::vector<std::size_t> a,
                           std::vector<std::size_t> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  };
  for (std::size_t i = 0; i < first_end; ++i) {
    const std::vector<std::size_t> candidates = later(i);
    std::vector<std::size_t> near;
    std::vector<std::size_t> ends;
    for (std::size_t c : candidates) (layer[c] == 3 ? ends : near).push_back(c);
    auto& exits = protocol.ops[i].exits;
    const std::size_t want = 1 + (i + n) % max_exits;
    for (std::size_t attempt = 0; exits.size() < want && attempt < 16;
         ++attempt) {
      // Walks follow each exit's first successor; whether that one ends
      // the walk is fixed by position, so walk lengths are too.
      const auto& pool =
          !near.empty() && (i + exits.size()) % 2 == 0 ? near : ends;
      std::vector<std::size_t> successors = {pool[rng.below(pool.size())]};
      if (candidates.size() > 1 && rng.chance(0.3)) {
        const std::size_t extra = candidates[rng.below(candidates.size())];
        if (extra != successors[0]) successors.push_back(extra);
      }
      bool duplicate = false;
      for (const auto& exit : exits) duplicate |= same_set(exit, successors);
      if (!duplicate) exits.push_back(std::move(successors));
    }
  }
  // Every operation must be reachable: hang each unreached one on some
  // exit of an earlier layer, never making two exits of one operation
  // name the same successor set.
  for (std::size_t j = 1; j < n; ++j) {
    const Walker walker(protocol);
    if (walker.occurs(j)) continue;
    std::vector<std::pair<std::size_t, std::size_t>> slots;
    for (std::size_t i = 0; i < first_end; ++i) {
      if (!contains(later(i), j)) continue;
      for (std::size_t e = 0; e < protocol.ops[i].exits.size(); ++e) {
        slots.emplace_back(i, e);
      }
    }
    rng.shuffle(slots);
    for (const auto& [i, e] : slots) {
      auto& exits = protocol.ops[i].exits;
      std::vector<std::size_t> grown = exits[e];
      grown.push_back(j);
      bool duplicate = false;
      for (std::size_t other = 0; other < exits.size(); ++other) {
        duplicate |= other != e && same_set(exits[other], grown);
      }
      if (duplicate) continue;
      exits[e] = std::move(grown);
      break;
    }
  }
  return protocol;
}

std::string render_device(const Protocol& protocol, std::size_t variant) {
  std::string out = "@sys\nclass " + protocol.class_name + ":\n";
  for (std::size_t i = 0; i < protocol.ops.size(); ++i) {
    const OpDecl& op = protocol.ops[i];
    out += "    " + decorator(op) + "\n";
    out += "    def " + op_name(i) + "(self):\n";
    if (i == 0) out += "        self.edits = " + std::to_string(variant) + "\n";
    render_returns(out, op, 8, [](std::size_t, std::size_t) {});
  }
  return out;
}

std::string Composite::render() const {
  std::string out;
  for (const std::string& claim : claims) {
    out += "@claim(\"" + claim + "\")\n";
  }
  out += "@sys([";
  for (std::size_t f = 0; f < fields.size(); ++f) {
    if (f != 0) out += ", ";
    out += "\"" + fields[f].first + "\"";
  }
  out += "])\nclass " + protocol.class_name + ":\n";
  out += "    def __init__(self):\n";
  for (const auto& [field, bound] : fields) {
    out += "        self." + field + " = " + bound->class_name + "()\n";
  }
  std::size_t loops = 0;
  const auto steps = [&](const std::vector<Step>& plan, std::size_t at) {
    for (const Step& step : plan) {
      const auto& [field, bound] = fields[step.field];
      if (step.loop) {
        out += indent(at) + (loops++ % 2 == 0 ? "while self.busy:\n"
                                              : "for i in range(2):\n");
        emit_walk(out, field, *bound, step.start, at + 4);
      } else {
        emit_walk(out, field, *bound, step.start, at);
      }
    }
  };
  for (std::size_t i = 0; i < protocol.ops.size(); ++i) {
    const OpDecl& op = protocol.ops[i];
    out += "\n    " + decorator(op) + "\n";
    out += "    def " + op_name(i) + "(self):\n";
    if (i == 0) out += "        self.edits = " + std::to_string(variant) + "\n";
    steps(prefix[i], 8);
    if (bug_enabled && bug && bug_op == i) steps({*bug}, 8);
    render_returns(out, op, 8, [&](std::size_t e, std::size_t at) {
      steps(branches[i][e], at);
    });
  }
  return out;
}

void Composite::expect(Expected& expected) const {
  const std::string& owner = protocol.class_name;
  if (bug_enabled && bug) {
    const auto& [field, bound] = fields[bug->field];
    expected.add_subsystem(owner, field, bound->class_name);
  }
  for (std::size_t c = 0; c < claims.size(); ++c) {
    if (!claim_holds[c]) expected.add_claim(owner, claims[c]);
  }
}

Composite make_composite(
    Rng& rng, std::string name,
    std::vector<std::pair<std::string, const Protocol*>> fields,
    std::size_t ops, bool loops, const std::vector<bool>& claims) {
  Composite c;
  c.protocol = cyclic_protocol(rng, std::move(name), ops, 2);
  c.fields = std::move(fields);
  const std::size_t n = c.protocol.ops.size();
  c.prefix.resize(n);
  c.branches.resize(n);
  // The plan's shape depends only on the sizes: operation i walks 1 + i % 2
  // fields before its returns, every other return branch walks one more,
  // and fields take turns from a seeded start.
  std::size_t turn = rng.below(c.fields.size());
  std::size_t steps = 0;
  const auto step = [&](bool may_loop) {
    const std::size_t field = turn++ % c.fields.size();
    const bool loop = may_loop && loops && steps++ % 3 == 1;
    return Step{field, 0, loop};
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 1 + i % 2; ++k) {
      // The first step of op0 is unconditional: the claims rely on it.
      c.prefix[i].push_back(step(i != 0 || k != 0));
    }
    c.branches[i].resize(c.protocol.ops[i].exits.size());
    for (std::size_t e = 0; e < c.branches[i].size(); ++e) {
      if ((i + e) % 2 == 1) c.branches[i][e].push_back(step(true));
    }
  }
  // Fields the turns did not reach get a walk of their own.
  for (std::size_t f = 0; f < c.fields.size(); ++f) {
    bool used = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Step& s : c.prefix[i]) used |= s.field == f;
      for (const auto& branch : c.branches[i]) {
        for (const Step& s : branch) used |= s.field == f;
      }
    }
    if (!used) c.prefix[f % n].push_back(Step{f, 0, false});
  }
  // Every non-empty projected trace starts with the first event of op0's
  // first walk, `first.op0`: a weak-until on it holds, and one that forbids
  // it from the start fails at position 0.
  const std::string first = c.fields[c.prefix[0][0].field].first + ".op0";
  for (bool holds : claims) {
    std::string other;
    do {
      const auto& [field, bound] = c.fields[rng.below(c.fields.size())];
      other = field + "." + op_name(rng.below(bound->ops.size()));
    } while (other == first);
    c.claims.push_back(holds ? "(!" + other + ") W " + first
                             : "(!" + first + ") W " + other);
    c.claim_holds.push_back(holds);
  }
  return c;
}

void plant_bug(Rng& rng, Composite& composite, bool enabled) {
  const std::size_t field = rng.below(composite.fields.size());
  const Protocol& bound = *composite.fields[field].second;
  composite.bug = Step{field, rng.range(1, bound.ops.size() - 1), false};
  composite.bug_op = rng.below(composite.protocol.ops.size());
  composite.bug_enabled = enabled;
}

// ---------------------------------------------------------------------------
// verify_corpus

CorpusStream::CorpusStream(std::uint64_t seed) : rng_(seed) {}

void CorpusStream::refill() {
  // One pass: 36 ring base classes on a fixed (ops, exits) grid spanning
  // 20..200 ops and 1..8 exits, two thirds of them with a claim, then 8
  // small composites and 4 nested ones.  The composites are the cheapest
  // quarter, so p50 and p90 both fall among the rings, never on the
  // boundary between kinds.  Six of the 48 carry a bug (a ring with a
  // claim, or a composite).  The order is the grid's, the same every pass:
  // a shuffled order changed the heap's fragmentation, and with it
  // peak_rss_mb, by up to 13% between seeds.  The seed draws the contents
  // and the bug positions.
  slots_.clear();
  for (std::size_t i = 0; i < 36; ++i) {
    slots_.push_back(
        {0, 20 + (180 * i + 17) / 35, 1 + (i * 3) % 8, i % 3 != 2, false});
  }
  for (std::size_t i = 0; i < 8; ++i) {
    slots_.push_back({1, 2 + i % 3, 2 + (i / 3) % 3, false, false});
  }
  for (std::size_t i = 0; i < 4; ++i) {
    slots_.push_back({2, 2, 2 + i % 2, true, false});
  }
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].kind != 0 || slots_[i].claim) eligible.push_back(i);
  }
  rng_.shuffle(eligible);
  for (std::size_t k = 0; k < 6; ++k) slots_[eligible[k]].bug = true;
  cursor_ = 0;
}

Program CorpusStream::next() {
  if (cursor_ == slots_.size()) refill();
  const Slot slot = slots_[cursor_++];
  ++serial_;
  switch (slot.kind) {
    case 0:
      return ring(slot);
    case 1:
      return composite(slot);
    default:
      return nested(slot);
  }
}

Program CorpusStream::ring(const Slot& slot) {
  // A ring-style base class: exit e of op i returns op(i+1+e), sometimes
  // plus one more seeded target; op0 is initial and final, about a quarter
  // of the others are not final.  A slot with a claim gets one of the form
  // G (a -> X (s1 | s2 ...)); a buggy one drops or swaps a successor.
  Protocol p;
  p.class_name = "Ring" + std::to_string(serial_);
  const std::size_t n = slot.size;
  p.ops.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    OpDecl& op = p.ops[i];
    op.initial = i == 0;
    op.final = i == 0 || !rng_.chance(0.25);
    for (std::size_t e = 0; e < std::min(slot.exits, n); ++e) {
      std::vector<std::size_t> successors = {(i + 1 + e) % n};
      if (rng_.chance(0.25)) {
        const std::size_t extra = rng_.below(n);
        if (!contains(successors, extra)) successors.push_back(extra);
      }
      op.exits.push_back(std::move(successors));
    }
  }
  const Walker walker(p);
  std::vector<std::string> claims;
  Expected expected;
  if (slot.claim) {
    std::size_t a = 1 + rng_.below(n - 1);
    for (std::size_t tries = 0; p.ops[a].final && tries < n; ++tries) {
      a = 1 + (a % (n - 1));
    }
    std::vector<std::size_t> allowed = walker.next(a);
    if (slot.bug) {
      if (allowed.size() > 1) {
        allowed.erase(allowed.begin() + rng_.below(allowed.size()));
      } else {
        allowed = {(allowed[0] + 1 + rng_.below(n - 1)) % n};
      }
    }
    std::string formula = "G (" + op_name(a) + " -> X (";
    for (std::size_t k = 0; k < allowed.size(); ++k) {
      if (k != 0) formula += " | ";
      formula += op_name(allowed[k]);
    }
    formula += "))";
    // Violated iff some complete usage calls a and then either stops or
    // calls a live successor outside the claimed set.
    bool violated = false;
    if (walker.occurs(a)) {
      violated = walker.final(a);
      for (std::size_t m : walker.next(a)) {
        violated |= walker.live(m) && !contains(allowed, m);
      }
    }
    if (violated) expected.add_claim(p.class_name, formula);
    claims.push_back(std::move(formula));
  }
  Program program;
  program.path = "corpus/ring" + std::to_string(serial_) + ".py";
  for (const std::string& claim : claims) {
    program.text += "@claim(\"" + claim + "\")\n";
  }
  program.text += render_device(p);
  expected.normalize();
  program.expected = std::move(expected);
  program.classes = 1;
  return program;
}

Program CorpusStream::composite(const Slot& slot) {
  // 2-3 small devices, one composite with `slot.size` fields driving them
  // through match/case on their multi-exit calls.
  const std::string tag = std::to_string(serial_);
  std::vector<Protocol> devices;
  const std::size_t device_count = rng_.range(2, 3);
  devices.reserve(device_count);
  for (std::size_t d = 0; d < device_count; ++d) {
    devices.push_back(cyclic_protocol(
        rng_, "Dev" + tag + "x" + std::to_string(d), rng_.range(3, 6), 3));
  }
  std::vector<std::pair<std::string, const Protocol*>> fields;
  for (std::size_t f = 0; f < slot.size; ++f) {
    const std::size_t d = f < device_count ? f : rng_.below(device_count);
    fields.emplace_back("f" + std::to_string(f), &devices[d]);
  }
  Composite c = make_composite(rng_, "Ctl" + tag, std::move(fields),
                               slot.exits, false, {});
  if (slot.bug) plant_bug(rng_, c, true);
  Program program;
  program.path = "corpus/ctl" + tag + ".py";
  for (const Protocol& device : devices) {
    program.text += render_device(device) + "\n";
  }
  program.text += c.render();
  c.expect(program.expected);
  program.expected.normalize();
  program.classes = devices.size() + 1;
  return program;
}

Program CorpusStream::nested(const Slot& slot) {
  // Composite of composites: 2-3 devices, two cells over them, and a
  // plant over both cells plus one device, with loops and claims.  A bug
  // is a broken walk in a cell or the plant, or a violated plant claim.
  const std::string tag = std::to_string(serial_);
  std::vector<Protocol> devices;
  const std::size_t device_count = rng_.range(2, 3);
  devices.reserve(device_count);
  for (std::size_t d = 0; d < device_count; ++d) {
    devices.push_back(cyclic_protocol(
        rng_, "Dev" + tag + "x" + std::to_string(d), rng_.range(3, 5), 3));
  }
  std::vector<Composite> cells;
  cells.reserve(2);
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<std::pair<std::string, const Protocol*>> fields;
    for (std::size_t f = 0; f < 2; ++f) {
      fields.emplace_back("f" + std::to_string(f),
                          &devices[rng_.below(device_count)]);
    }
    cells.push_back(make_composite(rng_, "Cell" + tag + "x" + std::to_string(k),
                                   std::move(fields), slot.exits, true, {}));
  }
  const int bug_kind = slot.bug ? static_cast<int>(rng_.range(1, 3)) : 0;
  std::vector<std::pair<std::string, const Protocol*>> fields = {
      {"c0", &cells[0].protocol},
      {"c1", &cells[1].protocol},
      {"d0", &devices[0]}};
  Composite plant =
      make_composite(rng_, "Plant" + tag, std::move(fields), 3, true,
                     {true, bug_kind != 3});
  if (bug_kind == 1) plant_bug(rng_, cells[rng_.below(2)], true);
  if (bug_kind == 2) plant_bug(rng_, plant, true);
  Program program;
  program.path = "corpus/plant" + tag + ".py";
  for (const Protocol& device : devices) {
    program.text += render_device(device) + "\n";
  }
  for (const Composite& cell : cells) {
    program.text += cell.render() + "\n";
    cell.expect(program.expected);
  }
  program.text += plant.render();
  plant.expect(program.expected);
  program.expected.normalize();
  program.classes = devices.size() + 3;
  return program;
}

// ---------------------------------------------------------------------------
// composite_farm

namespace {

const char* const kValveSource = R"(@sys
class Valve:
    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        self.clean.on()
        return ["test"]
)";

}  // namespace

FarmStream::FarmStream(std::uint64_t seed) : rng_(seed) {}

void FarmStream::refill() {
  // One pass: every N in 16..32 twice, four of the 34 with a bug.
  slots_.clear();
  for (std::size_t n = 16; n <= 32; ++n) {
    slots_.emplace_back(n, false);
    slots_.emplace_back(n, false);
  }
  rng_.shuffle(slots_);
  for (std::size_t k = 0; k < 4; ++k) slots_[k].second = true;
  rng_.shuffle(slots_);
  cursor_ = 0;
}

Program FarmStream::next() {
  if (cursor_ == slots_.size()) refill();
  const auto [n, bug] = slots_[cursor_++];
  ++serial_;
  const std::string name = "Farm" + std::to_string(serial_);
  const std::size_t broken = bug ? rng_.below(n) : n;
  std::string out = kValveSource;
  out += "\n@sys([";
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ", ";
    out += "\"v" + std::to_string(i) + "\"";
  }
  out += "])\nclass " + name + ":\n    def __init__(self):\n";
  for (std::size_t i = 0; i < n; ++i) {
    out += "        self.v" + std::to_string(i) + " = Valve()\n";
  }
  out += "    @op_initial_final\n    def run(self):\n";
  for (std::size_t i = 0; i < n; ++i) {
    const std::string v = "self.v" + std::to_string(i);
    out += "        match " + v + ".test():\n";
    out += "            case [\"open\"]:\n";
    // The bug: close before open, a call test's exits do not allow.
    if (i == broken) {
      out += "                " + v + ".close()\n";
      out += "                " + v + ".open()\n";
    } else {
      out += "                " + v + ".open()\n";
      out += "                " + v + ".close()\n";
    }
    out += "            case [\"clean\"]:\n";
    out += "                " + v + ".clean()\n";
  }
  out += "        return [\"run\"]\n";
  Program program;
  program.path = "farm/farm" + std::to_string(serial_) + ".py";
  program.text = std::move(out);
  if (bug) {
    program.expected.add_subsystem(name, "v" + std::to_string(broken),
                                   "Valve");
  }
  program.expected.normalize();
  program.classes = 2;
  return program;
}

// ---------------------------------------------------------------------------
// editor_session

EditorProject::EditorProject(std::uint64_t seed) : rng_(seed) {
  // 24 device files, 8 composite files over them, 2 nested composites
  // over the composites.  Sizes follow a fixed grid (3..7 operations per
  // device, 2..4 fields and 2..4 operations per composite), so every seed
  // builds a project of the same shape.  Vectors are filled before any
  // composite points into them, so the field pointers stay valid.
  devices_.reserve(24);
  for (std::size_t d = 0; d < 24; ++d) {
    devices_.push_back(
        cyclic_protocol(rng_, "Dev" + std::to_string(d), 3 + d % 5, 3));
  }
  cells_.reserve(8);
  for (std::size_t k = 0; k < 8; ++k) {
    std::vector<std::pair<std::string, const Protocol*>> fields;
    for (std::size_t f = 0; f < 2 + k % 3; ++f) {
      fields.emplace_back("f" + std::to_string(f),
                          &devices_[(3 * k + 7 * f) % devices_.size()]);
    }
    cells_.push_back(make_composite(rng_, "Cell" + std::to_string(k),
                                    std::move(fields), 2 + (k / 3) % 3,
                                    false, {}));
    plant_bug(rng_, cells_.back(), false);
  }
  plants_.reserve(2);
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<std::pair<std::string, const Protocol*>> fields = {
        {"c0", &cells_[2 * k].protocol},
        {"c1", &cells_[2 * k + 1].protocol},
        {"d0", &devices_[11 * k + 5]}};
    plants_.push_back(make_composite(rng_, "Plant" + std::to_string(k),
                                     std::move(fields), 3, true, {true}));
    plant_bug(rng_, plants_.back(), false);
  }
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    files_.push_back({"project/dev" + std::to_string(d) + ".py", 0, d});
  }
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    files_.push_back({"project/cell" + std::to_string(k) + ".py", 1, k});
  }
  for (std::size_t k = 0; k < plants_.size(); ++k) {
    files_.push_back({"project/plant" + std::to_string(k) + ".py", 2, k});
  }
}

std::string EditorProject::render(const File& file) const {
  std::string out;
  if (file.kind == 0) {
    out = render_device(devices_[file.index], file.variant);
  } else {
    Composite c = file.kind == 1 ? cells_[file.index] : plants_[file.index];
    c.variant = file.variant;
    c.bug_enabled = file.bug;
    out = c.render();
  }
  // Comment lines go at the end of the file, where they shift no class.
  for (std::size_t k = 0; k < file.comments; ++k) {
    out += "# note " + std::to_string(k) + "\n";
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> EditorProject::files()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const File& file : files_) out.emplace_back(file.path, render(file));
  return out;
}

EditorProject::Edit EditorProject::next_edit() {
  // Mix: 30% base-class body edits (re-key dependents), 20% composite body
  // edits, 20% comment-only edits at the end of a file, 15% undo of the
  // previous edit, 15% introducing or fixing a composite bug.
  const std::size_t roll = rng_.below(100);
  const std::size_t composites = cells_.size() + plants_.size();
  if (roll < 15 && undo_) {
    const auto [index, before] = *undo_;
    undo_.reset();
    files_[index] = before;
    return {files_[index].path, render(files_[index]), "undo"};
  }
  std::size_t index = 0;
  std::string kind;
  if (roll < 45) {
    index = rng_.below(devices_.size());
    kind = "base_body";
  } else if (roll < 65) {
    index = devices_.size() + rng_.below(composites);
    kind = "composite_body";
  } else if (roll < 85) {
    index = rng_.below(files_.size());
    kind = "comment";
  } else {
    index = devices_.size() + rng_.below(composites);
    kind = "bug_toggle";
  }
  undo_ = std::make_pair(index, files_[index]);
  File& file = files_[index];
  if (kind == "base_body" || kind == "composite_body") {
    ++file.variant;
  } else if (kind == "comment") {
    ++file.comments;
  } else {
    file.bug = !file.bug;
  }
  return {file.path, render(file), kind};
}

Expected EditorProject::expected() const {
  Expected expected;
  for (const File& file : files_) {
    if (file.kind == 0) continue;
    Composite c = file.kind == 1 ? cells_[file.index] : plants_[file.index];
    c.bug_enabled = file.bug;
    c.expect(expected);
  }
  expected.normalize();
  return expected;
}

// ---------------------------------------------------------------------------
// monitor_fleet

Fleet::Fleet(std::uint64_t seed, std::size_t classes, std::size_t devices,
             std::size_t batch_events, double violation_rate)
    : rng_(seed),
      batch_events_(batch_events),
      violation_rate_(violation_rate) {
  for (std::size_t c = 0; c < classes; ++c) {
    classes_.push_back(cyclic_protocol(rng_, "Unit" + std::to_string(c),
                                       rng_.range(4, 12), 3));
  }
  for (const Protocol& protocol : classes_) {
    walkers_.emplace_back(protocol);
    while (op_names_.size() < protocol.ops.size()) {
      op_names_.push_back(op_name(op_names_.size()));
    }
  }
  devices_.assign(classes, std::vector<Device>(devices / classes));
  seen_.assign(classes, 0);
  violated_.assign(classes, 0);
}

std::string Fleet::source() const {
  std::string out;
  for (const Protocol& protocol : classes_) {
    out += render_device(protocol) + "\n";
  }
  return out;
}

Fleet::Batch Fleet::next(bool with_binary) {
  Batch batch;
  batch.cls = turn_++ % classes_.size();
  const Walker& walker = walkers_[batch.cls];
  auto& fleet = devices_[batch.cls];
  const std::size_t ops = classes_[batch.cls].ops.size();
  std::map<std::string, std::uint32_t> device_ids;
  std::map<std::size_t, std::uint32_t> op_ids;
  batch.ndjson.reserve(batch_events_ * 36);
  for (std::size_t k = 0; k < batch_events_; ++k) {
    const std::size_t d = rng_.below(fleet.size());
    Device& device = fleet[d];
    if (device.name.empty()) {
      device.name = "u" + std::to_string(batch.cls) + "-" + std::to_string(d) +
                    "." + std::to_string(device.generation);
      ++seen_[batch.cls];
    }
    const std::string device_name = device.name;
    std::size_t op = 0;
    if (device.violated) {
      // The latched repeat: it counts as a violation whatever it calls.
      op = rng_.below(ops);
      ++batch.violations;
      device = Device{Walker::kFresh, device.generation + 1, false, {}};
    } else {
      const auto& allowed = walker.next(device.last);
      std::vector<std::size_t> refused;
      if (rng_.chance(violation_rate_)) {
        for (std::size_t o = 0; o < ops; ++o) {
          if (!walker.allows(device.last, o)) refused.push_back(o);
        }
      }
      if (!refused.empty()) {
        op = refused[rng_.below(refused.size())];
        device.violated = true;
        ++violated_[batch.cls];
        ++batch.violations;
      } else {
        op = allowed[rng_.below(allowed.size())];
        device.last = op;
        ++batch.ok;
      }
    }
    batch.ndjson += "{\"device\":\"";
    batch.ndjson += device_name;
    batch.ndjson += "\",\"op\":\"";
    batch.ndjson += op_names_[op];
    batch.ndjson += "\"}\n";
    if (with_binary) {
      const auto [dit, dnew] =
          device_ids.emplace(device_name, batch.devices.size());
      if (dnew) batch.devices.push_back(device_name);
      const auto [oit, onew] = op_ids.emplace(op, batch.ops.size());
      if (onew) batch.ops.push_back(op_names_[op]);
      batch.events.emplace_back(dit->second, oit->second);
    }
  }
  batch.violated_devices = violated_[batch.cls];
  batch.devices_seen = seen_[batch.cls];
  return batch;
}

}  // namespace perfbench
