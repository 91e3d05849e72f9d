// The known-answer generator.  Every input the benchmark feeds the program
// is built here from a seed, together with the answer the program must
// give.  Answers come from how the input was constructed and from a
// reference walker over the source-level successor lists -- never from the
// program's own automata -- so a wrong verdict shows as a failed
// operation.
//
// Construction rules that make the answers knowable:
//  * Device classes are cyclic protocols: `op0` is the only initial
//    operation, every path from it reaches an end operation, and end
//    operations are final and return ["op0"].  A "closed walk" calls op0,
//    follows the first successor of each exit (a `match` covers every exit
//    of a multi-exit call) and stops after an end operation.
//  * Composite bodies only ever drive a field through closed walks, so any
//    sequence of composite operations leaves every field valid.  The one
//    seeded bug is a walk that starts at some other operation: the field is
//    idle there, only op0 is allowed, so the field must be reported.
//  * Composites are cyclic protocols too, so a composite can be the field
//    of another composite (one level of nesting).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }
  /// Uniform in [lo, hi].
  std::size_t range(std::size_t lo, std::size_t hi) {
    return lo + below(hi - lo + 1);
  }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(engine_) < p;
  }
  std::uint64_t next() { return engine_(); }
  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

 private:
  std::mt19937_64 engine_;
};

/// One operation as its source declares it.
struct OpDecl {
  bool initial = false;
  bool final = false;
  /// Per return statement, the indices of the successor operations.
  std::vector<std::vector<std::size_t>> exits;
};

/// The source-level protocol of one class.  Operation i is named "op<i>".
struct Protocol {
  std::string class_name;
  std::vector<OpDecl> ops;
};

[[nodiscard]] std::string op_name(std::size_t index);

/// Reference walker: valid usage decided from the successor lists alone.
/// After operation o an instance may call any successor of any exit of o;
/// a fresh instance may call the initial operations; a word is complete
/// when it is empty or ends in a final operation.
class Walker {
 public:
  static constexpr std::size_t kFresh = static_cast<std::size_t>(-1);

  explicit Walker(const Protocol& protocol);

  /// True when `op` may follow `last` and the usage can still complete.
  [[nodiscard]] bool allows(std::size_t last, std::size_t op) const;
  /// Operations allowed after `last`.
  [[nodiscard]] const std::vector<std::size_t>& next(std::size_t last) const;
  /// Some complete usage calls `op`.
  [[nodiscard]] bool occurs(std::size_t op) const {
    return reachable_[op] && live_[op];
  }
  [[nodiscard]] bool live(std::size_t op) const { return live_[op]; }
  [[nodiscard]] bool final(std::size_t op) const { return final_[op]; }

 private:
  std::vector<std::vector<std::size_t>> next_;  ///< successor union per op
  std::vector<std::size_t> initial_;
  std::vector<bool> final_;
  std::vector<bool> reachable_;
  std::vector<bool> live_;
};

/// The answer one verification must give: the failing classes, every
/// subsystem error as "Owner/field:Class" and every failed claim as
/// "Owner/claim:formula", sorted.
struct Expected {
  std::vector<std::string> findings;
  void add_failure(const std::string& owner);
  void add_subsystem(const std::string& owner, const std::string& field,
                     const std::string& cls);
  void add_claim(const std::string& owner, const std::string& formula);
  void normalize();
};

/// One source file to verify, with its answer.
struct Program {
  std::string path;
  std::string text;
  Expected expected;
  std::size_t classes = 0;  ///< @sys classes the report must list
};

/// A step of a composite body: one walk over a field's protocol.
struct Step {
  std::size_t field = 0;
  std::size_t start = 0;  ///< 0 = a closed walk; otherwise the seeded bug
  bool loop = false;      ///< wrapped in a loop (zero or more walks)
};

/// A composite class: its own protocol, its fields, and its body plan.
struct Composite {
  Protocol protocol;
  /// Field name and the protocol it is bound to.
  std::vector<std::pair<std::string, const Protocol*>> fields;
  /// Per operation: steps before the return branches.
  std::vector<std::vector<Step>> prefix;
  /// Per operation, per exit: steps inside that return branch.
  std::vector<std::vector<std::vector<Step>>> branches;
  std::vector<std::string> claims;
  std::vector<bool> claim_holds;
  /// The seeded bug: appended to the prefix of operation `bug_op`.
  std::optional<Step> bug;
  std::size_t bug_op = 0;
  bool bug_enabled = false;
  std::size_t variant = 0;  ///< body-edit counter (a filler statement)

  [[nodiscard]] std::string render() const;
  void expect(Expected& expected) const;
};

/// Cyclic device protocol with `ops` operations and up to `max_exits`
/// exits per operation.
[[nodiscard]] Protocol cyclic_protocol(Rng& rng, std::string name,
                                       std::size_t ops,
                                       std::size_t max_exits);

/// Source of a device class; `variant` changes a filler statement only.
[[nodiscard]] std::string render_device(const Protocol& protocol,
                                        std::size_t variant = 0);

/// A composite over `fields` with a cyclic protocol of `ops` operations.
/// `loops` allows loop steps; `claims` adds one claim per entry (true =
/// a claim that holds, false = one that is violated).
[[nodiscard]] Composite make_composite(
    Rng& rng, std::string name,
    std::vector<std::pair<std::string, const Protocol*>> fields,
    std::size_t ops, bool loops, const std::vector<bool>& claims);

/// Gives `composite` a seeded bug (enabled or not).
void plant_bug(Rng& rng, Composite& composite, bool enabled);

/// verify_corpus inputs: a seeded stream of programs of three kinds, with
/// a seeded minority carrying a bug.  Sizes follow a fixed grid in a fixed
/// order, so every seed runs the same sizes; the seed draws the contents.
class CorpusStream {
 public:
  explicit CorpusStream(std::uint64_t seed);
  [[nodiscard]] Program next();

 private:
  struct Slot {
    int kind = 0;  ///< 0 ring base class, 1 composite, 2 nested composite
    std::size_t size = 0;
    std::size_t exits = 0;
    bool claim = false;  ///< ring slots: carries a claim
    bool bug = false;
  };
  void refill();
  [[nodiscard]] Program ring(const Slot& slot);
  [[nodiscard]] Program composite(const Slot& slot);
  [[nodiscard]] Program nested(const Slot& slot);

  Rng rng_;
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
  std::uint64_t serial_ = 0;
};

/// composite_farm inputs: farm-N (N Valves driven through `match`), N
/// cycling through a seeded order of 16..32, a seeded minority with one
/// out-of-order call.
class FarmStream {
 public:
  explicit FarmStream(std::uint64_t seed);
  [[nodiscard]] Program next();

 private:
  void refill();
  Rng rng_;
  std::vector<std::pair<std::size_t, bool>> slots_;
  std::size_t cursor_ = 0;
  std::uint64_t serial_ = 0;
};

/// editor_session inputs: a project of a few dozen files and a seeded
/// script of edits, each with the verdict the following verify must give.
class EditorProject {
 public:
  struct Edit {
    std::string path;
    std::string text;
    std::string kind;
  };

  explicit EditorProject(std::uint64_t seed);
  // Composites point into devices_ and cells_: never copied or moved.
  EditorProject(const EditorProject&) = delete;
  EditorProject& operator=(const EditorProject&) = delete;

  /// Every file of the project, as it stands now.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> files()
      const;
  /// Applies the next scripted edit and returns it.
  [[nodiscard]] Edit next_edit();
  /// The answer a full verify of the project must give now.
  [[nodiscard]] Expected expected() const;
  [[nodiscard]] std::size_t class_count() const { return files_.size(); }

 private:
  struct File {
    std::string path;
    int kind = 0;  ///< 0 device, 1 composite, 2 nested composite
    std::size_t index = 0;
    std::size_t variant = 0;
    std::size_t comments = 0;
    bool bug = false;
  };
  [[nodiscard]] std::string render(const File& file) const;

  Rng rng_;
  std::vector<Protocol> devices_;
  std::vector<Composite> cells_;
  std::vector<Composite> plants_;
  std::vector<File> files_;
  /// The file state before the last edit, for undo.
  std::optional<std::pair<std::size_t, File>> undo_;
};

/// monitor_fleet inputs: a fleet of devices of several generated classes
/// and batches of their events as NDJSON, with the counts a checker must
/// report for each batch.
class Fleet {
 public:
  struct Batch {
    std::size_t cls = 0;  ///< which class's checker ingests it
    std::string ndjson;
    std::vector<std::string> devices;  ///< SMEV tables of the same events
    std::vector<std::string> ops;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> events;
    std::uint64_t ok = 0;          ///< expected accepted events
    std::uint64_t violations = 0;  ///< expected rejected events
    std::uint64_t violated_devices = 0;  ///< latched devices after it
    std::uint64_t devices_seen = 0;      ///< distinct devices after it
  };

  Fleet(std::uint64_t seed, std::size_t classes, std::size_t devices,
        std::size_t batch_events, double violation_rate);

  [[nodiscard]] const std::vector<Protocol>& classes() const {
    return classes_;
  }
  /// Source of every class, one file.
  [[nodiscard]] std::string source() const;
  /// The next batch; batches cycle through the classes.
  [[nodiscard]] Batch next(bool with_binary);

 private:
  /// One slot of the fleet.  A device that violates sends one more event
  /// (a latched repeat) and is then replaced by a fresh device under a new
  /// name, so the violation rate stays small for the whole run.
  struct Device {
    std::size_t last = Walker::kFresh;
    std::size_t generation = 0;
    bool violated = false;
    std::string name;  ///< empty until the device first sends
  };
  Rng rng_;
  std::vector<Protocol> classes_;
  std::vector<Walker> walkers_;
  std::vector<std::string> op_names_;
  std::vector<std::vector<Device>> devices_;  ///< per class
  std::vector<std::uint64_t> seen_;           ///< per class
  std::vector<std::uint64_t> violated_;       ///< per class
  std::size_t batch_events_;
  double violation_rate_;
  std::size_t turn_ = 0;
};

}  // namespace perfbench
