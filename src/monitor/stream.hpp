// The streaming-monitor runtime: a StreamChecker owns the monitor states of
// a whole device fleet and checks batched event streams against one
// compiled class table (fsm/table.hpp) at millions of events per second.
//
// Sharding: every device id is assigned to one shard (hash of its name) at
// first sight, so all of a device's events are checked by the same worker
// in stream order and shards never share mutable state.  A batch is decoded
// on the calling thread (interning devices and operations into dense ids),
// then the per-shard event lists are swept in parallel on the shared
// ThreadPool.  Results are deterministic in the shard count: verdict
// counters are additive and violation reports are merged in global event
// order.
//
// Two wire formats:
//   * NDJSON  -- one {"device": "...", "op": "..."} object per line;
//                undecodable lines are counted (`malformed`), never fatal.
//                Each line is decoded in place (decode_event_line): the
//                JSON grammar validates it without building a document, and
//                the names are interned by view, so a line for a known
//                device and operation allocates nothing;
//   * SMEV    -- a length-prefixed binary frame format (see MONITORING.md):
//                "SMEV" | u64 body size | body, where the body is
//                u32 version | device table | op table | u64 event count |
//                (u32 device, u32 op) pairs.  Names are carried once per
//                frame; events are fixed 8-byte records.  Malformed frames
//                throw support::BinaryFormatError (a structured reject,
//                never UB).
//
// Violation reports carry the source-located diagnostics of the batch
// pipeline: operation name and declaration site, device, global event
// index, and the allowed-next set at the point of violation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fsm/table.hpp"
#include "support/binary.hpp"
#include "support/json.hpp"
#include "support/source_location.hpp"
#include "support/strings.hpp"

namespace shelley::monitor {

/// The event one NDJSON line carries, decoded in place by
/// decode_event_line.  device() and op() view the line, or this object's
/// scratch for a name written with escapes; they live until the next
/// decode into this object or until the line's buffer changes.
class EventLine {
 public:
  [[nodiscard]] std::string_view device() const { return fields_[0].text; }
  [[nodiscard]] std::string_view op() const { return fields_[1].text; }

 private:
  friend bool decode_event_line(std::string_view line, EventLine& event);

  std::array<JsonRootField, 2> fields_{JsonRootField("device"),
                                       JsonRootField("op")};
};

/// The rule every NDJSON reader applies to one line: true exactly when
/// parse_json accepts `line`, its root is an object, and that object's
/// first "device" and first "op" members are both strings.  `event` then
/// holds them.  Builds no document; a line that does not parse costs one
/// caught JsonParseError.
[[nodiscard]] bool decode_event_line(std::string_view line, EventLine& event);

/// Walks the complete ('\n'-terminated) lines of `chunk`, skipping blank
/// ones: each event line goes to on_event(device, op) -- views that live
/// only for the call -- and every other line to on_malformed().  Returns
/// the bytes consumed; a trailing partial line is left for the caller's
/// next read.
template <typename OnEvent, typename OnMalformed>
std::size_t for_each_event_line(std::string_view chunk, OnEvent&& on_event,
                                OnMalformed&& on_malformed) {
  EventLine event;
  std::size_t consumed = 0;
  std::size_t newline = 0;
  while ((newline = chunk.find('\n', consumed)) != std::string_view::npos) {
    const std::string_view line = chunk.substr(consumed, newline - consumed);
    consumed = newline + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    if (decode_event_line(line, event)) {
      on_event(event.device(), event.op());
    } else {
      on_malformed();
    }
  }
  return consumed;
}

/// One rejected event.  `allowed` lists the operations that would have been
/// legal instead, in letter order; `loc` is the declaration site of the
/// offending operation when the caller provided one (unknown operations
/// have none).
struct Violation {
  std::uint64_t event_index = 0;         ///< 0-based index in the stream
  std::uint64_t device_event_index = 0;  ///< 0-based index within the device
  std::string device;
  std::string operation;
  SourceLoc loc;
  std::vector<std::string> allowed;
};

struct StreamStats {
  std::uint64_t events = 0;      ///< decoded events routed to a monitor
  std::uint64_t ok = 0;          ///< events accepted
  std::uint64_t violations = 0;  ///< rejected events (latched repeats too)
  std::uint64_t malformed = 0;   ///< undecodable NDJSON lines
  std::uint64_t devices = 0;     ///< distinct device ids seen
  std::uint64_t violations_dropped = 0;  ///< reports beyond max_violations
};

class StreamChecker {
 public:
  struct Options {
    /// Worker shards; 1 checks on the calling thread.
    std::size_t shards = 1;
    /// Violation reports retained (counting continues past the cap).
    std::size_t max_violations = 1024;
  };

  explicit StreamChecker(fsm::CompiledDfa table);
  StreamChecker(fsm::CompiledDfa table, Options options);

  /// Declaration sites for violation diagnostics, keyed by operation name
  /// (e.g. from ClassSpec::operations).
  void set_source_locations(std::unordered_map<std::string, SourceLoc> locs);

  /// Decodes and checks the complete ('\n'-terminated) NDJSON lines of
  /// `chunk`; returns the bytes consumed, so a chunked caller carries the
  /// trailing partial line into its next read.  (At end of input, append a
  /// final '\n' to flush the last line.)
  std::size_t ingest_ndjson(std::string_view chunk);

  /// Decodes and checks one SMEV frame *body* (everything after the
  /// "SMEV" | u64 size prefix).  Throws support::BinaryFormatError on any
  /// malformation; a throwing frame checks nothing.
  void ingest_binary(std::string_view body);

  /// Routes one already-decoded event (embedding callers, e.g. the daemon's
  /// inline event arrays).  Deferred: nothing is checked until flush() --
  /// or the next ingest_ndjson/ingest_binary call -- runs the batch.
  void ingest_event(std::string_view device, std::string_view op);

  /// Checks every event routed since the last batch.
  void flush();

  /// Per-device verdict latching mirrors core::Monitor: once a device
  /// violates, every later event of that device counts as a violation.
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  /// Fleet snapshot: devices whose usage is a valid complete lifecycle
  /// right now / latched violators / started but not completable-stopped.
  [[nodiscard]] std::uint64_t completed_devices() const;
  [[nodiscard]] std::uint64_t violated_devices() const;
  [[nodiscard]] std::uint64_t incomplete_devices() const;

  [[nodiscard]] const fsm::CompiledDfa& table() const { return table_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  struct DeviceState {
    std::uint32_t state = 0;
    bool violated = false;
    std::uint64_t events = 0;
    std::uint32_t shard = 0;
  };

  /// One decoded event, routed to its device's shard.  `op` indexes
  /// batch_ops_ (per-batch operation table: compiled letter + name).
  struct PendingEvent {
    std::uint32_t device = 0;
    std::uint32_t op = 0;
    std::uint64_t index = 0;
  };

  struct BatchOp {
    fsm::CompiledDfa::Letter letter = fsm::CompiledDfa::kNoLetter;
    std::string name;
  };

  struct ShardResult {
    std::uint64_t ok = 0;
    std::uint64_t violations = 0;
    std::uint64_t new_violators = 0;  ///< devices that latched this batch
    std::vector<Violation> reports;
  };

  std::uint32_t intern_device(std::string_view name);
  std::uint32_t intern_batch_op(std::string_view name);
  void route(std::uint32_t device, std::uint32_t op);
  void check_batch();
  void check_shard(std::size_t shard, ShardResult& result);

  fsm::CompiledDfa table_;
  Options options_;

  StringMap<std::uint32_t> device_index_;
  std::vector<std::string> device_names_;
  std::vector<DeviceState> devices_;

  std::unordered_map<std::string, SourceLoc> locations_;

  // Per-batch scratch, cleared (capacity kept) after every check.
  std::vector<BatchOp> batch_ops_;
  StringMap<std::uint32_t> batch_op_index_;
  std::vector<std::vector<PendingEvent>> shards_;
  std::size_t batch_events_ = 0;

  std::vector<Violation> violations_;
  StreamStats stats_;
};

/// Consumes as many complete length-prefixed SMEV frames
/// ("SMEV" | u64 body size | body) as `buffer` holds, feeding each body to
/// `checker`; returns the bytes consumed (a trailing partial frame stays
/// unconsumed for the caller's next read).  Throws BinaryFormatError on a
/// bad magic, an implausible size, or a malformed frame body.
std::size_t ingest_binary_stream(StreamChecker& checker,
                                 std::string_view buffer);

/// The chunked reader every event-stream front end shares (shelley-monitor,
/// the daemon's monitor "file" form): streams `in` through
/// `consume(buffer)` in 1 MiB reads, where `consume` returns the bytes it
/// used and the rest is carried into the next read.  With `lines`, a read
/// that adds no '\n' does not call `consume`, so a long line is searched
/// once, not once per read, and an unterminated last line gets its '\n' at
/// end of input.  Returns whether every byte was used (false: the stream
/// ends mid-frame).
bool pump(std::istream& in, bool lines,
          const std::function<std::size_t(std::string_view)>& consume);

/// Encodes one SMEV frame (prefix included) from parallel device/op index
/// arrays -- the writer half of the wire format, used by the CLI's
/// `--emit-binary` converter, the benchmark, and tests.
[[nodiscard]] std::string encode_binary_frame(
    const std::vector<std::string>& devices,
    const std::vector<std::string>& ops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& events);

}  // namespace shelley::monitor
