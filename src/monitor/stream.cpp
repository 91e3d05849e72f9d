#include "monitor/stream.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <istream>
#include <optional>
#include <utility>

#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace shelley::monitor {

namespace {

constexpr char kFrameMagic[4] = {'S', 'M', 'E', 'V'};
constexpr std::uint32_t kFrameVersion = 1;

// Plausibility caps: a corrupted count must fail fast, not allocate.
constexpr std::uint64_t kMaxFrameNames = 1u << 22;
constexpr std::uint64_t kMaxFrameEvents = 1ull << 28;
constexpr std::uint64_t kMaxFrameBytes = 1ull << 32;

std::uint32_t read_u32_le(const char* at) {
  std::uint32_t value = 0;
  std::memcpy(&value, at, 4);
  if constexpr (std::endian::native != std::endian::little) {
    value = __builtin_bswap32(value);
  }
  return value;
}

/// Charges one ingest call to the data-plane metrics while collection is
/// on: its events, accepted events, violations and malformed lines to the
/// monitor.* counters, its wall time to the monitor.batch_us histogram, and
/// a monitor.ingest span around it.  Accounting is per call, never per
/// event; while metrics are off it costs one relaxed load.
class IngestProbe {
 public:
  explicit IngestProbe(const StreamStats& stats) : stats_(stats) {
    if (!support::metrics::enabled()) return;
    armed_ = true;
    before_ = stats;
    span_.emplace("monitor.ingest");
    start_ = std::chrono::steady_clock::now();
  }

  ~IngestProbe() {
    if (!armed_) return;
    namespace metrics = support::metrics;
    const std::uint64_t events = stats_.events - before_.events;
    metrics::counter("monitor.events").add(events);
    metrics::counter("monitor.accepted").add(stats_.ok - before_.ok);
    metrics::counter("monitor.violations")
        .add(stats_.violations - before_.violations);
    metrics::counter("monitor.malformed")
        .add(stats_.malformed - before_.malformed);
    metrics::histogram("monitor.batch_us")
        .record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count()));
    if (span_->active()) span_->arg("events", events);
  }

  IngestProbe(const IngestProbe&) = delete;
  IngestProbe& operator=(const IngestProbe&) = delete;

 private:
  const StreamStats& stats_;
  bool armed_ = false;
  StreamStats before_;
  std::chrono::steady_clock::time_point start_;
  std::optional<support::trace::Span> span_;
};

}  // namespace

bool decode_event_line(std::string_view line, EventLine& event) {
  try {
    return scan_root_strings(line, event.fields_) &&
           event.fields_[0].is_string && event.fields_[1].is_string;
  } catch (const JsonParseError&) {
    return false;
  }
}

StreamChecker::StreamChecker(fsm::CompiledDfa table)
    : StreamChecker(std::move(table), Options{}) {}

StreamChecker::StreamChecker(fsm::CompiledDfa table, Options options)
    : table_(std::move(table)), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.resize(options_.shards);
}

void StreamChecker::set_source_locations(
    std::unordered_map<std::string, SourceLoc> locs) {
  locations_ = std::move(locs);
}

std::uint32_t StreamChecker::intern_device(std::string_view name) {
  const auto it = device_index_.find(name);
  if (it != device_index_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(devices_.size());
  DeviceState state;
  state.state = table_.initial();
  state.shard = static_cast<std::uint32_t>(
      std::hash<std::string_view>{}(name) % shards_.size());
  devices_.push_back(state);
  device_names_.emplace_back(name);
  device_index_.emplace(device_names_.back(), slot);
  return slot;
}

std::uint32_t StreamChecker::intern_batch_op(std::string_view name) {
  const auto it = batch_op_index_.find(name);
  if (it != batch_op_index_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(batch_ops_.size());
  BatchOp op;
  op.letter = table_.letter_of(name);
  op.name = std::string(name);
  batch_ops_.push_back(std::move(op));
  batch_op_index_.emplace(batch_ops_.back().name, slot);
  return slot;
}

void StreamChecker::route(std::uint32_t device, std::uint32_t op) {
  PendingEvent event;
  event.device = device;
  event.op = op;
  event.index = stats_.events + batch_events_;
  ++batch_events_;
  shards_[devices_[device].shard].push_back(event);
}

std::size_t StreamChecker::ingest_ndjson(std::string_view chunk) {
  const IngestProbe probe(stats_);
  const std::size_t consumed = for_each_event_line(
      chunk,
      [&](std::string_view device, std::string_view op) {
        route(intern_device(device), intern_batch_op(op));
      },
      [&] { ++stats_.malformed; });
  check_batch();
  return consumed;
}

void StreamChecker::ingest_binary(std::string_view body) {
  const IngestProbe probe(stats_);
  support::BinaryReader reader(body);
  if (reader.u32() != kFrameVersion) {
    throw support::BinaryFormatError("event frame version unsupported");
  }
  const std::uint64_t device_count = reader.u64();
  if (device_count > kMaxFrameNames) {
    throw support::BinaryFormatError("event frame device count implausible");
  }
  std::vector<std::string_view> device_names;
  device_names.reserve(device_count);
  for (std::uint64_t i = 0; i < device_count; ++i) {
    device_names.push_back(reader.str_view());
  }
  const std::uint64_t op_count = reader.u64();
  if (op_count > kMaxFrameNames) {
    throw support::BinaryFormatError("event frame op count implausible");
  }
  std::vector<std::string_view> op_names;
  op_names.reserve(op_count);
  for (std::uint64_t i = 0; i < op_count; ++i) {
    op_names.push_back(reader.str_view());
  }
  const std::uint64_t event_count = reader.u64();
  if (event_count > kMaxFrameEvents) {
    throw support::BinaryFormatError("event frame event count implausible");
  }
  const std::string_view cells = reader.raw(event_count * 8);
  reader.expect_end();
  // Validate every record before interning a name or routing an event, so
  // a malformed frame checks nothing and registers no device.
  for (std::uint64_t i = 0; i < event_count; ++i) {
    if (read_u32_le(cells.data() + i * 8) >= device_count ||
        read_u32_le(cells.data() + i * 8 + 4) >= op_count) {
      throw support::BinaryFormatError("event frame index out of range");
    }
  }
  std::vector<std::uint32_t> frame_devices;
  frame_devices.reserve(device_count);
  for (const std::string_view name : device_names) {
    frame_devices.push_back(intern_device(name));
  }
  std::vector<std::uint32_t> frame_ops;
  frame_ops.reserve(op_count);
  for (const std::string_view name : op_names) {
    frame_ops.push_back(intern_batch_op(name));
  }
  for (std::uint64_t i = 0; i < event_count; ++i) {
    route(frame_devices[read_u32_le(cells.data() + i * 8)],
          frame_ops[read_u32_le(cells.data() + i * 8 + 4)]);
  }
  check_batch();
}

void StreamChecker::ingest_event(std::string_view device,
                                 std::string_view op) {
  route(intern_device(device), intern_batch_op(op));
}

void StreamChecker::flush() {
  const IngestProbe probe(stats_);
  check_batch();
}

void StreamChecker::check_shard(std::size_t shard, ShardResult& result) {
  std::vector<fsm::CompiledDfa::Letter> allowed;
  for (const PendingEvent& event : shards_[shard]) {
    DeviceState& device = devices_[event.device];
    const std::uint64_t device_index = device.events++;
    if (device.violated) {
      // Latched, like core::Monitor: every later event of a violated
      // device is a violation but only the latching event is reported.
      ++result.violations;
      continue;
    }
    const BatchOp& op = batch_ops_[event.op];
    const std::uint32_t prev = device.state;
    bool violated = false;
    if (op.letter == fsm::CompiledDfa::kNoLetter) {
      violated = true;  // outside the class alphabet; state does not move
    } else {
      const std::uint32_t next = table_.step(prev, op.letter);
      if (!table_.live(next)) {
        violated = true;
        device.state = next;
      } else {
        device.state = next;
      }
    }
    if (!violated) {
      ++result.ok;
      continue;
    }
    device.violated = true;
    ++result.violations;
    ++result.new_violators;
    // Per-shard report lists are in stream order, so capping each shard at
    // max_violations still reconstructs the exact global first-K after the
    // merge sort (no shard can contribute more than K of the first K).
    if (result.reports.size() < options_.max_violations) {
      Violation report;
      report.event_index = event.index;
      report.device_event_index = device_index;
      report.device = device_names_[event.device];
      report.operation = op.name;
      const auto loc = locations_.find(op.name);
      if (loc != locations_.end()) report.loc = loc->second;
      allowed.clear();
      table_.allowed_letters(prev, allowed);
      report.allowed.reserve(allowed.size());
      for (const fsm::CompiledDfa::Letter letter : allowed) {
        report.allowed.push_back(table_.event_name(letter));
      }
      result.reports.push_back(std::move(report));
    }
  }
}

void StreamChecker::check_batch() {
  if (batch_events_ != 0) {
    std::vector<ShardResult> results(shards_.size());
    support::parallel_for(shards_.size(), shards_.size(),
                          [&](std::size_t shard) {
                            check_shard(shard, results[shard]);
                          });
    std::uint64_t new_violators = 0;
    std::vector<Violation> merged;
    for (ShardResult& result : results) {
      stats_.ok += result.ok;
      stats_.violations += result.violations;
      new_violators += result.new_violators;
      for (Violation& report : result.reports) {
        merged.push_back(std::move(report));
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Violation& a, const Violation& b) {
                return a.event_index < b.event_index;
              });
    std::uint64_t appended = 0;
    for (Violation& report : merged) {
      if (violations_.size() >= options_.max_violations) break;
      violations_.push_back(std::move(report));
      ++appended;
    }
    stats_.violations_dropped += new_violators - appended;
    stats_.events += batch_events_;
  }
  stats_.devices = devices_.size();
  batch_ops_.clear();
  batch_op_index_.clear();
  for (std::vector<PendingEvent>& shard : shards_) shard.clear();
  batch_events_ = 0;
}

std::uint64_t StreamChecker::completed_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (!device.violated && table_.accepting(device.state)) ++count;
  }
  return count;
}

std::uint64_t StreamChecker::violated_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (device.violated) ++count;
  }
  return count;
}

std::uint64_t StreamChecker::incomplete_devices() const {
  std::uint64_t count = 0;
  for (const DeviceState& device : devices_) {
    if (!device.violated && !table_.accepting(device.state)) ++count;
  }
  return count;
}

std::size_t ingest_binary_stream(StreamChecker& checker,
                                 std::string_view buffer) {
  std::size_t consumed = 0;
  while (buffer.size() - consumed >= 12) {
    if (std::memcmp(buffer.data() + consumed, kFrameMagic, 4) != 0) {
      throw support::BinaryFormatError("event frame magic mismatch");
    }
    std::uint64_t body_size = 0;
    std::memcpy(&body_size, buffer.data() + consumed + 4, 8);
    if constexpr (std::endian::native != std::endian::little) {
      body_size = __builtin_bswap64(body_size);
    }
    if (body_size > kMaxFrameBytes) {
      throw support::BinaryFormatError("event frame size implausible");
    }
    if (buffer.size() - consumed - 12 < body_size) break;  // partial frame
    checker.ingest_binary(
        buffer.substr(consumed + 12, static_cast<std::size_t>(body_size)));
    consumed += 12 + static_cast<std::size_t>(body_size);
  }
  return consumed;
}

bool pump(std::istream& in, bool lines,
          const std::function<std::size_t(std::string_view)>& consume) {
  std::string pending;
  std::string chunk(1 << 20, '\0');
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    const std::string_view fresh(chunk.data(), static_cast<std::size_t>(got));
    pending.append(fresh);
    if (lines && fresh.find('\n') == std::string_view::npos) continue;
    pending.erase(0, consume(std::string_view(pending)));
  }
  if (lines && !pending.empty()) pending.push_back('\n');
  pending.erase(0, consume(std::string_view(pending)));
  return pending.empty();
}

std::string encode_binary_frame(
    const std::vector<std::string>& devices,
    const std::vector<std::string>& ops,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& events) {
  support::BinaryWriter body;
  body.u32(kFrameVersion);
  body.u64(devices.size());
  for (const std::string& device : devices) body.str(device);
  body.u64(ops.size());
  for (const std::string& op : ops) body.str(op);
  body.u64(events.size());
  for (const auto& [device, op] : events) {
    body.u32(device);
    body.u32(op);
  }
  support::BinaryWriter frame;
  frame.raw(std::string_view(kFrameMagic, 4));
  frame.u64(body.bytes().size());
  frame.raw(body.bytes());
  return frame.take();
}

}  // namespace shelley::monitor
