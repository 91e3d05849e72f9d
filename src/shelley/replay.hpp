// The capture half of the verdict replay protocol: turning a verified
// ClassReport (plus the diagnostics it appended to a sink) into the
// CachedVerdict encoding that Verifier::replay_verdict can later turn back
// into a byte-identical report.  The query engine (src/engine) stores its
// encoding in both the memo and the on-disk tier, so every cache layer
// stores and replays through exactly one code path.
#pragma once

#include <cstddef>

#include "shelley/cache.hpp"
#include "shelley/verifier.hpp"

namespace shelley::core {

/// Builds the cacheable encoding of `report`: counters, subsystem/claim
/// errors with counterexample symbols spelled out as names, and the
/// diagnostics `sink` holds from index `diags_begin` on (the slice this
/// class's verification appended).  The caller must not capture reports
/// with resource_errors > 0 -- an aborted run is not a result.
[[nodiscard]] CachedVerdict capture_verdict(const ClassReport& report,
                                            const DiagnosticEngine& sink,
                                            std::size_t diags_begin,
                                            const SymbolTable& table);

}  // namespace shelley::core
