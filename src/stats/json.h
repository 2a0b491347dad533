// JSON emission for the observability artifacts — the decision-ledger
// audit file (--audit-out), the counter and time-series blocks in bench
// summaries, and the persisted live-poll snapshots (--poll-out). Shared
// here so every producer emits the same shape and downstream tooling
// parses one format.
#pragma once

#include <string>

#include "src/stats/decision.h"
#include "src/stats/stats.h"
#include "src/stats/timeseries.h"
#include "src/util/json.h"

namespace hmdsm::stats {

/// One decision as a JSON object (all policy inputs plus the verdict).
void WriteDecisionJson(JsonWriter& jw, const Decision& d);

/// The ledger as `{"decisions":[...time-ordered...],"dropped":N}`.
void WriteLedgerJson(JsonWriter& jw, const DecisionLedger& ledger);

/// One sample as a JSON object (deltas plus derived per-second rates).
void WriteSampleJson(JsonWriter& jw, const Sample& s);

/// The series as a bare JSON array of samples.
void WriteTimeseriesJson(JsonWriter& jw, const Timeseries& series);

/// Writes `rec`'s counters as members of the enclosing object: one key per
/// Ev (named by EvName, zeros included), then a `latency` object with one
/// `{count, mean_ns, p50_ns, p95_ns, p99_ns, max_ns}` summary per non-empty
/// fault-in RTT histogram (`rtt_<MsgCatName>`) and Lat histogram (LatName).
void WriteRecorderJson(JsonWriter& jw, const Recorder& rec);

/// Writes a standalone audit file: the ledger object above. Creates parent
/// directories as needed; returns false (with a stderr note) on I/O error.
bool WriteAuditFile(const std::string& path, const DecisionLedger& ledger);

}  // namespace hmdsm::stats
