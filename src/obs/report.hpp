// Machine-readable run reports — the "what happened" half of the obs
// subsystem.
//
// `rmsyn_cli table2 --report out.json` (and `batch --report`) writes one
// JSON document per run: tool/schema identification, the command and job
// count, per-circuit rows (every Table-2 column plus FlowStatus and the
// per-stage breakdown), a metrics snapshot (the same registry the summary
// blocks print), and a trace roll-up when tracing was on. EXPERIMENTS.md
// regenerates the paper's Table 2 from this file instead of scraping
// stdout.
//
// Schema stability is an acceptance criterion: data/report_schema.json is
// the checked-in contract, validate_json() checks documents against it
// (subset of JSON Schema: type / required / properties / items), CI runs
// `rmsyn_cli validate-report` on every produced report, and a golden file
// in tests/golden pins the byte-level serialization.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace rmsyn::obs {

/// Bump ONLY when the report layout changes incompatibly; additive fields
/// keep the version (the schema does not forbid unknown keys).
/// v2: rows grew the optional "rewrite" counters object (cut-rewriting
/// post-pass) and readers must tolerate its absence.
/// v3: histogram metrics carry p50/p90/p99, rows carry row_seconds, the
/// document may carry a "profile" attribution tree and os.* gauges. All
/// additions are optional keys, so v2 documents still validate;
/// validate-report accepts both versions.
inline constexpr int kReportSchemaVersion = 3;

/// Serializes a registry snapshot as an object keyed by metric name; each
/// value carries its kind plus the kind-appropriate fields.
Json metrics_json(const MetricsRegistry& m);

/// Assembles the run-report document. The CLI owns the order of calls:
/// construct, add_row() per circuit, set_metrics(), optionally set_trace(),
/// then finish().
class ReportBuilder {
public:
  ReportBuilder(std::string command, int jobs);

  /// Appends one per-circuit row (built by flow_row_json()).
  void add_row(Json row);
  void set_metrics(const MetricsRegistry& m);
  /// Records the trace roll-up; `run_wall_seconds` is the wall time of the
  /// whole run, used to compute how much of it the trace covers.
  void set_trace(const Tracer::Summary& s, double run_wall_seconds,
                 const std::string& trace_path);
  /// Records the profiler's merged attribution tree (schema v3 `profile`
  /// block) plus the folded-stack path the CLI wrote alongside.
  void set_profile(const Profiler::Node& root,
                   const std::string& folded_path);

  /// Finishes the document: stamps wall_seconds and the worst row status.
  Json finish(double wall_seconds) const;

private:
  std::string command_;
  int jobs_;
  std::vector<Json> rows_;
  Json metrics_ = Json();
  Json trace_ = Json();
  Json profile_ = Json();
};

/// Validates `doc` against a subset-JSON-Schema document supporting
/// `type` (string or array of strings, with "integer" accepted for whole
/// numbers), `required`, `properties`, and `items`. Unknown object keys
/// are allowed (additive schema evolution). Appends human-readable
/// "<path>: <problem>" strings to `errors`; returns errors.empty().
bool validate_json(const Json& doc, const Json& schema,
                   std::vector<std::string>* errors);

/// Writes `text` to `path`, replacing the file; throws std::runtime_error
/// on I/O failure. Every artefact the obs layer writes goes through here.
void write_text_file(const std::string& path, const std::string& text);

/// Writes `doc.dump(indent)` to `path` (write_text_file).
void write_json_file(const std::string& path, const Json& doc,
                     int indent = 2);

/// Reads a whole file; throws std::runtime_error on I/O failure.
std::string read_file(const std::string& path);

} // namespace rmsyn::obs
