#pragma once

#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace mhm::obs {

/// Text exporters for the observability state. Schemas are documented in
/// docs/FILE_FORMATS.md ("Observability exports").

/// Shortest round-trip decimal of `v` (%.17g); "NaN", "+Inf", "-Inf".
std::string fmt_double(double v);

/// `s` escaped for a JSON string body (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

/// printf-append into `out`; one call renders at most 511 bytes. Appending
/// into a reserved buffer keeps steady-state rendering allocation-free.
void append_fmt(std::string& out, const char* fmt, ...);

/// Prometheus text exposition format (version 0.0.4). Metric names are the
/// registry's dotted names with dots mapped to underscores and an `mhm_`
/// prefix ("pipeline.alarms" → "mhm_pipeline_alarms"). Histograms emit the
/// conventional `_bucket{le=...}` / `_sum` / `_count` series.
std::string prometheus_text(const Registry& registry = Registry::instance());

/// One gauge in the same format — HELP, TYPE and sample line for the dotted
/// `name` — for series rendered at scrape time outside the registry.
void append_prometheus_gauge(std::string& out, const std::string& name,
                             const std::string& help, double value);

/// One JSON object per line, one line per metric.
std::string metrics_json_lines(
    const Registry& registry = Registry::instance());

/// One JSON object per line, one line per retained decision (oldest first).
std::string journal_json_lines(const DecisionJournal& journal);

/// One decision rendered as a single JSON line (shared by the exporter and
/// mhm_tool's per-alarm output).
std::string decision_json(const DecisionRecord& record);

}  // namespace mhm::obs
