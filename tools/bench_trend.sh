#!/bin/sh
# Append one perf-trajectory row to BENCH_trend.json (JSON lines, one object
# per bench run — see docs/FILE_FORMATS.md). Reads the BENCH_pipeline.json a
# perf_pipeline run just wrote and distills the headline numbers, so the
# tracked trend file stays a few hundred bytes per PR while the full
# per-thread breakdown remains in the untracked BENCH_pipeline.json.
#
# Re-running at the same commit replaces that commit's row (dedupe by the
# "git" field, newest run wins) instead of stacking duplicates — re-running
# a bench locally or re-triggering CI must not distort the trajectory.
#
#   usage: tools/bench_trend.sh [BENCH_pipeline.json] [BENCH_trend.json]
set -eu

in=${1:-BENCH_pipeline.json}
out=${2:-BENCH_trend.json}

[ -r "$in" ] || { echo "bench_trend: cannot read $in" >&2; exit 1; }

# First occurrence of a numeric/boolean top-level field.
num() { sed -n "s/.*\"$1\": *\([-0-9.truefalse]*\).*/\1/p" "$in" | head -n 1; }
# Last per-run analyze latency (the highest thread count's row).
analyze_us=$(sed -n 's/.*"analyze_mean_us": *\([-0-9.]*\).*/\1/p' "$in" \
  | tail -n 1)
mode=$(sed -n 's/.*"mode": *"\([a-z]*\)".*/\1/p' "$in" | head -n 1)
git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
# Absent in BENCH files written before the profiler existed.
prof_pct=$(num prof_overhead_pct)
# Absent before the fast top-k PCA path existed.
pca_fast_s=$(num train_pca_fast_seconds)
pca_speedup=$(num pca_speedup_vs_exact)

# Drop any earlier row of this kind for this commit (its "git" is followed
# by "mode"; perfbench rows keep theirs). grep -v exits 1 when everything
# matches — an empty survivor set is fine.
if [ -f "$out" ]; then
  grep -v "\"git\":\"$git_rev\",\"mode\"" "$out" > "$out.tmp" || true
  mv "$out.tmp" "$out"
fi

printf '{"date":"%s","git":"%s","mode":"%s","hardware_threads":%s,"best_train_speedup":%s,"analyze_mean_us":%s,"obs_overhead_pct":%s,"server_overhead_pct":%s,"model_health_overhead_pct":%s,"history_incident_overhead_pct":%s,"prof_overhead_pct":%s,"train_pca_fast_seconds":%s,"pca_speedup_vs_exact":%s,"bit_identical":%s}\n' \
  "$stamp" "$git_rev" "${mode:-unknown}" \
  "$(num hardware_threads)" "$(num best_train_speedup)" \
  "${analyze_us:-0}" "$(num obs_overhead_pct)" \
  "$(num server_overhead_pct)" "$(num model_health_overhead_pct)" \
  "$(num history_incident_overhead_pct)" "${prof_pct:-0}" \
  "${pca_fast_s:-0}" "${pca_speedup:-0}" \
  "$(num bit_identical)" >> "$out"
echo "bench_trend: appended row to $out ($(wc -l < "$out") total)"
