#include "obs/incident.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/build_info.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"

namespace mhm::obs {
namespace {

Counter& created_counter() {
  return Registry::instance().counter("incident.created",
                                      "incident bundles committed");
}
Counter& suppressed_counter() {
  return Registry::instance().counter(
      "incident.suppressed", "incident triggers dropped by the rate limit");
}
Counter& bytes_counter() {
  return Registry::instance().counter("incident.bytes_written",
                                      "bytes written into .mhmi bundles");
}
Gauge& last_trigger_gauge() {
  return Registry::instance().gauge("incident.last_trigger_interval",
                                    "interval of the newest incident");
}

/// write(2) loop over short writes, retrying EINTR. False on any failure.
/// Async-signal-safe: the crash handler uses it too.
bool write_all(int fd, const char* p, std::size_t left) {
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Crash-bundle refresh cadence while armed.
constexpr std::uint64_t kRefreshGapNs = 250'000'000;

/// The armed store (null when none) and the lock that keeps it alive
/// across flush_armed().
std::mutex g_arm_mu;
IncidentStore* g_armed_store = nullptr;

/// State the signal handler touches, at file scope — the handler may not
/// take a mutex, allocate, or format. The crash bundle is double-buffered: a
/// refresh copies into the unpublished buffer and then publishes its index,
/// so a signal arriving mid-refresh always sees the previous complete one.
std::atomic<int> g_crash_fd{-1};
std::vector<char> g_snapshot[2];
std::atomic<int> g_published{-1};
struct sigaction g_old_segv;
struct sigaction g_old_abrt;

#if !defined(MHM_OBS_DISABLED)
/// Async-signal-safe: write the published prerendered bundle to the
/// pre-opened fd, fsync, then re-raise with the default disposition so the
/// process still dies with the original signal. Only arm() installs it,
/// and arm() is a no-op with the layer compiled out.
void crash_handler(int sig) {
  static std::atomic<bool> entered{false};
  if (!entered.exchange(true, std::memory_order_relaxed)) {
    const int fd = g_crash_fd.load(std::memory_order_relaxed);
    const int idx = g_published.load(std::memory_order_acquire);
    if (fd >= 0 && idx >= 0) {
      write_all(fd, g_snapshot[idx].data(), g_snapshot[idx].size());
      ::fsync(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}
#endif

}  // namespace

IncidentStore::IncidentStore(const Options& options) : options_(options) {
  options_.max_incidents = std::max<std::size_t>(1, options_.max_incidents);
  buffer_.reserve(options_.buffer_bytes);
}

IncidentStore::~IncidentStore() { disarm(); }

std::string IncidentStore::commit(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(incident, /*partial=*/false, /*context=*/nullptr);
}

std::string IncidentStore::debug_commit_partial(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(incident, /*partial=*/true, /*context=*/nullptr);
}

void IncidentStore::render_locked(const Incident& incident,
                                  const std::string* context) {
  // Prerender the whole bundle, `== end ==` last. The on-disk state is then
  // always one of: absent, truncated (missing end marker), or complete.
  buffer_.clear();
  append_fmt(buffer_, "MHMI 1\nid %llu\n",
             static_cast<unsigned long long>(incident.id));
  buffer_ += "reason " + incident.reason + "\ndetail " +
             (incident.detail.empty() ? "-" : incident.detail) + '\n';
  append_fmt(buffer_,
             "trigger_interval %llu\nmodel_version %llu\nthreshold %a\n"
             "cells %zu\npre %zu\npost %zu\nentries %zu\n",
             static_cast<unsigned long long>(incident.trigger_interval),
             static_cast<unsigned long long>(incident.model_version),
             incident.threshold, incident.cells, incident.pre, incident.post,
             incident.window.size());
  buffer_ += build_info_text("build.");
  buffer_ += "== verdicts ==\n";
  for (const IncidentEntry& e : incident.window) {
    append_fmt(buffer_, "%llu %a %a %d %zu %llu\n",
               static_cast<unsigned long long>(e.interval), e.score, e.spe,
               e.alarm ? 1 : 0, e.nearest_pattern,
               static_cast<unsigned long long>(e.model_version));
  }
  append_fmt(buffer_, "== cells top=%zu ==\n", incident.top_cells.size());
  for (const CellContribution& c : incident.top_cells) {
    append_fmt(buffer_, "%zu %a %a %a\n", c.cell, c.observed, c.expected,
               c.z_score);
  }
  std::size_t rows = 0;
  for (const IncidentEntry& e : incident.window) rows += !e.row.empty();
  append_fmt(buffer_, "== rows n=%zu cells=%zu ==\n", rows, incident.cells);
  for (const IncidentEntry& e : incident.window) {
    if (e.row.empty()) continue;
    append_fmt(buffer_, "%llu", static_cast<unsigned long long>(e.interval));
    for (const double v : e.row) append_fmt(buffer_, " %a", v);
    buffer_ += '\n';
  }
  // Profiler state at render time: which stage the process was spending its
  // cycles in, from the same accumulators /profile serves. Informational —
  // the parser skips it, and every section after it.
  buffer_ += "== profile ==\n";
  buffer_ += prof::dump_section();
  if (context != nullptr) {
    buffer_ += "== metrics ==\n";
    buffer_ += prometheus_text();
    buffer_ += "== trace ==\n";
    buffer_ += chrome_trace_json();
    buffer_ += *context;
  }
  buffer_ += "== end ==\n";
}

std::string IncidentStore::commit_locked(Incident& incident, bool partial,
                                         const std::string* context) {
  incident.id = next_id_++;
  char name[64];
  std::snprintf(name, sizeof name, "/incident-%06llu.mhmi",
                static_cast<unsigned long long>(incident.id));
  incident.path = options_.dir + name;
  render_locked(incident, context);

  const std::size_t write_len = partial ? buffer_.size() / 2 : buffer_.size();
  const int fd = ::open(incident.path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return "";
  const bool written = write_all(fd, buffer_.data(), write_len);
  ::close(fd);
  if (!written) return "";

  IncidentSummary summary;
  summary.id = incident.id;
  summary.reason = incident.reason;
  summary.detail = incident.detail;
  summary.trigger_interval = incident.trigger_interval;
  summary.model_version = incident.model_version;
  summary.entries = incident.window.size();
  for (const IncidentEntry& e : incident.window) summary.alarms += e.alarm;
  summary.bytes = write_len;
  summary.path = incident.path;
  summary.verdicts = std::move(incident.window);
  for (IncidentEntry& e : summary.verdicts) e.row = {};  // Verdicts only.
  if (ring_.size() >= options_.max_incidents) ring_.erase(ring_.begin());
  ring_.push_back(std::move(summary));
  ++total_;
  created_counter().add(1);
  bytes_counter().add(write_len);
  last_trigger_gauge().set(static_cast<double>(incident.trigger_interval));
  return incident.path;
}

bool IncidentStore::arm(std::function<std::string()> context) {
#if defined(MHM_OBS_DISABLED)
  (void)context;
  return false;
#else
  std::lock_guard<std::mutex> arm_lock(g_arm_mu);
  if (g_armed_store != nullptr) return false;
  const std::string path = options_.dir + "/incident-crash-" +
                           std::to_string(::getpid()) + ".mhmi";
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    crash_path_ = path;
    context_ = std::move(context);
  }
  g_crash_fd.store(fd, std::memory_order_relaxed);
  g_armed_store = this;
  armed_.store(true, std::memory_order_release);
  last_refresh_ns_.store(steady_ns(), std::memory_order_relaxed);
  // First crash bundle: the window as of now (empty before any interval).
  refresh_crash(source_context());

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_old_segv);
  ::sigaction(SIGABRT, &sa, &g_old_abrt);
  return true;
#endif
}

void IncidentStore::disarm() {
  std::lock_guard<std::mutex> arm_lock(g_arm_mu);
  if (g_armed_store != this) return;
  std::lock_guard<std::mutex> lock(mu_);
  g_armed_store = nullptr;
  armed_.store(false, std::memory_order_relaxed);
  ::sigaction(SIGSEGV, &g_old_segv, nullptr);
  ::sigaction(SIGABRT, &g_old_abrt, nullptr);
  const int fd = g_crash_fd.exchange(-1, std::memory_order_relaxed);
  g_published.store(-1, std::memory_order_relaxed);
  if (fd >= 0) {
    // The crash file only has content if a handler actually fired (in which
    // case this code never runs) — an empty one is clutter, remove it.
    struct stat st;
    const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
    ::close(fd);
    if (empty) ::unlink(crash_path_.c_str());
  }
  crash_path_.clear();
  context_ = nullptr;
}

std::string IncidentStore::flush(const std::string& reason) {
  if (!armed()) return "";
  Incident incident = source_context();
  incident.reason = reason;
  const std::string context = render_context();
  std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(incident, /*partial=*/false, &context);
}

std::string IncidentStore::flush_armed(const std::string& reason) {
  std::lock_guard<std::mutex> arm_lock(g_arm_mu);
  return g_armed_store != nullptr ? g_armed_store->flush(reason) : "";
}

void IncidentStore::attach_source(const IncidentRecorder* recorder) {
  std::lock_guard<std::mutex> lock(source_mu_);
  source_ = recorder;
}

void IncidentStore::detach_source(const IncidentRecorder* recorder) {
  std::lock_guard<std::mutex> lock(source_mu_);
  if (source_ == recorder) source_ = nullptr;
}

Incident IncidentStore::source_context() {
  std::lock_guard<std::mutex> lock(source_mu_);
  return source_ != nullptr ? source_->context() : Incident{};
}

bool IncidentStore::refresh_due() {
  if (!armed()) return false;
  const std::uint64_t now = steady_ns();
  std::uint64_t last = last_refresh_ns_.load(std::memory_order_relaxed);
  return now - last >= kRefreshGapNs &&
         last_refresh_ns_.compare_exchange_strong(last, now,
                                                  std::memory_order_relaxed);
}

std::string IncidentStore::render_context() {
  std::function<std::string()> provider;
  {
    std::lock_guard<std::mutex> lock(mu_);
    provider = context_;
  }
  return provider ? provider() : std::string();
}

void IncidentStore::refresh_crash(Incident context) {
  const std::string sections = render_context();
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed()) return;
  context.reason = "crash";
  render_locked(context, &sections);
  // The handler only reads the published buffer; this one may reallocate.
  const int idx = g_published.load(std::memory_order_relaxed) == 0 ? 1 : 0;
  g_snapshot[idx].assign(buffer_.begin(), buffer_.end());
  g_published.store(idx, std::memory_order_release);
}

std::vector<IncidentSummary> IncidentStore::summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::uint64_t IncidentStore::total_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

namespace {

void append_summary_fields(std::string& out, const IncidentSummary& s) {
  append_fmt(out, "\"id\":%llu,", static_cast<unsigned long long>(s.id));
  out += "\"reason\":\"" + json_escape(s.reason) + "\",\"detail\":\"" +
         json_escape(s.detail) + '"';
  append_fmt(out, ",\"trigger_interval\":%llu,\"model_version\":%llu,"
                  "\"entries\":%zu,\"alarms\":%zu,\"bytes\":%zu,",
             static_cast<unsigned long long>(s.trigger_interval),
             static_cast<unsigned long long>(s.model_version), s.entries,
             s.alarms, s.bytes);
  out += "\"path\":\"" + json_escape(s.path) + '"';
}

}  // namespace

std::string IncidentStore::json_list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1024);
  append_fmt(out, "{\"total\":%llu,\"incidents\":[",
             static_cast<unsigned long long>(total_));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    append_summary_fields(out, ring_[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

std::optional<std::string> IncidentStore::json_one(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IncidentSummary& s : ring_) {
    if (s.id != id) continue;
    std::string out;
    out.reserve(4096);
    out += '{';
    append_summary_fields(out, s);
    out += ",\"verdicts\":[";
    for (std::size_t i = 0; i < s.verdicts.size(); ++i) {
      const IncidentEntry& e = s.verdicts[i];
      if (i != 0) out += ',';
      append_fmt(out,
                 "{\"interval\":%llu,\"score\":%.9g,\"score_hex\":\"%a\","
                 "\"spe\":%.9g,\"spe_hex\":\"%a\",\"alarm\":%s,"
                 "\"nearest\":%zu,\"model_version\":%llu}",
                 static_cast<unsigned long long>(e.interval), e.score, e.score,
                 e.spe, e.spe, e.alarm ? "true" : "false", e.nearest_pattern,
                 static_cast<unsigned long long>(e.model_version));
    }
    out += "]}";
    return out;
  }
  return std::nullopt;
}

IncidentRecorder::IncidentRecorder(const IncidentOptions& options,
                                   std::shared_ptr<IncidentStore> store,
                                   std::shared_ptr<IntervalRing> ring)
    : options_(options), store_(std::move(store)), ring_(ring) {
  options_.pre = std::max<std::size_t>(1, options_.pre);
  options_.burst_window = std::max<std::size_t>(1, options_.burst_window);
  options_.burst_count = std::max<std::size_t>(1, options_.burst_count);
  slots_ = options_.pre + options_.post + 1;
  {
    std::lock_guard<std::mutex> lock(ring->mutex());
    ring->reserve(std::max(slots_, options_.burst_window));
  }
  if (store_) store_->attach_source(this);
}

IncidentRecorder::~IncidentRecorder() {
  if (store_) store_->detach_source(this);
}

void IncidentRecorder::note(std::span<const double> raw,
                            std::span<const double> baseline_mean,
                            std::span<const double> baseline_stddev) {
  std::unique_lock<std::mutex> lock(mu_);
  std::unique_lock<std::mutex> ring_lock(ring_->mutex());
  newest_seq_ = ring_->total() - 1;
  if (!noted_) first_seq_ = burst_from_ = newest_seq_;
  const IntervalRow row = ring_->at(newest_seq_);
  // Alarms within the burst window, read off the ring's alarm flags
  // (intervals are monotone per stream).
  std::size_t burst = 0;
  if (!pending_) {
    const std::uint64_t oldest = std::max<std::uint64_t>(
        burst_from_, ring_->first(options_.burst_window));
    for (std::uint64_t seq = newest_seq_ + 1; seq-- > oldest;) {
      const IntervalRow& r = ring_->at(seq);
      if (row.interval - r.interval >= options_.burst_window) break;
      burst += r.alarm;
    }
  }
  ring_lock.unlock();

  if (rows_.size() != slots_ * raw.size()) {  // First note, or a new L.
    cells_ = raw.size();
    rows_.assign(slots_ * cells_, 0.0);
  }
  std::copy(raw.begin(), raw.end(),
            rows_.begin() + newest_seq_ % slots_ * cells_);

  if (!pending_) {
    const bool gap_ok = !has_triggered_ ||
                        row.interval - last_trigger_ >= options_.min_gap;
    const bool burst_hit = burst >= options_.burst_count;
    const bool transition = noted_ && prev_status_ == 0 && row.status != 0;
    if ((burst_hit || transition) && gap_ok) {
      has_triggered_ = true;
      last_trigger_ = row.interval;
      reason_ = burst_hit ? "alarm_burst" : "health_transition";
      if (burst_hit) {
        std::snprintf(detail_, sizeof detail_, "%zu alarms in %zu intervals",
                      burst, options_.burst_window);
      } else {
        std::snprintf(detail_, sizeof detail_, "OK->%s",
                      row.status == 1 ? "DRIFTING" : "MISCALIBRATED");
      }
      trigger_seq_ = newest_seq_;
      top_cells_.clear();
      if (baseline_mean.size() == raw.size() &&
          baseline_stddev.size() == raw.size()) {
        rank_cells_by_z(raw, baseline_mean, baseline_stddev,
                        options_.top_cells, top_cells_);
      }
      pending_ = true;
    } else if (burst_hit || transition) {
      ++suppressed_;
      if (store_) suppressed_counter().add(1);
      burst_from_ = newest_seq_ + 1;  // One suppression per burst.
    }
  }
  if (pending_ && newest_seq_ - trigger_seq_ == options_.post) commit_locked();
  noted_ = true;
  prev_status_ = row.status;

  // Black box: keep the armed store's crash bundle at most one refresh
  // period behind this stream. One relaxed load while unarmed. The refresh
  // renders context sections that may read this recorder, so it runs
  // after the lock is released.
  if (store_ && store_->refresh_due()) {
    Incident context = context_locked();
    lock.unlock();
    store_->refresh_crash(std::move(context));
  }
}

void IncidentRecorder::commit_locked() {
  Incident inc = window_locked(trigger_seq_, pre_before(trigger_seq_));
  inc.reason = reason_;
  inc.detail = detail_;
  inc.post = options_.post;
  inc.top_cells = top_cells_;
  if (store_) store_->commit(std::move(inc));
  ++committed_;
  pending_ = false;
  burst_from_ = newest_seq_ + 1;
}

Incident IncidentRecorder::window_locked(std::uint64_t trigger,
                                         std::size_t pre) const {
  Incident inc;
  std::lock_guard<std::mutex> ring_lock(ring_->mutex());
  const IntervalRow& t = ring_->at(trigger);
  inc.trigger_interval = t.interval;
  inc.model_version = t.model_version;
  inc.threshold = t.threshold;
  inc.cells = cells_;
  inc.pre = pre;
  inc.window.reserve(newest_seq_ + pre + 1 - trigger);
  for (std::uint64_t seq = trigger - pre; seq <= newest_seq_; ++seq) {
    const IntervalRow& r = ring_->at(seq);
    const auto row = rows_.begin() + seq % slots_ * cells_;
    inc.window.push_back({r.interval, r.score, r.spe, r.alarm, r.pattern,
                          r.model_version, {row, row + cells_}});
  }
  return inc;
}

Incident IncidentRecorder::context() const {
  std::lock_guard<std::mutex> lock(mu_);
  return context_locked();
}

IncidentEntry IncidentRecorder::newest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return noted_ ? window_locked(newest_seq_, 0).window.front()
                : IncidentEntry{};
}

Incident IncidentRecorder::context_locked() const {
  if (!noted_) return Incident{};
  return window_locked(newest_seq_, pre_before(newest_seq_));
}

std::uint64_t IncidentRecorder::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

std::uint64_t IncidentRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

bool IncidentRecorder::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double parse_hex_double(const std::string& tok) {
  return std::strtod(tok.c_str(), nullptr);
}

}  // namespace

bool parse_incident_file(const std::string& path, IncidentBundle* out,
                         std::string* error) {
  std::ifstream file(path);
  if (!file.good()) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(file, line) || line != "MHMI 1") {
    if (error) *error = "not an MHMI 1 bundle: " + path;
    return false;
  }
  Incident& inc = out->incident;
  inc = Incident{};
  inc.path = path;
  out->truncated = true;  // Until the end marker shows up.
  out->build_info.clear();

  enum class Section { kHeader, kVerdicts, kCells, kRows, kSkipped };
  Section section = Section::kHeader;
  while (std::getline(file, line)) {
    if (line == "== end ==") {
      out->truncated = false;
      break;
    }
    if (starts_with(line, "== ") && line.size() >= 6 &&
        line.compare(line.size() - 3, 3, " ==") == 0) {
      // Any `== name ==` this parser does not read (profile, the context
      // sections, a future addition) is skipped up to the next header.
      section = starts_with(line, "== verdicts ") ? Section::kVerdicts
                : starts_with(line, "== cells ")  ? Section::kCells
                : starts_with(line, "== rows ")   ? Section::kRows
                                                  : Section::kSkipped;
      continue;
    }
    std::istringstream ls(line);
    if (section == Section::kHeader) {
      std::string key;
      if (!(ls >> key)) continue;
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      if (key == "id") inc.id = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "reason") inc.reason = rest;
      else if (key == "detail") inc.detail = rest == "-" ? "" : rest;
      else if (key == "trigger_interval")
        inc.trigger_interval = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "model_version")
        inc.model_version = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "threshold") inc.threshold = parse_hex_double(rest);
      else if (key == "cells")
        inc.cells = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "pre") inc.pre = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "post")
        inc.post = std::strtoull(rest.c_str(), nullptr, 10);
      else if (starts_with(key, "build."))
        out->build_info.push_back(key + " " + rest);
      // "entries" is derivable; unknown keys are skipped for forward compat.
    } else if (section == Section::kVerdicts) {
      IncidentEntry e;
      std::string score_tok, spe_tok;
      int alarm = 0;
      unsigned long long iv = 0, mv = 0;
      if (!(ls >> iv >> score_tok >> spe_tok >> alarm >> e.nearest_pattern >>
            mv)) {
        break;  // Cut mid-line: keep what parsed, stay truncated.
      }
      e.interval = iv;
      e.model_version = mv;
      e.score = parse_hex_double(score_tok);
      e.spe = parse_hex_double(spe_tok);
      e.alarm = alarm != 0;
      inc.window.push_back(std::move(e));
    } else if (section == Section::kCells) {
      CellContribution c;
      std::string obs_tok, exp_tok, z_tok;
      if (!(ls >> c.cell >> obs_tok >> exp_tok >> z_tok)) break;
      c.observed = parse_hex_double(obs_tok);
      c.expected = parse_hex_double(exp_tok);
      c.z_score = parse_hex_double(z_tok);
      inc.top_cells.push_back(c);
    } else if (section == Section::kRows) {
      unsigned long long iv = 0;
      if (!(ls >> iv)) break;
      std::vector<double> row;
      row.reserve(inc.cells);
      std::string tok;
      while (ls >> tok) row.push_back(parse_hex_double(tok));
      if (inc.cells != 0 && row.size() != inc.cells) break;  // Cut mid-row.
      for (IncidentEntry& e : inc.window) {
        if (e.interval == iv && e.row.empty()) {
          e.row = std::move(row);
          break;
        }
      }
    }
  }
  return true;
}

}  // namespace mhm::obs
