#include "obs/server.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/build_info.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/history.hpp"
#include "obs/incident.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"

#if !defined(MHM_OBS_DISABLED)
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#endif

namespace mhm::obs {

#if defined(MHM_OBS_DISABLED)

// Compiled-out build: the server never binds; callers need no #ifs.
struct MonitorServer::Impl {};
MonitorServer::MonitorServer() = default;
MonitorServer::~MonitorServer() = default;
bool MonitorServer::start(const Options&) { return false; }
void MonitorServer::stop() {}
bool MonitorServer::running() const { return false; }
std::uint16_t MonitorServer::port() const { return 0; }
void MonitorServer::set_journal(std::shared_ptr<const DecisionJournal>) {}
void MonitorServer::set_model_health(
    std::shared_ptr<const ModelHealthMonitor>) {}
void MonitorServer::set_history(std::shared_ptr<const ScoreHistory>) {}
void MonitorServer::set_incidents(std::shared_ptr<const IncidentStore>) {}
void MonitorServer::set_fleet(std::function<std::string()>) {}
void MonitorServer::set_retrain(std::function<std::string()>) {}
MonitorServer& MonitorServer::instance() {
  static MonitorServer* server = new MonitorServer();
  return *server;
}
bool MonitorServer::ensure_env_server() { return false; }

#else

namespace {

/// Registry value by dotted name (0 when absent) — /status reads the few
/// headline series out of one deterministic snapshot.
double value_of(const std::vector<MetricSnapshot>& snap,
                const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void send_response(int fd, int code, const char* status,
                   const char* content_type, const std::string& body) {
  char head[256];
  const int n = std::snprintf(
      head, sizeof head,
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      code, status, content_type, body.size());
  send_all(fd, head, static_cast<std::size_t>(n));
  send_all(fd, body.data(), body.size());
}

/// Value of `key` in a "a=1&b=2" query string. Returns false when absent;
/// an empty value ("tail=") is *present* and comes back as "".
bool query_param(const std::string& query, const char* key,
                 std::string* value) {
  const std::string prefix = std::string(key) + "=";
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    if (query.compare(pos, prefix.size(), prefix) == 0) {
      *value = query.substr(pos + prefix.size(), end - pos - prefix.size());
      return true;
    }
    pos = end + 1;
  }
  return false;
}

/// Strict decimal u64: digits only, no sign, no trailing junk, no overflow.
/// Query robustness contract: anything else is the caller's 400, never a
/// silent clamp.
bool parse_u64_strict(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // Overflow.
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

void send_json_error(int fd, const std::string& detail) {
  send_response(fd, 400, "Bad Request", "application/json",
                "{\"error\":\"" + detail + "\"}\n");
}

/// Parse an optional strict-u64 query parameter. Returns false (after
/// answering 400) on a malformed value; leaves *out untouched when absent.
bool u64_param_or_400(int fd, const std::string& query, const char* key,
                      std::uint64_t* out) {
  std::string raw;
  if (!query_param(query, key, &raw)) return true;
  std::uint64_t v = 0;
  if (!parse_u64_strict(raw, &v)) {
    send_json_error(fd, std::string(key) +
                            " must be a non-negative decimal integer, got "
                            "'" + raw + "'");
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

struct MonitorServer::Impl {
  Options options;
  int listen_fd = -1;
  std::thread thread;
  std::atomic<bool> stop{false};
  std::atomic<bool> running{false};
  std::atomic<std::uint16_t> port{0};
  std::uint64_t start_ns = 0;
  std::mutex journal_mu;
  std::shared_ptr<const DecisionJournal> journal;
  std::shared_ptr<const ModelHealthMonitor> model_health;
  std::shared_ptr<const ScoreHistory> history;
  std::shared_ptr<const IncidentStore> incidents;
  std::function<std::string()> fleet;
  std::function<std::string()> retrain;

  Counter& requests = Registry::instance().counter(
      "obs.server.requests", "HTTP requests handled by the monitor endpoint");

  void serve_loop();
  void handle_connection(int fd);
  void respond(int fd, const std::string& target);
};

void MonitorServer::Impl::serve_loop() {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void MonitorServer::Impl::handle_connection(int fd) {
  struct timeval tv;
  tv.tv_sec = 2;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() >= options.max_request_bytes) {
      send_response(fd, 431, "Request Header Fields Too Large", "text/plain",
                    "request too large\n");
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;  // Client went away or stalled past the timeout.
    request.append(buf, static_cast<std::size_t>(n));
  }

  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    send_response(fd, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    send_response(fd, 405, "Method Not Allowed", "text/plain",
                  "only GET is supported\n");
    return;
  }
  requests.add();
  respond(fd, target);
}

void MonitorServer::Impl::respond(int fd, const std::string& target) {
  const std::size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  if (path == "/metrics") {
    // The model_health.* gauges are rendered at scrape time from this
    // server's monitor, so no other session's monitor can overwrite them.
    // The stage table is served by /profile only.
    std::shared_ptr<const ModelHealthMonitor> monitor;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      monitor = model_health;
    }
    std::string body = prometheus_text();
    if (monitor != nullptr) {
      body += model_health_prometheus(monitor->snapshot());
    }
    send_response(fd, 200, "OK", "text/plain; version=0.0.4", body);
    return;
  }
  if (path == "/profile") {
    std::string format = "json";
    std::string format_raw;
    if (query_param(query, "format", &format_raw)) {
      if (format_raw != "json" && format_raw != "collapsed") {
        send_json_error(fd, "format must be one of json|collapsed, got '" +
                                format_raw + "'");
        return;
      }
      format = format_raw;
    }
    if (format == "collapsed") {
      send_response(fd, 200, "OK", "text/plain", prof::collapsed_stacks());
      return;
    }
    send_response(fd, 200, "OK", "application/json",
                  prof::profile_json() + "\n");
    return;
  }
  if (path == "/healthz") {
    std::ostringstream os;
    os << "{\"status\":\"ok\",\"uptime_seconds\":"
       << fmt_double(static_cast<double>(steady_ns() - start_ns) * 1e-9)
       << ",\"last_analysis_age_seconds\":"
       << fmt_double(last_analysis_age_seconds()) << "}\n";
    send_response(fd, 200, "OK", "application/json", os.str());
    return;
  }
  if (path == "/status") {
    const auto snap = Registry::instance().snapshot();
    std::size_t journal_size = 0;
    std::uint64_t journal_total = 0;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      if (journal != nullptr) {
        journal_size = journal->size();
        journal_total = journal->total_appended();
      }
    }
    std::ostringstream os;
    os << "{\"uptime_seconds\":"
       << fmt_double(static_cast<double>(steady_ns() - start_ns) * 1e-9)
       << ",\"last_analysis_age_seconds\":"
       << fmt_double(last_analysis_age_seconds())
       << ",\"intervals_analyzed\":"
       << fmt_double(value_of(snap, "detector.intervals_analyzed"))
       << ",\"alarms\":" << fmt_double(value_of(snap, "detector.alarms"))
       << ",\"scenarios_run\":"
       << fmt_double(value_of(snap, "pipeline.scenarios_run"))
       << ",\"scenarios_completed\":"
       << fmt_double(value_of(snap, "pipeline.scenarios_completed"))
       << ",\"gmm_log_likelihood\":"
       << fmt_double(value_of(snap, "core.gmm.log_likelihood"))
       << ",\"gmm_em_iterations\":"
       << fmt_double(value_of(snap, "core.gmm.em_iterations"))
       << ",\"spans_recorded\":"
       << SpanBuffer::instance().total_recorded()
       << ",\"journal_size\":" << journal_size
       << ",\"journal_total\":" << journal_total << "}\n";
    send_response(fd, 200, "OK", "application/json", os.str());
    return;
  }
  if (path == "/journal") {
    std::shared_ptr<const DecisionJournal> j;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      j = journal;
    }
    if (j == nullptr) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no journal attached\n");
      return;
    }
    std::uint64_t tail64 = 100;
    if (!u64_param_or_400(fd, query, "tail", &tail64)) return;
    const std::size_t tail = static_cast<std::size_t>(
        std::min<std::uint64_t>(tail64, SIZE_MAX));
    std::ostringstream os;
    for (const auto& rec : j->snapshot(tail)) os << decision_json(rec) << "\n";
    send_response(fd, 200, "OK", "application/x-ndjson", os.str());
    return;
  }
  if (path == "/trace") {
    send_response(fd, 200, "OK", "application/json", chrome_trace_json());
    return;
  }
  if (path == "/model") {
    std::shared_ptr<const ModelHealthMonitor> monitor;
    std::function<std::string()> retrain_provider;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      monitor = model_health;
      retrain_provider = retrain;
    }
    if (monitor == nullptr) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no model-health monitor attached\n");
      return;
    }
    std::string body = model_health_json(monitor->snapshot());
    if (retrain_provider) {
      // Merge the retrain object into the health JSON by replacing the
      // closing brace — the body stays one object, existing consumers keep
      // parsing, and new ones find the `retrain` key.
      body.pop_back();
      body += ",\"retrain\":" + retrain_provider() + "}";
    }
    send_response(fd, 200, "OK", "application/json", body + "\n");
    return;
  }
  if (path == "/fleet") {
    std::function<std::string()> provider;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      provider = fleet;
    }
    if (!provider) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no fleet attached\n");
      return;
    }
    send_response(fd, 200, "OK", "application/json", provider() + "\n");
    return;
  }
  if (path == "/history") {
    std::shared_ptr<const ScoreHistory> h;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      h = history;
    }
    if (h == nullptr) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no score history attached\n");
      return;
    }
    std::string series = "all";
    std::string series_raw;
    if (query_param(query, "series", &series_raw)) {
      if (series_raw != "score" && series_raw != "spe" &&
          series_raw != "alarm" && series_raw != "status" &&
          series_raw != "all") {
        send_json_error(fd, "series must be one of score|spe|alarm|status|"
                            "all, got '" + series_raw + "'");
        return;
      }
      series = series_raw;
    }
    std::uint64_t res = 0;
    if (!u64_param_or_400(fd, query, "res", &res)) return;
    if (res > h->tiers()) {
      send_json_error(fd, "res out of range: history has " +
                              std::to_string(h->tiers()) +
                              " folded tier(s), got " + std::to_string(res));
      return;
    }
    std::uint64_t from = 0;
    if (!u64_param_or_400(fd, query, "from", &from)) return;
    send_response(fd, 200, "OK", "application/json",
                  history_json(*h, series, static_cast<std::size_t>(res),
                               from) +
                      "\n");
    return;
  }
  if (path == "/incidents" || path.rfind("/incidents/", 0) == 0) {
    std::shared_ptr<const IncidentStore> store;
    {
      std::lock_guard<std::mutex> lk(journal_mu);
      store = incidents;
    }
    if (store == nullptr) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no incident store attached\n");
      return;
    }
    if (path == "/incidents") {
      send_response(fd, 200, "OK", "application/json",
                    store->json_list() + "\n");
      return;
    }
    const std::string id_raw = path.substr(std::strlen("/incidents/"));
    std::uint64_t id = 0;
    if (!parse_u64_strict(id_raw, &id)) {
      send_json_error(fd, "incident id must be a non-negative decimal "
                          "integer, got '" + id_raw + "'");
      return;
    }
    const auto body = store->json_one(id);
    if (!body.has_value()) {
      send_response(fd, 404, "Not Found", "text/plain",
                    "no such incident\n");
      return;
    }
    send_response(fd, 200, "OK", "application/json", *body + "\n");
    return;
  }
  if (path == "/version") {
    send_response(fd, 200, "OK", "application/json",
                  build_info_json() + "\n");
    return;
  }
  if (path == "/flush") {
    const std::string dumped = IncidentStore::flush_armed("flush");
    if (dumped.empty()) {
      send_response(fd, 503, "Service Unavailable", "text/plain",
                    "no incident store armed\n");
      return;
    }
    send_response(fd, 200, "OK", "application/json",
                  "{\"path\":\"" + dumped + "\"}\n");
    return;
  }
  send_response(fd, 404, "Not Found", "text/plain", "not found\n");
}

MonitorServer::MonitorServer() : impl_(std::make_unique<Impl>()) {}

MonitorServer::~MonitorServer() { stop(); }

bool MonitorServer::start(const Options& options) {
  if (!enabled()) return false;  // MHM_OBS=0: never open a socket.
  Impl& impl = *impl_;
  if (impl.running.load(std::memory_order_relaxed)) return false;

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Loopback only.
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) < 0) {
    ::close(fd);
    return false;
  }

  impl.options = options;
  impl.listen_fd = fd;
  impl.start_ns = steady_ns();
  impl.stop.store(false, std::memory_order_relaxed);
  impl.port.store(ntohs(addr.sin_port), std::memory_order_relaxed);
  impl.thread = std::thread([this] { impl_->serve_loop(); });
  impl.running.store(true, std::memory_order_release);
  return true;
}

void MonitorServer::stop() {
  Impl& impl = *impl_;
  if (!impl.running.load(std::memory_order_relaxed)) return;
  impl.stop.store(true, std::memory_order_relaxed);
  if (impl.thread.joinable()) impl.thread.join();
  ::close(impl.listen_fd);
  impl.listen_fd = -1;
  impl.port.store(0, std::memory_order_relaxed);
  impl.running.store(false, std::memory_order_relaxed);
}

bool MonitorServer::running() const {
  return impl_->running.load(std::memory_order_relaxed);
}

std::uint16_t MonitorServer::port() const {
  return impl_->port.load(std::memory_order_relaxed);
}

void MonitorServer::set_journal(
    std::shared_ptr<const DecisionJournal> journal) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->journal = std::move(journal);
}

void MonitorServer::set_model_health(
    std::shared_ptr<const ModelHealthMonitor> monitor) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->model_health = std::move(monitor);
}

void MonitorServer::set_history(
    std::shared_ptr<const ScoreHistory> history) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->history = std::move(history);
}

void MonitorServer::set_incidents(
    std::shared_ptr<const IncidentStore> incidents) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->incidents = std::move(incidents);
}

void MonitorServer::set_fleet(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->fleet = std::move(provider);
}

void MonitorServer::set_retrain(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lk(impl_->journal_mu);
  impl_->retrain = std::move(provider);
}

MonitorServer& MonitorServer::instance() {
  static MonitorServer* server =
      new MonitorServer();  // Leaked: outlives static dtors.
  return *server;
}

bool MonitorServer::ensure_env_server() {
  MonitorServer& server = instance();
  if (server.running()) return true;
  const char* env = std::getenv("MHM_OBS_PORT");
  if (env == nullptr || env[0] == '\0') return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  // "0" is a valid request — bind a kernel-assigned ephemeral port (start()
  // reports the actual one), so parallel test runs never collide.
  if (end == nullptr || *end != '\0' || end == env || v > 65535) return false;
  Options options;
  options.port = static_cast<std::uint16_t>(v);
  if (!server.start(options)) return false;
  std::fprintf(stderr, "[mhm] monitoring endpoint on http://127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));
  return true;
}

#endif  // MHM_OBS_DISABLED

}  // namespace mhm::obs
