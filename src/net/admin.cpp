#include "net/admin.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace evs::net {

namespace {

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 413: return "Payload Too Large";
    case 503: return "Service Unavailable";
    default: return "?";
  }
}

/// Parses a decimal u64; rejects empty, non-digit, and values that do not
/// fit (a silent wrap would turn since=2^64 into since=0 and replay the
/// whole trace).
bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

/// Splits an &-separated "k=v" list (a query, or an
/// application/x-www-form-urlencoded body) into its pairs, empty ones
/// included; a pair without '=' has an empty value. No percent-decoding:
/// tokens and our parameter names never need it.
std::vector<std::pair<std::string_view, std::string_view>> split_params(
    std::string_view text) {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t amp = std::min(text.find('&', pos), text.size());
    const std::string_view pair = text.substr(pos, amp - pos);
    const std::size_t eq = std::min(pair.find('='), pair.size());
    pairs.emplace_back(pair.substr(0, eq),
                       pair.substr(std::min(eq + 1, pair.size())));
    pos = amp + 1;
  }
  return pairs;
}

/// Parses /trace's query: any &-separated combination of "since=<u64>"
/// and "req=<u64>" (each at most once). Empty query is since=0 with no
/// request filter; anything else — unknown keys, empty or overflowing
/// values — is malformed.
bool parse_trace_query(const std::string& query, std::uint64_t& since,
                       bool& req_filter, std::uint64_t& req) {
  since = 0;
  req_filter = false;
  req = 0;
  if (query.empty()) return true;
  bool saw_since = false;
  for (const auto& [key, value] : split_params(query)) {
    if (key == "since" && !saw_since && parse_u64(value, since)) {
      saw_since = true;
    } else if (key == "req" && !req_filter && parse_u64(value, req) &&
               req != 0) {
      req_filter = true;
    } else {
      return false;
    }
  }
  return true;
}

/// Case-insensitive header lookup in a raw header block ("Name: value"
/// lines); returns the value with surrounding blanks stripped.
std::optional<std::string> find_header(const std::string& headers,
                                       std::string_view name) {
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  for (std::size_t pos = 0; pos < headers.size();) {
    const std::size_t eol = std::min(headers.find('\n', pos), headers.size());
    std::string_view line = std::string_view(headers).substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= name.size() || line[name.size()] != ':' ||
        !std::equal(name.begin(), name.end(), line.begin(),
                    [&](char a, char b) { return lower(a) == lower(b); }))
      continue;
    line.remove_prefix(name.size() + 1);
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) return std::string();
    const std::size_t end = line.find_last_not_of(" \t\r") + 1;
    return std::string(line.substr(begin, end - begin));
  }
  return std::nullopt;
}

}  // namespace

std::uint64_t admin_command_code(const std::string& name) {
  if (name == "join") return 1;
  if (name == "leave") return 2;
  if (name == "merge-all") return 3;
  if (name == "merge") return 4;
  return 0;
}

AdminServer::AdminServer(EventLoop& loop, std::uint32_t ip, std::uint16_t port)
    : engine_(loop, ip, port, "admin", kMaxConnections, /*max_out_bytes=*/0,
              {.on_data = [this](Conn& conn, SimTime) { on_data(conn); },
               .on_sent = {},
               .on_close = {}}) {}

AdminStats AdminServer::stats() const {
  AdminStats stats = stats_;
  stats.connections_accepted = engine_.stats().accepted;
  stats.dropped_overload = engine_.stats().shed;
  return stats;
}

void AdminServer::on_data(Conn& conn) {
  // A complete header section is the request line plus headers up to a
  // blank line; a POST body (bounded separately) follows it.
  std::size_t terminator = conn.in.find("\r\n\r\n");
  std::size_t terminator_len = 4;
  const std::size_t bare = conn.in.find("\n\n");
  if (bare != std::string::npos &&
      (terminator == std::string::npos || bare < terminator)) {
    terminator = bare;
    terminator_len = 2;
  }
  if (terminator == std::string::npos ? conn.in.size() > kMaxRequestBytes
                                      : terminator > kMaxRequestBytes) {
    ++stats_.dropped_oversize;
    respond(conn, 400, "text/plain", "request too large\n");
    return;
  }
  // No terminator yet, or a POST body still in flight (its declared length
  // was checked against kMaxBodyBytes, so the buffer stays bounded): wait
  // for the next read pass.
  if (terminator != std::string::npos)
    handle_request(conn, terminator + terminator_len);
}

void AdminServer::handle_request(Conn& conn, std::size_t body_at) {
  const std::size_t eol = conn.in.find_first_of("\r\n");
  const std::string line = conn.in.substr(0, eol);
  // Strict request line: <METHOD> <target> HTTP/1.x — exactly three tokens.
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  const bool shaped = sp1 != std::string::npos && sp2 != std::string::npos &&
                      sp2 > sp1 + 1 && sp2 + 1 < line.size() &&
                      line.find(' ', sp2 + 1) == std::string::npos;
  const std::string method = shaped ? line.substr(0, sp1) : std::string{};
  if (!shaped || (method != "GET" && method != "POST") ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0)
    return refuse(conn, stats_.dropped_malformed, 400, "bad request\n");
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? std::string{} : target.substr(qmark + 1);
  if (method == "GET") return serve_get(conn, path, query);

  const std::string headers = conn.in.substr(eol, body_at - eol);
  std::uint64_t length = 0;
  if (const auto cl = find_header(headers, "content-length");
      cl && !parse_u64(*cl, length))
    return refuse(conn, stats_.dropped_malformed, 400, "bad content-length\n");
  if (length > kMaxBodyBytes)
    return refuse(conn, stats_.dropped_oversize, 413, "body too large\n");
  if (conn.in.size() < body_at + length) return;  // body still in flight
  handle_command(conn, path, query, headers, conn.in.substr(body_at, length));
}

void AdminServer::serve_get(Conn& conn, const std::string& path,
                            const std::string& query) {
  std::string content_type = "application/json";
  std::string body;
  std::string extra_headers;
  if (path == "/status" || path == "/health") {
    const auto& provider = path == "/status" ? status_ : health_;
    if (!provider)
      return respond(conn, 503, "text/plain",
                     "no " + path.substr(1) + " provider\n");
    body = provider();
  } else if (path == "/metrics" || path == "/metrics.prom") {
    if (registry_ == nullptr)
      return respond(conn, 503, "text/plain", "no metrics registry\n");
    if (refresh_) refresh_();
    if (path == "/metrics") {
      body = registry_->to_json() + "\n";
    } else {
      content_type = "text/plain; version=0.0.4";
      body = registry_->to_prometheus();
    }
  } else if (path == "/trace") {
    if (trace_ == nullptr)
      return respond(conn, 503, "text/plain", "no trace bus\n");
    std::uint64_t since = 0;
    bool req_filter = false;
    std::uint64_t req = 0;
    if (!parse_trace_query(query, since, req_filter, req))
      return refuse(conn, stats_.dropped_malformed, 400,
                    "bad trace query (since=<u64>, req=<u64>)\n");
    std::uint64_t next = since;
    std::ostringstream os;
    for (const auto& [index, event] :
         trace_->events_since(since, kMaxTraceEvents, &next)) {
      // req= narrows the tail to one traced request's lifecycle hops
      // (the Request* kinds carry the trace id in their seq field).
      if (req_filter &&
          !(obs::is_request_event(event.kind) && event.seq == req))
        continue;
      obs::write_jsonl_event(os, event, &index);
    }
    extra_headers = "X-Evs-Next-Since: " + std::to_string(next) + "\r\n";
    content_type = "application/x-ndjson";
    body = os.str();
  } else {
    return refuse(conn, stats_.not_found, 404, "not found\n");
  }
  ++stats_.requests_ok;
  respond(conn, 200, content_type, std::move(body), extra_headers);
}

void AdminServer::handle_command(Conn& conn, const std::string& path,
                                 const std::string& query,
                                 const std::string& headers,
                                 const std::string& body) {
  std::string name = path.substr(1);
  std::string arg;
  if (path == "/join" || path == "/leave" || path == "/merge-all") {
    if (!query.empty())
      return refuse(conn, stats_.dropped_malformed, 400, "unexpected query\n");
  } else if (path == "/merge") {
    constexpr std::string_view kKey = "svset=";
    if (query.size() <= kKey.size() ||
        query.compare(0, kKey.size(), kKey) != 0)
      return refuse(conn, stats_.dropped_malformed, 400,
                    "merge requires ?svset=<id>,<id>,...\n");
    arg = query.substr(kKey.size());
  } else {
    return refuse(conn, stats_.not_found, 404, "not found\n");
  }

  // Authenticate before touching the node: header token first, then the
  // form body. An unconfigured token keeps the whole write side off.
  std::string presented = find_header(headers, "x-admin-token").value_or("");
  for (const auto& [key, value] : split_params(body))
    if (presented.empty() && key == "token") presented = value;
  if (token_.empty())
    return refuse(conn, stats_.dropped_unauthorized, 403,
                  "admin write side disabled (no admin_token configured)\n");
  if (presented != token_)
    return refuse(conn, stats_.dropped_unauthorized, 401, "unauthorized\n");

  if (!command_)
    return respond(conn, 503, "text/plain", "no command handler\n");
  const AdminCommandResult result = command_(name, arg);
  if (!result.ok)
    return refuse(
        conn, stats_.commands_rejected, 400,
        (result.message.empty() ? "rejected" : result.message) + "\n");
  ++stats_.commands_ok;
  ++stats_.requests_ok;
  respond(conn, 200, "application/json",
          "{\"ok\": true, \"command\": \"" + name + "\"}\n");
}

void AdminServer::refuse(Conn& conn, std::uint64_t& counter, int code,
                         std::string message) {
  ++counter;
  respond(conn, code, "text/plain", std::move(message));
}

void AdminServer::respond(Conn& conn, int code,
                          const std::string& content_type, std::string body,
                          const std::string& extra_headers) {
  std::ostringstream os;
  os << "HTTP/1.0 " << code << " " << reason_phrase(code) << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n"
     << extra_headers << "\r\n";
  conn.out = os.str() + body;
  conn.in.clear();
  conn.in.shrink_to_fit();
  engine_.close_after_drain(conn);
}

void AdminServer::export_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  const AdminStats s = stats();
  for (const auto& [name, value] : {
           std::pair{"connections_accepted", s.connections_accepted},
           {"requests_ok", s.requests_ok},
           {"dropped_malformed", s.dropped_malformed},
           {"dropped_oversize", s.dropped_oversize},
           {"dropped_overload", s.dropped_overload},
           {"dropped_unauthorized", s.dropped_unauthorized},
           {"not_found", s.not_found},
           {"commands_ok", s.commands_ok},
           {"commands_rejected", s.commands_rejected},
       })
    registry.counter(prefix + "." + name).set(value);
}

}  // namespace evs::net
