#include "net/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace evs::net {

std::string PeerAddr::str() const {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
     << ((ip >> 8) & 0xff) << '.' << (ip & 0xff) << ':' << port;
  return os.str();
}

std::optional<PeerAddr> parse_addr(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size())
    return std::nullopt;

  // Dotted quad.
  std::uint32_t ip = 0;
  int octets = 0;
  std::size_t pos = 0;
  while (pos < colon) {
    std::size_t end = text.find('.', pos);
    if (end == std::string::npos || end > colon) end = colon;
    if (end == pos || end - pos > 3) return std::nullopt;
    std::uint32_t octet = 0;
    for (std::size_t i = pos; i < end; ++i) {
      if (text[i] < '0' || text[i] > '9') return std::nullopt;
      octet = octet * 10 + static_cast<std::uint32_t>(text[i] - '0');
    }
    if (octet > 255 || octets >= 4) return std::nullopt;
    ip = (ip << 8) | octet;
    ++octets;
    pos = end + 1;
  }
  if (octets != 4) return std::nullopt;

  std::uint32_t port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(text[i] - '0');
    if (port > 65535) return std::nullopt;
  }
  return PeerAddr{ip, static_cast<std::uint16_t>(port)};
}

std::vector<SiteId> NodeConfig::universe() const {
  std::vector<SiteId> sites;
  sites.reserve(peers.size());
  for (const auto& [site, addr] : peers) sites.push_back(site);
  return sites;  // std::map keys are already sorted
}

std::vector<GroupSpec> NodeConfig::log_shards() const {
  std::vector<GroupSpec> shards;
  for (const GroupSpec& g : groups)
    if (g.object == "log") shards.push_back(g);
  std::sort(shards.begin(), shards.end());
  return shards;
}

bool parse_node_config(std::istream& in, NodeConfig& out, std::string& error) {
  out = NodeConfig{};
  bool have_self = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank line

    const auto fail = [&](const std::string& what) {
      error = "line " + std::to_string(line_no) + ": " + what;
      return false;
    };

    if (keyword == "self") {
      std::uint32_t site = 0;
      if (!(fields >> site)) return fail("expected: self <site-id>");
      out.self = SiteId{site};
      have_self = true;
    } else if (keyword == "incarnation") {
      std::uint32_t inc = 0;
      if (!(fields >> inc) || inc == 0)
        return fail("expected: incarnation <positive-u32>");
      out.incarnation = inc;
    } else if (keyword == "peer") {
      std::uint32_t site = 0;
      std::string addr_text;
      if (!(fields >> site >> addr_text))
        return fail("expected: peer <site-id> <ip:port>");
      const auto addr = parse_addr(addr_text);
      if (!addr || addr->port == 0)  // peers dial it: no ephemeral port
        return fail("bad address '" + addr_text + "'");
      if (!out.peers.emplace(SiteId{site}, *addr).second)
        return fail("duplicate peer " + std::to_string(site));
    } else if (keyword == "admin") {
      std::uint32_t site = 0;
      std::string addr_text;
      if (!(fields >> site >> addr_text))
        return fail("expected: admin <site-id> <ip:port>");
      const auto addr = parse_addr(addr_text);
      if (!addr) return fail("bad address '" + addr_text + "'");
      if (!out.admin.emplace(SiteId{site}, *addr).second)
        return fail("duplicate admin " + std::to_string(site));
    } else if (keyword == "svc") {
      std::uint32_t site = 0;
      std::string addr_text;
      if (!(fields >> site >> addr_text))
        return fail("expected: svc <site-id> <ip:port>");
      const auto addr = parse_addr(addr_text);
      if (!addr) return fail("bad address '" + addr_text + "'");
      if (!out.svc.emplace(SiteId{site}, *addr).second)
        return fail("duplicate svc " + std::to_string(site));
    } else if (keyword == "admin_token") {
      std::string token;
      if (!(fields >> token)) return fail("expected: admin_token <secret>");
      if (!out.admin_token.empty()) return fail("duplicate admin_token");
      out.admin_token = token;
    } else if (keyword == "store") {
      std::string dir;
      if (!(fields >> dir)) return fail("expected: store <directory>");
      if (!out.store_dir.empty()) return fail("duplicate store");
      out.store_dir = dir;
    } else if (keyword == "group") {
      std::uint32_t id = 0;
      std::string object;
      if (!(fields >> id >> object))
        return fail("expected: group <id> <object>");
      if (object != "kv" && object != "lock" && object != "file" &&
          object != "log" && object != "none")
        return fail("unknown group object '" + object +
                    "' (kv|lock|file|log|none)");
      for (const GroupSpec& g : out.groups)
        if (g.id == id) return fail("duplicate group " + std::to_string(id));
      out.groups.push_back(GroupSpec{GroupId{id}, object});
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
    std::string extra;
    if (fields >> extra) return fail("trailing tokens after '" + keyword + "'");
  }
  if (!have_self) {
    error = "missing 'self' line";
    return false;
  }
  if (!out.peers.contains(out.self)) {
    error = "self site " + to_string(out.self) + " has no peer line";
    return false;
  }
  if (out.peers.size() < 2) {
    error = "config needs at least two peers to form a group";
    return false;
  }
  for (const auto& [site, addr] : out.admin) {
    if (!out.peers.contains(site)) {
      error = "admin line for unknown site " + to_string(site);
      return false;
    }
  }
  for (const auto& [site, addr] : out.svc) {
    if (!out.peers.contains(site)) {
      error = "svc line for unknown site " + to_string(site);
      return false;
    }
  }
  error.clear();
  return true;
}

bool load_node_config(const std::string& path, NodeConfig& out,
                      std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  return parse_node_config(in, out, error);
}

}  // namespace evs::net
