#include "log/log_shard.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/check.hpp"

namespace evs::log {

using runtime::SvcOp;
using runtime::SvcRequest;
using runtime::SvcRespondFn;
using runtime::SvcResponse;

namespace {

/// Strict decimal u64; nullopt on anything else (positions and epochs
/// arrive as client-controlled strings).
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

LogShard::LogShard(LogShardConfig config)
    : app::GroupObjectBase(config.object), config_(config) {
  EVS_CHECK(config_.shard_count >= 1);
  EVS_CHECK(config_.shard_index < config_.shard_count);
}

bool LogShard::can_serve(const std::vector<ProcessId>& members) const {
  // Single-copy ordering: only a majority of the universe may assign
  // positions, so two partitions can never both extend the log.
  return members.size() * 2 > config_.object.endpoint.universe.size();
}

bool LogShard::is_coordinator() const {
  return eview().view.id.coordinator == id();
}

void LogShard::svc_dispatch(SvcRequest req, SvcRespondFn respond) {
  switch (req.op) {
    case SvcOp::LogRead: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      const auto global = parse_u64(req.key);
      if (!global || *global % config_.shard_count != config_.shard_index) {
        respond(SvcResponse::unsupported());  // misrouted / malformed
        return;
      }
      const std::uint64_t local = *global / config_.shard_count;
      if (local < trim_floor_) {
        respond(SvcResponse::ok(view_epoch(), "T"));
        return;
      }
      if (local >= next_local_) {
        // Not yet assigned: the reader caught the tail; retry or fill.
        respond(SvcResponse::conflict(
            config_.object.svc_retry_after_ms));
        return;
      }
      const std::size_t index = local - trim_floor_;
      if (records_.filled(index)) {
        respond(SvcResponse::ok(view_epoch(), "F"));
        return;
      }
      std::string value = "D";
      value += records_.data(index);
      respond(SvcResponse::ok(view_epoch(), std::move(value)));
      return;
    }
    case SvcOp::LogTail: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      respond(SvcResponse::ok(view_epoch(), std::to_string(global_tail())));
      return;
    }
    case SvcOp::LogAppend: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (sealed()) {
        // The CORFU fence: a sealed shard refuses new appends until a
        // view change advances the epoch past the seal. Same outcome as
        // an epoch fence, so the client SDK's re-fence path handles both.
        respond(SvcResponse::invalid_epoch(view_epoch()));
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(OpKind::Append));
      enc.put_string(req.value);
      svc_multicast(std::move(enc).take(), std::move(respond), [this]() {
        // Runs right after apply_append assigned this op's position.
        const std::uint64_t global =
            last_assigned_local_ * config_.shard_count + config_.shard_index;
        return SvcResponse::ok(view_epoch(), std::to_string(global));
      });
      return;
    }
    case SvcOp::LogSeal: {
      const auto epoch = parse_u64(req.key);
      if (!epoch) {
        respond(SvcResponse::unsupported());
        return;
      }
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(OpKind::Seal));
      enc.put_varint(*epoch);
      svc_multicast(std::move(enc).take(), std::move(respond), [this]() {
        return SvcResponse::ok(view_epoch(),
                               std::to_string(sealed_epoch_));
      });
      return;
    }
    case SvcOp::LogTrim:
    case SvcOp::LogFill: {
      const auto global = parse_u64(req.key);
      if (!global || *global % config_.shard_count != config_.shard_index) {
        respond(SvcResponse::unsupported());
        return;
      }
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      const std::uint64_t local = *global / config_.shard_count;
      const bool fill = req.op == SvcOp::LogFill;
      if (fill && fill_out_of_reach(local)) {
        respond(SvcResponse::unsupported());
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(fill ? OpKind::Fill : OpKind::Trim));
      enc.put_varint(local);
      const std::string echo = req.key;
      svc_multicast(std::move(enc).take(), std::move(respond),
                    [this, echo, fill, local]() {
                      // A fill apply_fill ignored left the tail below it.
                      if (fill && local >= next_local_)
                        return SvcResponse::unsupported();
                      return SvcResponse::ok(view_epoch(), echo);
                    });
      return;
    }
    default:
      respond(SvcResponse::unsupported());
  }
}

void LogShard::on_object_deliver(ProcessId sender, const Bytes& payload) {
  (void)sender;
  Decoder dec(payload);
  switch (static_cast<OpKind>(dec.get_u8())) {
    case OpKind::Append:
      apply_append(dec.get_string_view());
      break;
    case OpKind::Seal:
      apply_seal(dec.get_varint());
      break;
    case OpKind::Trim:
      apply_trim(dec.get_varint());
      break;
    case OpKind::Fill:
      apply_fill(dec.get_varint());
      break;
  }
}

void LogShard::apply_append(std::string_view record) {
  // Position assignment and write are one step in the total order: every
  // replica assigns the same local position to the same multicast.
  // Appends ordered before a seal landed still apply after it — the
  // fence is at admission, the order stays deterministic.
  const std::uint64_t local = next_local_++;
  records_.push_back(record, false);
  last_assigned_local_ = local;
  ++version_;
}

void LogShard::apply_fill(std::uint64_t local) {
  if (local < next_local_) {
    ++version_;  // occupied (data raced the fill and won) — no-op
    return;
  }
  if (fill_out_of_reach(local)) {
    // Every replica applies the same op to the same tail: all refuse it.
    ++fills_refused_;
    ++version_;
    return;
  }
  // Junk-fill everything up to and including `local`: in-order global
  // readers fill positions front to back, so the range is length 1 in
  // practice; filling it densely keeps every position below the tail
  // occupied.
  for (std::uint64_t l = next_local_; l <= local; ++l)
    records_.push_back({}, true);
  next_local_ = local + 1;
  last_assigned_local_ = local;
  ++version_;
}

void LogShard::apply_trim(std::uint64_t local) {
  if (local > trim_floor_) {
    const std::uint64_t floor = std::min(local, next_local_);
    records_.pop_front(floor - trim_floor_);
    trim_floor_ = floor;
  }
  ++version_;
}

void LogShard::apply_seal(std::uint64_t epoch) {
  sealed_epoch_ = std::max(sealed_epoch_, epoch);
  ++version_;
}

Bytes LogShard::encode_state(const LogShard& s) {
  Encoder enc;
  enc.put_varint(s.version_);
  enc.put_varint(s.next_local_);
  enc.put_varint(s.trim_floor_);
  enc.put_varint(s.sealed_epoch_);
  enc.put_varint(s.records_.size());
  std::uint64_t local = s.trim_floor_;
  s.records_.for_each([&](bool filled, std::string_view data) {
    enc.put_varint(local++);
    enc.put_u8(filled ? 1 : 0);
    enc.put_string(data);
  });
  return std::move(enc).take();
}

namespace {

/// A whole snapshot, decoded and checked before anything commits it.
struct DecodedState {
  std::uint64_t version = 0;
  std::uint64_t next_local = 0;
  std::uint64_t trim_floor = 0;
  std::uint64_t sealed_epoch = 0;
  RecordArena records;
};

/// The one snapshot decode: throws DecodeError on a truncated or
/// bit-flipped snapshot, and on any slot list that is not exactly
/// trim_floor … next_local−1 in order — the shard is dense by
/// construction, so anything else is corruption, not a log.
DecodedState decode_state(const Bytes& snapshot) {
  Decoder dec(snapshot);
  DecodedState s;
  s.version = dec.get_varint();
  s.next_local = dec.get_varint();
  s.trim_floor = dec.get_varint();
  s.sealed_epoch = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  // Every slot costs at least 3 encoded bytes; a length field larger than
  // the remaining payload can ever justify is corruption, not a big log.
  if (n > dec.remaining()) throw DecodeError("LogShard: slot count too large");
  if (s.trim_floor > s.next_local || n != s.next_local - s.trim_floor)
    throw DecodeError("LogShard: slots do not cover trim_floor..next_local");
  for (std::uint64_t i = 0; i < n; ++i) {
    if (dec.get_varint() != s.trim_floor + i)
      throw DecodeError("LogShard: slot out of place");
    const bool filled = dec.get_u8() != 0;
    s.records.push_back(dec.get_string_view(), filled);
  }
  dec.expect_end();
  return s;
}

}  // namespace

Bytes LogShard::snapshot_state() const { return encode_state(*this); }

void LogShard::install_state(const Bytes& snapshot) {
  // Decode into a temporary first: a rejected snapshot leaves the shard
  // untouched (the settle engine counts the rejection).
  DecodedState s = decode_state(snapshot);
  version_ = s.version;
  next_local_ = s.next_local;
  trim_floor_ = s.trim_floor;
  sealed_epoch_ = s.sealed_epoch;
  records_ = std::move(s.records);
}

Bytes LogShard::merge_cluster_states(const std::vector<Bytes>& snapshots) {
  // Majority-only serving means clusters cannot diverge: the states are
  // prefixes of one history. Adopt the longest (ties: highest version),
  // which is exactly the most-advanced prefix.
  const Bytes* best = nullptr;
  std::uint64_t best_tail = 0;
  std::uint64_t best_version = 0;
  for (const Bytes& snapshot : snapshots) {
    // Validate the whole candidate, not just its header: a corrupt
    // snapshot must fail the merge here (counted upstream), not win on a
    // corrupt tail field and poison the install.
    const DecodedState s = decode_state(snapshot);
    if (best == nullptr || s.next_local > best_tail ||
        (s.next_local == best_tail && s.version > best_version)) {
      best = &snapshot;
      best_tail = s.next_local;
      best_version = s.version;
    }
  }
  if (best == nullptr)
    throw DecodeError("LogShard: no cluster state to merge");
  return *best;
}

std::string LogShard::admin_status_json() const {
  // The endpoint's JSON with the shard's own block spliced in.
  std::string base = app::GroupObjectBase::admin_status_json();
  EVS_CHECK(!base.empty() && base.back() == '}');
  base.pop_back();
  std::ostringstream os;
  os << base << ",\"log\":{\"shard\":" << config_.shard_index
     << ",\"shards\":" << config_.shard_count
     << ",\"global_tail\":" << global_tail()
     << ",\"local_tail\":" << next_local_
     << ",\"trim_floor\":" << trim_floor_
     << ",\"sealed_epoch\":" << sealed_epoch_
     << ",\"sealed\":" << (sealed() ? "true" : "false")
     << ",\"records\":" << records_.size() << "}}";
  return os.str();
}

void LogShard::export_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  app::GroupObjectBase::export_metrics(registry, prefix);
  registry.gauge(prefix + ".log.record_bytes")
      .set(static_cast<double>(records_.held_bytes()));
  registry.counter(prefix + ".log.fills_refused").set(fills_refused_);
}

}  // namespace evs::log
