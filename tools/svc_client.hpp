// Client SDK for the svc front door: one connection, typed retries.
//
// The raw protocol (src/svc/protocol.hpp) answers every request with one
// typed outcome; turning those outcomes into a reliable client call is
// the same loop in every tool, so it lives here once:
//
//   * InvalidEpoch{current}  -> re-fence (adopt the epoch) and retry —
//                               the epoch-fencing rule from the client's
//                               side; a sealed log shard answers the same
//                               way, so seals are ridden out too.
//   * Unavailable / Conflict -> honour retry_after_ms (plus full jitter,
//                               so a thousand shed clients don't return
//                               in one thundering herd), then retry.
//   * NotLeader{site}        -> returned at once: the client talks to one
//                               node, and asking it again cannot help.
//   * connection failure     -> reconnect with jittered exponential
//                               backoff and retry. NOTE: a write whose
//                               connection died mid-call may or may not
//                               have been applied — retrying gives
//                               at-least-once semantics, same as every
//                               reconnecting client of an ordered log.
//
// call() blocks until it has a definitive answer (Ok / Unsupported /
// NotLeader), 32 attempts have been made (the last non-definitive answer
// is returned), or 15 s have passed (synthetic Unavailable). One request
// at a time — load generators keep their own open-loop engines; this SDK
// is for correctness-first callers (loadgen's log verify pass, tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "runtime/svc.hpp"

namespace evs::tools {

struct SvcAddr {
  std::string host;
  std::uint16_t port = 0;
};

class SvcClient {
 public:
  /// Talks to `addr` only. Connects lazily on the first call.
  explicit SvcClient(SvcAddr addr);
  ~SvcClient();
  SvcClient(const SvcClient&) = delete;
  SvcClient& operator=(const SvcClient&) = delete;

  /// Runs one request through the retry loop. The request's view_epoch
  /// is overwritten with the client's fenced epoch (0 until the first
  /// Ok); pass `fence = false` to send epoch 0 always (whole-log ops —
  /// LogTail / LogSeal — span groups with independent epochs).
  runtime::SvcResponse call(runtime::SvcRequest req, bool fence = true);

  /// Epoch adopted from the last Ok / InvalidEpoch answer.
  std::uint64_t fenced_epoch() const { return epoch_; }

 private:
  bool ensure_connected();
  void disconnect();
  /// One request/response exchange on the live connection; nullopt on
  /// any I/O failure.
  std::optional<runtime::SvcResponse> exchange(
      const runtime::SvcRequest& req);
  void sleep_backoff(std::uint64_t hint_ms, std::uint32_t streak);
  std::uint64_t next_jitter(std::uint64_t bound_ms);

  SvcAddr addr_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t epoch_ = 0;
  std::uint64_t rng_;
};

}  // namespace evs::tools
