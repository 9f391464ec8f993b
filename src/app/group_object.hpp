// Group-object runtime (Sections 3-6 made executable).
//
// GroupObjectBase turns the paper's methodology into a reusable engine.
// A concrete group object (replicated file, parallel database, lock
// manager, ...) supplies:
//   - a serve predicate  ("can this member set serve all external ops?"),
//   - state plumbing     (snapshot / install / deterministic merge),
//   - its external operations, built on mode() and object_multicast().
//
// The base drives the Figure-1 mode machine, classifies every entry into
// S-mode as transfer / creation / merging, and runs the generic
// reconciliation protocol:
//
//   Enriched classifier (the paper's proposal): classification is local —
//   the serving subviews are read straight off the e-view structure. One
//   representative per subview multicasts an OFFER (version + snapshot);
//   once offers cover the structure, everyone deterministically adopts
//   the right state (transfer source, creation winner by Skeen-style
//   last-to-fail epoch, or an application merge of diverged clusters),
//   then the primary collapses the structure with SV-SetMerge +
//   SubviewMerge and members Reconcile back to N-mode. Members of the
//   single serving subview are never disturbed.
//
//   Flat classifier (the Section-4 baseline): structure is ignored. The
//   process can only narrow the problem to a set of possibilities; it
//   must run a discovery round in which *every* member multicasts its
//   prior view, prior mode, version and snapshot. Costs (messages, bytes,
//   latency) are accounted so CLAIM-CLASSIFY can compare.
//
// Transfer strategies (Section 5's discussion): WholeSnapshot ships the
// state inside the OFFER; SplitSmallLarge ships a small critical part
// synchronously and streams the rest in chunks while the new view is
// already serving — time-to-serve vs time-to-full-state are recorded for
// the CLAIM-XFER bench.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/classify.hpp"
#include "app/history.hpp"
#include "app/mode.hpp"
#include "evs/endpoint.hpp"
#include "obs/metrics.hpp"
#include "runtime/svc.hpp"

namespace evs::app {

enum class ClassifierMode : std::uint8_t { Enriched = 0, FlatDiscovery = 1 };
enum class TransferStrategy : std::uint8_t {
  WholeSnapshot = 0,
  SplitSmallLarge = 1,
};

struct GroupObjectConfig {
  vsync::EndpointConfig endpoint;
  ClassifierMode classifier = ClassifierMode::Enriched;
  TransferStrategy transfer = TransferStrategy::WholeSnapshot;
  /// Isis-style comparison point: while any settle is in progress, even
  /// up-to-date members suspend external operations.
  bool block_all_during_settle = false;
  /// Chunk size for SplitSmallLarge.
  std::size_t chunk_bytes = 4096;
  /// Pacing between background chunks (SplitSmallLarge): keeps the bulk
  /// stream from starving foreground traffic on a finite-bandwidth link —
  /// this is what makes "transferred concurrently with application
  /// activity in the new view" (Section 5) actually concurrent.
  SimDuration chunk_interval = 300 * kMicrosecond;
  /// Record the Section-3 formal history (view + object-delivery events);
  /// lets tests and tools re-derive mode sequences via app::mode_trace.
  bool record_history = false;
  /// Retry hint (ms) carried in Unavailable/Conflict responses to
  /// external clients (runtime::Node::svc_request).
  std::uint64_t svc_retry_after_ms = 50;
  /// Persist the object's snapshot into the stable store (key
  /// "object.state") after every state change, and recover it in
  /// on_start: behind a durable store a restarted process re-enters the
  /// group with its pre-crash state and version instead of empty. Off by
  /// default — the simulator's recovery scenarios model permanence
  /// explicitly; evs_node switches it on when the config names a store
  /// directory.
  bool persist_state = false;
  /// Bounded-delta state transfer (enriched classifier only): when the
  /// settle classifies as a transfer, representatives defer their
  /// snapshots (the offer carries a flag instead of the bytes) and each
  /// stale member Pulls against its own recovered basis; the serving
  /// representative answers with snapshot_delta(basis), falling back to
  /// the full snapshot when no bounded delta exists. Off by default
  /// (changes settle traffic); evs_node enables it with persist_state.
  bool delta_transfer = false;
};

struct SettleRecord {
  ViewId view;
  ProblemSet problems = kNoProblem;
  SimTime started = 0;
  SimTime serve_ready = 0;  // state good enough to serve
  SimTime fully_done = 0;   // all state applied (chunks included)
};

struct ObjectStats {
  std::uint64_t settles_started = 0;
  std::uint64_t settles_completed = 0;
  std::uint64_t transfers = 0;
  std::uint64_t creations = 0;
  std::uint64_t merges = 0;
  std::uint64_t discovery_rounds = 0;
  std::uint64_t discovery_messages = 0;
  std::uint64_t offer_messages = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t chunk_messages = 0;
  std::uint64_t ambiguous_classifications = 0;  // flat: |possibility set| > 1
  /// Malformed snapshot/delta payloads rejected by install/merge — the
  /// counted alternative to decoding garbage into protocol state.
  std::uint64_t snapshot_decode_errors = 0;
  // Bounded-delta transfer accounting (config.delta_transfer).
  std::uint64_t deferred_offers = 0;       // offers sent without snapshots
  std::uint64_t delta_pulls = 0;           // Pull requests this member sent
  std::uint64_t delta_serves = 0;          // Pulls answered as the source
  std::uint64_t delta_installs = 0;        // deltas applied over local state
  std::uint64_t delta_bytes_sent = 0;      // payload bytes of served answers
  std::uint64_t delta_bytes_received = 0;  // payload bytes of applied answers
  std::uint64_t delta_full_fallbacks = 0;  // answers that shipped full state
  ProblemSet last_problems = kNoProblem;
};

class GroupObjectBase : public core::EvsEndpoint, private core::EvsDelegate {
 public:
  explicit GroupObjectBase(GroupObjectConfig config);

  Mode mode() const { return machine_ ? machine_->mode() : Mode::Settling; }
  const ModeMachine* mode_machine() const {
    return machine_ ? &*machine_ : nullptr;
  }

  /// External operations permitted right now? NORMAL always is; REDUCED
  /// callers must additionally consult their own reduced-op rules.
  bool serving_normal() const;

  const ObjectStats& object_stats() const { return object_stats_; }
  const std::vector<SettleRecord>& settle_log() const { return settle_log_; }
  const Classification& last_classification() const { return classification_; }
  bool state_current() const { return state_current_; }
  /// The recorded formal history (empty unless config.record_history).
  const History& history() const { return history_; }

  /// Projects vsync + EVS + object stats (and mode occupancy/transition
  /// counts) into `registry` under `prefix` (hides, and calls, the
  /// EvsEndpoint export). Objects with metrics of their own extend it.
  virtual void export_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const;

  void on_start() override;

  /// External-client entry point (runtime::Node). Applies the epoch fence
  /// — a request whose view_epoch is neither 0 (wildcard) nor the
  /// installed view's epoch gets InvalidEpoch{current} — then routes to
  /// the object's svc_dispatch.
  void svc_request(runtime::SvcRequest req,
                   runtime::SvcRespondFn respond) override;

  /// Installed-view epoch, the value clients fence their requests with.
  std::uint64_t view_epoch() const { return eview().view.id.epoch; }

  /// Observes every enriched-view event after the object has processed it
  /// (the object itself occupies the EvsDelegate slot, so a host that
  /// wants to print view lines registers here instead).
  void set_view_observer(std::function<void(const core::EView&)> fn) {
    view_observer_ = std::move(fn);
  }

  /// Svc-originated multicasts answered but not yet delivered back; the
  /// front door's per-node queue depth.
  std::size_t svc_pending() const { return pending_svc_.size(); }

  /// Per-phase latency attribution of svc-originated operations:
  /// order_us  — svc_multicast send to ordered self-delivery (the total-
  ///             order round trip the external write paid);
  /// fence_us  — svc_multicast send to the e-view change that fenced the
  ///             response instead (time the client waited to learn the
  ///             epoch moved);
  /// apply_us  — on_object_deliver duration, every ordered delivery.
  const obs::Histogram& order_latency() const { return order_us_; }
  const obs::Histogram& fence_latency() const { return fence_us_; }
  const obs::Histogram& apply_latency() const { return apply_us_; }

 protected:
  // ----- subclass interface ------------------------------------------
  virtual bool can_serve(const std::vector<ProcessId>& members) const = 0;
  virtual Bytes snapshot_state() const = 0;
  virtual void install_state(const Bytes& snapshot) = 0;
  /// Deterministic merge of diverged cluster states (most-capable cluster
  /// first); every member applies the same inputs in the same order.
  virtual Bytes merge_cluster_states(const std::vector<Bytes>& snapshots) = 0;
  virtual std::uint64_t state_version() const = 0;
  /// Small critical part for SplitSmallLarge (default: whole snapshot).
  virtual Bytes snapshot_small() const { return snapshot_state(); }
  virtual void install_small(const Bytes& snapshot) { install_state(snapshot); }
  /// Bounded-delta transfer hooks (config.delta_transfer). A stale member
  /// describes its recovered state with an opaque basis; the serving
  /// source produces a delta upgrading exactly that basis to its current
  /// state, or nullopt when no bounded delta exists (unknown basis,
  /// rewritten history) — then the full snapshot ships instead. The
  /// defaults force the full-snapshot fallback, so objects without delta
  /// support stay correct under the protocol.
  virtual Bytes delta_basis() const { return {}; }
  virtual std::optional<Bytes> snapshot_delta(const Bytes& basis) const {
    (void)basis;
    return std::nullopt;
  }
  /// Applies a snapshot_delta product over the current state; returns
  /// false when it no longer matches (the member re-pulls the full state).
  virtual bool install_delta(const Bytes& delta) {
    (void)delta;
    return false;
  }
  /// Object-level application traffic (external-operation messages).
  virtual void on_object_deliver(ProcessId sender, const Bytes& payload) = 0;
  virtual void on_mode_change(Mode previous, Mode current) {
    (void)previous;
    (void)current;
  }
  /// Called once per installed view, after mode evaluation — the hook for
  /// deterministic per-view state rules (e.g. dropping a lock whose
  /// holder left the view).
  virtual void on_new_view(const core::EView& eview) { (void)eview; }

  /// Per-object operation dispatch for external-client requests, called
  /// after the base's epoch fence admitted the request. The default
  /// supports nothing; objects override with reads answered immediately
  /// and writes funnelled through svc_multicast.
  virtual void svc_dispatch(runtime::SvcRequest req,
                            runtime::SvcRespondFn respond);

  /// Multicasts an external-operation message (totally ordered).
  void object_multicast(const Bytes& payload);

  /// Multicasts an external-operation message on behalf of an external
  /// client: when the multicast is delivered back at this replica (i.e.
  /// the operation took its place in the total order and was applied),
  /// `finish` builds the typed response and `respond` carries it out. If
  /// an e-view change installs first, the client is answered
  /// InvalidEpoch{new_epoch} instead — the epoch-fencing rule — while the
  /// operation itself still applies in the next view (view synchrony
  /// delivers queued multicasts there; only the *response* is fenced).
  void svc_multicast(const Bytes& payload, runtime::SvcRespondFn respond,
                     std::function<runtime::SvcResponse()> finish);

  /// Unavailable{config.svc_retry_after_ms}: the object cannot serve the
  /// operation right now (settling, minority partition, overload).
  runtime::SvcResponse svc_unavailable() const {
    return runtime::SvcResponse::unavailable(object_config_.svc_retry_after_ms);
  }

 private:
  enum class FrameKind : std::uint8_t {
    Object = 1,
    Offer = 2,
    Chunk = 3,
    Pull = 4,   // stale member asks the serving source for a delta
    Delta = 5,  // source's targeted answer (bounded delta or full state)
  };

  struct Offer {
    ViewId view;
    SubviewId subview;  // enriched: real id; flat: pseudo-id from sender
    ViewId prior_view;
    Mode prior_mode = Mode::Settling;
    bool serving = false;
    std::uint64_t version = 0;
    std::uint64_t recovered_epoch = 0;
    std::uint64_t chunk_count = 0;  // >0: snapshot streamed separately
    /// Delta transfer: the snapshot was withheld — receivers that need it
    /// Pull against their own basis instead of reading it off the offer.
    bool deferred = false;
    Bytes snapshot;
  };

  // EvsDelegate
  void on_eview(const core::EView& eview) override;
  void on_app_deliver(ProcessId sender, const Bytes& payload) override;
  void dispatch_frame(ProcessId sender, const Bytes& payload);

  /// Responds to pending svc ops whose multicast came back at `seq`, and
  /// defensively fails any skipped ones.
  void resolve_pending_svc(std::uint64_t seq);
  /// The epoch fence: answers every unanswered pending svc op
  /// InvalidEpoch{new epoch} at a view change (entries stay queued for
  /// seq alignment — the multicasts themselves deliver in the new view).
  void fence_pending_svc(std::uint64_t new_epoch);

  void evaluate_mode(const core::EView& eview, bool view_changed);
  void start_settle(const core::EView& eview);
  void send_offer_if_rep(const core::EView& eview);
  void handle_offer(ProcessId sender, Decoder& dec);
  void handle_chunk(ProcessId sender, Decoder& dec);
  void handle_pull(ProcessId sender, Decoder& dec);
  void handle_delta(ProcessId sender, Decoder& dec);
  /// Multicasts a Pull against this member's current basis (want_full
  /// forces the source to answer with the whole snapshot).
  void send_pull(bool want_full);
  /// install_state with the malformed-input contract: a DecodeError is
  /// counted (snapshot_decode_errors) and reported as failure instead of
  /// propagating — the member stays settling with its prior state.
  bool checked_install(const Bytes& snapshot);
  /// Marks the settle state-complete (delta path): timestamps, trace,
  /// settle log, reconciliation.
  void finish_delta_settle();
  /// Durable snapshot of the object state (config.persist_state).
  void persist_object_state();
  void maybe_complete_settle();
  void adopt_states();
  void maybe_finish_chunks();
  void maybe_request_merges();
  void try_reconcile();
  bool my_subview_serves() const;
  std::size_t serving_subview_count() const;

  GroupObjectConfig object_config_;
  History history_;
  std::optional<ModeMachine> machine_;
  Classification classification_;
  bool classification_ready_ = false;

  bool state_current_ = false;
  ViewId prior_view_;        // view before the current one
  Mode prior_mode_ = Mode::Settling;
  std::uint64_t recovered_epoch_ = 0;  // from stable store at startup

  // Per-view settle state.
  bool settling_ = false;
  bool adopted_ = false;
  std::map<ProcessId, Offer> offers_;
  struct ChunkAssembly {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Bytes> parts;
  };
  std::map<ProcessId, ChunkAssembly> chunks_;
  /// Set while a split transfer's bulk is still streaming in.
  std::optional<ProcessId> awaiting_full_from_;
  /// Set while a deferred (delta) transfer's answer is outstanding.
  std::optional<ProcessId> awaiting_delta_from_;
  /// One full-snapshot retry per settle when the served delta no longer
  /// applies over the local state (writes raced between Pull and Delta).
  bool delta_retry_full_ = false;
  std::uint64_t last_merge_request_ev_ = UINT64_MAX;
  SettleRecord current_settle_;

  ObjectStats object_stats_;
  std::vector<SettleRecord> settle_log_;

  // ----- external-client (svc) plumbing ------------------------------
  /// Monotonic sequence stamped into every Object frame this member
  /// sends; self-deliveries echo it back so svc completions align even
  /// across view changes.
  std::uint64_t object_send_seq_ = 0;
  /// Trace context of the svc request currently dispatching (0 outside a
  /// traced dispatch): stamped into the Object frame and pushed into the
  /// transport envelope by object_multicast, so the propagated context
  /// survives both the total order and the wire.
  std::uint64_t active_trace_ = 0;
  struct PendingSvcOp {
    std::uint64_t seq = 0;
    /// Trace context the request carried (0 = untraced).
    std::uint64_t trace = 0;
    /// When the multicast went out — the origin of order_us / fence_us.
    SimTime sent = 0;
    /// Nulled once answered (e.g. fenced at a view change); the entry
    /// stays queued until its multicast delivers, keeping seq alignment.
    runtime::SvcRespondFn respond;
    std::function<runtime::SvcResponse()> finish;
  };
  std::deque<PendingSvcOp> pending_svc_;
  obs::Histogram order_us_;
  obs::Histogram fence_us_;
  obs::Histogram apply_us_;
  std::function<void(const core::EView&)> view_observer_;
};

}  // namespace evs::app
