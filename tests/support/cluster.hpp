// Test support: a cluster of vsync endpoints over a simulated world.
//
// Tracks every incarnation's recorder (crashed incarnations keep their
// history) and knows how to respawn endpoints through the world's default
// spawner. Every run feeds the oracle engine (obs/check.hpp) from the
// world's trace bus; support/oracle.hpp turns its verdict into an
// assertion.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "obs/check.hpp"
#include "sim/world.hpp"
#include "support/recorder.hpp"
#include "vsync/endpoint.hpp"

namespace evs::test {

struct ClusterOptions {
  std::size_t sites = 3;
  std::uint64_t seed = 42;
  sim::NetworkConfig net;
  vsync::EndpointConfig endpoint;  // universe is filled in automatically
  bool spawn_all = true;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options)
      : options_(options), checker_(&violations_),
        world_(options.seed, options.net) {
    world_.trace_bus().set_enabled(true);
    world_.trace_bus().set_observer(
        [this](const obs::TraceEvent& e) { checker_.observe(e); });
    sites_ = world_.add_sites(options.sites);
    options_.endpoint.universe = sites_;
    world_.set_default_spawner(
        [this](sim::World&, SiteId site) { spawn_at(site); });
    if (options.spawn_all) {
      for (const SiteId site : sites_) spawn_at(site);
    }
  }

  vsync::Endpoint& spawn_at(SiteId site) {
    auto& ep = world_.spawn<vsync::Endpoint>(site, options_.endpoint);
    auto rec = std::make_unique<Recorder>(ep);
    live_recorder_[site] = rec.get();
    live_endpoint_[site] = &ep;
    recorders_.push_back(std::move(rec));
    return ep;
  }

  sim::World& world() { return world_; }
  const std::vector<SiteId>& sites() const { return sites_; }
  SiteId site(std::size_t i) const { return sites_.at(i); }

  /// Live endpoint at site index i (checks the site is alive).
  vsync::Endpoint& ep(std::size_t i) {
    const SiteId s = site(i);
    EVS_CHECK(world_.site_alive(s));
    return *live_endpoint_.at(s);
  }

  /// Live recorder at site index i.
  Recorder& rec(std::size_t i) {
    const SiteId s = site(i);
    EVS_CHECK(world_.site_alive(s));
    return *live_recorder_.at(s);
  }

  /// Every recorder ever created (including crashed incarnations).
  const std::vector<std::unique_ptr<Recorder>>& all_recorders() const {
    return recorders_;
  }

  const obs::LiveChecker& checker() const { return checker_; }
  /// Every oracle violation of the run so far. Finishes the engine first:
  /// the only-if-sent verdicts need the whole run.
  const std::vector<obs::Violation>& oracle_violations() {
    checker_.finish();
    return violations_;
  }

  /// Runs simulated time until `pred()` holds, polling every `poll`.
  /// Returns true on success, false on sim-time timeout.
  bool await(const std::function<bool()>& pred,
             SimDuration timeout = 60 * kSecond,
             SimDuration poll = 10 * kMillisecond) {
    const SimTime deadline = world_.scheduler().now() + timeout;
    while (world_.scheduler().now() < deadline) {
      if (pred()) return true;
      world_.run_for(poll);
    }
    return pred();
  }

  /// True when every live endpoint among `indices` has installed the same
  /// view whose membership is exactly the live processes at those indices.
  bool stable_view_among(const std::vector<std::size_t>& indices) {
    std::vector<ProcessId> expected;
    for (const std::size_t i : indices) {
      if (!world_.site_alive(site(i))) return false;
      expected.push_back(world_.live_process(site(i)));
    }
    std::sort(expected.begin(), expected.end());
    const gms::View& first = ep(indices.front()).view();
    if (first.members != expected) return false;
    for (const std::size_t i : indices) {
      if (ep(i).view().id != first.id) return false;
      if (ep(i).blocked()) return false;
    }
    return true;
  }

  /// Awaits a stable view containing exactly the given site indices.
  bool await_stable_view(const std::vector<std::size_t>& indices,
                         SimDuration timeout = 60 * kSecond) {
    return await([&]() { return stable_view_among(indices); }, timeout);
  }

  std::vector<std::size_t> all_indices() const {
    std::vector<std::size_t> v(sites_.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
    return v;
  }

 private:
  ClusterOptions options_;
  // Declared before the world, so they outlive every event it records.
  std::vector<obs::Violation> violations_;
  obs::LiveChecker checker_;
  sim::World world_;
  std::vector<SiteId> sites_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  std::unordered_map<SiteId, Recorder*> live_recorder_;
  std::unordered_map<SiteId, vsync::Endpoint*> live_endpoint_;
};

}  // namespace evs::test
