// Test support: a recording vsync::Delegate.
//
// Tags every delivery with the view in which it happened (flush-path
// deliveries occur before the endpoint reassigns its view, so the tag is
// the dying view).
#pragma once

#include <string>
#include <vector>

#include "gms/view.hpp"
#include "gms/wire.hpp"
#include "vsync/endpoint.hpp"

namespace evs::test {

class Recorder : public vsync::Delegate {
 public:
  struct ViewRecord {
    gms::View view;
    std::vector<gms::MemberContext> contexts;
  };
  struct Delivery {
    ViewId view;
    ProcessId sender;
    std::string payload;
  };

  explicit Recorder(vsync::Endpoint& endpoint) : endpoint_(&endpoint) {
    endpoint.set_delegate(this);
  }

  void on_view(const gms::View& view, const vsync::InstallInfo& info) override {
    views_.push_back(ViewRecord{view, info.contexts});
  }

  void on_deliver(ProcessId sender, const Bytes& payload) override {
    deliveries_.push_back(
        Delivery{endpoint_->view().id, sender, to_string(payload)});
  }

  void multicast(const std::string& payload) {
    endpoint_->multicast(to_bytes(payload));
  }

  vsync::Endpoint& endpoint() { return *endpoint_; }
  const std::vector<ViewRecord>& views() const { return views_; }
  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  vsync::Endpoint* endpoint_;
  std::vector<ViewRecord> views_;
  std::vector<Delivery> deliveries_;
};

}  // namespace evs::test
