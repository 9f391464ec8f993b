// Delivered-message tracking for the sequencer-based total order.
//
// Every EvsEndpoint must recognise an app message it already delivered in
// the current view: a forward whose stamped copy came first, or a stamp
// seen twice through the flush. Each origin numbers its messages of a view
// 1, 2, 3, ... and the sequencer stamps them in FIFO order, so the
// delivered set is almost always a contiguous prefix per origin.
// DeliveredSet stores exactly that: per origin, a watermark at or below
// which every lseq is delivered, plus the few lseqs delivered above a gap
// (a flush can still deliver past one). State for a stable view is
// O(origins), not O(messages); the semantics are exactly those of
// std::set<(origin, lseq)>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>

#include "common/ids.hpp"

namespace evs::core {

class DeliveredSet {
 public:
  bool contains(ProcessId origin, std::uint64_t lseq) const {
    const auto it = origins_.find(origin);
    return it != origins_.end() && it->second.contains(lseq);
  }

  /// Adds (origin, lseq); false if it was already present.
  bool insert(ProcessId origin, std::uint64_t lseq) {
    Origin& o = origins_[origin];
    if (o.contains(lseq)) return false;
    if (lseq == 0 || lseq != o.watermark + 1) {
      o.above.insert(lseq);
      return true;
    }
    o.watermark = lseq;
    // The gap just closed may have lseqs waiting right behind it.
    while (o.watermark != std::numeric_limits<std::uint64_t>::max() &&
           !o.above.empty() && o.above.erase(o.watermark + 1) != 0)
      ++o.watermark;
    return true;
  }

  void clear() { origins_.clear(); }

  /// Lseqs held one by one above their origin's watermark.
  std::size_t sparse_size() const {
    std::size_t n = 0;
    for (const auto& [origin, o] : origins_) n += o.above.size();
    return n;
  }

 private:
  struct Origin {
    std::uint64_t watermark = 0;    // lseqs 1..watermark all delivered
    std::set<std::uint64_t> above;  // delivered past a gap (and lseq 0)

    bool contains(std::uint64_t lseq) const {
      return (lseq != 0 && lseq <= watermark) || above.contains(lseq);
    }
  };

  std::map<ProcessId, Origin> origins_;
};

}  // namespace evs::core
