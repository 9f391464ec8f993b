// Delivered-message tracking keyed by (origin, per-origin sequence number).
//
// Two users need to recognise a message already seen: every EvsEndpoint
// (a forward whose stamped copy came first, or a stamp seen twice through
// the flush) and the oracle engine in obs/check (a process delivering a
// message twice in one view). Each origin numbers its messages of a view
// 1, 2, 3, ... and streams are delivered in FIFO order, so the set is
// almost always a contiguous prefix per origin. DeliveredSet stores
// exactly that: per origin, a watermark at or below which every lseq is
// present, plus the few lseqs present above a gap (a flush can still
// deliver past one). State for an in-order stream is O(origins), not
// O(messages); the semantics are exactly those of std::set<(origin,
// lseq)>, and the representation is canonical, so equal sets compare
// equal.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.hpp"

namespace evs {

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

  /// Every origin with an lseq present, ascending.
  std::vector<ProcessId> origins() const {
    std::vector<ProcessId> out;
    out.reserve(origins_.size());
    for (const auto& [origin, o] : origins_) out.push_back(origin);
    return out;
  }

  /// The largest lseq of `origin` present; 0 if none.
  std::uint64_t last(ProcessId origin) const {
    const auto it = origins_.find(origin);
    if (it == origins_.end()) return 0;
    const Origin& o = it->second;
    return o.above.empty() ? o.watermark
                           : std::max(o.watermark, *o.above.rbegin());
  }

  /// Some lseq of `origin`, at most `limit`, present here but absent from
  /// `other`, if any.
  std::optional<std::uint64_t> first_not_in(
      ProcessId origin, const DeliveredSet& other,
      std::uint64_t limit = std::numeric_limits<std::uint64_t>::max()) const {
    const auto mine = origins_.find(origin);
    if (mine == origins_.end()) return std::nullopt;
    const auto it = other.origins_.find(origin);
    static const Origin kNone;
    const Origin& theirs = it == other.origins_.end() ? kNone : it->second;
    const std::uint64_t top = std::min(mine->second.watermark, limit);
    for (std::uint64_t lseq = theirs.watermark + 1; lseq <= top; ++lseq)
      if (!theirs.above.contains(lseq)) return lseq;
    for (const std::uint64_t lseq : mine->second.above)
      if (lseq <= limit && !theirs.contains(lseq)) return lseq;
    return std::nullopt;
  }

  /// Lseqs held one by one above their origin's watermark.
  std::size_t sparse_size() const {
    std::size_t n = 0;
    for (const auto& [origin, o] : origins_) n += o.above.size();
    return n;
  }

  /// Entries held: one per origin plus one per sparse lseq.
  std::size_t held() const { return origins_.size() + sparse_size(); }

  bool operator==(const DeliveredSet&) const = default;

 private:
  struct Origin {
    std::uint64_t watermark = 0;    // lseqs 1..watermark all present
    std::set<std::uint64_t> above;  // present past a gap (and lseq 0)

    bool contains(std::uint64_t lseq) const {
      return (lseq != 0 && lseq <= watermark) || above.contains(lseq);
    }
    bool operator==(const Origin&) const = default;
  };

  std::map<ProcessId, Origin> origins_;
};

}  // namespace evs
