// Test support: the view-synchrony oracles over a sim Cluster.
//
// The property logic is the library's one oracle engine (obs::LiveChecker,
// obs/check.hpp). A Cluster feeds it from its World's trace bus, so the
// checks see the protocol's own hooks, with each message's real (sender,
// view, seq) identity; this header wraps the structured violations back
// into gtest AssertionResults.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "obs/check.hpp"
#include "support/cluster.hpp"

namespace evs::test {

inline ::testing::AssertionResult as_assertion(
    const std::vector<obs::Violation>& violations) {
  if (violations.empty()) return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure();
  for (const obs::Violation& v : violations) failure << v.str() << "\n";
  return failure;
}

/// Agreement, Uniqueness and Integrity (P2.1-P2.3) over every incarnation
/// the cluster ran, crashed ones included.
inline ::testing::AssertionResult check_vs_properties(Cluster& c) {
  if (c.checker().events_checked() == 0)  // blind, not clean
    return ::testing::AssertionFailure() << "the oracle checked no events";
  return as_assertion(c.oracle_violations());
}

}  // namespace evs::test
