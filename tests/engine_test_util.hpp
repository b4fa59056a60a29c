// Shared definition of engine-result equivalence for the test suites.
//
// Every suite that compares two runs — flat against sync, resumed against
// uninterrupted, service against standalone — pins them to "every
// RunResult field identical"; keeping the predicate in one place means the
// suites cannot drift on what "every field" means.  init_ns is
// deliberately excluded: it is a wall-clock measurement, not part of the
// simulated behaviour.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "local/engine.hpp"

namespace dmm::local {

inline void expect_same_result(const RunResult& expected, const RunResult& actual,
                               const std::string& context) {
  EXPECT_EQ(expected.outputs, actual.outputs) << context;
  EXPECT_EQ(expected.halt_round, actual.halt_round) << context;
  EXPECT_EQ(expected.rounds, actual.rounds) << context;
  EXPECT_EQ(expected.max_message_bytes, actual.max_message_bytes) << context;
  EXPECT_EQ(expected.total_message_bytes, actual.total_message_bytes) << context;
  EXPECT_EQ(expected.messages_sent, actual.messages_sent) << context;
  EXPECT_EQ(expected.crashes, actual.crashes) << context;
  EXPECT_EQ(expected.restarts, actual.restarts) << context;
  EXPECT_EQ(expected.messages_dropped, actual.messages_dropped) << context;
}

}  // namespace dmm::local
