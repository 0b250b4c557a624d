// Scratch file names that parallel ctest runs cannot share.
//
// gtest_discover_tests registers every TEST as its own ctest entry, so
// `ctest -j` runs sibling tests of one binary as concurrent processes over
// the same testing::TempDir().  A fixed scratch name there lets one test
// overwrite or delete another's file mid-run.  scratch_path() keys the name
// to the running test and the process id instead.
#pragma once

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace p2sim::testing_support {

/// `<TempDir>p2sim_<Suite>.<Test>.<pid>_<stem>`; call it from inside a test.
inline std::string scratch_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = ::testing::TempDir() + "p2sim_";
  if (info != nullptr) {
    name += std::string(info->test_suite_name()) + "." + info->name() + ".";
  }
  return name + std::to_string(::getpid()) + "_" + stem;
}

}  // namespace p2sim::testing_support
