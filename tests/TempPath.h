//===- tests/TempPath.h - Per-test temp file paths ------------------------===//
//
// ctest runs each gtest case as its own process, several at once under
// `ctest -j`, so a fixed name under testing::TempDir() is shared by every
// case that uses it. tempPath() names a file no other running case uses.
//
//===----------------------------------------------------------------------===//

#ifndef BEC_TESTS_TEMPPATH_H
#define BEC_TESTS_TEMPPATH_H

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unistd.h>

namespace bec {
namespace test {

/// testing::TempDir()/<pid>.<Suite>.<Test>.<Name>. Call inside a test.
inline std::string tempPath(const std::string &Name) {
  const testing::TestInfo *T =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string Test = std::string(T->test_suite_name()) + "." + T->name();
  std::replace(Test.begin(), Test.end(), '/', '_'); // Parameterized names.
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "." + Test +
         "." + Name;
}

} // namespace test
} // namespace bec

#endif // BEC_TESTS_TEMPPATH_H
