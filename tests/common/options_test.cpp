#include "common/options.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ares {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("ARES_TEST_U64");
    unsetenv("ARES_TEST_DBL");
  }
};

TEST_F(OptionsTest, U64DefaultWhenUnset) {
  EXPECT_EQ(option_u64("TEST_U64", 7), 7u);
}

TEST_F(OptionsTest, U64Parses) {
  setenv("ARES_TEST_U64", "12345", 1);
  EXPECT_EQ(option_u64("TEST_U64", 7), 12345u);
}

TEST_F(OptionsTest, U64InvalidFallsBack) {
  setenv("ARES_TEST_U64", "12x", 1);
  EXPECT_EQ(option_u64("TEST_U64", 7), 7u);
}

TEST_F(OptionsTest, DoubleParses) {
  setenv("ARES_TEST_DBL", "0.125", 1);
  EXPECT_DOUBLE_EQ(option_double("TEST_DBL", 1.0), 0.125);
}

TEST_F(OptionsTest, DoubleInvalidFallsBack) {
  setenv("ARES_TEST_DBL", "abc", 1);
  EXPECT_DOUBLE_EQ(option_double("TEST_DBL", 1.5), 1.5);
}

}  // namespace
}  // namespace ares
