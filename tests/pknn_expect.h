// gtest assertion for PkNN answers, shared by the tests that compare an
// index against the brute-force Definition 3 reference in test_util.h.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bxtree/privacy_index.h"

namespace peb {
namespace testing {

/// Checks a PkNN answer against the brute-force reference `want`: same
/// length, distances equal within 1e-6 at each rank, and the same user at
/// every rank whose distance is not tied with a neighbouring rank (tied
/// users may come back in either order).
inline void ExpectSamePknn(const std::vector<Neighbor>& want,
                           const std::vector<Neighbor>& got,
                           const std::string& context) {
  constexpr double kEps = 1e-6;
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_NEAR(got[r].distance, want[r].distance, kEps)
        << context << " rank " << r;
    const bool tied =
        (r > 0 && want[r].distance - want[r - 1].distance <= kEps) ||
        (r + 1 < want.size() &&
         want[r + 1].distance - want[r].distance <= kEps);
    if (!tied) {
      EXPECT_EQ(got[r].uid, want[r].uid) << context << " rank " << r;
    }
  }
}

}  // namespace testing
}  // namespace peb
