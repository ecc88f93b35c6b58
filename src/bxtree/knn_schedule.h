// kNN enlargement schedules.
//
// The paper grows the kNN query square linearly: radius_j = j * rq with
// rq = Dk/k (Section 5.4). When the qualifying users are sparse relative to
// the population (the defining situation for privacy-aware queries), a
// purely linear schedule needs hundreds of rounds before the k-th
// qualified user is inside the inscribed circle, which repeatedly rescans
// and evicts the same pages. The Bx-tree kNN therefore uses a bounded
// schedule: linear growth for the first kKnnLinearRounds rounds, doubling
// afterwards. Rings stay nested, so each key range is still scanned at
// most once per query; late rounds are merely coarser. The PEB-tree PkNN
// uses the seeded doubling schedule below.
#pragma once

#include <cmath>
#include <cstddef>

namespace peb {

inline constexpr size_t kKnnLinearRounds = 8;

/// Radius of enlargement round `j` (0-based) for base step `rq`.
inline double KnnRadiusForRound(double rq, size_t j) {
  if (j < kKnnLinearRounds) return rq * static_cast<double>(j + 1);
  double base = rq * static_cast<double>(kKnnLinearRounds);
  return base * std::pow(2.0, static_cast<double>(j + 1 - kKnnLinearRounds));
}

/// PEB-tree PkNN schedule: round 0 starts at the cost-model-seeded
/// radius (costmodel::EstimateKnnSeedRadius, derived from the CANDIDATE
/// density rather than the population density), doubling afterwards. When
/// the seed is right, round 0 already contains the k-th qualified user and
/// the search closes after one annulus-free scan; a mis-seeded query
/// reaches any radius within log2 rounds instead of radius/rq rounds.
/// Rings stay nested, so annulus deltas remain well defined.
inline double KnnSeededRadiusForRound(double seed, size_t j) {
  return seed * std::pow(2.0, static_cast<double>(j));
}

}  // namespace peb
