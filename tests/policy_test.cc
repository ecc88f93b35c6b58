#include <gtest/gtest.h>

#include <cmath>

#include "policy/compatibility.h"
#include "policy/lpp.h"
#include "policy/policy_generator.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"

namespace peb {
namespace {

// ---------------------------------------------------------------------------
// TimeOfDayInterval
// ---------------------------------------------------------------------------

TEST(TimeOfDayInterval, DurationPlain) {
  TimeOfDayInterval iv{480, 1020};  // 8:00 - 17:00.
  EXPECT_DOUBLE_EQ(iv.Duration(), 540.0);
  EXPECT_DOUBLE_EQ(TimeOfDayInterval::AllDay().Duration(), 1440.0);
}

TEST(TimeOfDayInterval, DurationWrapping) {
  TimeOfDayInterval iv{1320, 120};  // 22:00 - 02:00.
  EXPECT_DOUBLE_EQ(iv.Duration(), 240.0);
}

TEST(TimeOfDayInterval, ContainsCyclic) {
  TimeOfDayInterval work{480, 1020};
  EXPECT_TRUE(work.Contains(480));
  EXPECT_TRUE(work.Contains(1020));
  EXPECT_TRUE(work.Contains(700));
  EXPECT_FALSE(work.Contains(100));
  // Absolute times are reduced modulo the day.
  EXPECT_TRUE(work.Contains(1440 + 700));
  EXPECT_TRUE(work.Contains(10 * 1440 + 480));

  TimeOfDayInterval night{1320, 120};
  EXPECT_TRUE(night.Contains(1400));
  EXPECT_TRUE(night.Contains(60));
  EXPECT_FALSE(night.Contains(700));
}

TEST(TimeOfDayInterval, OverlapPlain) {
  TimeOfDayInterval a{100, 500};
  TimeOfDayInterval b{400, 800};
  EXPECT_DOUBLE_EQ(a.OverlapDuration(b), 100.0);
  EXPECT_DOUBLE_EQ(b.OverlapDuration(a), 100.0);
  TimeOfDayInterval c{600, 700};
  EXPECT_DOUBLE_EQ(a.OverlapDuration(c), 0.0);
}

TEST(TimeOfDayInterval, OverlapWrapping) {
  TimeOfDayInterval night{1320, 120};  // 22:00-02:00.
  TimeOfDayInterval early{0, 240};     // 00:00-04:00.
  EXPECT_DOUBLE_EQ(night.OverlapDuration(early), 120.0);
  TimeOfDayInterval late{1200, 1440};  // 20:00-24:00.
  EXPECT_DOUBLE_EQ(night.OverlapDuration(late), 120.0);
  // Two wrapping intervals.
  TimeOfDayInterval other{1380, 60};
  EXPECT_DOUBLE_EQ(night.OverlapDuration(other), 120.0);
}

// ---------------------------------------------------------------------------
// Lpp + roles
// ---------------------------------------------------------------------------

TEST(Lpp, PermitsChecksAllThreeConditions) {
  Lpp p;
  p.role = 2;
  p.locr = {{0, 0}, {500, 500}};
  p.tint = {480, 1020};
  EXPECT_TRUE(p.Permits(2, {100, 100}, 600));
  EXPECT_FALSE(p.Permits(3, {100, 100}, 600));   // Wrong role.
  EXPECT_FALSE(p.Permits(2, {600, 100}, 600));   // Outside locr.
  EXPECT_FALSE(p.Permits(2, {100, 100}, 100));   // Outside tint.
}

TEST(RoleRegistry, RegisterAssignRevoke) {
  RoleRegistry reg;
  RoleId friend_role = reg.RegisterRole("friend");
  RoleId colleague = reg.RegisterRole("colleague");
  EXPECT_NE(friend_role, colleague);
  EXPECT_EQ(reg.RegisterRole("friend"), friend_role);  // Idempotent.
  EXPECT_EQ(reg.RoleName(colleague), "colleague");
  EXPECT_EQ(reg.num_roles(), 2u);

  reg.AssignRole(1, 2, friend_role);
  reg.AssignRole(1, 2, friend_role);  // Duplicate ignored.
  reg.AssignRole(1, 2, colleague);
  EXPECT_TRUE(reg.HasRole(1, 2, friend_role));
  EXPECT_FALSE(reg.HasRole(2, 1, friend_role));  // Directed.
  EXPECT_EQ(reg.RolesOf(1, 2).size(), 2u);
  EXPECT_EQ(reg.num_assignments(), 2u);

  reg.RevokeRole(1, 2, friend_role);
  EXPECT_FALSE(reg.HasRole(1, 2, friend_role));
  EXPECT_TRUE(reg.HasRole(1, 2, colleague));
  EXPECT_EQ(reg.num_assignments(), 1u);
}

TEST(PolicyStore, AddGetRemoveAndReverseIndex) {
  PolicyStore store;
  Lpp p;
  p.role = 1;
  p.locr = Rect::Space(1000);
  p.tint = TimeOfDayInterval::AllDay();
  store.Add(10, 20, p);
  store.Add(10, 30, p);
  store.Add(40, 20, p);

  EXPECT_EQ(store.num_policies(), 3u);
  EXPECT_EQ(store.Get(10, 20).size(), 1u);
  EXPECT_TRUE(store.Get(20, 10).empty());  // Directed.
  EXPECT_EQ(store.NumPoliciesOf(10), 2u);

  auto owners = store.OwnersToward(20);
  EXPECT_EQ(owners.size(), 2u);  // 10 and 40 both cover 20.
  EXPECT_EQ(store.PeersOf(10).size(), 2u);

  EXPECT_EQ(store.RemoveAll(10, 20), 1u);
  EXPECT_EQ(store.num_policies(), 2u);
  EXPECT_EQ(store.OwnersToward(20).size(), 1u);
  EXPECT_EQ(store.RemoveAll(10, 20), 0u);  // Already gone.
}

TEST(PolicyStore, MultiplePoliciesPerPair) {
  PolicyStore store;
  Lpp day;
  day.role = 1;
  day.locr = {{0, 0}, {100, 100}};
  day.tint = {480, 1020};
  Lpp night;
  night.role = 1;
  night.locr = {{500, 500}, {900, 900}};
  night.tint = {1320, 120};
  store.Add(1, 2, day);
  store.Add(1, 2, night);
  EXPECT_EQ(store.Get(1, 2).size(), 2u);

  RoleRegistry reg;
  reg.AssignRole(1, 2, 1);
  // Day region during day: allowed by the first policy.
  EXPECT_TRUE(store.Allows(1, 2, {50, 50}, 600, reg));
  // Night region at night: allowed by the second.
  EXPECT_TRUE(store.Allows(1, 2, {600, 600}, 1400, reg));
  // Day region at night: neither applies.
  EXPECT_FALSE(store.Allows(1, 2, {50, 50}, 1400, reg));
}

TEST(PolicyStore, AllowsRequiresRole) {
  PolicyStore store;
  RoleRegistry reg;
  RoleId r = reg.RegisterRole("friend");
  Lpp p;
  p.role = r;
  p.locr = Rect::Space(1000);
  p.tint = TimeOfDayInterval::AllDay();
  store.Add(1, 2, p);
  // Policy exists but 1 never declared 2 a friend: denied.
  EXPECT_FALSE(store.Allows(1, 2, {1, 1}, 0, reg));
  reg.AssignRole(1, 2, r);
  EXPECT_TRUE(store.Allows(1, 2, {1, 1}, 0, reg));
}

// ---------------------------------------------------------------------------
// Compatibility (Section 5.1 / Equation 4)
// ---------------------------------------------------------------------------

class CompatTest : public ::testing::Test {
 protected:
  CompatTest() {
    opts_.space = Rect::Space(1000);
    opts_.time_domain = 1440;
  }

  Lpp Make(Rect r, TimeOfDayInterval t) {
    Lpp p;
    p.role = 1;
    p.locr = r;
    p.tint = t;
    return p;
  }

  CompatibilityOptions opts_;
};

TEST_F(CompatTest, NoPoliciesGivesZero) {
  auto a = ComputeAlpha({}, {}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kNone);
  EXPECT_DOUBLE_EQ(CompatibilityFromAlpha(a), 0.0);
}

TEST_F(CompatTest, BidirectionalOverlap) {
  // Both policies: same half-space region, overlapping half-days.
  Lpp p12 = Make({{0, 0}, {500, 1000}}, {0, 720});
  Lpp p21 = Make({{250, 0}, {750, 1000}}, {360, 1080});
  auto a = ComputeAlpha({&p12, 1}, {&p21, 1}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kBidirectional);
  // O = 250*1000, S = 10^6 -> 0.25. D = 360, T = 1440 -> 0.25.
  EXPECT_NEAR(a.alpha, 0.0625, 1e-12);
  double c = CompatibilityFromAlpha(a);
  EXPECT_NEAR(c, 0.53125, 1e-12);
  EXPECT_GT(c, 0.5);  // Bidirectional always exceeds 1/2.
}

TEST_F(CompatTest, OneDirectionalWhenRegionsDisjoint) {
  Lpp p12 = Make({{0, 0}, {200, 200}}, {0, 720});       // 0.04 * 0.5 = 0.02
  Lpp p21 = Make({{800, 800}, {1000, 1000}}, {0, 720}); // 0.04 * 0.5 = 0.02
  auto a = ComputeAlpha({&p12, 1}, {&p21, 1}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kOneDirectional);
  EXPECT_NEAR(a.alpha, 0.02, 1e-12);
  double c = CompatibilityFromAlpha(a);
  EXPECT_NEAR(c, 0.02, 1e-12);
  EXPECT_LE(c, 0.5);  // One-directional never exceeds 1/2.
}

TEST_F(CompatTest, OneDirectionalWhenTimesDisjoint) {
  Lpp p12 = Make(Rect::Space(1000), {0, 360});
  Lpp p21 = Make(Rect::Space(1000), {720, 1080});
  auto a = ComputeAlpha({&p12, 1}, {&p21, 1}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kOneDirectional);
  // 1/2 (1*0.25 + 1*0.25) = 0.25.
  EXPECT_NEAR(a.alpha, 0.25, 1e-12);
}

TEST_F(CompatTest, SingleSidedPolicyOmitsMissingTerm) {
  Lpp p12 = Make({{0, 0}, {500, 1000}}, {0, 720});  // 0.5 * 0.5 = 0.25.
  auto a = ComputeAlpha({&p12, 1}, {}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kOneDirectional);
  EXPECT_NEAR(a.alpha, 0.125, 1e-12);  // 1/2 * 0.25.
  EXPECT_NEAR(CompatibilityFromAlpha(a), 0.125, 1e-12);
}

TEST_F(CompatTest, MaximalOverlapGivesCOne) {
  Lpp full = Make(Rect::Space(1000), TimeOfDayInterval::AllDay());
  auto a = ComputeAlpha({&full, 1}, {&full, 1}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kBidirectional);
  EXPECT_NEAR(a.alpha, 1.0, 1e-12);
  EXPECT_NEAR(CompatibilityFromAlpha(a), 1.0, 1e-12);
}

TEST_F(CompatTest, MultiplePoliciesUseBestPairing) {
  Lpp small12 = Make({{0, 0}, {10, 10}}, {0, 10});
  Lpp big12 = Make({{0, 0}, {800, 800}}, {0, 1200});
  Lpp p21 = Make({{0, 0}, {800, 800}}, {0, 1200});
  std::vector<Lpp> side12{small12, big12};
  auto a = ComputeAlpha(side12, {&p21, 1}, opts_);
  EXPECT_EQ(a.kase, CompatibilityCase::kBidirectional);
  // Best pairing is big12 x p21: (0.64)^... O/S = 0.64, D/T = 1200/1440.
  EXPECT_NEAR(a.alpha, 0.64 * (1200.0 / 1440.0), 1e-12);
}

TEST_F(CompatTest, StoreCompatibilityIsSymmetric) {
  PolicyStore store;
  store.Add(1, 2, Make({{0, 0}, {500, 500}}, {0, 720}));
  store.Add(2, 1, Make({{250, 250}, {750, 750}}, {360, 1080}));
  double c12 = Compatibility(store, 1, 2, opts_);
  double c21 = Compatibility(store, 2, 1, opts_);
  EXPECT_DOUBLE_EQ(c12, c21);
  EXPECT_GT(c12, 0.5);
}

// ---------------------------------------------------------------------------
// Sequence-value assignment: the paper's worked example (Section 5.1).
// ---------------------------------------------------------------------------

TEST(SequenceValues, PaperWorkedExample) {
  // Users u1..u6 (0-indexed as 0..5). Compatibilities:
  // C(u2,u1)=0.4, C(u4,u1)=0.9, C(u4,u3)=0.8, C(u5,u3)=0.2, C(u6,u3)=0.6.
  auto C = [](UserId a, UserId b) -> double {
    auto key = [](UserId x, UserId y) { return x * 10 + y; };
    uint32_t k = a < b ? key(a, b) : key(b, a);
    switch (k) {
      case 1:  return 0.4;  // (u1,u2) -> ids (0,1)
      case 3:  return 0.9;  // (u1,u4) -> ids (0,3)
      case 23: return 0.8;  // (u3,u4) -> ids (2,3)
      case 24: return 0.2;  // (u3,u5) -> ids (2,4)
      case 25: return 0.6;  // (u3,u6) -> ids (2,5)
      default: return 0.0;
    }
  };
  std::vector<std::vector<UserId>> groups(6);
  auto link = [&](UserId a, UserId b) {
    groups[a].push_back(b);
    groups[b].push_back(a);
  };
  link(0, 1);  // u1-u2
  link(0, 3);  // u1-u4
  link(2, 3);  // u3-u4
  link(2, 4);  // u3-u5
  link(2, 5);  // u3-u6

  SequenceValueOptions opt;
  opt.initial_sv = 2.0;
  opt.delta = 2.0;
  auto out = AssignSequenceValuesFromGraph(6, groups, C, opt);

  // Sorted by |G| desc: u3 (3 related), u1 (2), u4 (2), u2, u5, u6.
  EXPECT_EQ(out.order[0], 2u);  // u3 first.
  // Paper's result: SV(u3)=2, SV(u4)=2.2, SV(u5)=2.8, SV(u6)=2.4,
  // SV(u1)=4, SV(u2)=4.6.
  EXPECT_NEAR(out.sv[2], 2.0, 1e-12);
  EXPECT_NEAR(out.sv[3], 2.2, 1e-12);
  EXPECT_NEAR(out.sv[4], 2.8, 1e-12);
  EXPECT_NEAR(out.sv[5], 2.4, 1e-12);
  EXPECT_NEAR(out.sv[0], 4.0, 1e-12);
  EXPECT_NEAR(out.sv[1], 4.6, 1e-12);
  EXPECT_EQ(out.num_anchors, 2u);  // u3 and u1.
}

TEST(SequenceValues, AllUsersGetValues) {
  // Star graph: user 0 related to everyone.
  const size_t n = 20;
  std::vector<std::vector<UserId>> groups(n);
  for (UserId i = 1; i < n; ++i) {
    groups[0].push_back(i);
    groups[i].push_back(0);
  }
  auto out = AssignSequenceValuesFromGraph(
      n, groups, [](UserId, UserId) { return 0.5; }, {});
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(out.sv[i], 2.0) << i;
  }
  EXPECT_EQ(out.num_anchors, 1u);
  // All members sit at anchor + 0.5.
  for (UserId i = 1; i < n; ++i) {
    EXPECT_NEAR(out.sv[i], out.sv[0] + 0.5, 1e-12);
  }
}

TEST(SequenceValues, IsolatedUsersBecomeAnchorsSeparatedByDelta) {
  const size_t n = 5;
  std::vector<std::vector<UserId>> groups(n);
  SequenceValueOptions opt;
  opt.initial_sv = 2.0;
  opt.delta = 2.0;
  auto out = AssignSequenceValuesFromGraph(
      n, groups, [](UserId, UserId) { return 0.0; }, opt);
  EXPECT_EQ(out.num_anchors, n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out.sv[out.order[i]], 2.0 + 2.0 * i, 1e-12);
  }
}

TEST(SequenceValues, HigherCompatibilityGivesCloserValues) {
  std::vector<std::vector<UserId>> groups(3);
  groups[0] = {1, 2};
  groups[1] = {0};
  groups[2] = {0};
  auto C = [](UserId a, UserId b) -> double {
    UserId lo = std::min(a, b), hi = std::max(a, b);
    if (lo == 0 && hi == 1) return 0.9;
    if (lo == 0 && hi == 2) return 0.1;
    return 0.0;
  };
  auto out = AssignSequenceValuesFromGraph(3, groups, C, {});
  EXPECT_LT(std::abs(out.sv[1] - out.sv[0]),
            std::abs(out.sv[2] - out.sv[0]));
}

// ---------------------------------------------------------------------------
// Quantizer and EncodingSnapshot
// ---------------------------------------------------------------------------

TEST(SvQuantizer, ScalesAndClamps) {
  SvQuantizer q(64.0, 10);  // Max 1023.
  EXPECT_EQ(q.Quantize(0.0), 0u);
  EXPECT_EQ(q.Quantize(-3.0), 0u);
  EXPECT_EQ(q.Quantize(1.0), 64u);
  EXPECT_EQ(q.Quantize(2.2), 141u);  // round(140.8).
  EXPECT_EQ(q.Quantize(1e9), 1023u);  // Clamped.
}

TEST(SvQuantizer, PreservesOrderUpToTies) {
  SvQuantizer q(64.0, 26);
  double prev = 0.0;
  for (double sv = 0.0; sv < 100.0; sv += 0.37) {
    EXPECT_GE(q.Quantize(sv), q.Quantize(prev));
    prev = sv;
  }
}

TEST(EncodingSnapshot, FriendListsSortedAndComplete) {
  PolicyGeneratorOptions opt;
  opt.num_users = 300;
  opt.policies_per_user = 10;
  opt.grouping_factor = 0.5;
  opt.seed = 77;
  GeneratedPolicies gen = GeneratePolicies(opt);

  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  EncodingSnapshot enc = EncodingSnapshot::Build(gen.store, opt.num_users,
                                                 compat, {}, quant);

  EXPECT_EQ(enc.num_users(), 300u);
  for (UserId u = 0; u < 300; ++u) {
    EXPECT_GT(enc.sv(u), 0.0);
    EXPECT_EQ(enc.quantized_sv(u), quant.Quantize(enc.sv(u)));
    const auto& friends = enc.FriendsOf(u);
    // Friend list = exactly the users with a policy toward u.
    auto owners = gen.store.OwnersToward(u);
    EXPECT_EQ(friends.size(), owners.size());
    for (size_t i = 0; i < friends.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(friends[i].qsv, friends[i - 1].qsv);
      }
      EXPECT_EQ(friends[i].qsv, enc.quantized_sv(friends[i].uid));
      EXPECT_FALSE(gen.store.Get(friends[i].uid, u).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Policy generator (Sections 6-7.1 workload shape)
// ---------------------------------------------------------------------------

TEST(PolicyGenerator, PolicyCountPerUser) {
  PolicyGeneratorOptions opt;
  opt.num_users = 500;
  opt.policies_per_user = 20;
  opt.grouping_factor = 0.7;
  opt.seed = 5;
  GeneratedPolicies gen = GeneratePolicies(opt);
  EXPECT_EQ(gen.store.num_policies(), 500u * 20u);
  for (UserId u = 0; u < 500; ++u) {
    EXPECT_EQ(gen.store.NumPoliciesOf(u), 20u);
  }
}

TEST(PolicyGenerator, GroupingFactorControlsInGroupShare) {
  auto in_group_share = [](double theta) {
    PolicyGeneratorOptions opt;
    opt.num_users = 1000;
    opt.policies_per_user = 20;
    opt.grouping_factor = theta;
    opt.seed = 9;
    GeneratedPolicies gen = GeneratePolicies(opt);
    size_t in_group = 0, total = 0;
    for (UserId u = 0; u < 1000; ++u) {
      size_t g = u / gen.group_size;
      for (UserId peer : gen.store.PeersOf(u)) {
        total++;
        if (peer / gen.group_size == g) in_group++;
      }
    }
    return static_cast<double>(in_group) / static_cast<double>(total);
  };
  EXPECT_NEAR(in_group_share(1.0), 1.0, 0.02);
  EXPECT_NEAR(in_group_share(0.7), 0.7, 0.05);
  // theta=0: targets uniform; hitting one's own small group is rare.
  EXPECT_LT(in_group_share(0.0), 0.15);
}

TEST(PolicyGenerator, RolesBackEveryPolicy) {
  PolicyGeneratorOptions opt;
  opt.num_users = 200;
  opt.policies_per_user = 5;
  opt.seed = 3;
  GeneratedPolicies gen = GeneratePolicies(opt);
  for (UserId u = 0; u < 200; ++u) {
    for (UserId peer : gen.store.PeersOf(u)) {
      EXPECT_TRUE(gen.roles.HasRole(u, peer, gen.friend_role));
      for (const Lpp& p : gen.store.Get(u, peer)) {
        EXPECT_EQ(p.role, gen.friend_role);
        EXPECT_FALSE(p.locr.Empty());
        EXPECT_GT(p.tint.Duration(opt.time_domain), 0.0);
        // Regions stay inside the space (clamped).
        EXPECT_TRUE(Rect::Space(1000).ContainsRect(p.locr));
      }
    }
  }
}

TEST(PolicyGenerator, DeterministicPerSeed) {
  PolicyGeneratorOptions opt;
  opt.num_users = 100;
  opt.policies_per_user = 8;
  opt.seed = 123;
  GeneratedPolicies a = GeneratePolicies(opt);
  GeneratedPolicies b = GeneratePolicies(opt);
  ASSERT_EQ(a.store.num_policies(), b.store.num_policies());
  for (UserId u = 0; u < 100; ++u) {
    auto pa = a.store.PeersOf(u);
    auto pb = b.store.PeersOf(u);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i], pb[i]);
      auto la = a.store.Get(u, pa[i]);
      auto lb = b.store.Get(u, pb[i]);
      ASSERT_EQ(la.size(), lb.size());
      EXPECT_EQ(la[0].locr, lb[0].locr);
      EXPECT_EQ(la[0].tint, lb[0].tint);
    }
  }
}

TEST(PolicyGenerator, NoSelfPolicies) {
  PolicyGeneratorOptions opt;
  opt.num_users = 150;
  opt.policies_per_user = 10;
  opt.seed = 55;
  GeneratedPolicies gen = GeneratePolicies(opt);
  for (UserId u = 0; u < 150; ++u) {
    for (UserId peer : gen.store.PeersOf(u)) {
      EXPECT_NE(peer, u);
    }
  }
}

}  // namespace
}  // namespace peb
