// Figure 11: Preprocessing time for policy encoding (Section 7.2).
// (a) varies the number of users 10K..100K at 50 policies/user;
// (b) varies the policies per user 10..100 at 60K users.
// The metric is the wall-clock time of the one-time offline policy
// comparison + sequence-value generation (EncodingSnapshot::Build).
#include "bench_common.h"

#include <chrono>

#include "policy/policy_generator.h"
#include "policy/sequence_value.h"

namespace {

double EncodeSeconds(size_t users, size_t policies) {
  using namespace peb;
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = policies;
  pg.grouping_factor = 0.7;
  pg.seed = 1;
  GeneratedPolicies gen = GeneratePolicies(pg);

  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto t0 = std::chrono::steady_clock::now();
  EncodingSnapshot enc =
      EncodingSnapshot::Build(gen.store, users, compat, {}, quant);
  auto t1 = std::chrono::steady_clock::now();
  // Keep the encoding alive through the timing read.
  if (enc.num_users() != users) std::abort();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace peb::eval;

  TablePrinter a({"users", "preprocessing (s)"});
  for (size_t n = 10000; n <= 100000; n += 10000) {
    size_t users = Scaled(n, 1000);
    a.AddRow({std::to_string(n / 1000) + "K",
              Fmt(EncodeSeconds(users, Scaled(50, 5)), 3)});
  }
  PrintBanner(std::cout, "Figure 11(a): policy-encoding time vs users");
  a.Print(std::cout);

  TablePrinter b({"policies/user", "preprocessing (s)"});
  for (size_t np = 10; np <= 100; np += 10) {
    b.AddRow({std::to_string(np),
              Fmt(EncodeSeconds(Scaled(60000, 1000), np), 3)});
  }
  PrintBanner(std::cout,
              "Figure 11(b): policy-encoding time vs policies per user");
  b.Print(std::cout);
  return 0;
}
