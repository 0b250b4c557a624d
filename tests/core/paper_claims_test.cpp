// Integration tests: the paper's headline findings must hold on a
// moderately sized campaign (scaled machine, same physics).  Every shape
// row of the fidelity table (src/core/fidelity.hpp) is one test here;
// bench_paper checks the same rows, and the band and deviation rows, at
// paper scale.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "src/core/fidelity.hpp"
#include "src/core/registry.hpp"

namespace p2sim::core {
namespace {

// One shared campaign for the whole suite (SetUpTestSuite runs it once).
class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new Sp2Simulation(Sp2Config::small(/*days=*/45, /*nodes=*/48));
    sim_->campaign();
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }
  static Sp2Simulation* sim_;
};

Sp2Simulation* PaperClaims::sim_ = nullptr;

class ShapeClaim : public PaperClaims {
 public:
  explicit ShapeClaim(const Claim& claim) : claim_(claim) {}
  void TestBody() override {
    if (claim_.paper_scale_only) {
      GTEST_SKIP() << claim_.id << " holds at paper scale only; bench_paper "
                   << "checks it there";
    }
    const ClaimResult r = evaluate(claim_, *sim_);
    EXPECT_TRUE(r.pass) << claim_.id << " measured " << r.measured
                        << "; the paper: " << claim_.wording;
  }

 private:
  const Claim& claim_;
};

// The shape rows that were hand-written tests before the table existed
// keep those tests' names.
const std::map<std::string_view, std::string_view> kTestNames = {
    {"fig1.peak_fraction", "SystemRunsAtAFewPercentOfPeak"},
    {"fig1.utilization_moderate", "UtilizationIsModerate"},
    {"fig1.trend_slope", "NoPerformanceTrendOverTime"},
    {"fig2.most_popular_nodes", "SixteenNodesIsTheMostPopularChoice"},
    {"fig2.moderate_walltime_share", "ModerateParallelismDominatesWalltime"},
    {"fig3.wide_rate_collapses", "PerNodeRateDegradesBeyondTheWideThreshold"},
    {"fig4.trend_slope", "SixteenNodeHistoryIsFlatButNoisy"},
    {"fig5.correlation", "SystemInterventionAnticorrelatesWithPerformance"},
    {"table3.mflops_div", "DivideRowsAreZeroDespiteDividesExecuting"},
    {"table3.fpu0_carries_more", "Fpu0CarriesMoreInstructionsThanFpu1"},
    {"table3.fxu_carries_memory", "FxuCarriesTheMemoryTraffic"},
    {"table4.hierarchy_ordering", "MemoryHierarchyRatiosInTheTable4Band"},
    {"summary.batch_exceeds_elapsed", "BatchAverageExceedsElapsedAverage"},
    {"table2.mops_above_mips", "MopsRunSlightlyAboveMips"},
    {"summary.matmul_near_peak", "SingleProcessorCalibrationPeak"},
};

// "fig2.walltime_beyond_64" -> "Fig2WalltimeBeyond64".
std::string test_name(const Claim& c) {
  const auto it = kTestNames.find(c.id);
  if (it != kTestNames.end()) return std::string(it->second);
  std::string name;
  bool upper = true;
  for (char ch : c.id) {
    if (ch == '.' || ch == '_') {
      upper = true;
    } else {
      name += upper ? static_cast<char>(std::toupper(ch)) : ch;
      upper = false;
    }
  }
  return name;
}

// One PaperClaims test per shape row, registered before main runs.
[[maybe_unused]] const bool kShapeTestsRegistered = [] {
  for (const Claim& c : claims()) {
    if (c.kind != ClaimKind::kShape) continue;
    // No value parameter: gtest_discover_tests would append it to the
    // ctest name.  The claim id is in the failure message instead.
    ::testing::RegisterTest("PaperClaims", test_name(c).c_str(), nullptr,
                            nullptr, __FILE__, __LINE__,
                            [&c]() -> PaperClaims* {
                              return new ShapeClaim(c);
                            });
  }
  return true;
}();

TEST(FidelityTable, IdsAreUnique) {
  std::set<std::string> seen;
  for (const Claim& c : claims()) {
    EXPECT_TRUE(seen.insert(c.id).second) << c.id;
  }
}

TEST(FidelityTable, EveryArtifactIsARegisteredExperiment) {
  for (const Claim& c : claims()) {
    EXPECT_NE(find_experiment(c.artifact()), nullptr) << c.id;
  }
}

TEST(FidelityTable, EveryDeviationHasAReason) {
  for (const Claim& c : claims()) {
    if (c.kind != ClaimKind::kDeviation) continue;
    EXPECT_FALSE(c.reason.empty()) << c.id;
    EXPECT_NE(c.pinned, 0.0) << c.id;
  }
}

TEST(FidelityTable, NoBandRowHasAZeroPaperValue) {
  // A paper value of zero has no relative band: such a claim is a shape.
  for (const Claim& c : claims()) {
    if (c.kind == ClaimKind::kBand) {
      EXPECT_NE(c.paper, 0.0) << c.id;
    }
  }
}

TEST(FidelityTable, EveryRowCanBeChecked) {
  for (const Claim& c : claims()) {
    EXPECT_TRUE(static_cast<bool>(c.measure)) << c.id;
    EXPECT_EQ(static_cast<bool>(c.holds), c.kind == ClaimKind::kShape)
        << c.id;
    EXPECT_TRUE(!c.paper_scale_only || c.kind == ClaimKind::kShape) << c.id;
  }
}

TEST(FidelityTable, NamedTestsMapToShapeRows) {
  for (const auto& [id, name] : kTestNames) {
    bool found = false;
    for (const Claim& c : claims()) {
      found |= c.id == id && c.kind == ClaimKind::kShape;
    }
    EXPECT_TRUE(found) << name << " -> " << id;
  }
}

}  // namespace
}  // namespace p2sim::core
