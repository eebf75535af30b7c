// Cross-module parameterized sweeps: strategies over the structured graph
// families, heterogeneous mix-search invariants across platform shapes,
// and online-simulation invariants across variability levels.
#include <gtest/gtest.h>

#include "core/strategy.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "hetero/lamps_hetero.hpp"
#include "sched/schedule.hpp"
#include "sim/online.hpp"
#include "stg/structured.hpp"

namespace lamps {
namespace {

const power::PowerModel& model() {
  static const power::PowerModel m;
  return m;
}
const power::DvsLadder& ladder() {
  static const power::DvsLadder l{model()};
  return l;
}

core::Problem make_problem(const graph::TaskGraph& g, double factor) {
  core::Problem p;
  p.graph = &g;
  p.model = &model();
  p.ladder = &ladder();
  p.deadline = Seconds{static_cast<double>(graph::critical_path_length(g)) /
                       model().max_frequency().value() * factor};
  return p;
}

// ------------------------------------------- structured x strategies --

struct StructuredCase {
  const char* name;
  graph::TaskGraph (*make)();

  // gtest's default byte dump of this struct would print the pointers,
  // whose addresses change from run to run, into the listed test names.
  friend void PrintTo(const StructuredCase& c, std::ostream* os) { *os << c.name; }
};

graph::TaskGraph make_gauss() {
  return graph::scale_weights(stg::gaussian_elimination(12, 4, 2), 3'100'000);
}
graph::TaskGraph make_fft() {
  return graph::scale_weights(stg::fft_butterfly(4, 3), 3'100'000);
}
graph::TaskGraph make_outtree() {
  return graph::scale_weights(stg::out_tree(6, 2), 3'100'000);
}
graph::TaskGraph make_intree() {
  return graph::scale_weights(stg::in_tree(6, 2), 3'100'000);
}
graph::TaskGraph make_dnc() {
  return graph::scale_weights(stg::divide_and_conquer(5, 1, 6), 3'100'000);
}
graph::TaskGraph make_wave() {
  return graph::scale_weights(stg::wavefront(9, 7, 3), 3'100'000);
}

class StructuredStrategies : public ::testing::TestWithParam<StructuredCase> {};

TEST_P(StructuredStrategies, FullInvariantSuite) {
  const graph::TaskGraph g = GetParam().make();
  for (const double factor : {1.5, 4.0}) {
    const core::Problem prob = make_problem(g, factor);
    const auto sns = core::run_strategy(core::StrategyKind::kSns, prob);
    const auto lam = core::run_strategy(core::StrategyKind::kLamps, prob);
    const auto ps = core::run_strategy(core::StrategyKind::kLampsPs, prob);
    const auto lsf = core::run_strategy(core::StrategyKind::kLimitSf, prob);
    const auto lmf = core::run_strategy(core::StrategyKind::kLimitMf, prob);
    ASSERT_TRUE(sns.feasible && lam.feasible && ps.feasible && lsf.feasible)
        << GetParam().name << " @" << factor;
    EXPECT_EQ(sched::validate_schedule(*sns.schedule, g), "");
    EXPECT_EQ(sched::validate_schedule(*ps.schedule, g), "");
    const double eps = 1.0 + 1e-9;
    EXPECT_LE(lmf.energy().value(), lsf.energy().value() * eps);
    EXPECT_LE(lsf.energy().value(), ps.energy().value() * eps);
    EXPECT_LE(ps.energy().value(), lam.energy().value() * eps);
    EXPECT_LE(lam.energy().value(), sns.energy().value() * eps);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, StructuredStrategies,
                         ::testing::Values(StructuredCase{"gauss", make_gauss},
                                           StructuredCase{"fft", make_fft},
                                           StructuredCase{"outtree", make_outtree},
                                           StructuredCase{"intree", make_intree},
                                           StructuredCase{"dnc", make_dnc},
                                           StructuredCase{"wavefront", make_wave}),
                         [](const auto& pinfo) { return std::string(pinfo.param.name); });

// -------------------------------------------------- hetero invariants --

struct HeteroCase {
  std::size_t bigs;
  std::size_t littles;
  double factor;
};

class HeteroSweep : public ::testing::TestWithParam<HeteroCase> {};

TEST_P(HeteroSweep, MixSearchInvariants) {
  const HeteroCase hc = GetParam();
  const graph::TaskGraph g = make_dnc();
  const hetero::Platform platform = hetero::big_little(hc.bigs, hc.littles);
  const Seconds deadline{static_cast<double>(graph::critical_path_length(g)) /
                         model().max_frequency().value() * hc.factor};
  const hetero::HeteroResult r =
      hetero::lamps_hetero(g, platform, model(), ladder(), deadline);
  if (!r.feasible) {
    // Infeasibility must be justified: even the full platform's capacity
    // cannot retire the total work before the deadline (the fork/join graph
    // has parallelism ~9; tiny platforms at tight deadlines can't carry it).
    double capacity = 0.0;
    for (std::size_t c = 0; c < platform.num_classes(); ++c)
      capacity += static_cast<double>(platform.count_of(c)) * platform.cls(c).speed_factor;
    EXPECT_LT(capacity * deadline.value() * model().max_frequency().value(),
              static_cast<double>(g.total_work()) * 1.3)
        << hc.bigs << "B" << hc.littles << "L @" << hc.factor
        << ": infeasible despite ample capacity";
    return;
  }
  EXPECT_LE(r.completion.value(), deadline.value() * (1.0 + 1e-9));
  ASSERT_EQ(r.counts.size(), platform.num_classes());
  std::size_t employed = 0;
  for (std::size_t c = 0; c < r.counts.size(); ++c) {
    EXPECT_LE(r.counts[c], platform.count_of(c));
    employed += r.counts[c];
  }
  EXPECT_GE(employed, 1u);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_EQ(hetero::validate_hetero_schedule(*r.schedule, g, platform.subset(r.counts)),
            "");
  // The homogeneous all-big pure configuration is inside the search space,
  // so the mix can never lose to it.
  const hetero::HeteroResult all_big = hetero::lamps_hetero(
      g, platform.subset({hc.bigs, 0}), model(), ladder(), deadline);
  if (all_big.feasible) {
    EXPECT_LE(r.energy().value(), all_big.energy().value() * (1.0 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, HeteroSweep,
                         ::testing::Values(HeteroCase{1, 1, 2.0}, HeteroCase{2, 2, 1.5},
                                           HeteroCase{2, 2, 8.0}, HeteroCase{1, 4, 4.0},
                                           HeteroCase{3, 1, 2.0}),
                         [](const auto& pinfo) {
                           return std::to_string(pinfo.param.bigs) + "B" +
                                  std::to_string(pinfo.param.littles) + "L_d" +
                                  std::to_string(static_cast<int>(pinfo.param.factor * 10));
                         });

// -------------------------------------------------- online invariants --

class OnlineSweep : public ::testing::TestWithParam<double> {};

TEST_P(OnlineSweep, ReclamationNeverIncreasesEnergyAndAlwaysMeetsDeadline) {
  const double ratio = GetParam();
  const graph::TaskGraph g = make_outtree();
  const core::Problem prob = make_problem(g, 1.5);
  const auto plan = core::lamps_schedule_ps(prob);
  ASSERT_TRUE(plan.feasible);
  const auto& lvl = ladder().level(plan.level_index);
  const power::SleepModel sleep(model());

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    sim::OnlineOptions opts;
    opts.bcet_ratio = ratio;
    opts.seed = seed;
    opts.reclaim = false;
    const auto st = sim::simulate_online(*plan.schedule, g, ladder(), lvl, prob.deadline,
                                         sleep, opts);
    opts.reclaim = true;
    const auto rc = sim::simulate_online(*plan.schedule, g, ladder(), lvl, prob.deadline,
                                         sleep, opts);
    EXPECT_TRUE(st.met_deadline);
    EXPECT_TRUE(rc.met_deadline);
    EXPECT_LE(rc.breakdown.total().value(), st.breakdown.total().value() * (1.0 + 1e-9))
        << "ratio " << ratio << " seed " << seed;
    // Actual execution never exceeds the WCET plan's prediction.
    EXPECT_LE(st.breakdown.total().value(), plan.energy().value() * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, OnlineSweep, ::testing::Values(1.0, 0.8, 0.5, 0.25),
                         [](const auto& pinfo) {
                           return "r" + std::to_string(static_cast<int>(pinfo.param * 100));
                         });

}  // namespace
}  // namespace lamps
