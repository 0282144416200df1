/// \file test_preemptive.cpp
/// \brief Preemptive RTA tests: textbook response-time examples, CRPD
///        inflation, utilization bounds and the control-timing view.

#include <gtest/gtest.h>

#include <cmath>

#include "sched/preemptive.hpp"

namespace {

using catsched::sched::PreemptiveTask;
using catsched::sched::preemptive_timing;
using catsched::sched::rate_monotonic_order;
using catsched::sched::response_time_analysis;
using catsched::sched::response_time_analysis_rm;

TEST(RmOrder, SortsByPeriodStable) {
  const std::vector<PreemptiveTask> tasks = {
      {10.0, 1.0, 0.0}, {5.0, 1.0, 0.0}, {10.0, 2.0, 0.0}, {2.0, 0.5, 0.0}};
  const auto order = rate_monotonic_order(tasks);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(Rta, TextbookExampleMatchesHandComputation) {
  // Classic Liu/Layland-style set: T = {4, 6, 12}, C = {1, 2, 3}.
  // R1 = 1; R2 = 2 + ceil(R2/4)*1 -> 3; R3 = 3 + ceil(R/4)*1 + ceil(R/6)*2
  //   iteration: 3 -> 3+1+2=6 -> 3+2+2=7 -> 3+2+4=9 -> 3+3+4=10 ->
  //              3+3+4=10 (fix).
  const std::vector<PreemptiveTask> tasks = {
      {4.0, 1.0, 0.0}, {6.0, 2.0, 0.0}, {12.0, 3.0, 0.0}};
  const auto rta = response_time_analysis_rm(tasks);
  ASSERT_TRUE(rta.all_schedulable);
  EXPECT_DOUBLE_EQ(rta.response[0].value, 1.0);
  EXPECT_DOUBLE_EQ(rta.response[1].value, 3.0);
  EXPECT_DOUBLE_EQ(rta.response[2].value, 10.0);
  EXPECT_NEAR(rta.utilization, 1.0 / 4 + 2.0 / 6 + 3.0 / 12, 1e-12);
}

TEST(Rta, CrpdInflatesLowerPriorityResponse) {
  std::vector<PreemptiveTask> tasks = {{4.0, 1.0, 0.0},
                                       {12.0, 3.0, 0.0}};
  const auto clean = response_time_analysis_rm(tasks);
  ASSERT_TRUE(clean.all_schedulable);
  tasks[0].crpd = 0.5;  // every preemption by task 0 now costs extra
  const auto crpd = response_time_analysis_rm(tasks);
  ASSERT_TRUE(crpd.all_schedulable);
  EXPECT_DOUBLE_EQ(crpd.response[0].value, clean.response[0].value);
  EXPECT_GT(crpd.response[1].value, clean.response[1].value);
}

TEST(Rta, DetectsUnschedulableSet) {
  // Utilization > 1 can never be schedulable.
  const std::vector<PreemptiveTask> tasks = {{2.0, 1.5, 0.0},
                                             {3.0, 1.5, 0.0}};
  const auto rta = response_time_analysis_rm(tasks);
  EXPECT_FALSE(rta.all_schedulable);
  EXPECT_FALSE(rta.response[1].schedulable);
  EXPECT_TRUE(std::isinf(rta.response[1].value));
}

TEST(Rta, CrpdCanBreakSchedulability) {
  // Feasible without CRPD, infeasible with it.
  std::vector<PreemptiveTask> tasks = {{2.0, 1.0, 0.0}, {4.0, 1.9, 0.0}};
  EXPECT_TRUE(response_time_analysis_rm(tasks).all_schedulable);
  tasks[0].crpd = 0.2;
  EXPECT_FALSE(response_time_analysis_rm(tasks).all_schedulable);
}

TEST(Rta, RejectsBadArguments) {
  EXPECT_THROW(response_time_analysis_rm({}), std::invalid_argument);
  EXPECT_THROW(response_time_analysis_rm({{0.0, 1.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      response_time_analysis({{1.0, 0.5, 0.0}}, {0, 0}),
      std::invalid_argument);
}

TEST(PreemptiveTiming, ExposesPeriodAndResponseAsControlTiming) {
  const std::vector<PreemptiveTask> tasks = {
      {4.0e-3, 1.0e-3, 0.0}, {6.0e-3, 2.0e-3, 0.0}};
  const auto rta = response_time_analysis_rm(tasks);
  ASSERT_TRUE(rta.all_schedulable);
  const auto timing = preemptive_timing(tasks, rta);
  ASSERT_EQ(timing.apps.size(), 2u);
  EXPECT_DOUBLE_EQ(timing.apps[0].intervals[0].h, 4.0e-3);
  EXPECT_DOUBLE_EQ(timing.apps[0].intervals[0].tau, 1.0e-3);
  EXPECT_DOUBLE_EQ(timing.apps[1].intervals[0].h, 6.0e-3);
  EXPECT_DOUBLE_EQ(timing.apps[1].intervals[0].tau,
                   rta.response[1].value);
  // tau <= h always holds for a schedulable set.
  for (const auto& app : timing.apps) {
    EXPECT_LE(app.intervals[0].tau, app.intervals[0].h);
  }
}

TEST(PreemptiveTiming, ThrowsOnUnschedulableInput) {
  const std::vector<PreemptiveTask> tasks = {{2.0, 1.5, 0.0},
                                             {3.0, 1.5, 0.0}};
  const auto rta = response_time_analysis_rm(tasks);
  EXPECT_THROW(preemptive_timing(tasks, rta), std::invalid_argument);
}

}  // namespace
