// Tests for the workload profiler: centroid grid handling, mu / mu_m
// extraction against Table 1(C), observation plumbing and cost accounting.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "src/profiler/profiler.h"

namespace msprint {
namespace {

ProfilerConfig FastConfig(size_t points = 12) {
  ProfilerConfig config;
  config.sample_grid_points = points;
  config.queries_per_run = 600;
  config.warmup_queries = 60;
  config.replications_per_point = 1;
  config.pool_size = 4;
  return config;
}

SprintPolicy DvfsPlatform() {
  SprintPolicy policy;
  policy.mechanism = MechanismId::kDvfs;
  return policy;
}

TEST(CentroidTest, GridSizeIsProductOfAxes) {
  ProfilingCentroids centroids;
  EXPECT_EQ(centroids.GridSize(), centroids.utilizations.size() *
                                      centroids.arrival_kinds.size() *
                                      centroids.timeouts_seconds.size() *
                                      centroids.refill_seconds.size() *
                                      centroids.budget_fractions.size());
  // Section 3's published centroid lists.
  EXPECT_EQ(centroids.utilizations.size(), 4u);
  EXPECT_EQ(centroids.timeouts_seconds.size(), 7u);
  EXPECT_EQ(centroids.refill_seconds.size(), 5u);
  EXPECT_EQ(centroids.budget_fractions.size(), 7u);
}

TEST(ProfilerTest, ExtractsCatalogRates) {
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi),
                                       DvfsPlatform(), FastConfig());
  EXPECT_NEAR(profile.service_rate_per_second * kSecondsPerHour, 51.0, 2.5);
  EXPECT_NEAR(profile.marginal_rate_per_second * kSecondsPerHour, 74.0, 4.0);
  EXPECT_GT(profile.MarginalSpeedup(), 1.3);
  EXPECT_LT(profile.MarginalSpeedup(), 1.6);
}

TEST(ProfilerTest, SamplesRequestedGridPoints) {
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kMem),
                                       DvfsPlatform(), FastConfig(17));
  EXPECT_EQ(profile.rows.size(), 17u);
}

TEST(ProfilerTest, ZeroSampleRunsFullGrid) {
  ProfilerConfig config = FastConfig();
  config.sample_grid_points = 0;
  config.centroids.utilizations = {0.5};
  config.centroids.arrival_kinds = {DistributionKind::kExponential};
  config.centroids.timeouts_seconds = {60.0, 120.0};
  config.centroids.refill_seconds = {200.0};
  config.centroids.budget_fractions = {0.2, 0.4, 0.8};
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kKnn),
                                       DvfsPlatform(), config);
  EXPECT_EQ(profile.rows.size(), 6u);
}

TEST(ProfilerTest, RowsCarryGridSettings) {
  ProfilerConfig config = FastConfig(30);
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi),
                                       DvfsPlatform(), config);
  const ProfilingCentroids& centroids = config.centroids;
  for (const auto& row : profile.rows) {
    EXPECT_NE(std::find(centroids.utilizations.begin(),
                        centroids.utilizations.end(), row.utilization),
              centroids.utilizations.end());
    EXPECT_NE(std::find(centroids.timeouts_seconds.begin(),
                        centroids.timeouts_seconds.end(),
                        row.timeout_seconds),
              centroids.timeouts_seconds.end());
    EXPECT_GT(row.observed_mean_response_time, 0.0);
    EXPECT_GE(row.fraction_sprinted, 0.0);
    EXPECT_LE(row.fraction_sprinted, 1.0);
    EXPECT_GT(row.run_virtual_seconds, 0.0);
  }
}

TEST(ProfilerTest, SampledPointsAreDistinct) {
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi),
                                       DvfsPlatform(), FastConfig(40));
  std::set<std::tuple<double, int, double, double, double>> distinct;
  for (const auto& row : profile.rows) {
    distinct.insert({row.utilization, static_cast<int>(row.arrival_kind),
                     row.timeout_seconds, row.refill_seconds,
                     row.budget_fraction});
  }
  EXPECT_EQ(distinct.size(), profile.rows.size());
}

TEST(ProfilerTest, ProfilingHoursAccumulate) {
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi),
                                       DvfsPlatform(), FastConfig());
  EXPECT_GT(profile.total_profiling_hours, 0.0);
}

TEST(ProfilerTest, ServiceSamplesPopulated) {
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kLeuk),
                                       DvfsPlatform(), FastConfig());
  EXPECT_GT(profile.service_time_samples.size(), 500u);
  for (double s : profile.service_time_samples) {
    EXPECT_GT(s, 0.0);
  }
}

TEST(ProfilerTest, MixProfileReflectsInterference) {
  const auto profile =
      ProfileWorkload(MakeMixOne(), DvfsPlatform(), FastConfig());
  // Section 3.4: Mix I sustained rate measured at 35 qph.
  EXPECT_NEAR(profile.service_rate_per_second * kSecondsPerHour, 35.0, 2.0);
}

TEST(ProfilerTest, DeterministicGivenSeed) {
  const auto a = ProfileWorkload(QueryMix::Single(WorkloadId::kBfs),
                                 DvfsPlatform(), FastConfig());
  const auto b = ProfileWorkload(QueryMix::Single(WorkloadId::kBfs),
                                 DvfsPlatform(), FastConfig());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rows[i].observed_mean_response_time,
                     b.rows[i].observed_mean_response_time);
  }
}

TEST(ProfilerTest, ThrottlePlatformScalesRates) {
  SprintPolicy throttle;
  throttle.mechanism = MechanismId::kCpuThrottle;
  throttle.throttle_fraction = 0.2;
  throttle.sprint_cpu_fraction = 1.0;
  const auto profile = ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi),
                                       throttle, FastConfig());
  // Section 4.3: sustained 14.8 qph, sprint 74 qph under 20% throttling.
  EXPECT_NEAR(profile.service_rate_per_second * kSecondsPerHour, 14.8, 1.0);
  EXPECT_NEAR(profile.marginal_rate_per_second * kSecondsPerHour, 74.0, 4.0);
}

// A config that leaves a run nothing to measure is rejected before any run,
// with a message naming the field.
void ExpectRejected(const ProfilerConfig& config, const std::string& field) {
  try {
    ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi), DvfsPlatform(),
                    config);
    ADD_FAILURE() << "accepted a config with a bad " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(ProfilerTest, RejectsWarmupCoveringEveryQuery) {
  ProfilerConfig config = FastConfig();
  config.warmup_queries = config.queries_per_run;
  ExpectRejected(config, "warmup_queries");
  config.warmup_queries = config.queries_per_run + 1;
  ExpectRejected(config, "warmup_queries");
  config.queries_per_run = 0;
  config.warmup_queries = 0;
  ExpectRejected(config, "queries_per_run");
}

TEST(ProfilerTest, RejectsZeroReplications) {
  ProfilerConfig config = FastConfig();
  config.replications_per_point = 0;
  ExpectRejected(config, "replications_per_point");
}

}  // namespace
}  // namespace msprint
