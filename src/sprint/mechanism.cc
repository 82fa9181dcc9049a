#include "src/sprint/mechanism.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace msprint {

std::string ToString(MechanismId id) {
  switch (id) {
    case MechanismId::kDvfs:
      return "DVFS";
    case MechanismId::kCoreScale:
      return "CoreScale";
    case MechanismId::kEc2Dvfs:
      return "EC2DVFS";
    case MechanismId::kCpuThrottle:
      return "CpuThrottle";
  }
  return "unknown";
}

namespace {

// Finds the gain k such that the harmonic mean of the per-phase speedups
//   speedup_p = 1 + k * eff_p * (target - 1)
// over a whole execution equals `target`:
//   sum_p w_p / speedup_p = 1 / target.
// The left side is strictly decreasing in k, so bisection converges.
double CalibratePhaseGain(const WorkloadSpec& workload, double target) {
  if (target <= 1.0) {
    return 0.0;
  }
  auto whole_run_time = [&](double k) {
    double t = 0.0;
    for (const auto& phase : workload.phases) {
      const double speedup =
          1.0 + k * phase.sprint_efficiency * (target - 1.0);
      t += phase.work_fraction / speedup;
    }
    return t;
  };
  const double want = 1.0 / target;
  double lo = 0.0;
  double hi = 1.0;
  // Grow hi until the sprinted run is fast enough (handles eff profiles
  // whose weighted efficiency is < 1).
  while (whole_run_time(hi) > want && hi < 1e4) {
    hi *= 2.0;
  }
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (whole_run_time(mid) > want) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// Phase-shaped speedups calibrated to `target` marginally: one bisection
// for the gain, then one speedup per phase.
std::vector<double> PhasedSpeedups(const WorkloadSpec& workload,
                                   double target) {
  const double k = CalibratePhaseGain(workload, target);
  std::vector<double> speedups;
  speedups.reserve(workload.phases.size());
  for (const auto& phase : workload.phases) {
    speedups.push_back(1.0 + k * phase.sprint_efficiency * (target - 1.0));
  }
  return speedups;
}

// Amdahl speedup from doubling core count with parallel fraction p.
double AmdahlDouble(double parallel_fraction) {
  return 1.0 / (1.0 - parallel_fraction / 2.0);
}

}  // namespace

// ----------------------------------------------------------------------- DVFS

std::string DvfsMechanism::Describe() const {
  return "DVFS: Xeon 2660, 16 cores, Pupil power capping, "
         "44-70W sustained / 90-190W burst";
}

double DvfsMechanism::SustainedServiceMultiplier(const WorkloadSpec&) const {
  return 1.0;  // reference platform
}

double DvfsMechanism::MarginalSpeedup(const WorkloadSpec& workload) const {
  return workload.MarginalSpeedupDvfs();
}

std::vector<double> DvfsMechanism::PhaseSpeedups(
    const WorkloadSpec& workload) const {
  return PhasedSpeedups(workload, MarginalSpeedup(workload));
}

// ----------------------------------------------------------------- CoreScale

std::string CoreScaleMechanism::Describe() const {
  return "CoreScale: 16 cores @ 2.1 GHz, 8 active sustained / 16 burst "
         "(taskset)";
}

double CoreScaleMechanism::SustainedServiceMultiplier(
    const WorkloadSpec&) const {
  // 8 cores at a fixed 2.1 GHz vs the DVFS platform's sustained config.
  // Calibrated from Section 3.3: Jacobi takes 202 s here vs 70.6 s
  // (3600/51) on DVFS sustained.
  return 2.86;
}

double CoreScaleMechanism::MarginalSpeedup(const WorkloadSpec& workload) const {
  double sprinted_time = 0.0;
  for (const auto& phase : workload.phases) {
    sprinted_time +=
        phase.work_fraction / AmdahlDouble(phase.parallel_fraction);
  }
  return 1.0 / sprinted_time;
}

std::vector<double> CoreScaleMechanism::PhaseSpeedups(
    const WorkloadSpec& workload) const {
  std::vector<double> speedups;
  speedups.reserve(workload.phases.size());
  for (const auto& phase : workload.phases) {
    speedups.push_back(AmdahlDouble(phase.parallel_fraction));
  }
  return speedups;
}

// ------------------------------------------------------------------- EC2DVFS

namespace {
constexpr double kEc2SustainedGhz = 1.4;
constexpr double kEc2BurstGhz = 2.0;
// Virtualized C-class instance overhead vs the bare-metal Xeon reference.
constexpr double kEc2ServiceMultiplier = 1.30;
}  // namespace

std::string Ec2DvfsMechanism::Describe() const {
  return "EC2DVFS: EC2 C-class, 36 vCPU, P-states 1.4 GHz sustained / "
         "2.0 GHz burst";
}

double Ec2DvfsMechanism::SustainedServiceMultiplier(
    const WorkloadSpec&) const {
  return kEc2ServiceMultiplier;
}

double Ec2DvfsMechanism::MarginalSpeedup(const WorkloadSpec& workload) const {
  // Frequency scaling only accelerates the non-memory-bound share.
  const double ratio = kEc2BurstGhz / kEc2SustainedGhz;
  const double m = workload.memory_bound_fraction;
  return 1.0 / ((1.0 - m) / ratio + m);
}

std::vector<double> Ec2DvfsMechanism::PhaseSpeedups(
    const WorkloadSpec& workload) const {
  return PhasedSpeedups(workload, MarginalSpeedup(workload));
}

// --------------------------------------------------------------- CpuThrottle

CpuThrottleMechanism::CpuThrottleMechanism(double throttle_fraction,
                                           double sprint_fraction)
    : throttle_fraction_(throttle_fraction),
      sprint_fraction_(sprint_fraction) {
  if (throttle_fraction <= 0.0 || throttle_fraction > 1.0 ||
      sprint_fraction < throttle_fraction || sprint_fraction > 1.0) {
    throw std::invalid_argument(
        "need 0 < throttle_fraction <= sprint_fraction <= 1");
  }
}

std::string CpuThrottleMechanism::Describe() const {
  std::ostringstream os;
  os << "CpuThrottle: " << throttle_fraction_ * 100.0
     << "% CPU sustained / " << sprint_fraction_ * 100.0 << "% burst";
  return os.str();
}

double CpuThrottleMechanism::SustainedServiceMultiplier(
    const WorkloadSpec& workload) const {
  // The throttled baseline is `throttle_fraction` of the workload's *burst*
  // (unthrottled full-machine) throughput, which on the reference platform
  // is the DVFS burst rate (Section 4.3: Jacobi 74 qph * 20% = 14.8 qph).
  const double burst_service =
      workload.MeanServiceSeconds() / workload.MarginalSpeedupDvfs();
  return (burst_service / throttle_fraction_) / workload.MeanServiceSeconds();
}

double CpuThrottleMechanism::MarginalSpeedup(const WorkloadSpec&) const {
  // Time slicing scales throughput linearly in the CPU share, regardless of
  // workload phases: the workload simply runs more of the time.
  return sprint_fraction_ / throttle_fraction_;
}

std::vector<double> CpuThrottleMechanism::PhaseSpeedups(
    const WorkloadSpec& workload) const {
  return std::vector<double>(workload.phases.size(),
                             sprint_fraction_ / throttle_fraction_);
}

// -------------------------------------------------------------------- Factory

std::unique_ptr<SprintMechanism> MakeMechanism(MechanismId id) {
  switch (id) {
    case MechanismId::kDvfs:
      return std::make_unique<DvfsMechanism>();
    case MechanismId::kCoreScale:
      return std::make_unique<CoreScaleMechanism>();
    case MechanismId::kEc2Dvfs:
      return std::make_unique<Ec2DvfsMechanism>();
    case MechanismId::kCpuThrottle:
      return std::make_unique<CpuThrottleMechanism>(0.2, 1.0);
  }
  return nullptr;
}

}  // namespace msprint
