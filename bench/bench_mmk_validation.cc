// Validates the timeout-aware simulator on classic queueing workloads, as
// the paper does ("We validated our simulator using classic MMK workloads,
// where it achieved median error of 5%"): M/M/1, M/M/k and M/D/1 against
// closed-form results, the always-sprinting limit (timeout 0, unbounded
// budget) against Pollaczek-Khinchine at service / speedup, plus a G/G/1
// heavy-tail sanity check.

#include <cmath>
#include <iostream>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/sim/queue_simulator.h"

namespace msprint {
namespace {

double ErlangCWait(double lambda, double mu, int k) {
  const double a = lambda / mu;
  double sum = 0.0;
  double term = 1.0;
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      term *= a / i;
    }
    sum += term;
  }
  const double last = term * a / k;
  const double p_wait = last / ((1.0 - a / k) * sum + last);
  return p_wait / (k * mu - lambda);
}

// The unsprinted G/G/k run: the timeout never fires and there is no
// budget to sprint on.
SimConfig ValidationConfig(const Distribution& service, double lambda,
                           int slots, uint64_t seed) {
  SimConfig config;
  config.arrival_rate_per_second = lambda;
  config.service = &service;
  config.sprint_speedup = 1.0;
  config.timeout_seconds = 1e18;
  config.budget_capacity_seconds = 0.0;
  config.budget_refill_seconds = 1.0;
  config.slots = slots;
  config.num_queries = 300000;
  config.warmup_queries = 30000;
  config.seed = seed;
  return config;
}

double Simulate(const Distribution& service, double lambda, int slots,
                uint64_t seed) {
  return SimulateQueue(ValidationConfig(service, lambda, slots, seed))
      .mean_response_time;
}

// Timeout 0 on an unbounded budget sprints every query from dispatch, so
// the queue is M/G/1 at service / speedup.
double SimulateAlwaysSprinting(const Distribution& service, double lambda,
                               double speedup, uint64_t seed) {
  SimConfig config = ValidationConfig(service, lambda, 1, seed);
  config.sprint_speedup = speedup;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e12;
  return SimulateQueue(config).mean_response_time;
}

// Pollaczek-Khinchine M/G/1 mean response time for service S / speedup.
double PollaczekKhinchine(const Distribution& service, double lambda,
                          double speedup) {
  const double mean = service.Mean() / speedup;
  const double second_moment =
      (service.Variance() + service.Mean() * service.Mean()) /
      (speedup * speedup);
  return mean + lambda * second_moment / (2.0 * (1.0 - lambda * mean));
}

}  // namespace
}  // namespace msprint

int main() {
  using namespace msprint;
  PrintBanner(std::cout, "Simulator validation on classic queueing models");
  const ExponentialDistribution exp_service(1.0);
  const DeterministicDistribution det_service(1.0);

  TextTable table({"model", "utilization", "analytic RT", "simulated RT",
                   "error"});
  std::vector<double> errors;
  auto add = [&](const std::string& name, double rho, double analytic,
                 double simulated) {
    const double err = AbsoluteRelativeError(simulated, analytic);
    errors.push_back(err);
    table.AddRow({name, TextTable::Pct(rho, 0), TextTable::Num(analytic, 3),
                  TextTable::Num(simulated, 3), TextTable::Pct(err)});
  };

  for (double rho : {0.3, 0.5, 0.7, 0.9}) {
    add("M/M/1", rho, 1.0 / (1.0 - rho),
        Simulate(exp_service, rho, 1, 17 + static_cast<uint64_t>(rho * 100)));
  }
  for (int k : {2, 4, 8}) {
    const double rho = 0.7;
    const double lambda = rho * k;
    add("M/M/" + std::to_string(k), rho, ErlangCWait(lambda, 1.0, k) + 1.0,
        Simulate(exp_service, lambda, k, 31 + static_cast<uint64_t>(k)));
  }
  for (double rho : {0.5, 0.8}) {
    // Pollaczek-Khinchine for M/D/1.
    const double analytic = rho / (2.0 * (1.0 - rho)) + 1.0;
    add("M/D/1", rho, analytic,
        Simulate(det_service, rho, 1, 47 + static_cast<uint64_t>(rho * 10)));
  }
  // Sprinting limit with an exact answer: every query sprints its whole
  // execution, at utilization rho of the sprinted rate.
  const LognormalDistribution lognormal_service(1.0, 0.5);
  for (const auto& [name, service] :
       {std::pair<std::string, const Distribution*>{"exp", &exp_service},
        {"lognormal", &lognormal_service}}) {
    for (double speedup : {1.5, 2.0}) {
      const double rho = 0.8;
      const double lambda = rho * speedup / service->Mean();
      add("M/G/1 " + name + " /" + TextTable::Num(speedup, 1), rho,
          PollaczekKhinchine(*service, lambda, speedup),
          SimulateAlwaysSprinting(*service, lambda, speedup,
                                  61 + static_cast<uint64_t>(speedup * 10)));
    }
  }
  table.Print(std::cout);
  const double median_error = Median(errors);
  std::cout << "median error: " << TextTable::Pct(median_error)
            << " (paper: ~5%)\n";

  // G/G/1 heavy-tail sanity: no closed form, but Pareto arrivals must
  // produce strictly worse response times than exponential at equal load.
  PrintBanner(std::cout, "G/G/1 heavy-tail sanity (Pareto alpha=0.5)");
  SimConfig config = ValidationConfig(exp_service, 0.7, 1, 53);
  const double exp_rt = SimulateQueue(config).mean_response_time;
  config.arrival_kind = DistributionKind::kPareto;
  const double pareto_rt = SimulateQueue(config).mean_response_time;
  std::cout << "exponential arrivals: " << TextTable::Num(exp_rt, 2)
            << " s;  pareto arrivals: " << TextTable::Num(pareto_rt, 2)
            << " s (bursty arrivals queue "
            << TextTable::Num(pareto_rt / exp_rt, 1) << "X longer)\n";

  bench::BenchReport report("mmk_validation");
  report.Count("validation_cases", errors.size());
  report.Scalar("median_error", median_error);
  report.Scalar("max_error", *std::max_element(errors.begin(), errors.end()));
  report.Scalar("pareto_vs_exponential_rt", pareto_rt / exp_rt);
  report.Write();
  return 0;
}
