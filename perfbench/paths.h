// The three user paths the benchmark drives through msprint's public
// library functions. A workload names the path that gets the measured
// window; the other two run a fixed small slice so every end-to-end
// metric is measured on every workload (see README.md).
//
// Each path runs in items (one pipeline pass, one advise round, one storm
// batch). RunItem returns the item's wall seconds; Finish turns what the
// items recorded into metrics. With `traced`, an item records spans
// around each library call; per-layer metrics come from traced items and
// from the probes Finish runs when the tracer is on.

#ifndef MSPRINT_PERFBENCH_PATHS_H_
#define MSPRINT_PERFBENCH_PATHS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/core/models.h"
#include "src/robust/storm.h"

namespace perfbench {

struct Context {
  uint64_t seed = 1;
  size_t threads = 1;  // threads a ParallelFor occupies
  Tracer* tracer = nullptr;
  Results* results = nullptr;
  uint64_t next_item = 0;

  uint64_t NextItem() { return ++next_item; }
};

class Path {
 public:
  virtual ~Path() = default;
  virtual double RunItem(bool traced) = 0;
  virtual void Finish() = 0;
};

// CRC-32 of the profile's saved text: equal digests mean byte-identical
// profiles.
uint32_t ProfileDigest(const msprint::WorkloadProfile& profile);

// Batch job: profile -> calibrate -> 80/20 split -> train for Jacobi and
// for the Jacobi+KNN mix on DVFS at `grid_points` rows each.
std::unique_ptr<Path> MakePipelinePath(Context& ctx, size_t grid_points);

// Model queries against a trained hybrid model: `per_round` closed-loop
// predictions, the same inputs as one pooled batch, and one exploration.
std::unique_ptr<Path> MakeAdvisePath(Context& ctx,
                                     const msprint::WorkloadProfile& profile,
                                     const msprint::HybridModel& model,
                                     const std::vector<msprint::ModelInput>& inputs,
                                     size_t per_round);

struct StormScenario {
  std::string name;
  msprint::robust::StormConfig config;
};

// Serial storms: every scenario x side x `seeds_per_batch` seeds, each run
// once detached and once with every obs sink attached.
std::unique_ptr<Path> MakeStormPath(Context& ctx,
                                    std::vector<StormScenario> scenarios,
                                    size_t seeds_per_batch);

}  // namespace perfbench

#endif  // MSPRINT_PERFBENCH_PATHS_H_
