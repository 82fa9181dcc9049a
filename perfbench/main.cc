// End-to-end benchmark driver. See README.md for the workloads, the
// metrics and what each should move.
//
//   perfbench --workload pipeline|advise|storm --seed N --seconds S
//             --trace 0|1 [--spans-out FILE] [--storm-dir DIR]
//
// Prints human-readable lines (sample counts, digests, span summary) and,
// as the last line, one JSON object with every metric the run measured.

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "perfbench/paths.h"
#include "src/common/fileio.h"
#include "src/common/thread_pool.h"
#include "src/core/effective_rate.h"

namespace perfbench {
namespace {

using namespace msprint;

// Grid of the profile the advise model is trained on (reduced from 280).
constexpr size_t kAdviseGrid = 40;
// Grid of the pipeline path on the other workloads.
constexpr size_t kSliceGrid = 40;
// Predictions per advise round, and storm seeds per storm batch.
constexpr size_t kAdviseRound = 200;
constexpr size_t kStormSeeds = 2;
// Seeded prediction inputs drawn at setup; rounds cycle through them.
constexpr size_t kInputs = 4096;
// Setup repetitions; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
// Share of the window the home path gets; the other two split the rest.
constexpr double kHomeShare = 0.6;
// The fewest items a path runs, however short its share.
constexpr size_t kMinItems = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string storm_dir = "bench/storms";
};

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + arg + "'");
    }
    flags[arg.substr(2)] = argv[++i];
  }
  Options options;
  for (const auto& [name, value] : flags) {
    if (name == "workload") {
      options.workload = value;
    } else if (name == "seed") {
      options.seed = std::stoull(value);
    } else if (name == "seconds") {
      options.seconds = std::stod(value);
    } else if (name == "trace") {
      options.trace = value != "0";
    } else if (name == "spans-out") {
      options.spans_out = value;
    } else if (name == "storm-dir") {
      options.storm_dir = value;
    } else {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
  if (options.workload != "pipeline" && options.workload != "advise" &&
      options.workload != "storm") {
    throw std::invalid_argument("--workload must be pipeline|advise|storm");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

// Everything measured work needs: the committed storm scenarios, seeded
// prediction inputs, and the calibrated profile and trained forest the
// advise path queries.
struct Setup {
  std::vector<StormScenario> scenarios;
  std::vector<ModelInput> inputs;
  WorkloadProfile profile;
  std::optional<HybridModel> model;
};

Setup BuildSetup(const Options& options) {
  Setup setup;
  for (const char* name : {"default", "codel"}) {
    const std::string path = options.storm_dir + "/" + name + ".storm";
    setup.scenarios.push_back(
        {name, robust::ParseStormConfig(ReadFileBytes(path))});
  }
  // Inputs span the profiled centroids' ranges (utilization 30-95%,
  // timeouts 0-300 s, budgets 14-80%, refill 50-1000 s).
  Rng rng(DeriveSeed(options.seed, 0xAD));
  for (size_t i = 0; i < kInputs; ++i) {
    ModelInput input;
    input.utilization = 0.30 + 0.65 * rng.NextDouble();
    input.arrival_kind = rng.NextDouble() < 0.5 ? DistributionKind::kExponential
                                                : DistributionKind::kPareto;
    input.timeout_seconds = 300.0 * rng.NextDouble();
    input.refill_seconds = 50.0 + 950.0 * rng.NextDouble();
    input.budget_fraction = 0.14 + 0.66 * rng.NextDouble();
    setup.inputs.push_back(input);
  }
  ProfilerConfig profiler;
  profiler.sample_grid_points = kAdviseGrid;
  profiler.queries_per_run = 8000;
  profiler.warmup_queries = 800;
  profiler.seed = options.seed;
  SprintPolicy platform;
  platform.mechanism = MechanismId::kDvfs;
  setup.profile =
      ProfileWorkload(QueryMix::Single(WorkloadId::kJacobi), platform, profiler);
  CalibrateProfile(setup.profile, CalibrationConfig{});
  setup.model.emplace(HybridModel::Train({&setup.profile}));
  return setup;
}

void PrintSpanSummary(const Tracer& tracer) {
  const auto summary = SummarizeSpans(tracer.Spans());
  std::cout << "spans: name count total_s self_s\n";
  for (const auto& [name, entry] : summary) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(7) << entry.count << std::fixed
              << std::setprecision(4) << std::setw(11) << entry.total_seconds
              << std::setw(11) << entry.self_seconds << "\n"
              << std::defaultfloat;
  }
}

int Run(const Options& options) {
  Tracer tracer(options.trace);
  Results results;
  Context ctx;
  ctx.seed = options.seed;
  // ParallelFor runs on the pool's workers plus the calling thread.
  const size_t workers = ThreadPool::Global().size();
  ctx.threads = workers > 1 ? workers + 1 : 1;
  ctx.tracer = &tracer;
  ctx.results = &results;

  // Every set-up repetition and every item starts on the next CPU.
  CpuRotation rotation;

  // Set up several times; each repetition must produce the same profile.
  std::vector<double> setup_s;
  Setup setup;
  std::optional<uint32_t> setup_digest;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    rotation.PinNext();
    const double t0 = Now();
    setup = BuildSetup(options);
    setup_s.push_back(Now() - t0);
    const uint32_t digest = ProfileDigest(setup.profile);
    results.Check(!setup_digest.has_value() || *setup_digest == digest,
                  "setup profile differs between repetitions");
    setup_digest = digest;
  }
  results.Set("setup_s", Median(setup_s), "s");
  std::cout << "setup: " << kSetupRepeats << " repetitions, advise profile "
            << setup.profile.rows.size() << " rows crc32 " << std::hex
            << *setup_digest << std::dec << "; " << workers
            << " pool threads\n";

  const std::string& home = options.workload;
  std::map<std::string, std::unique_ptr<Path>> paths;
  paths["pipeline"] =
      MakePipelinePath(ctx, home == "pipeline" ? 280 : kSliceGrid);
  paths["advise"] = MakeAdvisePath(ctx, setup.profile, *setup.model,
                                   setup.inputs, kAdviseRound);
  paths["storm"] = MakeStormPath(ctx, setup.scenarios, kStormSeeds);

  // Items of the three paths interleave, each next item going to the path
  // furthest below its share of the time spent so far, so a slow spell of
  // the machine lands on every path alike. In a traced run the home path
  // alternates untraced and traced items; the ratio of their median times
  // is the tracing overhead. The other paths run traced throughout.
  struct Slot {
    Path* path = nullptr;
    double share = 0.0;
    bool is_home = false;
    double spent = 0.0;
    std::vector<double> plain_s, traced_s;
    size_t items() const { return plain_s.size() + traced_s.size(); }
  };
  std::vector<Slot> slots;
  for (auto& [name, path] : paths) {
    const bool is_home = name == home;
    Slot slot;
    slot.path = path.get();
    slot.share = is_home ? kHomeShare : (1.0 - kHomeShare) / 2;
    slot.is_home = is_home;
    slots.push_back(std::move(slot));
  }
  const double until = Now() + options.seconds;
  for (;;) {
    Slot* next = nullptr;
    for (Slot& slot : slots) {
      const bool due = Now() < until || slot.items() < kMinItems;
      if (due && (next == nullptr ||
                  slot.spent / slot.share < next->spent / next->share)) {
        next = &slot;
      }
    }
    if (next == nullptr) {
      break;
    }
    const bool traced =
        options.trace && (!next->is_home || next->items() % 2 == 1);
    rotation.PinNext();
    const double t0 = Now();
    const double item_s = next->path->RunItem(traced);
    next->spent += Now() - t0;
    (traced ? next->traced_s : next->plain_s).push_back(item_s);
  }
  for (const Slot& slot : slots) {
    if (slot.is_home && options.trace) {
      results.Set("trace.overhead",
                  Median(slot.traced_s) / Median(slot.plain_s) - 1.0, "ratio");
    }
    slot.path->Finish();
  }

  results.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (options.trace) {
    PrintSpanSummary(tracer);
    if (!options.spans_out.empty()) {
      std::ofstream out(options.spans_out);
      out << tracer.ToJsonl();
      std::cout << "spans written to " << options.spans_out << "\n";
    }
  }
  std::cout << results.ToJson() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseOptions(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
