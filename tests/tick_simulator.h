// Literal tick-loop transcription of the paper's Algorithm 1 (G/G/1
// timeout-aware queuing simulator). The production simulator
// (queue_simulator.h) is event-driven for speed; this shim exists to prove,
// in tests, that the two produce the same results on identical inputs — the
// event-driven rewrite changes performance, not semantics.
//
// Restrictions mirroring Algorithm 1's listing: a single execution slot and
// a quantized clock (configurable tick, default 1 ms rather than the
// paper's 1 us so conformance tests finish quickly).

#ifndef MSPRINT_TESTS_TICK_SIMULATOR_H_
#define MSPRINT_TESTS_TICK_SIMULATOR_H_

#include <vector>

#include "src/sim/queue_simulator.h"

namespace msprint {

struct TickSimConfig {
  SimConfig base;              // slots must be 1; no classes
  double tick_seconds = 1e-3;  // clock resolution
};

// Runs Algorithm 1 tick by tick. Returns the same SimResult as
// SimulateQueue; response times are quantized to the tick.
SimResult SimulateQueueTicked(const TickSimConfig& config,
                              std::vector<SimQuery>* trace_out = nullptr);

}  // namespace msprint

#endif  // MSPRINT_TESTS_TICK_SIMULATOR_H_
