// Sim-time flight recorder: a fixed-capacity ring buffer of typed events
// covering the system's interesting transitions — sprint toggles and
// aborts, degradation-ladder rung moves, breaker trips, checkpoint
// commits, annealing accept/reject decisions, queue arrivals and
// departures — behind one severity floor.
//
// Determinism rules (see DESIGN.md §10): event timestamps are simulated /
// virtual time, never wall clock, and events are recorded only from serial
// deterministic paths (the testbed event loop, the advisor, post-merge
// explorer trajectories, the persistence layer). Under those rules the
// recorded stream — and its JSONL / Chrome-trace exports — is
// byte-identical for any MSPRINT_THREADS and any pool size.
//
// The recorder itself is mutex-guarded so stray concurrent use is safe,
// but concurrent recording is *not* deterministic; parallel stages report
// through the sharded MetricsRegistry instead.

#ifndef MSPRINT_SRC_OBS_RECORDER_H_
#define MSPRINT_SRC_OBS_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace msprint {
namespace obs {

enum class Severity : uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

enum class Subsystem : uint8_t {
  kTestbed = 0,
  kSim = 1,
  kOnline = 2,
  kExplore = 3,
  kFault = 4,
  kPersist = 5,
  kPool = 6,
  kCli = 7,
  kSlo = 8,
};

// The event taxonomy. Adding a kind is append-only: exported names feed CI
// diffs and external dashboards.
enum class EventKind : uint8_t {
  kQueueArrival = 0,
  kQueueDeparture,
  kQueryTimeout,
  kSprintEngage,
  kSprintAbort,
  kToggleFailure,
  kBreakerTrip,
  kFlashCrowd,
  kServiceOutlier,
  kRungTransition,
  kReplan,
  kReplanFailure,
  kChainStep,
  kExploreDone,
  kCheckpointCommit,
  kCheckpointRestore,
  kQueryShed,
  kQueryRetry,
  kQueryAbandon,
  kSloAlertFire,
  kSloAlertClear,
  kSloAnomaly,
};

std::string ToString(Severity severity);
std::string ToString(Subsystem subsystem);
std::string ToString(EventKind kind);

struct Event {
  double time = 0.0;  // simulated / virtual seconds, never wall clock
  EventKind kind = EventKind::kQueueArrival;
  Subsystem subsystem = Subsystem::kTestbed;
  Severity severity = Severity::kInfo;
  uint64_t id = 0;        // kind-specific: query, revision, chain, rung...
  double value = 0.0;     // kind-specific payload (timeout, error, bytes)
  double duration = 0.0;  // seconds; >0 renders as a span in Chrome traces
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  // Severity floor for every subsystem; events below it are dropped
  // (counted). Default floor is kDebug (record everything).
  void SetMinSeverityAll(Severity severity);

  // Appends an event, overwriting the oldest once the ring is full.
  void Record(const Event& event);

  // Events currently held, oldest first.
  std::vector<Event> Events() const;

  size_t capacity() const { return capacity_; }
  // Total events accepted into the ring (including since-overwritten ones).
  uint64_t recorded() const;
  // Events rejected by the severity filter.
  uint64_t filtered() const;
  // Events that were overwritten by newer ones (recorded - still held).
  uint64_t overwritten() const;

  // Byte-stable one-line-per-event rendering of the ring's tail (oldest
  // first), in the style of FormatFaultTrace — used by the CI fault-stress
  // replay diff and by `msprint trace --format text`.
  std::string FormatTail() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Event> ring_;  // insertion position = recorded_ % capacity_
  uint64_t recorded_ = 0;
  uint64_t filtered_ = 0;
  Severity min_severity_ = Severity::kDebug;
};

// Byte-stable rendering shared by FormatTail and `msprint trace`.
std::string FormatEventLine(const Event& event);

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_RECORDER_H_
