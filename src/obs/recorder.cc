#include "src/obs/recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace msprint {
namespace obs {

std::string ToString(Severity severity) {
  switch (severity) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string ToString(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kTestbed:
      return "testbed";
    case Subsystem::kSim:
      return "sim";
    case Subsystem::kOnline:
      return "online";
    case Subsystem::kExplore:
      return "explore";
    case Subsystem::kFault:
      return "fault";
    case Subsystem::kPersist:
      return "persist";
    case Subsystem::kPool:
      return "pool";
    case Subsystem::kCli:
      return "cli";
    case Subsystem::kSlo:
      return "slo";
  }
  return "unknown";
}

std::string ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kQueueArrival:
      return "queue-arrival";
    case EventKind::kQueueDeparture:
      return "queue-departure";
    case EventKind::kQueryTimeout:
      return "query-timeout";
    case EventKind::kSprintEngage:
      return "sprint-engage";
    case EventKind::kSprintAbort:
      return "sprint-abort";
    case EventKind::kToggleFailure:
      return "toggle-failure";
    case EventKind::kBreakerTrip:
      return "breaker-trip";
    case EventKind::kFlashCrowd:
      return "flash-crowd";
    case EventKind::kServiceOutlier:
      return "service-outlier";
    case EventKind::kRungTransition:
      return "rung-transition";
    case EventKind::kReplan:
      return "replan";
    case EventKind::kReplanFailure:
      return "replan-failure";
    case EventKind::kChainStep:
      return "chain-step";
    case EventKind::kExploreDone:
      return "explore-done";
    case EventKind::kCheckpointCommit:
      return "checkpoint-commit";
    case EventKind::kCheckpointRestore:
      return "checkpoint-restore";
    case EventKind::kQueryShed:
      return "query-shed";
    case EventKind::kQueryRetry:
      return "query-retry";
    case EventKind::kQueryAbandon:
      return "query-abandon";
    case EventKind::kSloAlertFire:
      return "slo-alert-fire";
    case EventKind::kSloAlertClear:
      return "slo-alert-clear";
    case EventKind::kSloAnomaly:
      return "slo-anomaly";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void FlightRecorder::SetMinSeverityAll(Severity severity) {
  std::lock_guard<std::mutex> lock(mutex_);
  min_severity_ = severity;
}

void FlightRecorder::Record(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (event.severity < min_severity_) {
    ++filtered_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[recorded_ % capacity_] = event;
  }
  ++recorded_;
}

std::vector<Event> FlightRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    const size_t head = recorded_ % capacity_;  // oldest slot
    out.insert(out.end(), ring_.begin() + static_cast<long>(head),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(head));
  }
  return out;
}

uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

uint64_t FlightRecorder::filtered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return filtered_;
}

uint64_t FlightRecorder::overwritten() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - std::min<uint64_t>(recorded_, ring_.size());
}

std::string FormatEventLine(const Event& event) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%.6f %s %s sev=%s id=%" PRIu64 " value=%.6f dur=%.6f\n",
                event.time, ToString(event.subsystem).c_str(),
                ToString(event.kind).c_str(),
                ToString(event.severity).c_str(), event.id, event.value,
                event.duration);
  return line;
}

std::string FlightRecorder::FormatTail() const {
  std::string out;
  for (const Event& event : Events()) {
    out += FormatEventLine(event);
  }
  return out;
}

}  // namespace obs
}  // namespace msprint
