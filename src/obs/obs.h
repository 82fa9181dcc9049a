// Process-wide attachment point for the observability layer.
//
// Instrumentation sites throughout the codebase call the free helpers
// below (Count / Observe / SetGauge / Emit). When no registry or recorder
// is attached — the default — every helper is a single relaxed atomic load
// plus a predictable branch: cheap enough to leave compiled into release
// hot paths (gated by the BM_ObsIdleHotPath overhead benchmark in
// bench_micro). When an ObsSession is live, the helpers route to its
// MetricsRegistry / FlightRecorder.
//
// Attachment is intentionally process-global and non-reentrant: one
// ObsSession at a time (tests and CLI verbs construct one around the work
// they want observed). The pointers are atomics so unsynchronized readers
// on worker threads are race-free under TSan.

#ifndef MSPRINT_SRC_OBS_OBS_H_
#define MSPRINT_SRC_OBS_OBS_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/span.h"

namespace msprint {
namespace obs {

class SloPipeline;

// Currently attached sinks; nullptr when observability is idle.
MetricsRegistry* ActiveMetrics();
FlightRecorder* ActiveRecorder();
SpanCollector* ActiveSpans();
// The attached streaming SLO pipeline (src/obs/slo.h); call sites cache
// the pointer once per run and feed it directly from serial paths.
SloPipeline* ActiveSlo();

// RAII attach/detach. Constructing with nullptrs is allowed (useful to
// mask an outer session). The previous attachment is restored on
// destruction, so sessions nest like a stack. The shorter forms mask any
// outer span collector / SLO pipeline, matching their masking of
// metrics/recorder.
class ObsSession {
 public:
  ObsSession(MetricsRegistry* metrics, FlightRecorder* recorder)
      : ObsSession(metrics, recorder, nullptr, nullptr) {}
  ObsSession(MetricsRegistry* metrics, FlightRecorder* recorder,
             SpanCollector* spans)
      : ObsSession(metrics, recorder, spans, nullptr) {}
  ObsSession(MetricsRegistry* metrics, FlightRecorder* recorder,
             SpanCollector* spans, SloPipeline* slo);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  MetricsRegistry* previous_metrics_;
  FlightRecorder* previous_recorder_;
  SpanCollector* previous_spans_;
  SloPipeline* previous_slo_;
};

// --- instrumentation helpers -------------------------------------------
//
// By-name helpers take the registry mutex per call; fine for cold sites
// (replans, checkpoints). Hot loops (per-query, per-sample) should cache
// the Counter*/Histogram* handle from ActiveMetrics() once per run instead.

inline void Count(const char* name, uint64_t n = 1) {
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->GetCounter(name).Add(n);
  }
}

inline void Observe(const char* name, double value) {
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->GetHistogram(name).Record(value);
  }
}

inline void SetGauge(const char* name, double value) {
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->GetGauge(name).Set(value);
  }
}

// Records a flight-recorder event. Only call from serial deterministic
// code with sim/virtual time (see recorder.h).
inline void Emit(const Event& event) {
  if (FlightRecorder* recorder = ActiveRecorder()) {
    recorder->Record(event);
  }
}

inline void Emit(double time, EventKind kind, Subsystem subsystem,
                 Severity severity, uint64_t id = 0, double value = 0.0,
                 double duration = 0.0) {
  if (FlightRecorder* recorder = ActiveRecorder()) {
    Event event;
    event.time = time;
    event.kind = kind;
    event.subsystem = subsystem;
    event.severity = severity;
    event.id = id;
    event.value = value;
    event.duration = duration;
    recorder->Record(event);
  }
}

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_OBS_H_
