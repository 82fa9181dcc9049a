// Streaming SLO telemetry over sim time: tumbling windows of key serving
// signals (response-time quantile sketch, goodput/badput, shed fraction,
// queue depth, sprint engage rate, budget level), a declarative objective
// engine with multi-window burn-rate alerting (the SRE fast/slow pair
// scheme), and an EWMA z-score anomaly detector on any windowed signal.
//
// The pipeline is fed only from serial deterministic event-loop paths
// (the testbed's, through TestbedConfig::sinks or the session) at sim
// timestamps — the FlightRecorder rule — so
// every export (timeline text/jsonl, summary) is byte-identical for any
// MSPRINT_THREADS. Full pipeline state serializes bit-exactly for
// checkpoints: a warm restart resumes mid-window and reproduces the
// uninterrupted timeline byte-for-byte. Design notes: DESIGN.md §15.

#ifndef MSPRINT_SRC_OBS_SLO_H_
#define MSPRINT_SRC_OBS_SLO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/sketch.h"

namespace msprint {
namespace obs {

// Windowed signals objectives and anomaly detectors can reference.
enum class SloSignal : uint8_t {
  kP50 = 0,
  kP90 = 1,
  kP99 = 2,
  kMeanResponse = 3,
  kGoodputRatio = 4,
  kShedFraction = 5,
  kQueueDepth = 6,
  kBudgetLevel = 7,
  kEngageRate = 8,
  kArrivalRate = 9,
};

std::string ToString(SloSignal signal);
bool ParseSloSignal(std::string_view token, SloSignal* out);

enum class SloOp : uint8_t { kLt = 0, kLe = 1, kGt = 2, kGe = 3 };

std::string ToString(SloOp op);

// One declarative objective: a window is "bad" when the windowed signal
// value violates `signal op threshold`. `budget` is the error budget: the
// fraction of windows allowed to be bad over the whole run; exceeding it
// is a burn-through (CLI exit code 6).
struct SloObjective {
  SloSignal signal = SloSignal::kP99;
  SloOp op = SloOp::kLt;
  double threshold = 0.0;
  double budget = 0.01;

  std::string Name() const;  // e.g. "p99<60"
};

// EWMA z-score anomaly detector config for one signal.
struct SloAnomalyConfig {
  SloSignal signal = SloSignal::kQueueDepth;
  double alpha = 0.3;          // EWMA smoothing factor in (0, 1]
  double z = 4.0;              // |x - mean| / stddev trigger threshold
  uint64_t warmup_windows = 8;  // windows observed before scoring starts
};

// Multi-window burn-rate pairs (sim-time seconds). An alert fires when
// both windows of either pair burn faster than the pair's threshold.
struct SloBurnConfig {
  double fast_short_seconds = 5.0;
  double fast_long_seconds = 60.0;
  double fast_threshold = 14.4;
  double slow_short_seconds = 30.0;
  double slow_long_seconds = 360.0;
  double slow_threshold = 6.0;
};

struct SloConfig {
  double window_seconds = 5.0;
  double sketch_relative_accuracy = 0.01;
  // Closed windows retained for the timeline export; older windows are
  // dropped (and counted) once the ring exceeds this or what the burn
  // horizons need, whichever is larger.
  size_t timeline_capacity = 4096;
  SloBurnConfig burn;
  std::vector<SloObjective> objectives;  // at most kMaxObjectives
  std::vector<SloAnomalyConfig> anomalies;
};

// Parses the declarative objectives file format (see DESIGN.md §15):
//   window 5
//   accuracy 0.01
//   capacity 4096
//   burn fast 5 60 14.4
//   burn slow 30 360 6
//   objective p99 < 60 budget 0.05
//   objective goodput_ratio > 0.95
//   anomaly queue_depth alpha 0.3 z 4 warmup 8
// '#' starts a comment. Throws std::invalid_argument on malformed input.
SloConfig ParseSloObjectives(const std::string& text);

// Aggregates for one closed tumbling window [begin, end).
struct SloWindow {
  uint64_t index = 0;
  double begin = 0.0;
  double end = 0.0;
  QuantileSketch response;
  double response_sum = 0.0;
  uint64_t arrivals = 0;   // admitted arrivals
  uint64_t responses = 0;
  uint64_t good = 0;       // responses that met their deadline contract
  uint64_t bad = 0;        // responses that did not
  uint64_t shed = 0;
  uint64_t engages = 0;
  uint64_t aborts = 0;
  uint64_t timeouts = 0;
  bool has_queue_depth = false;
  double queue_depth = 0.0;  // last observation in the window
  bool has_budget = false;
  double budget_level = 0.0;  // last observation in the window
  // Filled when the window closes: bit i set when objective i had data to
  // evaluate / was violated / had an active alert after this window.
  uint32_t evaluated_mask = 0;
  uint32_t violation_mask = 0;
  uint32_t alert_mask = 0;

  explicit SloWindow(double sketch_relative_accuracy = 0.01)
      : response(sketch_relative_accuracy) {}

  // Signal value over this window; false when the window carries no data
  // for the signal (such windows are not evaluated against objectives).
  bool SignalValue(SloSignal signal, double window_seconds,
                   double* out) const;
};

// Appends the timeline line of `window`: text as FormatTimeline prints it
// (json = false) or the object FormatTimelineJsonl prints. The exports
// print an implicit window from its bounds and a constant tail instead;
// slo_test holds the two equal.
void AppendTimelineLine(std::string& out, const SloWindow& window, bool json);

// Per-objective lifetime accounting.
struct SloObjectiveState {
  uint64_t windows_evaluated = 0;
  uint64_t bad_windows = 0;
  bool alert_active = false;
  uint64_t fires = 0;
  uint64_t clears = 0;
  bool has_first_fire = false;
  double first_fire_time = 0.0;
};

struct SloAnomalyState {
  uint64_t windows_seen = 0;
  double ewma_mean = 0.0;
  double ewma_var = 0.0;
  uint64_t anomalies = 0;
};

class SloPipeline {
 public:
  static constexpr size_t kMaxObjectives = 32;  // masks fit in uint32_t

  explicit SloPipeline(SloConfig config = SloConfig());

  // ---- feed API: serial deterministic event-loop paths only ----
  void OnArrival(double now);
  void OnResponse(double now, double response_seconds, bool good);
  void OnShed(double now);
  void OnTimeout(double now);
  void OnSprintEngage(double now);
  void OnSprintAbort(double now);
  void OnQueueDepth(double now, double depth);
  void OnBudgetLevel(double now, double level);

  // Closes windows through `end_time` and publishes `slo/...` counters to
  // the active MetricsRegistry. Call once when the driven run ends;
  // feeding after Finish resumes cleanly (tests rely on it being
  // idempotent with respect to exports when no new data arrives).
  void Finish(double end_time);

  // ---- results ----
  const SloConfig& config() const { return config_; }
  uint64_t windows_closed() const { return windows_closed_; }
  uint64_t windows_dropped() const { return windows_dropped_; }
  uint64_t alert_windows() const { return alert_windows_; }
  uint64_t anomaly_count() const;
  // The retained closed windows, oldest first, with the empty windows the
  // pipeline stores implicitly materialized.
  std::vector<SloWindow> timeline() const;
  const std::vector<SloObjectiveState>& objective_states() const {
    return objective_states_;
  }

  // Seconds into the run of the first alert fire across all objectives;
  // negative when nothing ever fired.
  double FirstAlertSeconds() const;
  uint64_t AlertsFired() const;
  uint64_t AlertsCleared() const;
  // Fraction of closed windows with at least one active alert — the
  // "paging" load the A/B storm bench reports.
  double PagingFraction() const;
  // True when any objective's lifetime bad-window fraction exceeds its
  // error budget: the CLI exit-6 contract.
  bool BurnedThrough() const;

  // ---- byte-stable exports ----
  std::string FormatTimeline() const;       // text, one line per window
  std::string FormatTimelineJsonl() const;  // one JSON object per window
  std::string FormatSummary() const;
  // Human-oriented (still byte-stable) rendering for `msprint watch`.
  std::string FormatWatch() const;

  // ---- bit-exact state round trip (checkpoint section payload) ----
  // persist::Writer encoding. RestoreState fails closed with
  // persist::PersistError: kTruncated for short input, kFormat for
  // everything else, including a config that SloConfig validation rejects.
  std::string SaveState() const;
  static SloPipeline RestoreState(std::string_view bytes);

 private:
  void Advance(double now);
  void CloseWindow();
  // Swaps `window` into the ring's next free slot; `window` receives the
  // dropped window that slot held.
  void Store(SloWindow& window);
  void DropExpiredWindows();
  void EvaluateObjectives(SloWindow& window);
  void EvaluateAnomalies(const SloWindow& window);
  // Burn rate over the newest horizon of the retained range, which ends
  // with `closing`, the window being closed.
  double BurnRate(size_t objective, double horizon_seconds,
                  const SloWindow& closing) const;
  uint64_t FirstRetainedIndex() const {
    return open_.index - (windows_closed_ - windows_dropped_);
  }
  bool IsImplicit(const SloWindow& window) const;
  // Ring slot of the i-th stored window, oldest first.
  size_t Slot(size_t i) const {
    const size_t slot = head_ + i;
    return slot < ring_.size() ? slot : slot - ring_.size();
  }
  // Calls visit(window, implicit) for every retained closed window, oldest
  // first; `implicit` says the window is one the pipeline does not store.
  template <typename Visit>
  void ForEachRetained(Visit&& visit) const;

  SloConfig config_;
  // Closed windows the exports keep: the larger of the timeline capacity
  // and what the burn horizons need. Fixed by the config.
  size_t retained_floor_ = 0;
  SloWindow open_;
  // Closed windows carrying data or a mask bit, oldest first: `stored_`
  // of them from ring_[head_] on, wrapping. The other slots hold dropped
  // windows, recycled as open windows. The ring grows geometrically up to
  // the floor plus the window being closed. Every other window of the
  // retained range [FirstRetainedIndex(), open_.index) is implicit: empty,
  // with no mask bits and the bounds SetBounds gives.
  std::vector<SloWindow> ring_;
  size_t head_ = 0;
  size_t stored_ = 0;
  std::vector<SloObjectiveState> objective_states_;
  std::vector<SloAnomalyState> anomaly_states_;
  uint64_t windows_closed_ = 0;
  uint64_t windows_dropped_ = 0;
  uint64_t alert_windows_ = 0;
  bool finished_ = false;
  // Run-wide response-time histogram, summarized through
  // SummarizeLogHistogram in FormatSummary.
  LogHistogram run_response_;
};

}  // namespace obs
}  // namespace msprint

#endif  // MSPRINT_SRC_OBS_SLO_H_
