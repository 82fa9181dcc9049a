#include "src/obs/slo.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/persist/persist.h"

namespace msprint {
namespace obs {
namespace {

constexpr uint32_t kSloMagic = 0x314F4C53;  // "SLO1"
constexpr uint8_t kSloVersion = 1;

[[noreturn]] void Malformed(const char* what) {
  throw persist::PersistError(persist::ErrorCode::kFormat,
                              std::string("SloPipeline: ") + what);
}

void ValidateConfig(const SloConfig& config) {
  if (!std::isfinite(config.window_seconds) || config.window_seconds <= 0.0) {
    throw std::invalid_argument("SloConfig: window_seconds must be > 0");
  }
  if (!std::isfinite(config.sketch_relative_accuracy) ||
      config.sketch_relative_accuracy <= 0.0 ||
      config.sketch_relative_accuracy >= 1.0) {
    throw std::invalid_argument("SloConfig: accuracy must lie in (0, 1)");
  }
  if (config.timeline_capacity == 0) {
    throw std::invalid_argument("SloConfig: timeline_capacity must be >= 1");
  }
  const SloBurnConfig& b = config.burn;
  for (double v : {b.fast_short_seconds, b.fast_long_seconds,
                   b.fast_threshold, b.slow_short_seconds,
                   b.slow_long_seconds, b.slow_threshold}) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument("SloConfig: burn parameters must be > 0");
    }
  }
  if (b.fast_short_seconds > b.fast_long_seconds ||
      b.slow_short_seconds > b.slow_long_seconds) {
    throw std::invalid_argument(
        "SloConfig: burn short window must not exceed its long window");
  }
  if (config.objectives.size() > SloPipeline::kMaxObjectives) {
    throw std::invalid_argument("SloConfig: too many objectives (max 32)");
  }
  for (const SloObjective& objective : config.objectives) {
    if (!std::isfinite(objective.threshold)) {
      throw std::invalid_argument("SloConfig: objective threshold not finite");
    }
    if (!std::isfinite(objective.budget) || objective.budget <= 0.0 ||
        objective.budget > 1.0) {
      throw std::invalid_argument(
          "SloConfig: objective budget must lie in (0, 1]");
    }
  }
  for (const SloAnomalyConfig& anomaly : config.anomalies) {
    if (!std::isfinite(anomaly.alpha) || anomaly.alpha <= 0.0 ||
        anomaly.alpha > 1.0) {
      throw std::invalid_argument("SloConfig: anomaly alpha must be in (0, 1]");
    }
    if (!std::isfinite(anomaly.z) || anomaly.z <= 0.0) {
      throw std::invalid_argument("SloConfig: anomaly z must be > 0");
    }
  }
}

bool Violates(double value, SloOp op, double threshold) {
  switch (op) {
    case SloOp::kLt:
      return !(value < threshold);
    case SloOp::kLe:
      return !(value <= threshold);
    case SloOp::kGt:
      return !(value > threshold);
    case SloOp::kGe:
      return !(value >= threshold);
  }
  return false;
}

// The bounds of every window the pipeline opens.
void SetBounds(SloWindow& window, uint64_t index, double window_seconds) {
  window.index = index;
  window.begin = static_cast<double>(index) * window_seconds;
  window.end = window.begin + window_seconds;
}

SloWindow MakeWindow(uint64_t index, const SloConfig& config) {
  SloWindow window(config.sketch_relative_accuracy);
  SetBounds(window, index, config.window_seconds);
  return window;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void AppendU64(std::string& out, uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// One timeline window: `w <index> begin <b> ...` as text, or the same
// fields in the same order as one jsonl object.
void AppendWindow(std::string& out, const SloWindow& w, bool json) {
  auto key = [&out, json](const char* name) {
    out += json ? ",\"" : " ";
    out += name;
    out += json ? "\":" : " ";
  };
  auto gauge = [&](const char* name, bool has, double value) {
    key(name);
    if (has) {
      AppendStableDouble(out, value);
    } else {
      out += json ? "null" : "-";
    }
  };
  out += json ? "{\"w\":" : "w ";
  AppendU64(out, w.index);
  key("begin");
  AppendStableDouble(out, w.begin);
  key("end");
  AppendStableDouble(out, w.end);
  const std::pair<const char*, uint64_t> counts[] = {
      {"arrivals", w.arrivals}, {"responses", w.responses},
      {"good", w.good},         {"bad", w.bad},
      {"shed", w.shed},         {"engages", w.engages},
      {"aborts", w.aborts},     {"timeouts", w.timeouts}};
  for (const auto& [name, count] : counts) {
    key(name);
    AppendU64(out, count);
  }
  const std::pair<const char*, double> quantiles[] = {
      {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& [name, q] : quantiles) {
    key(name);
    AppendStableDouble(out, w.response.Quantile(q));
  }
  key("mean");
  AppendStableDouble(out, w.responses == 0 ? 0.0
                                           : w.response_sum /
                                                 static_cast<double>(
                                                     w.responses));
  gauge("queue_depth", w.has_queue_depth, w.queue_depth);
  gauge("budget", w.has_budget, w.budget_level);
  key("viol");
  AppendU64(out, w.violation_mask);
  key("alert");
  AppendU64(out, w.alert_mask);
  out += json ? "}\n" : "\n";
}

}  // namespace

std::string ToString(SloSignal signal) {
  switch (signal) {
    case SloSignal::kP50:
      return "p50";
    case SloSignal::kP90:
      return "p90";
    case SloSignal::kP99:
      return "p99";
    case SloSignal::kMeanResponse:
      return "mean_response";
    case SloSignal::kGoodputRatio:
      return "goodput_ratio";
    case SloSignal::kShedFraction:
      return "shed_fraction";
    case SloSignal::kQueueDepth:
      return "queue_depth";
    case SloSignal::kBudgetLevel:
      return "budget_level";
    case SloSignal::kEngageRate:
      return "engage_rate";
    case SloSignal::kArrivalRate:
      return "arrival_rate";
  }
  return "unknown";
}

bool ParseSloSignal(std::string_view token, SloSignal* out) {
  static constexpr SloSignal kAll[] = {
      SloSignal::kP50,          SloSignal::kP90,
      SloSignal::kP99,          SloSignal::kMeanResponse,
      SloSignal::kGoodputRatio, SloSignal::kShedFraction,
      SloSignal::kQueueDepth,   SloSignal::kBudgetLevel,
      SloSignal::kEngageRate,   SloSignal::kArrivalRate,
  };
  for (SloSignal signal : kAll) {
    if (token == ToString(signal)) {
      *out = signal;
      return true;
    }
  }
  return false;
}

std::string ToString(SloOp op) {
  switch (op) {
    case SloOp::kLt:
      return "<";
    case SloOp::kLe:
      return "<=";
    case SloOp::kGt:
      return ">";
    case SloOp::kGe:
      return ">=";
  }
  return "?";
}

std::string SloObjective::Name() const {
  return ToString(signal) + ToString(op) + StableDouble(threshold);
}

SloConfig ParseSloObjectives(const std::string& text) {
  SloConfig config;
  std::istringstream lines(text);
  std::string line;
  size_t line_number = 0;
  auto fail = [&](const std::string& why) {
    throw std::invalid_argument("objectives line " +
                                std::to_string(line_number) + ": " + why);
  };
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) {
      continue;  // blank or comment-only line
    }
    auto number = [&](const char* what) {
      double v;
      if (!(tokens >> v)) {
        fail(std::string("expected number for ") + what);
      }
      return v;
    };
    if (key == "window") {
      config.window_seconds = number("window");
    } else if (key == "accuracy") {
      config.sketch_relative_accuracy = number("accuracy");
    } else if (key == "capacity") {
      const double v = number("capacity");
      if (v < 1.0 || v != std::floor(v)) {
        fail("capacity must be a positive integer");
      }
      config.timeline_capacity = static_cast<size_t>(v);
    } else if (key == "burn") {
      std::string pair;
      if (!(tokens >> pair) || (pair != "fast" && pair != "slow")) {
        fail("expected 'burn fast|slow <short> <long> <threshold>'");
      }
      const double short_s = number("burn short window");
      const double long_s = number("burn long window");
      const double threshold = number("burn threshold");
      if (pair == "fast") {
        config.burn.fast_short_seconds = short_s;
        config.burn.fast_long_seconds = long_s;
        config.burn.fast_threshold = threshold;
      } else {
        config.burn.slow_short_seconds = short_s;
        config.burn.slow_long_seconds = long_s;
        config.burn.slow_threshold = threshold;
      }
    } else if (key == "objective") {
      SloObjective objective;
      std::string signal_token;
      std::string op_token;
      if (!(tokens >> signal_token >> op_token)) {
        fail("expected 'objective <signal> <op> <threshold> [budget <b>]'");
      }
      if (!ParseSloSignal(signal_token, &objective.signal)) {
        fail("unknown signal '" + signal_token + "'");
      }
      if (op_token == "<") {
        objective.op = SloOp::kLt;
      } else if (op_token == "<=") {
        objective.op = SloOp::kLe;
      } else if (op_token == ">") {
        objective.op = SloOp::kGt;
      } else if (op_token == ">=") {
        objective.op = SloOp::kGe;
      } else {
        fail("unknown comparator '" + op_token + "'");
      }
      objective.threshold = number("objective threshold");
      std::string extra;
      if (tokens >> extra) {
        if (extra != "budget") {
          fail("unexpected token '" + extra + "'");
        }
        objective.budget = number("objective budget");
      }
      config.objectives.push_back(objective);
    } else if (key == "anomaly") {
      SloAnomalyConfig anomaly;
      std::string signal_token;
      if (!(tokens >> signal_token)) {
        fail("expected 'anomaly <signal> [alpha A] [z Z] [warmup N]'");
      }
      if (!ParseSloSignal(signal_token, &anomaly.signal)) {
        fail("unknown signal '" + signal_token + "'");
      }
      std::string option;
      while (tokens >> option) {
        if (option == "alpha") {
          anomaly.alpha = number("anomaly alpha");
        } else if (option == "z") {
          anomaly.z = number("anomaly z");
        } else if (option == "warmup") {
          const double v = number("anomaly warmup");
          if (v < 0.0 || v != std::floor(v)) {
            fail("warmup must be a non-negative integer");
          }
          anomaly.warmup_windows = static_cast<uint64_t>(v);
        } else {
          fail("unknown anomaly option '" + option + "'");
        }
      }
      config.anomalies.push_back(anomaly);
    } else {
      fail("unknown directive '" + key + "'");
    }
  }
  ValidateConfig(config);
  return config;
}

bool SloWindow::SignalValue(SloSignal signal, double window_seconds,
                            double* out) const {
  switch (signal) {
    case SloSignal::kP50:
    case SloSignal::kP90:
    case SloSignal::kP99:
      if (responses == 0) {
        return false;
      }
      *out = response.Quantile(signal == SloSignal::kP50   ? 0.50
                               : signal == SloSignal::kP90 ? 0.90
                                                           : 0.99);
      return true;
    case SloSignal::kMeanResponse:
      if (responses == 0) {
        return false;
      }
      *out = response_sum / static_cast<double>(responses);
      return true;
    case SloSignal::kGoodputRatio: {
      const uint64_t denominator = good + bad + shed;
      if (denominator == 0) {
        return false;
      }
      *out = static_cast<double>(good) / static_cast<double>(denominator);
      return true;
    }
    case SloSignal::kShedFraction: {
      const uint64_t offered = arrivals + shed;
      if (offered == 0) {
        return false;
      }
      *out = static_cast<double>(shed) / static_cast<double>(offered);
      return true;
    }
    case SloSignal::kQueueDepth:
      if (!has_queue_depth) {
        return false;
      }
      *out = queue_depth;
      return true;
    case SloSignal::kBudgetLevel:
      if (!has_budget) {
        return false;
      }
      *out = budget_level;
      return true;
    case SloSignal::kEngageRate:
      *out = static_cast<double>(engages) / window_seconds;
      return true;
    case SloSignal::kArrivalRate:
      *out = static_cast<double>(arrivals + shed) / window_seconds;
      return true;
  }
  return false;
}

SloPipeline::SloPipeline(SloConfig config)
    : config_(std::move(config)),
      open_(config_.sketch_relative_accuracy),
      objective_states_(config_.objectives.size()),
      anomaly_states_(config_.anomalies.size()) {
  ValidateConfig(config_);
  open_ = MakeWindow(0, config_);
}

void SloPipeline::Advance(double now) {
  if (!std::isfinite(now) || now < 0.0) {
    return;  // defensive: malformed timestamps feed the open window
  }
  const uint64_t target =
      static_cast<uint64_t>(now / config_.window_seconds);
  while (open_.index < target) {
    CloseWindow();
    // Every window before `target` is now empty. With no objective or
    // anomaly detector to evaluate them they change only the counts, so
    // the rest of the gap closes in one step.
    if (open_.index < target && config_.objectives.empty() &&
        config_.anomalies.empty()) {
      windows_closed_ += target - open_.index;
      SetBounds(open_, target, config_.window_seconds);
      DropExpiredWindows();
    }
  }
}

void SloPipeline::OnArrival(double now) {
  Advance(now);
  ++open_.arrivals;
}

void SloPipeline::OnResponse(double now, double response_seconds, bool good) {
  Advance(now);
  open_.response.Insert(response_seconds);
  if (std::isfinite(response_seconds) && response_seconds >= 0.0) {
    open_.response_sum += response_seconds;
    run_response_.Record(response_seconds);
  }
  ++open_.responses;
  if (good) {
    ++open_.good;
  } else {
    ++open_.bad;
  }
}

void SloPipeline::OnShed(double now) {
  Advance(now);
  ++open_.shed;
}

void SloPipeline::OnTimeout(double now) {
  Advance(now);
  ++open_.timeouts;
}

void SloPipeline::OnSprintEngage(double now) {
  Advance(now);
  ++open_.engages;
}

void SloPipeline::OnSprintAbort(double now) {
  Advance(now);
  ++open_.aborts;
}

void SloPipeline::OnQueueDepth(double now, double depth) {
  Advance(now);
  open_.has_queue_depth = true;
  open_.queue_depth = depth;
}

void SloPipeline::OnBudgetLevel(double now, double level) {
  Advance(now);
  open_.has_budget = true;
  open_.budget_level = level;
}

void SloPipeline::Finish(double end_time) {
  if (!finished_) {
    Advance(end_time);
    // Close the partial window containing end_time so its data reaches
    // the timeline; a run that ends exactly on a boundary closed it in
    // Advance and this closes the (empty) successor, which the exports
    // render identically for identical feeds.
    CloseWindow();
    finished_ = true;
  }
  if (MetricsRegistry* metrics = ActiveMetrics()) {
    metrics->GetCounter("slo/windows").Add(windows_closed_);
    metrics->GetCounter("slo/windows_dropped").Add(windows_dropped_);
    metrics->GetCounter("slo/alert_windows").Add(alert_windows_);
    metrics->GetCounter("slo/alerts_fired").Add(AlertsFired());
    metrics->GetCounter("slo/alerts_cleared").Add(AlertsCleared());
    metrics->GetCounter("slo/anomalies").Add(anomaly_count());
    uint64_t bad_windows = 0;
    for (const SloObjectiveState& state : objective_states_) {
      bad_windows += state.bad_windows;
    }
    metrics->GetCounter("slo/bad_windows").Add(bad_windows);
  }
}

double SloPipeline::BurnRate(size_t objective, double horizon_seconds,
                             const SloWindow& closing) const {
  const uint64_t horizon_windows = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(horizon_seconds / config_.window_seconds)));
  // windows_closed_ already counts `closing`, so the horizon never runs
  // past the retained range. Implicit windows carry no mask bits.
  const uint64_t available =
      std::min(windows_closed_ - windows_dropped_, horizon_windows);
  const uint64_t first = closing.index + 1 - available;
  const uint32_t bit = 1u << objective;
  uint64_t evaluated = 0;
  uint64_t bad = 0;
  auto tally = [&](const SloWindow& w) {
    if (w.evaluated_mask & bit) {
      ++evaluated;
      if (w.violation_mask & bit) {
        ++bad;
      }
    }
  };
  tally(closing);
  for (auto it = closed_.rbegin(); it != closed_.rend() && it->index >= first;
       ++it) {
    tally(*it);
  }
  if (evaluated == 0) {
    return 0.0;
  }
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(evaluated);
  return bad_fraction / config_.objectives[objective].budget;
}

void SloPipeline::EvaluateObjectives(SloWindow& window) {
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& objective = config_.objectives[i];
    double value = 0.0;
    if (!window.SignalValue(objective.signal, config_.window_seconds,
                            &value)) {
      continue;
    }
    window.evaluated_mask |= 1u << i;
    if (Violates(value, objective.op, objective.threshold)) {
      window.violation_mask |= 1u << i;
    }
  }
}

void SloPipeline::EvaluateAnomalies(const SloWindow& window) {
  for (size_t i = 0; i < config_.anomalies.size(); ++i) {
    const SloAnomalyConfig& anomaly = config_.anomalies[i];
    double value = 0.0;
    if (!window.SignalValue(anomaly.signal, config_.window_seconds, &value)) {
      continue;
    }
    SloAnomalyState& state = anomaly_states_[i];
    if (state.windows_seen >= anomaly.warmup_windows &&
        state.ewma_var > 0.0) {
      const double z =
          std::fabs(value - state.ewma_mean) / std::sqrt(state.ewma_var);
      if (z > anomaly.z) {
        ++state.anomalies;
        Emit(window.end, EventKind::kSloAnomaly, Subsystem::kSlo,
             Severity::kWarn, i, z);
      }
    }
    if (state.windows_seen == 0) {
      state.ewma_mean = value;
      state.ewma_var = 0.0;
    } else {
      const double delta = value - state.ewma_mean;
      state.ewma_mean += anomaly.alpha * delta;
      state.ewma_var = (1.0 - anomaly.alpha) *
                       (state.ewma_var + anomaly.alpha * delta * delta);
    }
    ++state.windows_seen;
  }
}

void SloPipeline::CloseWindow() {
  SloWindow& window = open_;
  EvaluateObjectives(window);
  ++windows_closed_;
  // Alert state machine: a burn-rate pair pages when both its windows
  // exceed the pair threshold; either pair paging keeps the alert active.
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    SloObjectiveState& state = objective_states_[i];
    const uint32_t bit = 1u << i;
    if (window.evaluated_mask & bit) {
      ++state.windows_evaluated;
      if (window.violation_mask & bit) {
        ++state.bad_windows;
      }
    }
    const SloBurnConfig& burn = config_.burn;
    const double fast =
        std::min(BurnRate(i, burn.fast_short_seconds, window),
                 BurnRate(i, burn.fast_long_seconds, window));
    const double slow =
        std::min(BurnRate(i, burn.slow_short_seconds, window),
                 BurnRate(i, burn.slow_long_seconds, window));
    const bool paging =
        fast > burn.fast_threshold || slow > burn.slow_threshold;
    if (paging && !state.alert_active) {
      state.alert_active = true;
      ++state.fires;
      if (!state.has_first_fire) {
        state.has_first_fire = true;
        state.first_fire_time = window.end;
      }
      Emit(window.end, EventKind::kSloAlertFire, Subsystem::kSlo,
           Severity::kError, i, std::max(fast, slow));
    } else if (!paging && state.alert_active) {
      state.alert_active = false;
      ++state.clears;
      Emit(window.end, EventKind::kSloAlertClear, Subsystem::kSlo,
           Severity::kInfo, i, std::max(fast, slow));
    }
    if (state.alert_active) {
      window.alert_mask |= bit;
    }
  }
  if (window.alert_mask != 0) {
    ++alert_windows_;
  }
  EvaluateAnomalies(window);
  const uint64_t next = window.index + 1;
  if (IsImplicit(window)) {
    SetBounds(open_, next, config_.window_seconds);
  } else {
    closed_.push_back(std::move(open_));
    open_ = MakeWindow(next, config_);
  }
  DropExpiredWindows();
}

void SloPipeline::DropExpiredWindows() {
  const uint64_t retain = RetainedWindowFloor();
  if (windows_closed_ - windows_dropped_ > retain) {
    windows_dropped_ = windows_closed_ - retain;
  }
  const uint64_t first = FirstRetainedIndex();
  while (!closed_.empty() && closed_.front().index < first) {
    closed_.pop_front();
  }
}

// True when `w` is exactly the window ForEachRetained synthesizes for its
// index (SetBounds' bounds, nothing else set), so storing it would change
// no export.
bool SloPipeline::IsImplicit(const SloWindow& w) const {
  const double seconds = config_.window_seconds;
  return (w.arrivals | w.responses | w.good | w.bad | w.shed | w.engages |
          w.aborts | w.timeouts) == 0 &&
         (w.evaluated_mask | w.violation_mask | w.alert_mask) == 0 &&
         !w.has_queue_depth && !w.has_budget &&
         SameBits(w.response_sum, 0.0) && SameBits(w.queue_depth, 0.0) &&
         SameBits(w.budget_level, 0.0) &&
         SameBits(w.begin, static_cast<double>(w.index) * seconds) &&
         SameBits(w.end, w.begin + seconds) &&
         w.response.IsFresh(config_.sketch_relative_accuracy);
}

template <typename Visit>
void SloPipeline::ForEachRetained(Visit&& visit) const {
  SloWindow implicit(config_.sketch_relative_accuracy);
  auto stored = closed_.begin();
  for (uint64_t index = FirstRetainedIndex(); index < open_.index; ++index) {
    if (stored != closed_.end() && stored->index == index) {
      visit(*stored++);
    } else {
      SetBounds(implicit, index, config_.window_seconds);
      visit(implicit);
    }
  }
}

std::vector<SloWindow> SloPipeline::timeline() const {
  std::vector<SloWindow> windows;
  windows.reserve(windows_closed_ - windows_dropped_);
  ForEachRetained([&windows](const SloWindow& w) { windows.push_back(w); });
  return windows;
}

size_t SloPipeline::RetainedWindowFloor() const {
  const SloBurnConfig& burn = config_.burn;
  const double longest =
      std::max(burn.fast_long_seconds, burn.slow_long_seconds);
  const size_t horizon_windows = static_cast<size_t>(
      std::ceil(longest / config_.window_seconds));
  return std::max(config_.timeline_capacity, horizon_windows + 1);
}

uint64_t SloPipeline::anomaly_count() const {
  uint64_t total = 0;
  for (const SloAnomalyState& state : anomaly_states_) {
    total += state.anomalies;
  }
  return total;
}

double SloPipeline::FirstAlertSeconds() const {
  double first = -1.0;
  for (const SloObjectiveState& state : objective_states_) {
    if (state.has_first_fire &&
        (first < 0.0 || state.first_fire_time < first)) {
      first = state.first_fire_time;
    }
  }
  return first;
}

uint64_t SloPipeline::AlertsFired() const {
  uint64_t total = 0;
  for (const SloObjectiveState& state : objective_states_) {
    total += state.fires;
  }
  return total;
}

uint64_t SloPipeline::AlertsCleared() const {
  uint64_t total = 0;
  for (const SloObjectiveState& state : objective_states_) {
    total += state.clears;
  }
  return total;
}

double SloPipeline::PagingFraction() const {
  if (windows_closed_ == 0) {
    return 0.0;
  }
  return static_cast<double>(alert_windows_) /
         static_cast<double>(windows_closed_);
}

bool SloPipeline::BurnedThrough() const {
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjectiveState& state = objective_states_[i];
    if (state.windows_evaluated == 0) {
      continue;
    }
    const double bad_fraction =
        static_cast<double>(state.bad_windows) /
        static_cast<double>(state.windows_evaluated);
    if (bad_fraction > config_.objectives[i].budget) {
      return true;
    }
  }
  return false;
}

std::string SloPipeline::FormatTimeline() const {
  std::string out;
  out += "# msprint slo timeline v1\n";
  out += "window " + StableDouble(config_.window_seconds) + " accuracy " +
         StableDouble(config_.sketch_relative_accuracy) + " capacity " +
         std::to_string(config_.timeline_capacity) + "\n";
  out += "windows " + std::to_string(windows_closed_) + " dropped " +
         std::to_string(windows_dropped_) + "\n";
  ForEachRetained(
      [&out](const SloWindow& w) { AppendWindow(out, w, /*json=*/false); });
  return out;
}

std::string SloPipeline::FormatTimelineJsonl() const {
  std::string out;
  ForEachRetained(
      [&out](const SloWindow& w) { AppendWindow(out, w, /*json=*/true); });
  return out;
}

std::string SloPipeline::FormatSummary() const {
  std::string out;
  out += "# msprint slo summary v1\n";
  out += "windows " + std::to_string(windows_closed_) + " dropped " +
         std::to_string(windows_dropped_) + " alert_windows " +
         std::to_string(alert_windows_) + " paging_fraction " +
         StableDouble(PagingFraction()) + "\n";
  // The run-wide response histogram renders through the same snapshot /
  // Quantile path as registry exports (obs-diff-parsable `hist` line).
  MetricsSnapshot snapshot;
  snapshot.histograms.push_back(
      SummarizeLogHistogram("slo/response_time_seconds", run_response_));
  out += snapshot.ToText();
  for (size_t i = 0; i < config_.objectives.size(); ++i) {
    const SloObjective& objective = config_.objectives[i];
    const SloObjectiveState& state = objective_states_[i];
    const double bad_fraction =
        state.windows_evaluated == 0
            ? 0.0
            : static_cast<double>(state.bad_windows) /
                  static_cast<double>(state.windows_evaluated);
    out += "objective " + std::to_string(i) + " " + objective.Name();
    out += " evaluated " + std::to_string(state.windows_evaluated);
    out += " bad " + std::to_string(state.bad_windows);
    out += " budget " + StableDouble(objective.budget);
    out += " bad_fraction " + StableDouble(bad_fraction);
    out += " burned ";
    out += (state.windows_evaluated > 0 &&
            bad_fraction > objective.budget)
               ? "1"
               : "0";
    out += " fires " + std::to_string(state.fires);
    out += " clears " + std::to_string(state.clears);
    out += " first_alert ";
    out += state.has_first_fire ? StableDouble(state.first_fire_time)
                                : std::string("-");
    out += "\n";
  }
  for (size_t i = 0; i < config_.anomalies.size(); ++i) {
    out += "anomaly " + std::to_string(i) + " " +
           ToString(config_.anomalies[i].signal) + " count " +
           std::to_string(anomaly_states_[i].anomalies) + "\n";
  }
  out += "burned_through ";
  out += BurnedThrough() ? "1" : "0";
  out += "\n";
  return out;
}

std::string SloPipeline::FormatWatch() const {
  std::string out;
  out += "# msprint watch (p99 per window; '!' = active alert)\n";
  double max_p99 = 0.0;
  ForEachRetained([&max_p99](const SloWindow& w) {
    max_p99 = std::max(max_p99, w.response.Quantile(0.99));
  });
  ForEachRetained([&out, max_p99](const SloWindow& w) {
    const double p99 = w.response.Quantile(0.99);
    const size_t bar =
        max_p99 > 0.0
            ? static_cast<size_t>(40.0 * p99 / max_p99 + 0.5)
            : 0;
    out += "t " + StableDouble(w.begin) + " p99 " + StableDouble(p99) + " |";
    out.append(bar, '#');
    if (w.alert_mask != 0) {
      out += " !alert " + std::to_string(w.alert_mask);
    }
    out += "\n";
  });
  return out;
}

std::string SloPipeline::SaveState() const {
  persist::Writer out;
  out.PutU32(kSloMagic);
  out.PutU8(kSloVersion);
  // --- config ---
  out.PutF64(config_.window_seconds);
  out.PutF64(config_.sketch_relative_accuracy);
  out.PutU64(config_.timeline_capacity);
  out.PutF64(config_.burn.fast_short_seconds);
  out.PutF64(config_.burn.fast_long_seconds);
  out.PutF64(config_.burn.fast_threshold);
  out.PutF64(config_.burn.slow_short_seconds);
  out.PutF64(config_.burn.slow_long_seconds);
  out.PutF64(config_.burn.slow_threshold);
  out.PutU64(config_.objectives.size());
  for (const SloObjective& objective : config_.objectives) {
    out.PutU8(static_cast<uint8_t>(objective.signal));
    out.PutU8(static_cast<uint8_t>(objective.op));
    out.PutF64(objective.threshold);
    out.PutF64(objective.budget);
  }
  out.PutU64(config_.anomalies.size());
  for (const SloAnomalyConfig& anomaly : config_.anomalies) {
    out.PutU8(static_cast<uint8_t>(anomaly.signal));
    out.PutF64(anomaly.alpha);
    out.PutF64(anomaly.z);
    out.PutU64(anomaly.warmup_windows);
  }
  // --- lifetime state ---
  out.PutBool(finished_);
  out.PutU64(windows_closed_);
  out.PutU64(windows_dropped_);
  out.PutU64(alert_windows_);
  for (const SloObjectiveState& state : objective_states_) {
    out.PutU64(state.windows_evaluated);
    out.PutU64(state.bad_windows);
    out.PutBool(state.alert_active);
    out.PutU64(state.fires);
    out.PutU64(state.clears);
    out.PutBool(state.has_first_fire);
    out.PutF64(state.first_fire_time);
  }
  for (const SloAnomalyState& state : anomaly_states_) {
    out.PutU64(state.windows_seen);
    out.PutF64(state.ewma_mean);
    out.PutF64(state.ewma_var);
    out.PutU64(state.anomalies);
  }
  // --- run-wide response histogram ---
  out.PutU64(run_response_.rejected());
  out.PutBool(run_response_.count() > 0);
  out.PutF64(run_response_.min());
  out.PutF64(run_response_.max());
  uint64_t nonzero = 0;
  for (uint64_t c : run_response_.buckets()) {
    nonzero += c > 0 ? 1 : 0;
  }
  out.PutU64(nonzero);
  for (size_t i = 0; i < run_response_.buckets().size(); ++i) {
    if (run_response_.buckets()[i] > 0) {
      out.PutU64(i);
      out.PutU64(run_response_.buckets()[i]);
    }
  }
  // --- windows: open first, then the closed ring oldest-first ---
  auto put_window = [&out](const SloWindow& w) {
    out.PutU64(w.index);
    out.PutF64(w.begin);
    out.PutF64(w.end);
    out.PutString(w.response.Serialize());
    out.PutF64(w.response_sum);
    out.PutU64(w.arrivals);
    out.PutU64(w.responses);
    out.PutU64(w.good);
    out.PutU64(w.bad);
    out.PutU64(w.shed);
    out.PutU64(w.engages);
    out.PutU64(w.aborts);
    out.PutU64(w.timeouts);
    out.PutBool(w.has_queue_depth);
    out.PutF64(w.queue_depth);
    out.PutBool(w.has_budget);
    out.PutF64(w.budget_level);
    out.PutU32(w.evaluated_mask);
    out.PutU32(w.violation_mask);
    out.PutU32(w.alert_mask);
  };
  put_window(open_);
  out.PutU64(windows_closed_ - windows_dropped_);
  ForEachRetained(put_window);
  return out.Take();
}

SloPipeline SloPipeline::RestoreState(std::string_view bytes) {
  persist::Reader cursor(bytes);
  if (cursor.GetU32() != kSloMagic) {
    Malformed("bad magic");
  }
  if (cursor.GetU8() != kSloVersion) {
    Malformed("unsupported version");
  }
  SloConfig config;
  config.window_seconds = cursor.GetFiniteF64("slo window");
  config.sketch_relative_accuracy = cursor.GetFiniteF64("slo accuracy");
  config.timeline_capacity = static_cast<size_t>(cursor.GetU64());
  config.burn.fast_short_seconds = cursor.GetFiniteF64("burn fast short");
  config.burn.fast_long_seconds = cursor.GetFiniteF64("burn fast long");
  config.burn.fast_threshold = cursor.GetFiniteF64("burn fast threshold");
  config.burn.slow_short_seconds = cursor.GetFiniteF64("burn slow short");
  config.burn.slow_long_seconds = cursor.GetFiniteF64("burn slow long");
  config.burn.slow_threshold = cursor.GetFiniteF64("burn slow threshold");
  const uint64_t num_objectives = cursor.GetCount(18, "slo objectives");
  for (uint64_t i = 0; i < num_objectives; ++i) {
    SloObjective objective;
    const uint8_t signal = cursor.GetU8();
    const uint8_t op = cursor.GetU8();
    if (signal > static_cast<uint8_t>(SloSignal::kArrivalRate)) {
      Malformed("bad objective signal");
    }
    if (op > static_cast<uint8_t>(SloOp::kGe)) {
      Malformed("bad objective op");
    }
    objective.signal = static_cast<SloSignal>(signal);
    objective.op = static_cast<SloOp>(op);
    objective.threshold = cursor.GetFiniteF64("objective threshold");
    objective.budget = cursor.GetFiniteF64("objective budget");
    config.objectives.push_back(objective);
  }
  const uint64_t num_anomalies = cursor.GetCount(25, "slo anomalies");
  for (uint64_t i = 0; i < num_anomalies; ++i) {
    SloAnomalyConfig anomaly;
    const uint8_t signal = cursor.GetU8();
    if (signal > static_cast<uint8_t>(SloSignal::kArrivalRate)) {
      Malformed("bad anomaly signal");
    }
    anomaly.signal = static_cast<SloSignal>(signal);
    anomaly.alpha = cursor.GetFiniteF64("anomaly alpha");
    anomaly.z = cursor.GetFiniteF64("anomaly z");
    anomaly.warmup_windows = cursor.GetU64();
    config.anomalies.push_back(anomaly);
  }
  // A config that SloConfig validation rejects is malformed content.
  SloPipeline pipeline = [&config] {
    try {
      return SloPipeline(std::move(config));
    } catch (const std::invalid_argument& error) {
      throw persist::PersistError(persist::ErrorCode::kFormat, error.what());
    }
  }();
  pipeline.finished_ = cursor.GetBool();
  pipeline.windows_closed_ = cursor.GetU64();
  pipeline.windows_dropped_ = cursor.GetU64();
  pipeline.alert_windows_ = cursor.GetU64();
  for (SloObjectiveState& state : pipeline.objective_states_) {
    state.windows_evaluated = cursor.GetU64();
    state.bad_windows = cursor.GetU64();
    state.alert_active = cursor.GetBool();
    state.fires = cursor.GetU64();
    state.clears = cursor.GetU64();
    state.has_first_fire = cursor.GetBool();
    state.first_fire_time = cursor.GetF64();
  }
  for (SloAnomalyState& state : pipeline.anomaly_states_) {
    state.windows_seen = cursor.GetU64();
    state.ewma_mean = cursor.GetFiniteF64("anomaly ewma mean");
    state.ewma_var = cursor.GetFiniteF64("anomaly ewma var");
    state.anomalies = cursor.GetU64();
  }
  const uint64_t rejected = cursor.GetU64();
  const bool has_response = cursor.GetBool();
  const double response_min = cursor.GetF64();
  const double response_max = cursor.GetF64();
  const uint64_t nonzero = cursor.GetCount(16, "slo histogram buckets");
  uint64_t previous_bucket = 0;
  for (uint64_t i = 0; i < nonzero; ++i) {
    const uint64_t bucket = cursor.GetU64();
    const uint64_t count = cursor.GetU64();
    if (bucket >= LogHistogram::NumBuckets() ||
        (i > 0 && bucket <= previous_bucket) || count == 0) {
      Malformed("bad histogram bucket");
    }
    previous_bucket = bucket;
    pipeline.run_response_.InjectBucketCount(static_cast<size_t>(bucket),
                                             count);
  }
  pipeline.run_response_.InjectRejected(rejected);
  if (has_response) {
    if (!std::isfinite(response_min) || !std::isfinite(response_max) ||
        response_min < 0.0 || response_min > response_max ||
        pipeline.run_response_.count() == 0) {
      Malformed("bad histogram bounds");
    }
    pipeline.run_response_.InjectBounds(response_min, response_max);
  } else if (pipeline.run_response_.count() != 0) {
    Malformed("histogram counts without bounds");
  }
  auto get_window = [&cursor, &pipeline]() {
    SloWindow w(pipeline.config_.sketch_relative_accuracy);
    w.index = cursor.GetU64();
    w.begin = cursor.GetFiniteF64("window begin");
    w.end = cursor.GetFiniteF64("window end");
    w.response = QuantileSketch::Deserialize(cursor.GetString());
    w.response_sum = cursor.GetFiniteF64("window response_sum");
    w.arrivals = cursor.GetU64();
    w.responses = cursor.GetU64();
    w.good = cursor.GetU64();
    w.bad = cursor.GetU64();
    w.shed = cursor.GetU64();
    w.engages = cursor.GetU64();
    w.aborts = cursor.GetU64();
    w.timeouts = cursor.GetU64();
    w.has_queue_depth = cursor.GetBool();
    w.queue_depth = cursor.GetF64();
    w.has_budget = cursor.GetBool();
    w.budget_level = cursor.GetF64();
    w.evaluated_mask = cursor.GetU32();
    w.violation_mask = cursor.GetU32();
    w.alert_mask = cursor.GetU32();
    if (w.begin > w.end) {
      Malformed("window bounds inverted");
    }
    return w;
  };
  pipeline.open_ = get_window();
  // The closed ring is what SaveState writes: exactly the retained range,
  // contiguous and ending just before the open window. Windows equal to
  // their implicit form are not stored.
  const uint64_t num_closed = cursor.GetCount(100, "slo closed windows");
  if (pipeline.windows_dropped_ > pipeline.windows_closed_ ||
      num_closed != pipeline.windows_closed_ - pipeline.windows_dropped_) {
    Malformed("closed ring length disagrees with window counts");
  }
  if (num_closed > pipeline.RetainedWindowFloor()) {
    Malformed("closed ring over capacity");
  }
  if (num_closed > pipeline.open_.index) {
    Malformed("closed ring reaches before window 0");
  }
  pipeline.closed_.clear();
  for (uint64_t index = pipeline.FirstRetainedIndex();
       index < pipeline.open_.index; ++index) {
    SloWindow w = get_window();
    if (w.index != index) {
      Malformed("closed ring not contiguous up to the open window");
    }
    if (!pipeline.IsImplicit(w)) {
      pipeline.closed_.push_back(std::move(w));
    }
  }
  cursor.ExpectEnd();
  return pipeline;
}

}  // namespace obs
}  // namespace msprint
