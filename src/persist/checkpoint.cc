#include "src/persist/checkpoint.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/fileio.h"
#include "src/obs/obs.h"
#include "src/profiler/profile_io.h"

namespace msprint {
namespace persist {

namespace {

constexpr char kSectionProfile[] = "profile";
constexpr char kSectionModel[] = "model";
constexpr char kSectionAdvisorConfig[] = "advisor-config";
constexpr char kSectionAdvisorState[] = "advisor-state";
constexpr char kSectionBudget[] = "budget";
constexpr char kSectionDrive[] = "drive";
constexpr char kSectionAdmission[] = "admission";
constexpr char kSectionRetry[] = "retry";
constexpr char kSectionSlo[] = "slo";

DistributionKind DistributionKindFromByte(uint8_t byte) {
  if (byte > static_cast<uint8_t>(DistributionKind::kEmpirical)) {
    throw PersistError(ErrorCode::kFormat,
                       "distribution kind byte out of range");
  }
  return static_cast<DistributionKind>(byte);
}

void SerializeModelInput(const ModelInput& input, Writer& w) {
  w.PutF64(input.utilization);
  w.PutU8(static_cast<uint8_t>(input.arrival_kind));
  w.PutF64(input.timeout_seconds);
  w.PutF64(input.refill_seconds);
  w.PutF64(input.budget_fraction);
}

ModelInput DeserializeModelInput(Reader& r) {
  ModelInput input;
  input.utilization = r.GetFiniteF64("model-input utilization");
  input.arrival_kind = DistributionKindFromByte(r.GetU8());
  input.timeout_seconds = r.GetFiniteF64("model-input timeout");
  input.refill_seconds = r.GetFiniteF64("model-input refill");
  input.budget_fraction = r.GetFiniteF64("model-input budget fraction");
  if (input.refill_seconds <= 0.0 || input.budget_fraction < 0.0) {
    throw PersistError(ErrorCode::kFormat, "implausible model input");
  }
  return input;
}

void SerializeExploreConfig(const ExploreConfig& explore, Writer& w) {
  w.PutF64(explore.timeout_min_seconds);
  w.PutF64(explore.timeout_max_seconds);
  w.PutF64(explore.neighbor_range_seconds);
  w.PutU64(explore.max_iterations);
  w.PutF64(explore.initial_z);
  w.PutF64(explore.z_decay);
  w.PutU64(explore.z_decay_period);
  w.PutU64(explore.seed);
  w.PutU64(explore.num_chains);
}

ExploreConfig DeserializeExploreConfig(Reader& r) {
  ExploreConfig explore;
  explore.timeout_min_seconds = r.GetFiniteF64("explore timeout min");
  explore.timeout_max_seconds = r.GetFiniteF64("explore timeout max");
  explore.neighbor_range_seconds = r.GetFiniteF64("explore neighbor range");
  explore.max_iterations = static_cast<size_t>(r.GetU64());
  explore.initial_z = r.GetFiniteF64("explore initial z");
  explore.z_decay = r.GetFiniteF64("explore z decay");
  explore.z_decay_period = static_cast<size_t>(r.GetU64());
  explore.seed = r.GetU64();
  explore.num_chains = static_cast<size_t>(r.GetU64());
  if (explore.timeout_max_seconds < explore.timeout_min_seconds ||
      explore.num_chains == 0 || explore.z_decay_period == 0) {
    throw PersistError(ErrorCode::kFormat, "implausible explore settings");
  }
  return explore;
}

}  // namespace

void SerializeAdvisorConfig(const AdvisorConfig& config, Writer& w) {
  w.PutF64(config.rate_window_seconds);
  w.PutU64(config.service_window_count);
  w.PutU64(config.min_signal_events);
  w.PutF64(config.drift_delta);
  w.PutF64(config.drift_threshold);
  w.PutF64(config.utilization_slack);
  SerializeExploreConfig(config.explore, w);
  SerializeModelInput(config.base, w);
  w.PutU64(config.health_window_count);
  w.PutU64(config.health_min_observations);
  w.PutF64(config.degrade_error_threshold);
  w.PutF64(config.recover_error_threshold);
  w.PutU64(config.replan_max_attempts);
  w.PutF64(config.replan_backoff_seconds);
  w.PutF64(config.timeout_hysteresis_fraction);
  w.PutF64(config.static_timeout_seconds);
  SerializePredictionSimConfig(config.fallback_sim, w);
  w.PutBool(config.enable_shed_rung);
  w.PutF64(config.overload_shed_window_seconds);
}

AdvisorConfig DeserializeAdvisorConfig(Reader& r) {
  AdvisorConfig config;
  config.rate_window_seconds = r.GetFiniteF64("advisor rate window");
  config.service_window_count = static_cast<size_t>(r.GetU64());
  config.min_signal_events = static_cast<size_t>(r.GetU64());
  config.drift_delta = r.GetFiniteF64("advisor drift delta");
  config.drift_threshold = r.GetFiniteF64("advisor drift threshold");
  config.utilization_slack = r.GetFiniteF64("advisor utilization slack");
  config.explore = DeserializeExploreConfig(r);
  config.base = DeserializeModelInput(r);
  config.health_window_count = static_cast<size_t>(r.GetU64());
  config.health_min_observations = static_cast<size_t>(r.GetU64());
  config.degrade_error_threshold = r.GetFiniteF64("advisor degrade threshold");
  config.recover_error_threshold = r.GetFiniteF64("advisor recover threshold");
  config.replan_max_attempts = static_cast<size_t>(r.GetU64());
  config.replan_backoff_seconds = r.GetFiniteF64("advisor replan backoff");
  config.timeout_hysteresis_fraction =
      r.GetFiniteF64("advisor hysteresis fraction");
  config.static_timeout_seconds = r.GetFiniteF64("advisor static timeout");
  config.fallback_sim = DeserializePredictionSimConfig(r);
  config.enable_shed_rung = r.GetBool();
  config.overload_shed_window_seconds =
      r.GetFiniteF64("advisor overload shed window");
  config.pool = nullptr;  // never persisted; callers re-attach
  if (config.overload_shed_window_seconds < 0.0) {
    throw PersistError(ErrorCode::kFormat,
                       "overload shed window must be non-negative");
  }
  if (config.rate_window_seconds <= 0.0 ||
      config.service_window_count == 0 || config.min_signal_events == 0 ||
      config.health_window_count == 0 ||
      config.drift_threshold <= 0.0 || config.drift_delta < 0.0) {
    throw PersistError(ErrorCode::kFormat, "implausible advisor settings");
  }
  return config;
}

void SaveCheckpointToFile(const std::string& path,
                          const WorkloadProfile& profile,
                          const HybridModel& model,
                          const AdvisorConfig& config,
                          const OnlineAdvisor& advisor,
                          const SprintBudget& budget,
                          const DriveState& drive,
                          const robust::AdmissionController* admission,
                          const robust::RetryModel* retry,
                          const obs::SloPipeline* slo) {
  RecordWriter record;

  std::ostringstream profile_text;
  SaveProfile(profile, profile_text);
  record.AddSection(kSectionProfile, profile_text.str());

  Writer model_w;
  model.Serialize(model_w);
  record.AddSection(kSectionModel, model_w.Take());

  Writer config_w;
  SerializeAdvisorConfig(config, config_w);
  record.AddSection(kSectionAdvisorConfig, config_w.Take());

  Writer state_w;
  advisor.SaveState(state_w);
  record.AddSection(kSectionAdvisorState, state_w.Take());

  Writer budget_w;
  budget.Serialize(budget_w);
  record.AddSection(kSectionBudget, budget_w.Take());

  Writer drive_w;
  drive_w.PutU64(drive.seed);
  drive_w.PutU64(drive.step);
  drive_w.PutF64(drive.clock_seconds);
  record.AddSection(kSectionDrive, drive_w.Take());

  if (admission != nullptr) {
    Writer admission_w;
    admission->Serialize(admission_w);
    record.AddSection(kSectionAdmission, admission_w.Take());
  }
  if (retry != nullptr) {
    Writer retry_w;
    retry->Serialize(retry_w);
    record.AddSection(kSectionRetry, retry_w.Take());
  }
  if (slo != nullptr) {
    // Self-contained persist::Writer payload; the section CRC guards the
    // bytes and SloPipeline::RestoreState fail-closes on their content.
    record.AddSection(kSectionSlo, slo->SaveState());
  }

  WriteRecordToFile(path, record);
  obs::Count("persist/checkpoints_saved");
  // Sim time for the event is the drive clock: the checkpoint layer has no
  // deterministic clock of its own.
  obs::Emit(drive.clock_seconds, obs::EventKind::kCheckpointCommit,
            obs::Subsystem::kPersist, obs::Severity::kInfo, drive.step);
}

LoadedCheckpoint ParseCheckpoint(std::string bytes) {
  try {
    const RecordReader record = RecordReader::Parse(std::move(bytes));

    std::istringstream profile_text(record.Section(kSectionProfile));
    WorkloadProfile profile = LoadProfile(profile_text);

    Reader model_r(record.Section(kSectionModel));
    HybridModel model = HybridModel::Deserialize(model_r);
    model_r.ExpectEnd();

    Reader config_r(record.Section(kSectionAdvisorConfig));
    AdvisorConfig config = DeserializeAdvisorConfig(config_r);
    config_r.ExpectEnd();

    Reader budget_r(record.Section(kSectionBudget));
    SprintBudget budget = SprintBudget::Deserialize(budget_r);
    budget_r.ExpectEnd();

    Reader drive_r(record.Section(kSectionDrive));
    DriveState drive;
    drive.seed = drive_r.GetU64();
    drive.step = drive_r.GetU64();
    drive.clock_seconds = drive_r.GetFiniteF64("drive clock");
    drive_r.ExpectEnd();

    // The advisor-state payload is validated (and applied all-or-nothing)
    // by RestoreAdvisorState once an advisor exists to restore into;
    // its integrity is already covered by the section checksum here.
    std::string advisor_state = record.Section(kSectionAdvisorState);

    // Overload-robustness sections are optional: checkpoints written
    // before (or without) the robust layer simply lack them.
    std::optional<robust::AdmissionController> admission;
    if (record.Has(kSectionAdmission)) {
      Reader admission_r(record.Section(kSectionAdmission));
      admission = robust::AdmissionController::Deserialize(admission_r);
      admission_r.ExpectEnd();
    }
    std::optional<robust::RetryModel> retry;
    if (record.Has(kSectionRetry)) {
      Reader retry_r(record.Section(kSectionRetry));
      retry = robust::RetryModel::Deserialize(retry_r);
      retry_r.ExpectEnd();
    }
    std::optional<obs::SloPipeline> slo;
    if (record.Has(kSectionSlo)) {
      slo = obs::SloPipeline::RestoreState(record.Section(kSectionSlo));
    }

    return LoadedCheckpoint{std::move(profile),  std::move(model),
                            std::move(config),   std::move(budget),
                            drive,               std::move(advisor_state),
                            std::move(admission), std::move(retry),
                            std::move(slo)};
  } catch (const PersistError&) {
    throw;
  } catch (const std::exception& error) {
    // Anything a section deserializer throws past the typed taxonomy
    // (e.g. the text profile parser) still surfaces as a typed error —
    // the fail-closed contract of every loading path.
    throw PersistError(ErrorCode::kFormat, error.what());
  }
}

LoadedCheckpoint LoadCheckpointFromFile(const std::string& path) {
  std::string bytes;
  try {
    bytes = ReadFileBytes(path);
  } catch (const std::exception& error) {
    throw PersistError(ErrorCode::kIo, error.what());
  }
  LoadedCheckpoint loaded = ParseCheckpoint(std::move(bytes));
  obs::Count("persist/checkpoints_loaded");
  obs::Emit(loaded.drive.clock_seconds, obs::EventKind::kCheckpointRestore,
            obs::Subsystem::kPersist, obs::Severity::kInfo,
            loaded.drive.step);
  return loaded;
}

void RestoreAdvisorState(OnlineAdvisor& advisor,
                         const std::string& advisor_state) {
  Reader r(advisor_state);
  advisor.RestoreState(r);
}

}  // namespace persist
}  // namespace msprint
