// Per-layer accounting of the traced run, taken from outside the engine:
// host seconds of the engine's own GTS_PROF_SCOPEs read through an
// installed obs::ProfSink, calls into module functions timed here, and
// the counters and op timelines the engine already returns.
#ifndef GTSBENCH_LAYERS_H_
#define GTSBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/schedule.h"
#include "gpu/time_model.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "workloads.h"

namespace gtsbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< printed beside the value, never in the JSON
};

/// Sums host seconds per GTS_PROF_SCOPE name.
class ScopeTotals final : public gts::obs::ProfSink {
 public:
  void OnScope(const char* name, double seconds) override;
  double Seconds(std::string_view name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double, std::less<>> seconds_;
};

/// A makespan split by the highest-priority resource busy at each instant:
/// any kernel, else any copy engine, else any storage device, else nothing
/// (barriers, host merge, issue gaps). The parts sum to the makespan.
struct Occupancy {
  double kernel = 0.0;
  double copy = 0.0;
  double storage = 0.0;
  double idle = 0.0;

  double total() const { return kernel + copy + storage + idle; }
  Occupancy& operator+=(const Occupancy& other);
};

/// Per-layer totals of the traced run, fed one unit at a time.
class LayerTotals {
 public:
  explicit LayerTotals(const gts::TimeModel& model) : model_(model) {}

  /// Folds one traced unit in. Returns an error description when a kept
  /// timeline does not replay to its makespan exactly, or its occupancy
  /// split fails a check against figures taken without the split: op
  /// intervals within the makespan, shares non-negative and summing to 1
  /// within 1e-9, parts equal to the union of their ops' intervals and no
  /// larger than the busy times the engine returned. Empty otherwise.
  std::string Add(const Unit& unit);

  /// Everything else the per-layer metrics read.
  struct Context {
    std::vector<SetupTimes> setups;
    gts::obs::MetricsSnapshot registry;  ///< the traced engine's, at the end
    const ScopeTotals* scopes = nullptr;
    uint64_t updates_rejected = 0;       ///< EdgeStream::SnapshotStats()
    double untraced_host_s = 0.0;        ///< same queries, tracing off
    std::vector<double> untraced_query_host_s;
  };
  std::vector<Metric> Metrics(const Context& context) const;

 private:
  gts::TimeModel model_;
  uint64_t queries_ = 0;
  double host_s_ = 0.0;
  Occupancy occupancy_;
  /// Per-query counters summed over queries; busy times and validator
  /// findings summed once per unit.
  gts::RunMetrics sums_;
  uint64_t ops_ = 0;
  double queue_wait_ = 0.0, write_time_ = 0.0;
  double simulate_s_ = 0.0, validate_s_ = 0.0;
  double submit_s_ = 0.0, append_s_ = 0.0;
  uint64_t submits_ = 0, appends_ = 0;
};

/// Nearest-rank percentile `p` (0..100) of `values`.
double Percentile(std::vector<double> values, int p);
/// The highest whole percentile with at least ten samples beyond it.
int TailPercentile(size_t samples);

}  // namespace gtsbench

#endif  // GTSBENCH_LAYERS_H_
