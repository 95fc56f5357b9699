// Scoped profiling hooks: GTS_PROF_SCOPE("engine.run") measures the
// host wall-clock time of the enclosing scope and reports it to the
// process-wide ProfSink, if one is installed.
//
// Cost model: with no sink installed a scope is one relaxed atomic load;
// with GTS_PROF_ENABLED=0 (cmake -DGTS_PROF=OFF) the macro compiles away
// entirely. Scopes measure *host* seconds -- they profile this process
// (page building, scheduling, kernel execution), not the simulated
// machine; simulated time lives in RunMetrics / the trace export.
//
// Sinks must be thread-safe: scopes may end on several threads at once.
#ifndef GTS_OBS_PROF_H_
#define GTS_OBS_PROF_H_

#include <chrono>

#include "obs/metrics.h"

#ifndef GTS_PROF_ENABLED
#define GTS_PROF_ENABLED 1
#endif

namespace gts {
namespace obs {

/// Receives completed profiling scopes.
class ProfSink {
 public:
  virtual ~ProfSink() = default;
  /// `name` is the literal passed to GTS_PROF_SCOPE (static storage);
  /// `seconds` is host wall-clock elapsed time of the scope.
  virtual void OnScope(const char* name, double seconds) = 0;
};

/// Installs the process-wide sink (nullptr uninstalls). Returns the
/// previous sink. The caller keeps ownership; the sink must outlive its
/// installation.
ProfSink* SetProfSink(ProfSink* sink);
ProfSink* GetProfSink();

/// Records each scope as a `prof.<name>` distribution (seconds) in a
/// MetricsRegistry, so profiles ride along in metrics snapshots.
class RegistryProfSink final : public ProfSink {
 public:
  explicit RegistryProfSink(MetricsRegistry* registry)
      : registry_(registry) {}
  void OnScope(const char* name, double seconds) override;

 private:
  MetricsRegistry* registry_;
};

namespace internal {

class ProfScope {
 public:
  explicit ProfScope(const char* name)
      : name_(name), sink_(GetProfSink()) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~ProfScope() {
    if (sink_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    sink_->OnScope(
        name_,
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count());
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  const char* name_;
  ProfSink* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace internal
}  // namespace obs
}  // namespace gts

#if GTS_PROF_ENABLED
#define GTS_PROF_CONCAT_IMPL(a, b) a##b
#define GTS_PROF_CONCAT(a, b) GTS_PROF_CONCAT_IMPL(a, b)
/// Profiles the enclosing scope under `name` (a string literal).
#define GTS_PROF_SCOPE(name)                                  \
  ::gts::obs::internal::ProfScope GTS_PROF_CONCAT(            \
      _gts_prof_scope_, __LINE__)(name)
#else
#define GTS_PROF_SCOPE(name) static_cast<void>(0)
#endif

#endif  // GTS_OBS_PROF_H_
