// gts_bench: the repository benchmark. For one workload and seed it
// generates the inputs, sets the engine up several times, drives it from
// one client thread in a closed loop for the requested seconds, checks
// every answer against the CPU references and prints the end-to-end
// metrics. With --trace 1 it then replays the same queries on a fresh,
// traced engine and prints the per-layer metrics instead. The last line
// of standard output is one JSON object; see README.md.
//
//   gts_bench --workload bfs-ssd --seed 1 --seconds 20 --trace 0
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "layers.h"
#include "obs/prof.h"
#include "speed_probe.h"
#include "workloads.h"

namespace gtsbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "gts_bench: %s\nusage: gts_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny]\nworkloads:",
               problem.c_str());
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("bad --scale " + value);
      args.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// Runs units until at least `min_queries` queries ran and `seconds`
/// passed, or exactly `units` units when that is non-negative.
void RunPhase(Client& client, System& system, size_t min_queries,
              double seconds, long units,
              const std::function<void(Unit&)>& on_unit) {
  const auto start = Clock::now();
  size_t queries = 0;
  for (long done = 0;; ++done) {
    const bool finished =
        units >= 0 ? done >= units
                   : queries >= min_queries && SecondsSince(start) >= seconds;
    if (finished) break;
    Unit unit = client.RunNext(system);
    queries += unit.queries.size();
    on_unit(unit);
  }
}

/// The fields the traced replay must reproduce bit for bit.
bool SameSimulation(const QueryRecord& a, const QueryRecord& b) {
  return a.source == b.source && a.sim_s == b.sim_s && a.pages == b.pages &&
         a.bytes == b.bytes && a.kernel_calls == b.kernel_calls &&
         a.levels == b.levels && a.reads == b.reads && a.answer == b.answer;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-28s %.6g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  (",
              m.note.empty() ? "" : (m.note + ")").c_str());
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(const Args& args) {
  const std::optional<WorkloadSpec> found =
      FindWorkload(args.workload, args.scale);
  if (!found) Usage("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;

  // The probe process forks first, while this process is small and has no
  // threads.
  auto started = SpeedProbe::Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  SpeedProbe& probe = **started;

  auto edges = GenerateGraph(spec, args.scale, args.seed);
  if (!edges.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 edges.status().ToString().c_str());
    return 1;
  }

  // Set-up several times; the median is setup_s, the last system serves.
  // The speed probe runs after each set-up and, at most twice a second,
  // between units.
  std::vector<double> probe_s;
  auto last_probe = Clock::now();
  const auto sample_speed = [&] {
    if (SecondsSince(last_probe) < 0.5) return;
    probe_s.push_back(probe.Run());
    last_probe = Clock::now();
  };
  const int setup_runs = args.scale == Scale::kTiny ? 2 : 7;
  std::vector<SetupTimes> setups;
  std::unique_ptr<System> system;
  for (int i = 0; i < setup_runs; ++i) {
    system.reset();
    auto built = BuildSystem(spec, *edges, /*keep_timeline=*/false);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    system = std::move(built).value();
    setups.push_back(system->times);
    probe_s.push_back(probe.Run());
  }

  std::printf("gts_bench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              args.scale == Scale::kTiny ? "tiny" : "full");
  std::printf("graph: |V|=%llu |E|=%llu pages=%zu topology=%.1f MiB\n",
              static_cast<unsigned long long>(system->csr.num_vertices()),
              static_cast<unsigned long long>(system->csr.num_edges()),
              system->paged.num_pages(),
              static_cast<double>(system->paged.TotalTopologyBytes()) /
                  (1024.0 * 1024.0));

  // ---- Untraced run: the end-to-end metrics. Host metrics leave the
  // warm-up units out (WorkloadSpec::warmup_queries).
  std::vector<QueryRecord> records;
  std::vector<double> host_s;  // per query, after the warm-up
  // Edges and host seconds of the units after the warm-up, for host_teps.
  double measured_edges = 0.0, measured_host_s = 0.0;
  double every_unit_host_s = 0.0;  // the traced replay's baseline
  size_t units = 0;
  {
    Client client(spec, system->csr, args.seed);
    RunPhase(client, *system, static_cast<size_t>(spec.sim_queries),
             args.trace ? args.seconds / 2 : args.seconds, -1,
             [&](Unit& unit) {
               sample_speed();
               every_unit_host_s += unit.host_s;
               const bool warmup =
                   records.size() < static_cast<size_t>(spec.warmup_queries);
               ++units;
               if (!warmup) measured_host_s += unit.host_s;
               for (QueryRecord& q : unit.queries) {
                 if (!warmup) {
                   host_s.push_back(q.host_s);
                   measured_edges += static_cast<double>(q.edges);
                 }
                 records.push_back(std::move(q));
               }
             });
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  size_t failed = 0;
  std::vector<double> sim_paper_s;
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& q = records[i];
    if (!q.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "FAILED workload=%s seed=%llu query=%zu "
                   "source=%llu: %s\n",
                   spec.name.c_str(),
                   static_cast<unsigned long long>(args.seed), i,
                   static_cast<unsigned long long>(q.source),
                   q.failure.c_str());
    }
    if (i < static_cast<size_t>(spec.sim_queries)) {
      sim_paper_s.push_back(q.sim_s * static_cast<double>(gts::kReproScale));
    }
  }
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total());
  const int tail = TailPercentile(sim_paper_s.size());
  // Host metrics are scaled to the reference host by the speed probe.
  const double slowdown =
      Percentile(probe_s, 50) / SpeedProbe::kReferenceSeconds;
  const double raw_host_p50 = Percentile(host_s, 50);
  const double raw_teps =
      measured_host_s > 0.0 ? measured_edges / measured_host_s : 0.0;
  const double raw_setup = Percentile(setup_s, 50);
  const auto raw = [](double value, const char* unit) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.6g %s raw", value, unit);
    return std::string(text);
  };

  std::printf("queries: attempted=%zu failed=%zu units=%zu; simulated "
              "sample = the first %zu, host sample = %zu after a warm-up of "
              "%zu\n",
              records.size(), failed, units, sim_paper_s.size(),
              host_s.size(), records.size() - host_s.size());
  std::printf("host speed: probe median %.6g s over %zu runs, %.4gx the "
              "reference host's %.3g s; host metrics are scaled by it\n",
              Percentile(probe_s, 50), probe_s.size(), slowdown,
              SpeedProbe::kReferenceSeconds);
  const std::string n_sim = "n=" + std::to_string(sim_paper_s.size());
  const std::string n_host = "n=" + std::to_string(host_s.size());
  const std::vector<Metric> end_to_end = {
      {"paper_s_p50", "paper-s", Percentile(sim_paper_s, 50), n_sim},
      {"paper_s_tail", "paper-s", Percentile(sim_paper_s, tail),
       "p" + std::to_string(tail) + ", " + n_sim},
      {"host_s_p50", "s", raw_host_p50 / slowdown,
       n_host + ", " + raw(raw_host_p50, "s")},
      {"host_teps", "edges/s", raw_teps * slowdown,
       n_host + ", " + raw(raw_teps, "edges/s")},
      {"setup_s", "s", raw_setup / slowdown,
       "median of " + std::to_string(setup_s.size()) + " set-ups, " +
           raw(raw_setup, "s")},
      {"peak_rss_mib", "MiB", peak_rss_mib, "untraced run"},
  };
  std::printf("end-to-end%s:\n", args.trace ? " (untraced half)" : "");
  for (const Metric& m : end_to_end) PrintMetric(m);
  // Failures are the JSON's "failed" over "attempted"; the ratio is shown
  // here only, since a metric that is 0 on a healthy build cannot be
  // compared as a share of its median.
  PrintMetric({"failed_ratio", "fraction",
               static_cast<double>(failed) /
                   static_cast<double>(std::max<size_t>(records.size(), 1)),
               std::to_string(failed) + " of " +
                   std::to_string(records.size())});

  if (!args.trace) {
    PrintJson(failed == 0, records.size(), failed, end_to_end);
    return 0;
  }

  // ---- Traced run: the same queries on a fresh engine with the op
  // timeline kept and a profiling sink installed.
  system.reset();
  auto traced = BuildSystem(spec, *edges, /*keep_timeline=*/true);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced set-up failed: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  system = std::move(traced).value();
  ScopeTotals scopes;
  LayerTotals layers(system->engine->machine().time_model);
  std::string error;
  size_t next = 0;
  gts::obs::SetProfSink(&scopes);
  {
    // The client checks answers here too, so both runs do the same host
    // work around the engine calls and obs.trace_overhead_ratio compares
    // like with like.
    Client client(spec, system->csr, args.seed);
    RunPhase(client, *system, 0, 0.0, static_cast<long>(units),
             [&](Unit& unit) {
               sample_speed();  // the same host work as the untraced run
               for (const QueryRecord& q : unit.queries) {
                 if (error.empty() &&
                     (next >= records.size() ||
                      !SameSimulation(q, records[next]))) {
                   error = "traced query " + std::to_string(next) +
                           " (source " + std::to_string(q.source) +
                           ") differs from the untraced run";
                 }
                 ++next;
               }
               const std::string unit_error = layers.Add(unit);
               if (error.empty()) error = unit_error;
             });
  }
  gts::obs::SetProfSink(nullptr);
  if (!error.empty()) {
    std::fprintf(stderr, "determinism check failed: workload=%s seed=%llu: "
                 "%s\n",
                 spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                 error.c_str());
    return 1;
  }

  LayerTotals::Context context;
  context.setups = setups;
  context.registry = system->engine->metrics_registry()->Snapshot();
  context.scopes = &scopes;
  if (system->engine->edge_stream() != nullptr) {
    context.updates_rejected =
        system->engine->edge_stream()->SnapshotStats().updates_rejected;
  }
  context.untraced_host_s = every_unit_host_s;
  context.untraced_query_host_s = host_s;
  const std::vector<Metric> per_layer = layers.Metrics(context);
  std::printf("per-layer (traced replay of the same %zu queries; "
              "determinism checks passed):\n",
              next);
  for (const Metric& m : per_layer) PrintMetric(m);
  PrintJson(failed == 0, records.size(), failed, per_layer);
  return 0;
}

}  // namespace
}  // namespace gtsbench

int main(int argc, char** argv) {
  return gtsbench::Main(gtsbench::ParseArgs(argc, argv));
}
