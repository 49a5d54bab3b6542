// Workload definitions, the configuration pinned from the workload seed,
// verdict-quality scoring, sample statistics and result output shared by
// the end-to-end and traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "assess/audit.hpp"
#include "measure/testbed.hpp"
#include "serve/service.hpp"
#include "world/fleet.hpp"

namespace ageo::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-testbed sanity floors on verdict quality, set from the workload's
/// own measured spread with a wide margin: they catch a broken pipeline,
/// not a weak world.
struct QualityFloors {
  double liars_caught_min;
  double honest_flagged_max;
  double truth_contained_min;
};

struct Workload {
  std::string_view name;
  assess::AuditAlgorithm algorithm;
  double grid_deg;
  /// Refine schedule text; empty = flat solves.
  std::string_view refine;
  /// Share of landmarks that deflate their delays (0 = honest).
  double liar_fraction;
  /// Streaming AuditService instead of the batch Auditor.
  bool serve;
  /// Testbeds (worlds) per sweep: unit k of a sweep builds the testbed of
  /// sub_seed(seed, k), so every run averages its figures over several
  /// worlds and the seed-to-seed spread shrinks.
  int testbeds;
  /// Batch only: warm re-audit passes after each unit's cold audit.
  int warm_passes;
  QualityFloors floors;
};

/// The four workloads, in BENCHMARK.json order.
std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

/// Worker threads of every multi-threaded run: min(4, hardware threads).
int worker_threads();

/// Sub-seed k of a workload seed; sub-seed 0 is the seed itself, so seed
/// 2018 still starts with the paper-scale testbed.
std::uint64_t sub_seed(std::uint64_t seed, int k);

/// Streaming rounds per service unit; the window is fixed in rounds
/// because per-round cost grows with the observation lists.
inline constexpr std::uint64_t kServeRounds = 300;
inline constexpr std::size_t kServeQuota = 64;

// ---- configuration, built only from the workload seed ----
measure::TestbedConfig testbed_config(std::uint64_t seed);
world::Fleet make_fleet(const world::WorldModel& w, std::uint64_t seed);
assess::AuditConfig audit_config(const Workload& w, std::uint64_t seed,
                                 int threads);
serve::ServiceConfig service_config(const Workload& w, std::uint64_t seed,
                                    int threads);
/// Attach the workload's deflating landmarks; returns their landmark ids
/// (ascending, empty for honest workloads).
std::vector<std::size_t> attach_liars(measure::Testbed& bed,
                                      const Workload& w, std::uint64_t seed);

// ---- verdict quality ----
struct Quality {
  std::size_t rows = 0;
  std::size_t empty = 0;
  double liars_caught = 0.0;
  double honest_flagged = 0.0;
  double truth_contained = 0.0;
  double region_km2_p50 = 0.0;
  double liar_landmarks_flagged = 0.0;
  /// Hash of every row's verdicts, constraint counts and region area.
  std::uint64_t digest = 0;
  bool operator==(const Quality&) const = default;
};

Quality score(std::span<const assess::ProxyAuditRow> rows,
              const world::Fleet& fleet,
              std::span<const std::size_t> suspicious_landmarks,
              std::span<const std::size_t> liars);

/// Mean of the per-testbed fractions and median areas.
Quality mean_quality(std::span<const Quality> qs);

/// Bitwise equality of two services' counters.
bool same_stats(const serve::ServiceStats& a, const serve::ServiceStats& b);

/// The workload's sanity floors on one testbed's quality score; returns
/// an error or "".
std::string check_quality(const Quality& q, const Workload& w,
                          std::size_t fleet_size);

// ---- statistics ----
double median(std::vector<double> xs);
/// Nearest-rank percentile `p` in (0, 1). Empty when fewer than ten
/// samples lie above it: such a percentile is not reported.
std::optional<double> percentile(std::vector<double> xs, double p);

// ---- output ----
/// Thrown for any output-check failure; the run exits non-zero.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Result {
 public:
  /// Record a metric and print it as "metric <name> <value> <unit> (<note>)".
  void add(std::string_view name, double value, std::string_view unit,
           const std::string& note);
  /// Record the percentile `p` of `xs`, or throw CheckFailed when the
  /// sample is too small for it. An empty sample means the workload never
  /// calls the layer: the metric reads 0 and says so.
  void add_percentile(std::string_view name, const std::vector<double>& xs,
                      double p, std::string_view unit);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The final JSON line of a run whose checks all passed.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// "cpu/nproc/compiler/flags/build type/SIMD level" as one JSON object.
std::string fingerprint_json();

}  // namespace ageo::perfbench
