#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <type_traits>

#include "grid/simd.hpp"
#include "netsim/adversary.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef AGEO_PB_COMPILER
#define AGEO_PB_COMPILER "unknown"
#endif
#ifndef AGEO_PB_FLAGS
#define AGEO_PB_FLAGS "unknown"
#endif
#ifndef AGEO_PB_BUILD_TYPE
#define AGEO_PB_BUILD_TYPE "unknown"
#endif

namespace ageo::perfbench {

namespace {

// Quality floors per testbed: {liars caught >=, honest flagged <=, truth
// contained >=}. Over 40-70 testbeds per workload (seeds 1-5) the
// measured ranges were: audit-cbgpp 0.98-1 / 0.028-0.077 / 0.77-0.89;
// audit-cbgpp-byz 0.96-0.99 / 0.35-0.49 / 0.20-0.28; audit-spotter
// 0.98-1 / 0.14-0.28 / 0.29-0.61; serve-stream 0.96-1 / 0.012-0.051 /
// 0.83-0.94.
constexpr std::array<Workload, 4> kWorkloads{{
    {"audit-cbgpp", assess::AuditAlgorithm::kCbgPlusPlus, 0.25, "2.0,0.5",
     0.0, false, 12, 2, {0.90, 0.20, 0.60}},
    {"audit-cbgpp-byz", assess::AuditAlgorithm::kCbgPlusPlus, 0.25,
     "2.0,0.5", 0.25, false, 12, 2, {0.85, 0.70, 0.10}},
    {"audit-spotter", assess::AuditAlgorithm::kSpotter, 0.5, "2.0", 0.0,
     false, 8, 1, {0.90, 0.50, 0.15}},
    {"serve-stream", assess::AuditAlgorithm::kCbgPlusPlus, 1.0, "", 0.0,
     true, 14, 0, {0.85, 0.15, 0.60}},
}};

/// The seed that reproduces the paper-scale testbed, fleet and audit.
constexpr std::uint64_t kPaperSeed = 2018;
/// AuditConfig's default seed, which the paper-scale audit uses.
constexpr std::uint64_t kPaperAuditSeed = 99;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string escape_json(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

int worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::uint64_t sub_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  // SplitMix64 of (seed, k): neighbouring workload seeds share no
  // sub-seeds.
  std::uint64_t z = seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

measure::TestbedConfig testbed_config(std::uint64_t seed) {
  measure::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.constellation.n_anchors = 250;
  cfg.constellation.n_probes = 800;
  cfg.calibration_samples = 3;
  cfg.calibrate_probes = true;
  return cfg;
}

world::Fleet make_fleet(const world::WorldModel& w, std::uint64_t seed) {
  const auto specs = world::default_provider_specs();
  return world::generate_fleet(w, specs, seed);
}

assess::AuditConfig audit_config(const Workload& w, std::uint64_t seed,
                                 int threads) {
  assess::AuditConfig cfg;
  cfg.grid_cell_deg = w.grid_deg;
  cfg.algorithm = w.algorithm;
  cfg.refine = mlat::RefineSchedule::parse(w.refine);
  cfg.seed = seed ^ kPaperSeed ^ kPaperAuditSeed;
  cfg.threads = threads;
  return cfg;
}

serve::ServiceConfig service_config(const Workload& w, std::uint64_t seed,
                                    int threads) {
  serve::ServiceConfig cfg;
  cfg.audit = audit_config(w, seed, threads);
  cfg.round_quota = kServeQuota;
  // Twice the quota: every pick is solved in the round that probed it,
  // so the pending FIFO is empty after every round.
  cfg.solver_budget = 2 * kServeQuota;
  cfg.probes_per_round = 4;
  cfg.max_pending = 2 * kServeQuota;
  return cfg;
}

std::vector<std::size_t> attach_liars(measure::Testbed& bed,
                                      const Workload& w, std::uint64_t seed) {
  if (w.liar_fraction <= 0.0) return {};
  std::vector<netsim::HostId> hosts;
  hosts.reserve(bed.landmarks().size());
  for (std::size_t i = 0; i < bed.landmarks().size(); ++i)
    hosts.push_back(bed.landmark_host(i));
  const geo::LatLon rendezvous{40.0, -100.0};
  const auto bad = netsim::attach_adversaries(bed.net(), hosts,
                                              w.liar_fraction, "deflate",
                                              seed, rendezvous);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < hosts.size(); ++i)
    if (std::find(bad.begin(), bad.end(), hosts[i]) != bad.end())
      ids.push_back(i);
  return ids;
}

Quality score(std::span<const assess::ProxyAuditRow> rows,
              const world::Fleet& fleet,
              std::span<const std::size_t> suspicious_landmarks,
              std::span<const std::size_t> liars) {
  Quality q;
  q.rows = rows.size();
  std::size_t liars_n = 0, caught = 0, honest_n = 0, flagged = 0;
  std::size_t nonempty = 0, contained = 0;
  std::vector<double> areas;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& r : rows) {
    const world::ProxyHost& host = fleet.hosts.at(r.host_index);
    const bool is_false = r.verdict_final == assess::Verdict::kFalse;
    if (host.true_country != r.claimed) {
      ++liars_n;
      caught += is_false;
    } else {
      ++honest_n;
      flagged += is_false;
    }
    if (r.empty_prediction || r.region.empty()) {
      ++q.empty;
    } else {
      ++nonempty;
      contained += r.region.contains(host.true_location);
      areas.push_back(r.area_km2);
    }
    h = fnv(h, r.host_index);
    h = fnv(h, static_cast<std::uint64_t>(r.verdict_raw) |
                   static_cast<std::uint64_t>(r.verdict_dc) << 8 |
                   static_cast<std::uint64_t>(r.verdict_final) << 16 |
                   static_cast<std::uint64_t>(r.continent_verdict) << 24 |
                   static_cast<std::uint64_t>(r.byzantine) << 32 |
                   static_cast<std::uint64_t>(r.empty_prediction) << 33);
    h = fnv(h, r.constraints_total);
    h = fnv(h, r.constraints_used);
    h = fnv(h, r.region.count());
    h = fnv(h, std::bit_cast<std::uint64_t>(r.area_km2));
  }
  for (std::size_t id : suspicious_landmarks) h = fnv(h, id);
  auto frac = [](std::size_t a, std::size_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  q.liars_caught = frac(caught, liars_n);
  q.honest_flagged = frac(flagged, honest_n);
  q.truth_contained = frac(contained, nonempty);
  q.region_km2_p50 = median(std::move(areas));
  // With no compromised landmarks every one of them (none) is flagged.
  std::size_t hit = 0;
  for (std::size_t id : liars)
    hit += std::binary_search(suspicious_landmarks.begin(),
                              suspicious_landmarks.end(), id);
  q.liar_landmarks_flagged = liars.empty() ? 1.0 : frac(hit, liars.size());
  q.digest = h;
  return q;
}

Quality mean_quality(std::span<const Quality> qs) {
  Quality m;
  for (const Quality& q : qs) {
    m.liars_caught += q.liars_caught;
    m.honest_flagged += q.honest_flagged;
    m.truth_contained += q.truth_contained;
    m.region_km2_p50 += q.region_km2_p50;
    m.liar_landmarks_flagged += q.liar_landmarks_flagged;
  }
  const double n = static_cast<double>(qs.size());
  m.liars_caught /= n;
  m.honest_flagged /= n;
  m.truth_contained /= n;
  m.region_km2_p50 /= n;
  m.liar_landmarks_flagged /= n;
  return m;
}

bool same_stats(const serve::ServiceStats& a, const serve::ServiceStats& b) {
  // Only counters, no padding: the bytes are the values.
  static_assert(std::has_unique_object_representations_v<serve::ServiceStats>);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string check_quality(const Quality& q, const Workload& w,
                          std::size_t fleet_size) {
  if (q.rows != fleet_size)
    return "report has " + std::to_string(q.rows) + " rows for " +
           std::to_string(fleet_size) + " proxies";
  if (q.empty == q.rows) return "every prediction region is empty";
  const QualityFloors& f = w.floors;
  auto miss = [](const char* what, double v, const char* op, double floor) {
    return std::string(what) + " " + format_value(v) + " " + op + " " +
           format_value(floor);
  };
  if (!(q.liars_caught >= f.liars_caught_min))
    return miss("liars caught", q.liars_caught, "<", f.liars_caught_min);
  if (!(q.honest_flagged <= f.honest_flagged_max))
    return miss("honest flagged", q.honest_flagged, ">",
                 f.honest_flagged_max);
  if (!(q.truth_contained >= f.truth_contained_min))
    return miss("truth contained", q.truth_contained, "<",
                 f.truth_contained_min);
  if (!(q.region_km2_p50 > 0.0)) return "median region area is zero";
  return {};
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::optional<double> percentile(std::vector<double> xs, double p) {
  const std::size_t n = xs.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

void Result::add(std::string_view name, double value, std::string_view unit,
                 const std::string& note) {
  metrics_.push_back({std::string(name), value, std::string(unit)});
  std::printf("metric %-28s %16s %-6s (%s)\n", std::string(name).c_str(),
              format_value(value).c_str(), std::string(unit).c_str(),
              note.c_str());
}

void Result::add_percentile(std::string_view name,
                            const std::vector<double>& xs, double p,
                            std::string_view unit) {
  if (xs.empty()) {
    add(name, 0.0, unit, "n=0: the workload never calls this");
    return;
  }
  const auto v = percentile(xs, p);
  if (!v)
    throw CheckFailed(std::string(name) + ": " + std::to_string(xs.size()) +
                      " samples leave fewer than ten above the percentile");
  add(name, *v, unit, "n=" + std::to_string(xs.size()));
}

std::string Result::json() const {
  std::string out = "{\"correct\": true";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_value(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fingerprint_json() {
  const char* simd =
      grid::simd::active_level() == grid::simd::Level::kAvx2 ? "avx2"
                                                             : "scalar";
  std::string out = "{\"cpu\": \"" + escape_json(cpu_model()) + "\"";
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"threads\": " + std::to_string(worker_threads());
  out += ", \"compiler\": \"" + escape_json(AGEO_PB_COMPILER) + "\"";
  out += ", \"flags\": \"" + escape_json(AGEO_PB_FLAGS) + "\"";
  out += ", \"build_type\": \"" + escape_json(AGEO_PB_BUILD_TYPE) + "\"";
  out += ", \"simd\": \"" + std::string(simd) + "\"}";
  return out;
}

}  // namespace ageo::perfbench
