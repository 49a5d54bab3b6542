// End-to-end runs: telemetry off, the workload's thread count, fixed units
// of work, each on a freshly built testbed. A sweep runs one unit per
// testbed of the run, so every figure weighs each testbed equally; every
// timing is a median or a percentile over the sweep's units.
#include "e2e.hpp"

#include <algorithm>
#include <cstdio>

namespace ageo::perfbench {

namespace {

/// Run `unit(k, timed)` for k over every testbed, sweep after sweep while
/// the next sweep still ends within `seconds` (at least one), then once
/// more untimed on testbed 0: a repeated cold unit must reproduce its
/// verdicts exactly.
template <typename Unit>
void run_sweeps(const Workload& w, double seconds, Unit&& unit) {
  const auto start = Clock::now();
  double sweep_s = 0.0;
  do {
    const auto s0 = Clock::now();
    for (int k = 0; k < w.testbeds; ++k) unit(k, true);
    sweep_s = seconds_since(s0);
  } while (seconds_since(start) + sweep_s * (1.0 + 1.0 / w.testbeds) <=
           seconds);
  unit(0, false);
}

/// "median of <n> <what>, range <min>..<max>" for a metric's note.
std::string spread_note(const std::vector<double>& xs, const char* what) {
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  char buf[96];
  std::snprintf(buf, sizeof buf, "median of %zu %s, range %.6g..%.6g",
                xs.size(), what, *lo, *hi);
  return buf;
}

/// Verdict quality per testbed. A unit that repeats a testbed must score
/// exactly as its first unit did.
class QualityLedger {
 public:
  explicit QualityLedger(const Workload& w) : w_(w), by_testbed_(w.testbeds) {}

  void record(int testbed, const Quality& q, std::size_t fleet_size) {
    if (const std::string err = check_quality(q, w_, fleet_size);
        !err.empty())
      throw CheckFailed("testbed " + std::to_string(testbed) + ": " + err);
    std::optional<Quality>& slot = by_testbed_[testbed];
    if (!slot) {
      slot = q;
      std::printf(
          "testbed %2d liars_caught %.4f honest_flagged %.4f "
          "truth_contained %.4f region_km2_p50 %.0f empty %zu\n",
          testbed, q.liars_caught, q.honest_flagged, q.truth_contained,
          q.region_km2_p50, q.empty);
    } else if (!(*slot == q)) {
      throw CheckFailed("testbed " + std::to_string(testbed) +
                        ": a repeated unit's verdicts differ");
    }
  }

  void emit(Result& out) const {
    std::vector<Quality> qs;
    for (const auto& q : by_testbed_) qs.push_back(*q);
    const Quality m = mean_quality(qs);
    const std::string of =
        " (mean of " + std::to_string(qs.size()) + " testbeds)";
    out.add("liars_caught_frac", m.liars_caught, "ratio",
            "of proxies whose claim is false" + of);
    out.add("honest_flagged_frac", m.honest_flagged, "ratio",
            "of proxies whose claim is true" + of);
    out.add("truth_contained_frac", m.truth_contained, "ratio",
            "of non-empty regions" + of);
    out.add("region_km2_p50", m.region_km2_p50, "km2",
            "median region per testbed" + of);
    out.add("liar_landmarks_flagged_frac", m.liar_landmarks_flagged,
            "ratio", "1 when no landmark lies" + of);
  }

 private:
  const Workload& w_;
  std::vector<std::optional<Quality>> by_testbed_;
};

/// Share of audits ending with observations and a non-empty region. An
/// audit that throws aborts the run instead, so the result's `failed`
/// count stays zero.
void add_nonempty(Result& out, std::uint64_t empty, const char* what) {
  out.add("nonempty_prediction_frac",
          1.0 - static_cast<double>(empty) /
                    static_cast<double>(out.attempted),
          "ratio", std::to_string(empty) + " of " +
                       std::to_string(out.attempted) + " " + what +
                       " ended empty");
}

void run_batch(const Workload& w, std::uint64_t seed, double seconds,
               Result& out) {
  const int threads = worker_threads();
  std::vector<double> setup_s, cold_pps, warm_pps, warm_ms;
  std::uint64_t empty = 0;
  QualityLedger quality(w);
  run_sweeps(w, seconds, [&](int k, bool timed) {
    const std::uint64_t s = sub_seed(seed, k);
    const auto u0 = Clock::now();
    measure::Testbed bed(testbed_config(s));
    const world::Fleet fleet = make_fleet(bed.world(), s);
    const auto liars = attach_liars(bed, w, s);
    assess::Auditor auditor(bed, audit_config(w, s, threads));
    const double setup = seconds_since(u0);
    const std::size_t n = fleet.hosts.size();

    const auto t0 = Clock::now();
    const assess::AuditReport cold = auditor.run(fleet);
    const double cold_s = seconds_since(t0);
    const Quality q =
        score(cold.rows, fleet, cold.suspicious_landmarks, liars);
    quality.record(k, q, n);
    out.attempted += n;
    empty += q.empty;
    if (!timed) return;
    setup_s.push_back(setup);
    cold_pps.push_back(static_cast<double>(n) / cold_s);
    for (int pass = 0; pass < w.warm_passes; ++pass) {
      const auto t1 = Clock::now();
      const assess::AuditReport warm = auditor.run(fleet);
      const double wall = seconds_since(t1);
      warm_pps.push_back(static_cast<double>(n) / wall);
      warm_ms.push_back(1e3 * wall);
      if (warm.rows.size() != n) throw CheckFailed("warm pass lost rows");
      out.attempted += n;
      for (const auto& r : warm.rows)
        empty += r.empty_prediction || r.region.empty();
    }
  });

  out.add("setup_s", median(setup_s), "s", spread_note(setup_s, "units"));
  out.add("audit_proxies_per_s", median(cold_pps), "1/s",
          spread_note(cold_pps, "cold audits"));
  out.add("reaudit_proxies_per_s", median(warm_pps), "1/s",
          spread_note(warm_pps, "warm passes"));
  // Auditor::run hands back every verdict of a pass at once: each proxy
  // waits the whole pass, so within a pass the p50 and p99 wait both equal
  // the pass wall. Both report the median over the warm passes.
  const std::string per_pass = spread_note(warm_ms, "warm passes") +
                               "; every verdict of a pass waits the pass";
  out.add("verdict_ms_p50", median(warm_ms), "ms", per_pass);
  out.add("verdict_ms_p99", median(warm_ms), "ms", per_pass);
  out.add("peak_rss_mb", peak_rss_mb(), "MB", "whole run");
  quality.emit(out);
  add_nonempty(out, empty, "proxy audits");
}

void run_serve(const Workload& w, std::uint64_t seed, double seconds,
               Result& out) {
  const int threads = worker_threads();
  std::vector<double> setup_s, boot_pps, reaudit_pps, round_ms;
  std::uint64_t empty = 0;
  QualityLedger quality(w);
  std::vector<std::optional<serve::ServiceStats>> stats(w.testbeds);
  run_sweeps(w, seconds, [&](int k, bool timed) {
    const std::uint64_t s = sub_seed(seed, k);
    const auto u0 = Clock::now();
    measure::Testbed bed(testbed_config(s));
    const world::Fleet fleet = make_fleet(bed.world(), s);
    const auto liars = attach_liars(bed, w, s);
    serve::AuditService svc(bed, service_config(w, s, threads));
    svc.admit(fleet);
    const auto tb = Clock::now();
    svc.bootstrap();
    const double boot_s = seconds_since(tb);
    const double setup = seconds_since(u0);

    std::vector<double> walls;
    walls.reserve(kServeRounds);
    const std::uint64_t solves0 = svc.stats().solves;
    for (std::uint64_t r = 0; r < kServeRounds; ++r) {
      const auto t0 = Clock::now();
      svc.run_round();
      walls.push_back(seconds_since(t0));
      if (svc.pending() != 0)
        throw CheckFailed("pending solves left after round " +
                          std::to_string(r + 1));
      const auto epoch = static_cast<std::int64_t>(svc.epoch());
      svc.pool().for_each([&](const serve::ProxyEntry& e) {
        if (e.last_solve_epoch != epoch || !e.state) return;
        ++out.attempted;
        empty += e.state->row.empty_prediction || e.state->row.region.empty();
      });
    }
    const serve::ServiceStats& st = svc.stats();
    if (st.rounds != kServeRounds || svc.epoch() != kServeRounds)
      throw CheckFailed("service ran " + std::to_string(st.rounds) +
                        " rounds, expected " + std::to_string(kServeRounds));

    const serve::ServiceReport rep = svc.report();
    quality.record(k, score(rep.rows, fleet, rep.suspicious_landmarks, liars),
                   fleet.hosts.size());
    std::optional<serve::ServiceStats>& seen = stats[k];
    if (!seen)
      seen = st;
    else if (!same_stats(*seen, st))
      throw CheckFailed("testbed " + std::to_string(k) +
                        ": a repeated unit's service counters differ");
    if (!timed) return;
    setup_s.push_back(setup);
    boot_pps.push_back(static_cast<double>(fleet.hosts.size()) / boot_s);
    double window_s = 0.0;
    for (double wall : walls) {
      window_s += wall;
      // No backlog: the verdict of every pick is ready when its round
      // returns, so the round wall is each pick's verdict latency.
      round_ms.push_back(1e3 * wall);
    }
    reaudit_pps.push_back(static_cast<double>(st.solves - solves0) /
                          window_s);
  });

  out.add("setup_s", median(setup_s), "s",
          spread_note(setup_s, "units incl. bootstrap"));
  out.add("audit_proxies_per_s", median(boot_pps), "1/s",
          spread_note(boot_pps, "bootstraps"));
  out.add("reaudit_proxies_per_s", median(reaudit_pps), "1/s",
          spread_note(reaudit_pps, "round windows"));
  out.add_percentile("verdict_ms_p50", round_ms, 0.50, "ms");
  out.add_percentile("verdict_ms_p99", round_ms, 0.99, "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB", "whole run");
  quality.emit(out);
  add_nonempty(out, empty, "re-audits");
}

}  // namespace

void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                    Result& out) {
  if (w.serve)
    run_serve(w, seed, seconds, out);
  else
    run_batch(w, seed, seconds, out);
}

}  // namespace ageo::perfbench
