// The traced run: the workload once untraced at its thread count (the
// reference report and wall time), then again serially from one thread,
// calling each layer's public entry points itself and timing every call.
// Spans stay in memory until the end; the library itself is not
// instrumented (telemetry stays off).
#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <tuple>

#include "algos/geolocator.hpp"
#include "algos/iclab.hpp"
#include "assess/claim.hpp"
#include "common/rng.hpp"
#include "geo/geodesy.hpp"
#include "grid/cap_cache.hpp"
#include "measure/campaign.hpp"
#include "measure/drift.hpp"
#include "measure/proxy_measure.hpp"
#include "measure/two_phase.hpp"
#include "mlat/byzantine.hpp"
#include "mlat/refine.hpp"
#include "netsim/proxy.hpp"
#include "serve/snapshot.hpp"

namespace ageo::perfbench {

namespace {

/// Records one span per timed call. A span opened inside another only
/// refines it; unattributed time is what no top-level span covers.
class Tracer {
 public:
  struct Span {
    std::string_view name;
    double us;
    int depth;
  };

  template <typename F>
  decltype(auto) time(std::string_view name, F&& f) {
    struct Close {
      Tracer* t;
      std::string_view name;
      Clock::time_point t0;
      ~Close() {
        --t->depth_;
        t->spans_.push_back(
            {name,
             std::chrono::duration<double, std::micro>(Clock::now() - t0)
                 .count(),
             t->depth_});
      }
    } close{this, name, Clock::now()};
    ++depth_;
    return f();
  }

  std::vector<double> samples_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.us);
    return out;
  }
  double total_ms(std::string_view name) const {
    double us = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) us += s.us;
    return us / 1e3;
  }
  double top_level_s() const {
    double us = 0.0;
    for (const Span& s : spans_)
      if (s.depth == 0) us += s.us;
    return us / 1e6;
  }

  /// Per-name call count, total ms and share of `wall_s`.
  void print_summary(double wall_s) const {
    std::map<std::string_view, std::pair<std::size_t, double>> by_name;
    for (const Span& s : spans_) {
      auto& [calls, us] = by_name[s.name];
      ++calls;
      us += s.us;
    }
    for (const auto& [name, v] : by_name)
      std::printf("span %-28.*s calls %8zu  total_ms %12.3f  share %6.2f%%\n",
                  static_cast<int>(name.size()), name.data(), v.first,
                  v.second / 1e3, 100.0 * v.second / 1e6 / wall_s);
  }

 private:
  std::vector<Span> spans_;
  int depth_ = 0;
};

/// Every per-layer figure; layers a workload never calls keep their zero
/// defaults and empty samples.
struct Layers {
  double testbed_ms = 0, fleet_ms = 0, auditor_init_ms = 0,
         warm_countries_ms = 0;
  std::vector<double> claim_us;
  double eta_ms = 0;
  std::vector<double> campaign_us;
  double probes_per_proxy = 0, probe_ok_frac = 0, retries_per_proxy = 0;
  std::vector<double> locate_cold_us, locate_warm_us, update_us,
      memo_resolve_us;
  double locate_batch_cold_ms = 0, locate_batch_warm_ms = 0;
  std::size_t batch_blocks = 0;
  double plan_build_ms = 0, distance_table_ms = 0, plan_cache_hit_frac = 0,
         plan_cache_misses = 0, plan_cache_evictions = 0;
  double fastpath_miss_frac = 0, constraints_per_solve = 0;
  std::vector<double> rank_us;
  double solves = 0, incremental_frac = 0, full_resolves = 0,
         memo_fallbacks = 0, probe_fail_frac = 0, reconnects = 0,
         verdict_changes = 0, pending_max = 0, snapshot_ms = 0,
         snapshot_bytes = 0;
  double wall_s = 0, unattributed_frac = 0, serial_speedup = 0;
  /// Rows checked against the untraced run.
  std::uint64_t rows = 0;
};

void emit(const Layers& l, Result& out) {
  const std::string traced = "serial, one thread";
  out.add("calib.testbed_ms", l.testbed_ms, "ms", traced);
  out.add("world.fleet_ms", l.fleet_ms, "ms", traced);
  out.add("assess.auditor_init_ms", l.auditor_init_ms, "ms", traced);
  out.add("assess.warm_countries_ms", l.warm_countries_ms, "ms", traced);
  out.add_percentile("assess.claim_us_p50", l.claim_us, 0.50, "us");
  out.add_percentile("assess.claim_us_p99", l.claim_us, 0.99, "us");
  out.add("measure.eta_ms", l.eta_ms, "ms",
          "0 when the workload never calls it");
  out.add_percentile("measure.campaign_us_p50", l.campaign_us, 0.50, "us");
  out.add_percentile("measure.campaign_us_p99", l.campaign_us, 0.99, "us");
  out.add("measure.probes_per_proxy", l.probes_per_proxy, "count",
          "probes sent per campaign");
  out.add("measure.probe_ok_frac", l.probe_ok_frac, "ratio",
          "of probes sent");
  out.add("measure.retries_per_proxy", l.retries_per_proxy, "count",
          "per campaign");
  out.add_percentile("algos.locate_cold_us_p50", l.locate_cold_us, 0.50,
                     "us");
  out.add_percentile("algos.locate_cold_us_p99", l.locate_cold_us, 0.99,
                     "us");
  out.add_percentile("algos.locate_warm_us_p50", l.locate_warm_us, 0.50,
                     "us");
  out.add_percentile("algos.locate_warm_us_p99", l.locate_warm_us, 0.99,
                     "us");
  const std::string blocks =
      l.batch_blocks
          ? "serial total over " + std::to_string(l.batch_blocks) +
                " locate_batch blocks, as Auditor::run calls it"
          : "n=0: the workload never calls locate_batch";
  out.add("algos.locate_batch_cold_ms", l.locate_batch_cold_ms, "ms", blocks);
  out.add("algos.locate_batch_warm_ms", l.locate_batch_warm_ms, "ms", blocks);
  out.add_percentile("algos.update_us_p50", l.update_us, 0.50, "us");
  out.add_percentile("algos.update_us_p99", l.update_us, 0.99, "us");
  out.add_percentile("algos.memo_resolve_us_p50", l.memo_resolve_us, 0.50,
                     "us");
  out.add("grid.plan_build_ms", l.plan_build_ms, "ms",
          "one plan per landmark on the audit grid");
  out.add("grid.distance_table_ms", l.distance_table_ms, "ms",
          "0 when the algorithm builds none");
  out.add("grid.plan_cache_hit_frac", l.plan_cache_hit_frac, "ratio",
          "over the traced locates");
  out.add("grid.plan_cache_misses", l.plan_cache_misses, "count", "");
  out.add("grid.plan_cache_evictions", l.plan_cache_evictions, "count", "");
  out.add("mlat.fastpath_miss_frac", l.fastpath_miss_frac, "ratio",
          "solves with constraints_used < constraints_total");
  out.add("mlat.constraints_per_solve", l.constraints_per_solve, "count",
          "");
  out.add_percentile("serve.rank_us_p50", l.rank_us, 0.50, "us");
  out.add("serve.solves", l.solves, "count", "");
  out.add("serve.incremental_frac", l.incremental_frac, "ratio",
          "of solves");
  out.add("serve.full_resolves", l.full_resolves, "count", "");
  out.add("serve.memo_fallbacks", l.memo_fallbacks, "count", "");
  out.add("serve.probe_fail_frac", l.probe_fail_frac, "ratio",
          "of round probes");
  out.add("serve.reconnects", l.reconnects, "count", "");
  out.add("serve.verdict_changes", l.verdict_changes, "count", "");
  out.add("serve.pending_max", l.pending_max, "count", "after any round");
  out.add("serve.snapshot_ms", l.snapshot_ms, "ms", "snapshot + text");
  out.add("serve.snapshot_bytes", l.snapshot_bytes, "bytes", "");
  out.add("traced.wall_s", l.wall_s, "s", traced);
  out.add("traced.unattributed_frac", l.unattributed_frac, "ratio",
          "of traced.wall_s");
  out.add("traced.serial_speedup", l.serial_speedup, "x",
          "traced serial wall / untraced wall");
}

// ---- row comparison ----

bool same_bits(const grid::Region& a, const grid::Region& b) {
  if (a.count() != b.count()) return false;
  bool same = true;
  a.for_each_cell([&](std::size_t idx) { same = same && b.test(idx); });
  return same;
}

bool same_observations(const std::vector<algos::Observation>& a,
                       const std::vector<algos::Observation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].landmark_id != b[i].landmark_id ||
        a[i].one_way_delay_ms != b[i].one_way_delay_ms)
      return false;
  return true;
}

void require_same_row(const assess::ProxyAuditRow& want,
                      const assess::ProxyAuditRow& got, std::size_t i) {
  const char* field = nullptr;
  if (!same_observations(want.observations, got.observations))
    field = "observations";
  else if (!same_bits(want.region, got.region))
    field = "region";
  else if (want.verdict_raw != got.verdict_raw ||
           want.verdict_dc != got.verdict_dc ||
           want.verdict_final != got.verdict_final ||
           want.continent_verdict != got.continent_verdict)
    field = "verdict";
  else if (want.constraints_total != got.constraints_total ||
           want.constraints_used != got.constraints_used ||
           want.landmark_used != got.landmark_used ||
           want.byzantine != got.byzantine)
    field = "constraints";
  else if (want.empty_prediction != got.empty_prediction ||
           want.area_km2 != got.area_km2 ||
           want.iclab_accepted != got.iclab_accepted)
    field = "assessment";
  if (field)
    throw CheckFailed("traced row " + std::to_string(i) + ": " + field +
                      " differs from the untraced run");
}

// ---- batch pipeline pieces the Auditor keeps private ----

/// The Auditor's per-proxy seed: audit seed xor the mixed host index.
std::uint64_t proxy_seed(std::uint64_t seed, std::size_t host_index) {
  return seed ^ ((static_cast<std::uint64_t>(host_index) + 1) *
                 0x9e3779b97f4a7c15ULL);
}

/// The Auditor's AS//24 join: hosts sharing provider + AS + /24 intersect
/// their candidate countries, resolving uncertain verdicts.
void apply_as_grouping(std::vector<assess::ProxyAuditRow>& rows,
                       const world::Fleet& fleet) {
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>,
           std::vector<std::size_t>>
      groups;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& h = fleet.hosts[rows[r].host_index];
    groups[{h.provider, h.asn, h.prefix24}].push_back(r);
  }
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    std::vector<world::CountryId> common;
    bool first = true;
    for (std::size_t r : members) {
      if (rows[r].empty_prediction) continue;
      const auto& cand = rows[r].candidates;
      if (first) {
        common = cand;
        first = false;
        continue;
      }
      std::vector<world::CountryId> next;
      for (world::CountryId c : common)
        if (std::find(cand.begin(), cand.end(), c) != cand.end())
          next.push_back(c);
      common = std::move(next);
      if (common.empty()) break;
    }
    if (first || common.empty()) continue;
    for (std::size_t r : members) {
      if (rows[r].empty_prediction) continue;
      if (rows[r].verdict_dc != assess::Verdict::kUncertain) continue;
      rows[r].candidates = common;
      if (std::find(common.begin(), common.end(), rows[r].claimed) ==
          common.end())
        rows[r].verdict_final = assess::Verdict::kFalse;
      else if (common.size() == 1)
        rows[r].verdict_final = assess::Verdict::kCredible;
    }
  }
}

/// Suspicion and drift folds over the rows, in host-index order; returns
/// the union of flagged landmarks, ascending.
std::vector<std::size_t> suspicious_landmarks(
    const measure::Testbed& bed, const assess::AuditConfig& cfg,
    const std::vector<assess::ProxyAuditRow>& rows) {
  mlat::SuspicionTable table;
  std::vector<std::size_t> ids;
  for (const auto& row : rows) {
    if (row.landmark_used.empty()) continue;
    ids.clear();
    for (const auto& ob : row.observations) ids.push_back(ob.landmark_id);
    table.record(ids, row.landmark_used);
  }
  std::vector<std::size_t> out =
      table.flagged(cfg.suspicion_min_score, cfg.suspicion_min_solves);
  measure::DriftWatchdog dog(bed.landmarks().size(), cfg.drift);
  for (const auto& row : rows) {
    if (!row.centroid) continue;
    for (const auto& ob : row.observations) {
      const calib::CbgModel& m = bed.store().cbg(ob.landmark_id);
      const double dist = geo::distance_km(ob.landmark, *row.centroid);
      dog.observe(ob.landmark_id,
                  ob.one_way_delay_ms -
                      (m.intercept_ms() + m.slope_ms_per_km() * dist));
    }
  }
  const auto drift = dog.flagged();
  out.insert(out.end(), drift.begin(), drift.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The Auditor's plan-cache auto-size: one slot per landmark and level.
std::size_t plan_cache_capacity(const measure::Testbed& bed,
                                const assess::AuditConfig& cfg) {
  return std::max<std::size_t>(
      512, bed.landmarks().size() * (1 + cfg.refine.levels.size()));
}

/// A locator wired the way the Auditor wires its own. The locator points
/// into the stack, so it neither copies nor moves.
struct LocatorStack {
  grid::CapPlanCache cache;
  std::unique_ptr<algos::Geolocator> locator;
  std::optional<mlat::RefineContext> refine;

  LocatorStack(const measure::Testbed& bed, const assess::AuditConfig& cfg,
               const grid::Grid& g, const grid::Region& mask)
      : cache(plan_cache_capacity(bed, cfg)),
        locator(assess::make_geolocator(cfg)) {
    locator->set_plan_cache(&cache);
    if (cfg.refine.enabled()) {
      refine.emplace(g, cfg.refine);
      refine->prepare_mask(mask);
      locator->set_refine(&*refine);
    }
  }
  LocatorStack(const LocatorStack&) = delete;
  LocatorStack& operator=(const LocatorStack&) = delete;
};

/// Claim assessment of one located row, as the Auditor runs it.
void assess_row(assess::ProxyAuditRow& row, const measure::Testbed& bed,
                const world::CountryRaster& raster,
                const algos::IclabChecker& iclab, assess::Auditor& auditor,
                const assess::AuditConfig& cfg) {
  const assess::ClaimAssessment base =
      assess::assess_claim(bed.world(), raster, row.region, row.claimed);
  row.verdict_raw = base.country;
  row.continent_verdict = base.continent;
  row.empty_prediction = base.empty_prediction || row.empty_prediction;
  row.candidates = base.covered_countries;
  if (cfg.use_data_centers) {
    const assess::Disambiguated d = assess::disambiguate_by_data_centers(
        bed.world(), row.region, row.claimed, base);
    row.verdict_dc = d.verdict;
    row.candidates = d.candidates;
  } else {
    row.verdict_dc = base.country;
  }
  row.verdict_final = row.verdict_dc;
  row.area_km2 = row.region.area_km2();
  row.centroid = row.region.centroid();
  if (row.centroid) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& ob : row.observations)
      best = std::min(best, geo::distance_km(ob.landmark, *row.centroid));
    row.nearest_landmark_km = best;
  }
  row.iclab_accepted =
      !row.observations.empty() &&
      iclab.accepts(row.observations,
                    auditor.country_landmark_km(row.claimed));
}

void fill_locate_figures(const std::vector<assess::ProxyAuditRow>& rows,
                         Layers& l) {
  std::size_t solves = 0, misses = 0, constraints = 0;
  for (const auto& row : rows) {
    if (row.constraints_total == 0) continue;
    ++solves;
    misses += row.constraints_used < row.constraints_total;
    constraints += row.constraints_total;
  }
  if (solves) {
    l.fastpath_miss_frac =
        static_cast<double>(misses) / static_cast<double>(solves);
    l.constraints_per_solve =
        static_cast<double>(constraints) / static_cast<double>(solves);
  }
}

/// Localization as Auditor::run does it: contiguous blocks of
/// cfg.locate_batch proxies (`ids`, host-index order) through the
/// locator's batched entry point, one span per block. Returns one
/// estimate per id.
std::vector<algos::GeoEstimate> locate_blocks(
    Tracer& tr, std::string_view span, const LocatorStack& stack,
    const measure::Testbed& bed, const assess::AuditConfig& cfg,
    const grid::Grid& g, const grid::Region& mask,
    const std::vector<assess::ProxyAuditRow>& rows,
    const std::vector<std::size_t>& ids) {
  std::vector<algos::GeoEstimate> ests(ids.size());
  const std::size_t bsz = std::max<std::size_t>(1, cfg.locate_batch);
  std::vector<algos::BatchLocateItem> items;
  for (std::size_t lo = 0; lo < ids.size(); lo += bsz) {
    const std::size_t hi = std::min(lo + bsz, ids.size());
    items.clear();
    for (std::size_t k = lo; k < hi; ++k)
      items.push_back({rows[ids[k]].observations, &ests[k]});
    tr.time(span, [&] {
      stack.locator->locate_batch(g, bed.store(), items, &mask);
    });
  }
  return ests;
}

/// Geolocator::locate one proxy at a time, cold and then warm on the
/// same locator; both must reproduce each row's region.
void locate_per_call(Tracer& tr, const LocatorStack& stack,
                     const measure::Testbed& bed, const grid::Grid& g,
                     const grid::Region& mask,
                     const std::vector<assess::ProxyAuditRow>& rows) {
  for (const char* span : {"algos.locate_cold", "algos.locate_warm"})
    for (const auto& row : rows) {
      if (row.observations.empty()) continue;
      const algos::GeoEstimate est = tr.time(span, [&] {
        return stack.locator->locate(g, bed.store(), row.observations, &mask);
      });
      tr.time("check.regions", [&] {
        if (!same_bits(est.region, row.region))
          throw CheckFailed(std::string(span) +
                            " region differs from the audit's");
      });
    }
}

/// One plan per landmark on the audit grid, built through a one-slot
/// cache so each call is a miss; Spotter also builds its distance table.
void time_plan_builds(Tracer& tr, const measure::Testbed& bed,
                      const grid::Grid& g, const assess::AuditConfig& cfg,
                      Layers& l) {
  grid::CapPlanCache one(1);
  const bool tables = cfg.algorithm != assess::AuditAlgorithm::kCbgPlusPlus;
  for (const auto& lm : bed.landmarks()) {
    const auto plan =
        tr.time("grid.plan_build", [&] { return one.plan(g, lm.location); });
    if (tables)
      tr.time("grid.distance_table", [&] { plan->cell_distances_km(); });
  }
  l.plan_build_ms = tr.total_ms("grid.plan_build");
  l.distance_table_ms = tr.total_ms("grid.distance_table");
}

void fill_cache_figures(const grid::CapPlanCache& cache, Layers& l) {
  const auto st = cache.stats();
  const double lookups = static_cast<double>(st.hits + st.misses);
  l.plan_cache_hit_frac = lookups > 0 ? st.hits / lookups : 0.0;
  l.plan_cache_misses = static_cast<double>(st.misses);
  l.plan_cache_evictions = static_cast<double>(st.evictions);
}

// ---- batch workloads ----

void traced_batch(const Workload& w, std::uint64_t seed, Layers& l) {
  // Untraced reference: the cold audit of the end-to-end run.
  assess::AuditReport ref;
  double ref_wall = 0.0;
  {
    measure::Testbed bed(testbed_config(seed));
    const world::Fleet fleet = make_fleet(bed.world(), seed);
    attach_liars(bed, w, seed);
    assess::Auditor auditor(bed, audit_config(w, seed, worker_threads()));
    const auto t0 = Clock::now();
    ref = auditor.run(fleet);
    ref_wall = seconds_since(t0);
  }

  Tracer tr;
  const auto start = Clock::now();
  const assess::AuditConfig cfg = audit_config(w, seed, 1);
  auto bed = tr.time("calib.testbed", [&] {
    return std::make_unique<measure::Testbed>(testbed_config(seed));
  });
  const world::Fleet fleet =
      tr.time("world.fleet", [&] { return make_fleet(bed->world(), seed); });
  tr.time("netsim.adversaries", [&] { attach_liars(*bed, w, seed); });
  auto auditor = tr.time("assess.auditor_init", [&] {
    return std::make_unique<assess::Auditor>(*bed, cfg);
  });
  const grid::Grid& g = auditor->grid();
  const grid::Region& mask = auditor->plausibility_mask();
  const world::CountryRaster raster = tr.time(
      "assess.country_raster", [&] { return bed->world().country_raster(g); });
  auto stack = tr.time("algos.locator_init", [&] {
    return std::make_unique<LocatorStack>(*bed, cfg, g, mask);
  });
  const algos::IclabChecker iclab(cfg.iclab);

  // The audit itself, phase by phase as Auditor::run orders it.
  const auto audit0 = Clock::now();
  const std::size_t n = fleet.hosts.size();
  std::vector<netsim::ProxySession> sessions;
  tr.time("netsim.register", [&] {
    netsim::HostProfile client;
    client.location = cfg.client_location;
    client.net_quality = 0.95;
    const netsim::HostId client_id = bed->add_host(client);
    sessions.reserve(n);
    for (const auto& h : fleet.hosts) {
      netsim::HostProfile p;
      p.location = h.true_location;
      p.net_quality = 0.8;
      p.icmp_responds = h.pingable;
      p.tcp_port80_open = true;
      p.filters_uncommon_ports = true;
      p.sends_time_exceeded = !h.drops_time_exceeded;
      const netsim::HostId id = bed->add_host(p);
      netsim::ProxyBehavior behavior;
      behavior.icmp_responds = h.pingable;
      behavior.gateway_pingable = h.gateway_pingable;
      behavior.drops_time_exceeded = h.drops_time_exceeded;
      sessions.emplace_back(bed->net(), client_id, id, behavior);
    }
  });
  const measure::EtaEstimate eta = tr.time("measure.eta", [&] {
    return measure::estimate_eta(sessions, cfg.eta_samples);
  });
  tr.time("assess.warm_countries", [&] {
    for (const auto& h : fleet.hosts) {
      auditor->country_region(h.claimed_country);
      auditor->country_landmark_km(h.claimed_country);
    }
  });
  std::vector<netsim::Lane> lanes;
  tr.time("netsim.lanes", [&] {
    lanes.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      lanes.push_back(bed->net().make_lane(proxy_seed(cfg.seed, i)));
  });

  std::vector<assess::ProxyAuditRow> rows(n);
  measure::CampaignStats totals;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& host = fleet.hosts[i];
    assess::ProxyAuditRow& row = rows[i];
    row.host_index = i;
    row.provider = host.provider;
    row.claimed = host.claimed_country;
    row.claimed_continent = bed->world().continent_of(host.claimed_country);
    row.true_country = host.true_country;
    measure::BreakerBoard board(cfg.campaign.breaker);
    tr.time("measure.campaign", [&] {
      sessions[i].set_lane(&lanes[i]);
      measure::ProxyProber prober(*bed, sessions[i], eta.eta,
                                  cfg.self_ping_samples);
      measure::CampaignEngine engine(prober.as_rich_probe_fn(), cfg.campaign,
                                     &board);
      engine.set_round_hook(
          [&bed, lane = &lanes[i]] { bed->net().advance_round(1, lane); });
      engine.attach_tunnel(prober);
      Rng rng(proxy_seed(cfg.seed, i), "audit");
      auto tp = measure::two_phase_measure(*bed, engine, rng, cfg.two_phase);
      row.observations = std::move(tp.observations);
      row.campaign = tp.stats;
      row.tunnel_flagged = engine.tunnel_flagged();
    });
    totals.merge(row.campaign);
  }

  std::vector<std::size_t> to_locate;
  for (auto& row : rows) {
    if (row.observations.empty()) {
      row.empty_prediction = true;
      row.region = grid::Region(g);
    } else {
      to_locate.push_back(row.host_index);
    }
  }
  auto blocks = locate_blocks(tr, "algos.locate_batch_cold", *stack,
                                    *bed, cfg, g, mask, rows, to_locate);
  for (std::size_t k = 0; k < to_locate.size(); ++k) {
    assess::ProxyAuditRow& row = rows[to_locate[k]];
    algos::GeoEstimate& est = blocks[k];
    row.region = std::move(est.region);
    row.constraints_total = est.constraints_total;
    row.constraints_used = est.constraints_used;
    row.landmark_used = std::move(est.used);
    row.byzantine = row.constraints_total >= cfg.byzantine_min_constraints &&
                    row.agreement() < cfg.byzantine_min_agreement;
  }
  for (auto& row : rows)
    tr.time("assess.claim",
            [&] { assess_row(row, *bed, raster, iclab, *auditor, cfg); });
  tr.time("assess.as_grouping", [&] { apply_as_grouping(rows, fleet); });
  const auto suspicious = tr.time("mlat.suspicion_fold", [&] {
    return suspicious_landmarks(*bed, cfg, rows);
  });
  const double audit_s = seconds_since(audit0);
  for (auto& s : sessions) s.set_lane(nullptr);

  tr.time("check.rows", [&] {
    if (ref.rows.size() != n) throw CheckFailed("untraced row count differs");
    for (std::size_t i = 0; i < n; ++i) require_same_row(ref.rows[i], rows[i], i);
    if (suspicious != ref.suspicious_landmarks)
      throw CheckFailed("traced suspicious landmarks differ");
  });

  // The same blocks again on the filled caches, then the per-call path
  // cold and warm on a fresh locator; the first locator goes first, so
  // two plan caches never coexist.
  const auto warm = locate_blocks(tr, "algos.locate_batch_warm", *stack,
                                  *bed, cfg, g, mask, rows, to_locate);
  tr.time("check.regions", [&] {
    for (std::size_t k = 0; k < to_locate.size(); ++k)
      if (!same_bits(warm[k].region, rows[to_locate[k]].region))
        throw CheckFailed("warm batched locate region differs from the cold one");
  });
  fill_cache_figures(stack->cache, l);
  tr.time("algos.locator_free", [&] { stack.reset(); });
  stack = tr.time("algos.locator_init", [&] {
    return std::make_unique<LocatorStack>(*bed, cfg, g, mask);
  });
  locate_per_call(tr, *stack, *bed, g, mask, rows);
  tr.time("algos.locator_free", [&] { stack.reset(); });
  time_plan_builds(tr, *bed, g, cfg, l);

  l.wall_s = seconds_since(start);
  l.testbed_ms = tr.total_ms("calib.testbed");
  l.fleet_ms = tr.total_ms("world.fleet");
  l.auditor_init_ms = tr.total_ms("assess.auditor_init");
  l.warm_countries_ms = tr.total_ms("assess.warm_countries");
  l.claim_us = tr.samples_us("assess.claim");
  l.eta_ms = tr.total_ms("measure.eta");
  l.campaign_us = tr.samples_us("measure.campaign");
  const double dn = static_cast<double>(n);
  l.probes_per_proxy = static_cast<double>(totals.probes_sent) / dn;
  l.probe_ok_frac = totals.probes_sent
                        ? static_cast<double>(totals.ok) /
                              static_cast<double>(totals.probes_sent)
                        : 0.0;
  l.retries_per_proxy = static_cast<double>(totals.retries) / dn;
  l.locate_cold_us = tr.samples_us("algos.locate_cold");
  l.locate_warm_us = tr.samples_us("algos.locate_warm");
  l.locate_batch_cold_ms = tr.total_ms("algos.locate_batch_cold");
  l.locate_batch_warm_ms = tr.total_ms("algos.locate_batch_warm");
  l.batch_blocks = tr.samples_us("algos.locate_batch_cold").size();
  fill_locate_figures(rows, l);
  l.rows = rows.size();
  l.unattributed_frac = 1.0 - tr.top_level_s() / l.wall_s;
  l.serial_speedup = audit_s / ref_wall;
  tr.print_summary(l.wall_s);
}

// ---- the streaming service ----

void traced_serve(const Workload& w, std::uint64_t seed, Layers& l) {
  // Untraced reference: bootstrap plus the round window at full threads.
  serve::ServiceReport ref;
  serve::ServiceStats ref_stats;
  double ref_wall = 0.0;
  {
    measure::Testbed bed(testbed_config(seed));
    const world::Fleet fleet = make_fleet(bed.world(), seed);
    attach_liars(bed, w, seed);
    serve::AuditService svc(bed, service_config(w, seed, worker_threads()));
    svc.admit(fleet);
    const auto t0 = Clock::now();
    svc.bootstrap();
    svc.run_rounds(kServeRounds);
    ref_wall = seconds_since(t0);
    ref = svc.report();
    ref_stats = svc.stats();
  }

  Tracer tr;
  const auto start = Clock::now();
  const serve::ServiceConfig cfg = service_config(w, seed, 1);
  auto bed = tr.time("calib.testbed", [&] {
    return std::make_unique<measure::Testbed>(testbed_config(seed));
  });
  const world::Fleet fleet =
      tr.time("world.fleet", [&] { return make_fleet(bed->world(), seed); });
  tr.time("netsim.adversaries", [&] { attach_liars(*bed, w, seed); });
  auto svc = tr.time("assess.auditor_init", [&] {
    return std::make_unique<serve::AuditService>(*bed, cfg);
  });
  tr.time("serve.admit", [&] { svc->admit(fleet); });
  tr.time("serve.bootstrap", [&] { svc->bootstrap(); });
  std::vector<std::size_t> boot_observations(fleet.hosts.size(), 0);
  svc->pool().for_each([&](const serve::ProxyEntry& e) {
    if (e.state) boot_observations[e.id] = e.state->observations.size();
  });
  std::size_t pending_max = 0;
  for (std::uint64_t r = 0; r < kServeRounds; ++r) {
    tr.time("serve.rank", [&] {
      return svc->pool().rank(cfg.weights, svc->epoch() + 1, cfg.round_quota,
                              false);
    });
    tr.time("serve.round", [&] { svc->run_round(); });
    pending_max = std::max(pending_max, svc->pending());
    if (svc->pending() != 0)
      throw CheckFailed("pending solves left after a traced round");
  }
  const double serial_s = (tr.total_ms("serve.bootstrap") +
                           tr.total_ms("serve.round")) /
                          1e3;
  const serve::ServiceReport rep =
      tr.time("serve.report", [&] { return svc->report(); });
  const std::string snap = tr.time("serve.snapshot", [&] {
    return serve::snapshot_to_text(svc->snapshot());
  });
  const serve::ServiceStats& st = svc->stats();

  tr.time("check.rows", [&] {
    if (rep.rows.size() != ref.rows.size())
      throw CheckFailed("traced service row count differs");
    for (std::size_t i = 0; i < rep.rows.size(); ++i)
      require_same_row(ref.rows[i], rep.rows[i], i);
    if (rep.suspicious_landmarks != ref.suspicious_landmarks)
      throw CheckFailed("traced suspicious landmarks differ");
    if (!same_stats(st, ref_stats))
      throw CheckFailed("traced service counters differ");
  });

  // Layers the service calls internally, driven directly on its final
  // rows: claim assessment, full locates (cold, then warm) and the memo
  // path replayed one observation at a time from the bootstrap prefix.
  const assess::AuditConfig& acfg = cfg.audit;
  auto auditor = tr.time("assess.auditor_replay_init", [&] {
    return std::make_unique<assess::Auditor>(*bed, acfg);
  });
  const grid::Grid& g = auditor->grid();
  const grid::Region& mask = auditor->plausibility_mask();
  const world::CountryRaster raster = tr.time(
      "assess.country_raster", [&] { return bed->world().country_raster(g); });
  auto stack = tr.time("algos.locator_init", [&] {
    return std::make_unique<LocatorStack>(*bed, acfg, g, mask);
  });
  const algos::Geolocator& loc = *stack->locator;
  const algos::IclabChecker iclab(acfg.iclab);
  tr.time("assess.warm_countries", [&] {
    for (const auto& h : fleet.hosts) {
      auditor->country_region(h.claimed_country);
      auditor->country_landmark_km(h.claimed_country);
    }
  });
  for (const auto& want : rep.rows) {
    if (want.observations.empty()) continue;
    assess::ProxyAuditRow row = want;
    algos::GeoEstimate est = tr.time("algos.locate_cold", [&] {
      return loc.locate(g, bed->store(), want.observations, &mask);
    });
    if (!same_bits(est.region, want.region))
      throw CheckFailed("replayed locate differs from the service's region");
    row.region = std::move(est.region);
    tr.time("assess.claim",
            [&] { assess_row(row, *bed, raster, iclab, *auditor, acfg); });
    if (row.verdict_dc != want.verdict_dc ||
        row.verdict_raw != want.verdict_raw)
      throw CheckFailed("replayed claim verdict differs from the service's");
  }
  for (const auto& want : rep.rows) {
    if (want.observations.empty()) continue;
    tr.time("algos.locate_warm", [&] {
      return loc.locate(g, bed->store(), want.observations, &mask);
    });
  }
  for (const auto& want : rep.rows) {
    const std::span<const algos::Observation> all(want.observations);
    if (all.empty()) continue;
    std::size_t k = std::max<std::size_t>(1, boot_observations[want.host_index]);
    k = std::min(k, all.size());
    algos::GeoEstimate est;
    auto memo = tr.time("algos.memo_resolve", [&] {
      return loc.locate_memo(g, bed->store(), all.first(k), &mask, est);
    });
    for (++k; k <= all.size(); ++k) {
      const bool ok = memo && tr.time("algos.update", [&] {
        return loc.locate_update(*memo, g, bed->store(), all.first(k), k - 1,
                                 &mask, est);
      });
      if (!ok)
        memo = tr.time("algos.memo_resolve", [&] {
          return loc.locate_memo(g, bed->store(), all.first(k), &mask, est);
        });
    }
    if (!same_bits(est.region, want.region))
      throw CheckFailed("memo replay region differs from the service's");
  }
  fill_cache_figures(stack->cache, l);
  time_plan_builds(tr, *bed, g, acfg, l);

  l.wall_s = seconds_since(start);
  l.testbed_ms = tr.total_ms("calib.testbed");
  l.fleet_ms = tr.total_ms("world.fleet");
  l.auditor_init_ms = tr.total_ms("assess.auditor_init");
  l.warm_countries_ms = tr.total_ms("assess.warm_countries");
  l.claim_us = tr.samples_us("assess.claim");
  l.locate_cold_us = tr.samples_us("algos.locate_cold");
  l.locate_warm_us = tr.samples_us("algos.locate_warm");
  l.update_us = tr.samples_us("algos.update");
  l.memo_resolve_us = tr.samples_us("algos.memo_resolve");
  fill_locate_figures(rep.rows, l);
  l.rows = rep.rows.size();
  l.rank_us = tr.samples_us("serve.rank");
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  l.solves = static_cast<double>(st.solves);
  l.incremental_frac = frac(st.incremental_updates, st.solves);
  l.full_resolves = static_cast<double>(st.full_resolves);
  l.memo_fallbacks = static_cast<double>(st.memo_fallbacks);
  l.probe_fail_frac = frac(st.probe_failures, st.probes);
  l.reconnects = static_cast<double>(st.reconnects);
  l.verdict_changes = static_cast<double>(st.verdict_changes);
  l.pending_max = static_cast<double>(pending_max);
  l.snapshot_ms = tr.total_ms("serve.snapshot");
  l.snapshot_bytes = static_cast<double>(snap.size());
  l.unattributed_frac = 1.0 - tr.top_level_s() / l.wall_s;
  l.serial_speedup = serial_s / ref_wall;
  tr.print_summary(l.wall_s);
}

}  // namespace

void run_traced(const Workload& w, std::uint64_t seed, Result& out) {
  Layers l;
  if (w.serve)
    traced_serve(w, seed, l);
  else
    traced_batch(w, seed, l);
  out.attempted = l.rows;
  emit(l, out);
}

}  // namespace ageo::perfbench
