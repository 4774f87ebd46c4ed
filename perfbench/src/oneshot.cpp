// oneshot_udg: what ftclust_cli does, one algorithm per operation. The
// three algorithms run round-robin on one thread over the same deployment,
// so they all see the same host conditions: Algorithm 1's mirror followed
// by Algorithm 2 ("pipeline"), Algorithm 3's mirror ("alg3"), and the
// greedy baseline. Every result is verified before its time is kept.
#include <array>
#include <string>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "algo/udg/udg_kmds.h"
#include "alloc_hooks.h"
#include "bench.h"
#include "domination/kernels.h"

namespace ftc::perfbench {

namespace {

using domination::Mode;
using graph::NodeId;

enum Algorithm { kPipeline = 0, kAlg3 = 1, kGreedy = 2 };
constexpr std::array<const char*, 3> kNames = {"pipeline", "alg3", "greedy"};

struct OneShot {
  const Config& cfg;
  const Deployment& d;
  Tracer& tracer;
  Report& report;
  domination::CoverageScratch scratch;
  std::array<std::vector<NodeId>, 3> first_sets;
  std::uint64_t lp_allocs = 0;

  /// Runs one algorithm and verifies its set; returns the set, or fails
  /// the operation and returns nothing.
  bool run(Algorithm a, std::vector<NodeId>& set) {
    const graph::Graph& g = d.udg.graph;
    auto op = tracer.span(kOpSpan);
    bool ok = true;
    if (a == kPipeline) {
      algo::LpOptions options;
      options.t = cfg.t;
      algo::LpResult lp;
      {
        auto span = tracer.span("algo.lp.solve");
        const std::uint64_t before = bench::alloc_counts().count;
        lp = algo::solve_fractional_kmds(g, d.demands, options);
        lp_allocs = bench::alloc_counts().count - before;
      }
      {
        auto span = tracer.span("algo.rounding.round");
        set = algo::round_fractional(g, lp.primal, d.demands, cfg.seed).set;
      }
      auto span = tracer.span("domination.verify_dense");
      ok = domination::is_k_dominating(g, set, d.demands,
                                       Mode::kClosedNeighborhood, scratch);
    } else if (a == kAlg3) {
      algo::UdgOptions options;
      options.k = cfg.k;
      algo::UdgResult r;
      {
        auto span = tracer.span("algo.udg.solve");
        r = algo::solve_udg_kmds(d.udg, options, cfg.seed);
      }
      set = std::move(r.leaders);
      auto span = tracer.span("domination.verify_open");
      ok = r.fully_satisfied &&
           domination::is_k_dominating(g, set, d.demands,
                                       Mode::kOpenForNonMembers, scratch);
    } else {
      algo::GreedyResult r;
      {
        auto span = tracer.span("algo.baseline.greedy");
        r = algo::greedy_kmds(g, d.demands);
      }
      set = std::move(r.set);
      auto span = tracer.span("domination.verify_sparse");
      ok = r.fully_satisfied &&
           domination::is_k_dominating(g, set, d.demands,
                                       Mode::kClosedNeighborhood, scratch);
    }
    if (!ok) {
      report.fail(std::string(kNames[a]) + ": set is not k-dominating");
      return false;
    }
    if (first_sets[a].empty()) {
      first_sets[a] = set;
    } else if (set != first_sets[a]) {
      report.fail(std::string(kNames[a]) + ": set differs between runs");
      return false;
    }
    return true;
  }
};

}  // namespace

void run_oneshot(const Config& cfg, Tracer& tracer, Report& report) {
  SetupTimer setups(cfg, tracer, report);
  const auto setup = [&] { return make_deployment(cfg, tracer); };
  const Deployment d = setups.time(setup);

  OneShot one{cfg, d, tracer, report, {}, {}, 0};
  ReferenceSweep sweep(d.udg.graph, ReferenceSweep::kPassesSmall);
  std::vector<NodeId> set;
  const double start = now_s();
  setups.start(start);
  // Whole rounds only, at least two so a traced run has an untraced round
  // to measure its overhead against.
  for (int round = 0; round < 2 || now_s() - start < cfg.seconds; ++round) {
    if (setups.due(now_s())) setups.time(setup);
    // Traced runs alternate traced and untraced rounds.
    const bool traced = cfg.trace && round % 2 == 0;
    tracer.set_enabled(traced);
    const std::string prefix = traced ? "traced." : "";
    const double sweep_s = traced ? 0.0 : sweep.run();
    double round_s = 0.0;
    bool round_ok = true;
    for (const Algorithm a : {kPipeline, kAlg3, kGreedy}) {
      ++report.attempted;
      const double t0 = now_s();
      const bool ok = one.run(a, set);
      const double dt = now_s() - t0;
      round_ok = round_ok && ok;
      if (ok) report.add(prefix + kNames[a] + "_s", dt);
      round_s += dt;
    }
    if (round_ok) {
      report.add(prefix + "op_s", round_s);
      if (!traced) {
        report.add("chunk_s", round_s);
        report.add("sweep_s", sweep_s);
      }
    }
    report.note_peak_rss();
  }
  tracer.set_enabled(false);
  while (setups.owed()) setups.time(setup);

  const double n = cfg.n;
  report.values["chunk_work"] = 3.0 * n;  // nodes clustered per round
  // The guardrail is the product of the per-algorithm ratios, so a change
  // in any one set moves it by the same share.
  double product = 1.0;
  for (const Algorithm a : {kPipeline, kAlg3, kGreedy}) {
    const double ratio = static_cast<double>(one.first_sets[a].size()) / n;
    report.values[std::string(a == kPipeline ? "lp" : kNames[a]) +
                  "_set_per_node"] = ratio;
    product *= ratio;
  }
  report.values["set_per_node"] = product;
  report.values["algo.lp.allocs"] = static_cast<double>(one.lp_allocs);
}

}  // namespace ftc::perfbench
