// distributed_udg: the paper's model. Each operation runs Algorithm 1 then
// Algorithm 2 as per-node processes on sim::SyncNetwork (wired the way
// algo/pipeline.cpp wires them, plus an engine width), then Algorithm 3's
// processes on a distance-sensing network. Building the networks is part
// of the operation. Both sets must equal the centralized mirrors' sets for
// the same seed, bit for bit.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "alloc_hooks.h"
#include "bench.h"
#include "obs/plane.h"
#include "sim/network.h"

namespace ftc::perfbench {

namespace {

using graph::NodeId;

/// Per-operation engine totals, identical for every operation of a run.
struct Costs {
  std::int64_t messages = 0;
  std::int64_t words = 0;
  std::int64_t rounds = 0;
  std::int64_t max_message_words = 0;
  std::uint64_t run_allocs = 0;

  void add(const sim::Metrics& m) {
    messages += m.messages_sent;
    words += m.words_sent;
    rounds += m.rounds;
    max_message_words = std::max(max_message_words, m.max_message_words);
  }
};

struct Distributed {
  const Config& cfg;
  const Deployment& d;
  Tracer& tracer;
  obs::Plane* plane = nullptr;  ///< attached to the networks of traced ops
  std::vector<double> x;
  Costs costs;

  void build(std::optional<sim::SyncNetwork>& net, bool geometric) {
    if (geometric) {
      net.emplace(d.udg, cfg.seed);
    } else {
      net.emplace(d.udg.graph, cfg.seed);
    }
    net->set_threads(cfg.threads);
    if (plane != nullptr) net->set_observability(plane);
  }

  std::int64_t run(sim::SyncNetwork& net, std::int64_t max_rounds) {
    const std::uint64_t before = bench::alloc_counts().count;
    const std::int64_t rounds = net.run(max_rounds);
    costs.run_allocs += bench::alloc_counts().count - before;
    costs.add(net.metrics());
    return rounds;
  }

  void teardown(std::optional<sim::SyncNetwork>& net) {
    auto span = tracer.span("sim.network.teardown");
    net.reset();
  }

  /// One operation: Alg 1 -> Alg 2 processes, then Alg 3 processes.
  void op(std::vector<NodeId>& lp_set, std::vector<NodeId>& alg3_set) {
    const NodeId n = d.udg.n();
    costs = Costs{};
    lp_set.clear();
    alg3_set.clear();
    std::optional<sim::SyncNetwork> net;

    {
      auto span = tracer.span("sim.network.setup");
      build(net, false);
      net->set_all_processes([&](NodeId v) {
        return std::make_unique<algo::LpKmdsProcess>(
            d.demands[static_cast<std::size_t>(v)], cfg.t);
      });
    }
    {
      auto span = tracer.span("sim.network.lp_run");
      run(*net, algo::lp_round_count(cfg.t) + 8);
    }
    {
      auto span = tracer.span("sim.network.readback");
      x.resize(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        x[static_cast<std::size_t>(v)] =
            net->process_as<algo::LpKmdsProcess>(v).x();
      }
    }
    teardown(net);

    {
      auto span = tracer.span("sim.network.setup");
      build(net, false);
      net->set_all_processes([&](NodeId v) {
        const auto i = static_cast<std::size_t>(v);
        return std::make_unique<algo::RoundingProcess>(x[i], d.demands[i]);
      });
    }
    {
      auto span = tracer.span("sim.network.rounding_run");
      run(*net, 8);
    }
    {
      auto span = tracer.span("sim.network.readback");
      for (NodeId v = 0; v < n; ++v) {
        if (net->process_as<algo::RoundingProcess>(v).in_set()) {
          lp_set.push_back(v);
        }
      }
    }
    teardown(net);

    {
      auto span = tracer.span("sim.network.setup");
      build(net, true);
      net->set_all_processes([&](NodeId) {
        return std::make_unique<algo::UdgKmdsProcess>(cfg.k);
      });
    }
    {
      auto span = tracer.span("sim.network.alg3_run");
      run(*net, 2 * algo::udg_part1_rounds(n) + 3 * (std::int64_t{n} + 3));
    }
    {
      auto span = tracer.span("sim.network.readback");
      for (NodeId v = 0; v < n; ++v) {
        if (net->process_as<algo::UdgKmdsProcess>(v).leader()) {
          alg3_set.push_back(v);
        }
      }
    }
    teardown(net);
  }
};

}  // namespace

void run_distributed(const Config& cfg, Tracer& tracer, Report& report) {
  SetupTimer setups(cfg, tracer, report);
  const auto setup = [&] { return make_deployment(cfg, tracer); };
  const Deployment d = setups.time(setup);
  const graph::Graph& g = d.udg.graph;

  // The mirrors' sets for the same seed: what every distributed run must
  // reproduce exactly. Computed once, outside set-up and operation time.
  algo::LpOptions lp_options;
  lp_options.t = cfg.t;
  const std::vector<NodeId> lp_ref =
      algo::round_fractional(
          g, algo::solve_fractional_kmds(g, d.demands, lp_options).primal,
          d.demands, cfg.seed)
          .set;
  algo::UdgOptions udg_options;
  udg_options.k = cfg.k;
  const std::vector<NodeId> alg3_ref =
      algo::solve_udg_kmds(d.udg, udg_options, cfg.seed).leaders;
  if (!domination::is_k_dominating(g, lp_ref, d.demands) ||
      !domination::is_k_dominating(g, alg3_ref, d.demands,
                                   domination::Mode::kOpenForNonMembers)) {
    ++report.attempted;
    report.fail("mirror reference set is not k-dominating");
    return;
  }

  obs::PlaneOptions plane_options;
  plane_options.perf = true;
  plane_options.trace.category_mask = 0;  // engine timing only, no events
  obs::Plane plane(plane_options);

  Distributed dist{cfg, d, tracer, nullptr, {}, {}};
  ReferenceSweep sweep(g, ReferenceSweep::kPassesLarge, cfg.threads);
  std::vector<NodeId> lp_set;
  std::vector<NodeId> alg3_set;
  std::uint64_t allocs = 0;
  std::int64_t op_rounds = 0;
  const double start = now_s();
  setups.start(start);
  for (int i = 0; i < 2 || now_s() - start < cfg.seconds; ++i) {
    if (setups.due(now_s())) setups.time(setup);
    // Traced runs alternate traced and untraced operations; only traced
    // operations attach the perf plane.
    const bool traced = cfg.trace && i % 2 == 0;
    tracer.set_enabled(traced);
    dist.plane = traced ? &plane : nullptr;
    const double sweep_s = traced ? 0.0 : sweep.run();
    ++report.attempted;
    const double t0 = now_s();
    {
      auto op = tracer.span(kOpSpan);
      dist.op(lp_set, alg3_set);
    }
    const double dt = now_s() - t0;
    report.note_peak_rss();
    const bool ok = lp_set == lp_ref && alg3_set == alg3_ref;
    if (!ok) {
      report.fail("distributed set differs from the mirror's set");
      continue;
    }
    report.add(traced ? "traced.op_s" : "op_s", dt);
    if (!traced) {  // the perf plane allocates per round; count plain runs
      report.add("chunk_s", dt);
      report.add("sweep_s", sweep_s);
      allocs += dist.costs.run_allocs;
      op_rounds += dist.costs.rounds;
    }
  }
  tracer.set_enabled(false);
  while (setups.owed()) setups.time(setup);

  const Costs& c = dist.costs;
  const double n = cfg.n;
  report.values["chunk_work"] = 2.0 * n;  // nodes clustered per op
  report.values["dist_rounds"] = static_cast<double>(c.rounds);
  report.values["dist_words_per_node"] = static_cast<double>(c.words) / n;
  report.values["lp_set_per_node"] = static_cast<double>(lp_ref.size()) / n;
  report.values["alg3_set_per_node"] =
      static_cast<double>(alg3_ref.size()) / n;
  // Product of the per-algorithm ratios, as on oneshot_udg.
  report.values["set_per_node"] = report.values["lp_set_per_node"] *
                                  report.values["alg3_set_per_node"];
  report.values["sim.network.messages"] = static_cast<double>(c.messages);
  report.values["sim.network.words"] = static_cast<double>(c.words);
  report.values["sim.network.max_message_words"] =
      static_cast<double>(c.max_message_words);
  if (op_rounds > 0) {
    report.values["sim.network.allocs_per_round"] =
        static_cast<double>(allocs) / static_cast<double>(op_rounds);
  }
  if (const obs::PerfPlane* perf = plane.perf();
      perf != nullptr && perf->total_ns() > 0) {
    const double total = static_cast<double>(perf->total_ns());
    const auto share = [&](obs::PerfPhase p) {
      return static_cast<double>(perf->phase_total_ns(p)) / total;
    };
    report.values["sim.engine.compute_share"] = share(obs::PerfPhase::kCompute);
    report.values["sim.engine.deliver_count_share"] =
        share(obs::PerfPhase::kDeliverCount);
    report.values["sim.engine.deliver_place_share"] =
        share(obs::PerfPhase::kDeliverPlace);
    report.values["sim.engine.barrier_wait_share"] =
        share(obs::PerfPhase::kBarrierWait);
    report.values["sim.engine.claim_stall_share"] =
        share(obs::PerfPhase::kClaimStall);
    report.values["sim.engine.imbalance_max"] = perf->max_imbalance();
  }
}

}  // namespace ftc::perfbench
