// churn_udg: a long-lived deployment under live churn, driven as a closed
// loop by one client. A seeded stream of single-mutation batches (25% join,
// 35% leave, 40% move) passes through sim::DynamicWorld::apply and
// algo::IncrementalMaintainer::apply_batch. A pass replays the same fixed
// stream from the same start state, so every pass (and every run with the
// same seed) ends in the same state; a run repeats passes until its time is
// used. Every batch must leave the demands fully satisfied, and the full
// set is checked with is_k_dominating at fixed checkpoints.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "alloc_hooks.h"
#include "bench.h"
#include "sim/mutation.h"
#include "util/rng.h"

namespace ftc::perfbench {

namespace {

using graph::NodeId;

// Mutations per pass: n/5, so the stream's net 10% departures retire 2% of
// the nodes per pass.
constexpr graph::NodeId kPassShare = 5;
constexpr int kCheckpoints = 4;  ///< full coverage checks per pass
// Throughput is measured over chunks of this many consecutive batches.
constexpr int kChunkMutations = 1'000;

/// Effective demands on the live topology: active nodes demand
/// min(k, deg+1), inactive ones nothing (the maintainer's contract).
domination::Demands effective_demands(const sim::DynamicWorld& world,
                                      std::int32_t k) {
  domination::Demands d(static_cast<std::size_t>(world.n()), 0);
  for (NodeId v = 0; v < world.n(); ++v) {
    if (!world.active(v)) continue;
    const auto deg = static_cast<std::int32_t>(world.graph().degree(v));
    d[static_cast<std::size_t>(v)] = std::min(k, deg + 1);
  }
  return d;
}

/// The next mutation of the stream. Targets and anchors are active nodes,
/// so no mutation is a clamped no-op; join and move positions land within
/// one radius of the anchor, keeping the density as deployed.
sim::Mutation next_mutation(const sim::DynamicWorld& world, util::Rng& rng) {
  NodeId target = -1;
  do {
    target = static_cast<NodeId>(rng.index(static_cast<std::size_t>(world.n())));
  } while (!world.active(target));
  const geom::Point anchor =
      world.udg()->positions()[static_cast<std::size_t>(target)];
  sim::Mutation m;
  const double u = rng.uniform01();
  if (u < 0.25) {
    m.kind = sim::MutationKind::kJoin;
  } else if (u < 0.60) {
    m.kind = sim::MutationKind::kLeave;
    m.node = target;
    return m;
  } else {
    m.kind = sim::MutationKind::kMove;
    m.node = target;
  }
  m.x = anchor.x + rng.uniform(-1.0, 1.0);
  m.y = anchor.y + rng.uniform(-1.0, 1.0);
  return m;
}

/// What a churn set-up builds: the deployment, its initial greedy set, and
/// the world and maintainer that start from them.
struct ChurnSetup {
  Deployment d;
  std::vector<NodeId> initial;
  std::unique_ptr<sim::DynamicWorld> world;
  std::unique_ptr<algo::IncrementalMaintainer> maintainer;
};

ChurnSetup make_churn_setup(const Config& cfg, Tracer& tracer,
                            const algo::MaintainerOptions& options) {
  ChurnSetup s;
  s.d = make_deployment(cfg, tracer);
  s.initial = algo::greedy_kmds(s.d.udg.graph, s.d.demands).set;
  s.world = std::make_unique<sim::DynamicWorld>(s.d.udg);
  s.maintainer =
      std::make_unique<algo::IncrementalMaintainer>(cfg.n, s.initial, options);
  return s;
}

}  // namespace

void run_churn(const Config& cfg, Tracer& tracer, Report& report) {
  const algo::MaintainerOptions options{.k = cfg.k};
  SetupTimer setups(cfg, tracer, report);
  const auto setup = [&] { return make_churn_setup(cfg, tracer, options); };
  ChurnSetup live = setups.time(setup);
  const Deployment& d = live.d;
  const std::vector<NodeId>& initial = live.initial;
  std::unique_ptr<sim::DynamicWorld>& world = live.world;
  std::unique_ptr<algo::IncrementalMaintainer>& maintainer = live.maintainer;

  std::int64_t ball2 = 0;
  std::int64_t changed = 0;
  std::int64_t promoted = 0;
  std::int64_t counted = 0;
  std::int64_t untraced = 0;
  std::uint64_t apply_allocs = 0;
  std::uint64_t maintain_allocs = 0;
  std::int64_t end_members = -1;
  NodeId end_active = 0;
  ReferenceSweep sweep(d.udg.graph, ReferenceSweep::kPassesSmall);
  const int pass_mutations = cfg.n / kPassShare;
  const int checkpoint_every = pass_mutations / kCheckpoints;
  const double start = now_s();
  setups.start(start);
  for (int pass = 0; pass < 1 || now_s() - start < cfg.seconds; ++pass) {
    if (pass > 0) {  // restore the start state; not timed
      maintainer.reset();
      world.reset();
      world = std::make_unique<sim::DynamicWorld>(d.udg);
      maintainer = std::make_unique<algo::IncrementalMaintainer>(
          cfg.n, initial, options);
    }
    util::Rng stream(cfg.seed ^ 0x636875726eULL);
    double chunk_s = 0.0;
    double sweep_s = 0.0;
    int chunk_ok = 0;
    for (int i = 0; i < pass_mutations; ++i) {
      if (i % kChunkMutations == 0) {
        if (setups.due(now_s())) setups.time(setup);
        if (!cfg.trace) sweep_s = sweep.run();
      }
      const sim::Mutation m = next_mutation(*world, stream);
      // Traced runs alternate traced and untraced batches.
      const bool traced = cfg.trace && i % 2 == 0;
      tracer.set_enabled(traced);
      ++report.attempted;
      const std::uint64_t a0 = bench::alloc_counts().count;
      const double t0 = now_s();
      sim::AppliedMutation applied;
      std::uint64_t a1 = 0;
      algo::MaintainResult r;
      {
        auto op = tracer.span(kOpSpan);
        {
          auto span = tracer.span("sim.mutation.apply");
          applied = world->apply(m);
          a1 = bench::alloc_counts().count;
        }
        auto span = tracer.span("algo.extensions.maintain");
        r = maintainer->apply_batch(world->graph(), world->active_flags(),
                                    {&applied, 1});
      }
      const double dt = now_s() - t0;
      const std::uint64_t a2 = bench::alloc_counts().count;
      tracer.set_enabled(false);
      chunk_s += dt;
      const bool ok = applied.applied && r.fully_satisfied;
      if (!ok) {
        report.fail("batch left a coverage deficiency or was a no-op");
      } else {
        ++chunk_ok;
        report.add(traced ? "traced.op_s" : "op_s", dt);
        if (pass == 0) {
          ball2 += r.ball2;
          changed += static_cast<std::int64_t>(r.changed.size());
          promoted += r.promoted;
          ++counted;
          if (!traced) {
            ++untraced;
            apply_allocs += a1 - a0;
            maintain_allocs += a2 - a1;
          }
        }
      }
      if ((i + 1) % kChunkMutations == 0) {
        // Only chunks whose every batch passed give a throughput sample.
        if (chunk_ok == kChunkMutations && !cfg.trace) {
          report.add("chunk_s", chunk_s);
          report.add("sweep_s", sweep_s);
        }
        chunk_s = 0.0;
        chunk_ok = 0;
      }
      if ((i + 1) % checkpoint_every == 0 &&
          !domination::is_k_dominating(world->snapshot(),
                                       maintainer->member_set(),
                                       effective_demands(*world, cfg.k))) {
        report.fail("checkpoint: membership is not k-dominating");
      }
    }
    report.note_peak_rss();
    if (end_members < 0) {
      end_members = maintainer->members();
      end_active = world->active_count();
    } else if (maintainer->members() != end_members) {
      report.fail("pass ended in a different state");
    }
  }

  while (setups.owed()) setups.time(setup);

  const double muts = static_cast<double>(std::max<std::int64_t>(1, counted));
  report.values["chunk_work"] = kChunkMutations;
  report.values["members_per_node"] =
      static_cast<double>(end_members) / static_cast<double>(end_active);
  report.values["set_per_node"] = report.values["members_per_node"];
  report.values["algo.extensions.ball2_per_mut"] = static_cast<double>(ball2) / muts;
  report.values["algo.extensions.changed_per_mut"] =
      static_cast<double>(changed) / muts;
  report.values["algo.extensions.promoted_per_mut"] =
      static_cast<double>(promoted) / muts;
  const double plain = static_cast<double>(std::max<std::int64_t>(1, untraced));
  report.values["sim.mutation.allocs_per_mut"] =
      static_cast<double>(apply_allocs) / plain;
  report.values["algo.extensions.allocs_per_mut"] =
      static_cast<double>(maintain_allocs) / plain;
}

}  // namespace ftc::perfbench
