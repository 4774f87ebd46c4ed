// FLOOD — the one benchmark of the SyncNetwork round engine.
//
// Every distributed number in this repo rests on the synchronous round
// engine, so this bench prices it on the workload shape they all share: a
// broadcast flood over a random unit disk graph (every round, each node
// folds its inbox into its state and broadcasts two derived words).
//
// Grid: --sizes × --threads, every cell at the engine's shipped parallel
// grain (so the small-n sequential fallback is part of what is measured).
// Each cell runs these modes on the identical seeded workload:
//
//   * off     — no observability plane attached (every binary's default).
//   * perf    — plane attached with only the perf-attribution plane on; its
//               phase_attribution block says where the round time goes.
//   * metrics — plane attached, every trace category masked out    (1 thread)
//   * trace   — plane attached with full debug tracing             (1 thread)
//   * channel — a clean ChannelOptions{} installed, no plane       (1 thread)
//
// Within a cell the modes are interleaved per repeat (off, perf, ..., off,
// perf, ...), and each mode keeps its best-of-repeats time, so every ratio
// below compares runs taken side by side. Budgets:
//
//   * determinism: every run's state digest must equal the digest of the
//     first run at its n (the threads=1 'off' run on the default grid); a
//     mismatch exits nonzero whatever --gate says;
//   * perf    >= 0.95 × off, per (n, threads)   — "perf_within_budget";
//   * channel >= 0.95 × off, at threads = 1     — "channel_within_budget";
//   * off     >= 0.98 × the --reference file's off row of the same
//     (n, threads) — "within_budget", a warning only: a different host or
//     a loaded machine moves it without any code change.
//
// --sizes=1000,10000,100000,1000000  node counts
// --threads=1,2,4,8             engine widths (speedup is vs threads = 1)
// --degree=12                   target average UDG degree
// --rounds=0                    measured rounds per run (0 = auto:
//                               ~1M node-rounds, clamped to [1, 2000])
// --warmup=2                    unmeasured rounds before the clock starts
//                               (arenas and inboxes reach their high-water
//                               size, so allocs_per_round is steady state)
// --repeats=2                   timed runs per mode (best is kept)
// --reference=BENCH_flood.json  committed baseline ("" = skip)
// --gate=1                      exit nonzero when the perf or channel
//                               budget fails (0 for smoke runs)
// --json=BENCH_flood.json       machine-readable output ("" = none)
// --csv=path                    optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/channel.h"
#include "sim/message.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftc;
using graph::NodeId;
using sim::Word;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kNetSeed = 7;

/// The measured workload: every round, fold the inbox into local state and
/// broadcast two words derived from it. Runs for a fixed number of rounds,
/// so rounds/sec is a pure engine measurement.
class FloodProcess final : public sim::Process {
 public:
  explicit FloodProcess(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(sim::Context& ctx) override {
    std::int64_t acc = 0;
    for (const sim::Message& msg : ctx.inbox()) {
      acc += msg.words[0] + msg.from;
    }
    state_ ^= static_cast<std::uint64_t>(acc) + ctx.rng()();
    ctx.broadcast({static_cast<Word>(state_ & 0xFFFF),
                   static_cast<Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

  std::uint64_t state_ = 1;

 private:
  std::int64_t rounds_;
};

enum class Mode { kOff, kPerf, kMetrics, kTrace, kChannel };

const char* mode_name(Mode mode) {
  constexpr const char* kNames[] = {"off", "perf", "metrics", "trace",
                                    "channel"};
  return kNames[static_cast<int>(mode)];
}

std::unique_ptr<obs::Plane> plane_for(Mode mode) {
  obs::PlaneOptions options;
  switch (mode) {
    case Mode::kOff:
    case Mode::kChannel:
      return nullptr;
    case Mode::kMetrics:
      options.trace.category_mask = 0;  // registry only
      break;
    case Mode::kPerf:
      options.trace.category_mask = 0;  // perf attribution only
      options.perf = true;
      break;
    case Mode::kTrace:
      options.trace.min_severity = obs::Severity::kDebug;
      options.trace.category_mask = obs::kAllCategories;
      break;
  }
  auto plane = std::make_unique<obs::Plane>(options);
  if (plane->perf() != nullptr) {
    plane->perf()->set_alloc_source(
        +[]() -> std::uint64_t { return bench::alloc_counts().count; });
  }
  return plane;
}

struct Run {
  std::int64_t rounds = 0;    ///< measured (post-warmup) rounds
  std::int64_t messages = 0;  ///< sent during the measured rounds
  std::int64_t words = 0;
  double seconds = 0.0;
  double allocs_per_round = 0.0;
  std::uint64_t digest = 0;
  std::string phase_attribution;  ///< perf mode only
};

/// One fresh network, `warmup` unmeasured rounds, then `rounds` timed ones.
Run run_flood(const geom::UnitDiskGraph& udg, std::int64_t warmup,
              std::int64_t rounds, int threads, Mode mode) {
  const auto plane = plane_for(mode);
  sim::SyncNetwork net(udg, kNetSeed);
  net.set_threads(threads);
  if (plane != nullptr) net.set_observability(plane.get());
  if (mode == Mode::kChannel) net.set_channel(sim::ChannelOptions{});
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<FloodProcess>(warmup + rounds); });

  net.run(warmup);
  // Attribute the measured rounds only, like the clock below.
  if (plane != nullptr && plane->perf() != nullptr) plane->perf()->reset();
  const auto before = net.metrics();
  const std::uint64_t allocs_before = bench::alloc_counts().count;
  bench::WallClock clock;
  Run r;
  r.rounds = net.run(rounds + 1);  // to halt detection
  r.seconds = clock.seconds();
  r.allocs_per_round =
      static_cast<double>(bench::alloc_counts().count - allocs_before) /
      static_cast<double>(std::max<std::int64_t>(r.rounds, 1));
  r.messages = net.metrics().messages_sent - before.messages_sent;
  r.words = net.metrics().words_sent - before.words_sent;

  // FNV digest of every node state plus the run's message counters: equal
  // digests mean bitwise-equal executions.
  std::uint64_t h = 1469598103934665603ULL;
  for (NodeId v = 0; v < udg.n(); ++v) {
    h ^= net.process_as<FloodProcess>(v).state_;
    h *= 1099511628211ULL;
  }
  h ^= static_cast<std::uint64_t>(net.metrics().messages_sent);
  h *= 1099511628211ULL;
  h ^= static_cast<std::uint64_t>(net.metrics().words_sent);
  r.digest = h;
  if (mode == Mode::kPerf) {
    r.phase_attribution = bench::perf_attribution_json(*plane->perf());
  }
  return r;
}

/// rounds_per_sec of the off row for (n, threads) in a BENCH_flood.json,
/// 0 when absent. The file is machine-written one row per line, so plain
/// string scanning suffices.
double reference_rounds_per_sec(const std::string& path, NodeId n,
                                int threads) {
  std::ifstream in(path);
  std::string line;
  const std::string want_n = "{\"n\": " + std::to_string(n) + ",";
  const std::string want_t = "\"threads\": " + std::to_string(threads) + ",";
  while (std::getline(in, line)) {
    if (line.find(want_n) == std::string::npos ||
        line.find(want_t) == std::string::npos ||
        line.find("\"mode\": \"off\"") == std::string::npos) {
      continue;
    }
    const auto key = line.find("\"rounds_per_sec\": ");
    if (key != std::string::npos) return std::stod(line.substr(key + 18));
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto sizes =
      args.get_int_list("sizes", {1'000, 10'000, 100'000, 1'000'000});
  const auto widths = args.get_int_list("threads", {1, 2, 4, 8});
  const double degree = args.get_double("degree", 12.0);
  const auto rounds_arg = args.get_int("rounds", 0);
  const auto warmup = std::max<long long>(args.get_int("warmup", 2), 0);
  const int repeats =
      std::max(1, static_cast<int>(args.get_int("repeats", 2)));
  const std::string reference_path =
      args.get_string("reference", "BENCH_flood.json");
  const bool gate = args.get_int("gate", 1) != 0;
  const std::string json_path = args.get_string("json", "BENCH_flood.json");
  const int hw = util::ThreadPool::hardware_threads();

  bench::Output out({"n", "threads", "mode", "rounds", "msgs/sec",
                     "rounds/sec", "vs_off", "speedup", "allocs/rnd"},
                    args);
  std::vector<std::string> json_rows;
  bool deterministic = true;
  bool within_budget = true;
  bool perf_within_budget = true;
  bool channel_within_budget = true;

  for (const long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    const std::int64_t rounds =
        rounds_arg > 0
            ? rounds_arg
            : std::clamp<std::int64_t>(1'000'000 / std::max<NodeId>(n, 1), 1,
                                       2'000);
    util::Rng graph_rng(kGraphSeed);
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);

    std::uint64_t first_digest = 0;
    bool have_digest = false;
    double off_1t_rps = 0.0;
    for (const long long t_ll : widths) {
      const int threads = static_cast<int>(t_ll);
      std::vector<Mode> modes = {Mode::kOff, Mode::kPerf};
      if (threads == 1) {
        modes.insert(modes.end(),
                     {Mode::kMetrics, Mode::kTrace, Mode::kChannel});
      }
      std::vector<Run> best(modes.size());
      for (int rep = 0; rep < repeats; ++rep) {
        for (std::size_t i = 0; i < modes.size(); ++i) {
          Run r = run_flood(udg, warmup, rounds, threads, modes[i]);
          if (!have_digest) {
            first_digest = r.digest;
            have_digest = true;
          } else if (r.digest != first_digest) {
            std::cerr << "FATAL: digest diverged at n=" << n
                      << " threads=" << threads
                      << " mode=" << mode_name(modes[i])
                      << " (determinism contract violated)\n";
            deterministic = false;
          }
          if (rep == 0 || r.seconds < best[i].seconds) best[i] = std::move(r);
        }
      }

      const auto rps = [](const Run& r) {
        return static_cast<double>(r.rounds) / r.seconds;
      };
      const double off_rps = rps(best[0]);
      if (threads == 1) off_1t_rps = off_rps;
      const double ref_rps =
          reference_path.empty()
              ? 0.0
              : reference_rounds_per_sec(reference_path, n, threads);
      if (ref_rps > 0.0 && off_rps < 0.98 * ref_rps) within_budget = false;

      for (std::size_t i = 0; i < modes.size(); ++i) {
        const Run& r = best[i];
        const Mode mode = modes[i];
        const double vs_off = rps(r) / off_rps;
        if (mode == Mode::kPerf && vs_off < 0.95) perf_within_budget = false;
        if (mode == Mode::kChannel && vs_off < 0.95) {
          channel_within_budget = false;
        }
        const double speedup = off_1t_rps > 0.0 ? off_rps / off_1t_rps : 0.0;
        out.row({util::fmt(static_cast<long long>(n)), util::fmt(threads),
                 mode_name(mode), util::fmt(r.rounds),
                 util::fmt(static_cast<double>(r.messages) / r.seconds, 0),
                 util::fmt(rps(r), 2), util::fmt(vs_off, 3),
                 mode == Mode::kOff && speedup > 0.0 ? util::fmt(speedup, 2)
                                                     : std::string("-"),
                 util::fmt(r.allocs_per_round, 1)});

        std::string json = "    {";
        json += "\"n\": " + std::to_string(n);
        json += ", \"threads\": " + std::to_string(threads);
        json += ", \"mode\": \"" + std::string(mode_name(mode)) + "\"";
        json += ", \"rounds\": " + std::to_string(r.rounds);
        json += ", \"messages\": " + std::to_string(r.messages);
        json += ", \"seconds\": " + util::fmt(r.seconds, 6);
        json += ", \"rounds_per_sec\": " + util::fmt(rps(r), 3);
        json += ", \"messages_per_sec\": " +
                util::fmt(static_cast<double>(r.messages) / r.seconds, 1);
        json += ", \"words_per_sec\": " +
                util::fmt(static_cast<double>(r.words) / r.seconds, 1);
        json += ", \"peak_rss_mb\": " + util::fmt(bench::peak_rss_mb(), 1);
        json += ", \"allocs_per_round\": " + util::fmt(r.allocs_per_round, 2);
        if (mode == Mode::kOff) {
          if (speedup > 0.0) {
            // Normalized by the parallelism the machine can actually grant.
            json += ", \"speedup_vs_1t\": " + util::fmt(speedup, 3);
            json += ", \"efficiency\": " +
                    util::fmt(speedup / std::min(threads, std::max(hw, 1)), 3);
          }
          if (ref_rps > 0.0) {
            json += ", \"vs_reference\": " + util::fmt(off_rps / ref_rps, 4);
          }
        } else {
          json += ", \"vs_off\": " + util::fmt(vs_off, 4);
        }
        if (mode == Mode::kPerf) {
          json += ", \"phase_attribution\": " + r.phase_attribution;
        }
        json += "}";
        json_rows.push_back(std::move(json));
      }
      out.rule();
    }
  }

  out.print("FLOOD — round engine, threads x n x obs mode (avg degree " +
            util::fmt(degree, 1) + ", best of " + util::fmt(repeats) +
            ", hw threads " + util::fmt(hw) + ")");
  if (!within_budget) {
    std::cout << "WARNING: detached ('off') throughput fell below 98% of "
                 "the reference "
              << reference_path << "\n";
  }
  if (!perf_within_budget) {
    std::cout << "WARNING: perf-attribution mode fell below 95% of the "
                 "detached ('off') throughput\n";
  }
  if (!channel_within_budget) {
    std::cout << "WARNING: zero-loss channel mode fell below 95% of the "
                 "detached ('off') throughput\n";
  }

  if (!json_path.empty()) {
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"flood\",\n"
         << "  \"workload\": \"udg_flood_broadcast\",\n"
         << "  \"degree\": " << util::fmt(degree, 1) << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"warmup\": " << warmup << ",\n"
         << "  \"budget\": \"off >= 0.98 * reference (warning only)\",\n"
         << "  \"within_budget\": " << flag(within_budget) << ",\n"
         << "  \"perf_budget\": \"perf >= 0.95 * off\",\n"
         << "  \"perf_within_budget\": " << flag(perf_within_budget) << ",\n"
         << "  \"channel_budget\": \"channel >= 0.95 * off at threads=1\",\n"
         << "  \"channel_within_budget\": " << flag(channel_within_budget)
         << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      json << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  if (!deterministic) return 1;
  return gate && !(perf_within_budget && channel_within_budget) ? 1 : 0;
}
