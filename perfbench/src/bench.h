// Shared pieces of the end-to-end benchmark binary (perfbench/README.md):
// the run configuration, the deployment every workload starts from, the
// span tracer used by traced runs, and the raw report ftc_perfbench prints
// for perfbench/run.py to reduce into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "domination/domination.h"
#include "geom/udg.h"

namespace ftc::perfbench {

/// One benchmark run: the command line plus the fixed deployment family.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< engine width W = min(4, hardware threads)
  // The deployment family every workload shares; n is per workload.
  graph::NodeId n = 0;
  double degree = 12.0;
  std::int32_t k = 2;
  int t = 3;
  int setup_reps = 9;  ///< set-ups per run; setup_s is their median
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process image so far, in KiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because Linux
/// carries it across exec, so it would report the launching python3's
/// peak whenever that is the larger.
[[nodiscard]] long peak_rss_kb();

/// Wall-clock spans recorded by the benchmark around each public call it
/// makes. A disabled tracer records nothing; spans nest, and a span's self
/// time is its duration minus the time of the spans opened inside it.
class Tracer {
 public:
  struct Totals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::int64_t calls = 0;
  };

  class Span {
   public:
    Span(Tracer* tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Opens a span that closes when the returned object is destroyed.
  [[nodiscard]] Span span(std::string_view name) {
    return Span(enabled_ ? this : nullptr, name);
  }
  [[nodiscard]] const std::map<std::string, Totals, std::less<>>& totals()
      const noexcept {
    return totals_;
  }

 private:
  struct Frame {
    Totals* totals;
    double start;
    double child_s;
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  std::map<std::string, Totals, std::less<>> totals_;
};

/// Name of the span each measured operation runs under. Its self time is
/// the part of an op no layer span covers.
inline constexpr std::string_view kOpSpan = "op";

/// Raw results of one run: sample series, scalar values and failure
/// accounting. Only operations that passed every check add samples.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;

  /// Records a failed check of the current operation.
  void fail(std::string why);
  void add(const std::string& name, double sample) {
    series[name].push_back(sample);
  }
  /// Records peak RSS once, after the first complete chunk of work, so it
  /// does not depend on how many chunks the run's time allowed.
  void note_peak_rss() {
    if (!values.contains("peak_rss_kb")) {
      values["peak_rss_kb"] = static_cast<double>(peak_rss_kb());
    }
  }
};

/// Times a workload's set-up Config::setup_reps times: once before the
/// work (the set-up the run then uses) and the rest spread evenly over the
/// run, between chunks and outside their time, so setup_s samples the host
/// conditions of the whole run rather than of its first moments (README.md,
/// "Host noise"). Set-ups within the run build state that is thrown away.
class SetupTimer {
 public:
  SetupTimer(const Config& cfg, Tracer& tracer, Report& report)
      : cfg_(cfg),
        tracer_(tracer),
        report_(report),
        interval_(cfg.seconds / cfg.setup_reps) {}

  /// Runs `setup`, records its time, and returns what it built; freeing
  /// that is not timed. Traced runs trace every set-up.
  template <class F>
  auto time(F&& setup) {
    const bool was = tracer_.enabled();
    tracer_.set_enabled(cfg_.trace);
    const double t0 = now_s();
    auto state = setup();
    report_.add("setup_s", now_s() - t0);
    tracer_.set_enabled(was);
    ++done_;
    return state;
  }
  /// Marks the start of the work.
  void start(double now) { start_ = now; }
  /// Whether the next set-up within the run is due at `now`.
  [[nodiscard]] bool due(double now) const {
    return owed() && now - start_ >= done_ * interval_;
  }
  /// Whether the run still owes set-ups; the work's end times the rest.
  [[nodiscard]] bool owed() const { return done_ < cfg_.setup_reps; }

 private:
  const Config& cfg_;
  Tracer& tracer_;
  Report& report_;
  double interval_;
  double start_ = 0.0;
  int done_ = 0;
};

/// Deployment size of a workload. The single-threaded paths run at 1e4
/// nodes: at 1e5 their working set outgrows the per-core L2 and their
/// speed follows the shared L3 that co-tenants contend for (README.md,
/// "Host noise"). The distributed path runs at 1e5, where every one of the
/// W <= 4 engine shards holds at least sim::SyncNetwork's parallel grain
/// of nodes, so rounds run on the thread pool.
[[nodiscard]] inline graph::NodeId deployment_size(std::string_view workload) {
  return workload == "distributed_udg" ? 100'000 : 10'000;
}

/// Reference sweep over a private copy of a deployment's adjacency: a
/// fixed number of neighbour-sum relaxation passes, in the benchmark's own
/// code so no change to the program can alter it. The host's co-tenants
/// slow the memory hierarchy by up to 2x for minutes at a time; timing this
/// sweep next to each chunk of work measures that slowdown, so chunk time /
/// sweep time is a host-independent cost (README.md, "Host noise").
///
/// It runs at the width of the work it is compared with: each pass splits
/// the nodes into `threads` contiguous slices and ends at a barrier, so a
/// pass waits for its slowest thread as an engine round does.
class ReferenceSweep {
 public:
  /// Passes per run, sized so one run takes about 2 ms at n = 1e4 on one
  /// thread and about 3% of a distributed op at n = 1e5 and width 4.
  static constexpr int kPassesSmall = 10;
  static constexpr int kPassesLarge = 24;

  ReferenceSweep(const graph::Graph& g, int passes, int threads = 1);
  /// Runs the sweep; returns its wall time in seconds.
  double run();

 private:
  /// One pass over nodes [begin, end): reads value_, writes next_.
  void pass_slice(std::size_t begin, std::size_t end);

  int passes_;
  int threads_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<double> value_;
  std::vector<double> next_;
};

/// A seeded uniform UDG deployment with clamped uniform-k demands.
struct Deployment {
  geom::UnitDiskGraph udg;
  domination::Demands demands;
};

/// Builds the run's deployment from its seed: points, build_udg (traced as
/// geom.build_udg) and demands.
[[nodiscard]] Deployment make_deployment(const Config& cfg, Tracer& tracer);

void run_oneshot(const Config& cfg, Tracer& tracer, Report& report);
void run_distributed(const Config& cfg, Tracer& tracer, Report& report);
void run_churn(const Config& cfg, Tracer& tracer, Report& report);

}  // namespace ftc::perfbench
