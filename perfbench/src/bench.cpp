#include <barrier>
#include <cmath>
#include <fstream>
#include <numbers>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "util/rng.h"

namespace ftc::perfbench {

namespace {
volatile double sink = 0.0;
}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  auto it = tracer_->totals_.find(name);
  if (it == tracer_->totals_.end()) {
    it = tracer_->totals_.emplace(std::string(name), Totals{}).first;
  }
  tracer_->stack_.push_back({&it->second, now_s(), 0.0});
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Frame frame = tracer_->stack_.back();
  tracer_->stack_.pop_back();
  const double duration = now_s() - frame.start;
  frame.totals->total_s += duration;
  frame.totals->self_s += duration - frame.child_s;
  ++frame.totals->calls;
  if (!tracer_->stack_.empty()) tracer_->stack_.back().child_s += duration;
}

ReferenceSweep::ReferenceSweep(const graph::Graph& g, int passes, int threads)
    : passes_(passes),
      threads_(threads),
      value_(static_cast<std::size_t>(g.n()), 1.0),
      next_(static_cast<std::size_t>(g.n()), 0.0) {
  offsets_.reserve(static_cast<std::size_t>(g.n()) + 1);
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
    for (const graph::NodeId u : g.neighbors(v)) {
      targets_.push_back(static_cast<std::uint32_t>(u));
    }
  }
  offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
}

void ReferenceSweep::pass_slice(std::size_t begin, std::size_t end) {
  for (std::size_t v = begin; v < end; ++v) {
    double sum = value_[v];
    for (std::uint32_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      sum += 0.5 * value_[targets_[i]];
    }
    next_[v] = sum / static_cast<double>(offsets_[v + 1] - offsets_[v] + 1);
  }
}

double ReferenceSweep::run() {
  const double start = now_s();
  const std::size_t n = value_.size();
  if (threads_ <= 1) {
    for (int pass = 0; pass < passes_; ++pass) {
      pass_slice(0, n);
      value_.swap(next_);
    }
  } else {
    const auto width = static_cast<std::size_t>(threads_);
    std::barrier sync(threads_, [this]() noexcept { value_.swap(next_); });
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < width; ++w) {
      workers.emplace_back([&, w] {
        for (int pass = 0; pass < passes_; ++pass) {
          pass_slice(n * w / width, n * (w + 1) / width);
          sync.arrive_and_wait();
        }
      });
    }
    workers.clear();  // joins
  }
  const double elapsed = now_s() - start;
  sink = value_[0];  // keeps the passes from being optimised away
  return elapsed;
}

long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stol(line.substr(6));
  }
  return 0;
}

void Report::fail(std::string why) {
  ++failed;
  if (errors.size() < 16) errors.push_back(std::move(why));
}

Deployment make_deployment(const Config& cfg, Tracer& tracer) {
  // The square side that gives the target expected degree, exactly as
  // geom::uniform_udg_with_degree chooses it (density * pi = degree).
  const double side = std::sqrt(static_cast<double>(cfg.n) * std::numbers::pi /
                                cfg.degree);
  util::Rng rng(cfg.seed);
  std::vector<geom::Point> points = geom::uniform_points(cfg.n, side, rng);
  Deployment d;
  {
    auto span = tracer.span("geom.build_udg");
    d.udg = geom::build_udg(std::move(points), 1.0);
  }
  d.demands = domination::clamp_demands(
      d.udg.graph, domination::uniform_demands(cfg.n, cfg.k));
  return d;
}

}  // namespace ftc::perfbench
