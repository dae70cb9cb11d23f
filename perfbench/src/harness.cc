#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

namespace {

/// Flows in the reference kernel's event queue, events per slice (about
/// 2 ms of CPU on a 4-vCPU Intel Xeon VM) and sender models.
constexpr int kQueuedFlows = 256;
constexpr long kEvents = 20000;
constexpr std::size_t kModels = 48;

/// A sender model: kModels implementations behind one virtual call, each
/// with its own libm function, constants and branch.
struct Model {
  virtual ~Model() = default;
  [[nodiscard]] virtual double update(double w, double u) const = 0;
};

template <int K>
struct ModelK final : Model {
  [[nodiscard]] double update(double w, double u) const override {
    double y = 0.0;
    if constexpr (K % 4 == 0) {
      y = std::exp(-u * (K + 1) * 0.01) * w;
    } else if constexpr (K % 4 == 1) {
      y = std::log1p(u + w * 1e-3) + K;
    } else if constexpr (K % 4 == 2) {
      y = std::pow(1.0 + u, 0.3 + K * 0.01) * w;
    } else {
      y = std::sqrt(w * w + u * K);
    }
    y = u < 0.1 * (K % 7) ? y * 0.5 + 1.0 : y + 1.0 / (1.0 + y);
    return y > 1e6 ? 1.0 : y;
  }
};

template <std::size_t... K>
std::vector<std::unique_ptr<Model>> make_models(std::index_sequence<K...>) {
  std::vector<std::unique_ptr<Model>> out;
  (out.push_back(std::make_unique<ModelK<static_cast<int>(K)>>()), ...);
  return out;
}

struct Event {
  double time;
  int flow;
  bool operator>(const Event& o) const { return time > o.time; }
};

/// One slice of the reference kernel on the calling thread; returns its
/// CPU time. An event loop in the simulator's style: pop the earliest
/// event, update its flow through a pseudo-randomly chosen model (a virtual
/// call into libm), hand the result to a std::function, now and then
/// allocate, and schedule the flow again. Of the kernels tried it tracked
/// the op times of eval-fluid and routed best while the host's speed
/// drifted (the log of op time ÷ slice time varied under a third as much
/// as the log of op time, sampled each second).
double reference_slice() {
  static const std::vector<std::unique_ptr<Model>> models =
      make_models(std::make_index_sequence<kModels>{});
  const double t0 = thread_cpu_seconds();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<double> state(kQueuedFlows, 1.0);
  for (int f = 0; f < kQueuedFlows; ++f) queue.push(Event{0.01 * f, f});
  double handled = 0.0;
  std::vector<std::function<void(double)>> handlers;
  for (int h = 0; h < 8; ++h) {
    handlers.emplace_back([&handled, h](double v) { handled += v * h; });
  }
  std::uint64_t lcg = 12345;
  for (long n = 0; n < kEvents; ++n) {
    const Event e = queue.top();
    queue.pop();
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(lcg >> 11) * 0x1.0p-53;
    double& w = state[static_cast<std::size_t>(e.flow)];
    w = models[(lcg >> 33) % kModels]->update(w, u);
    handlers[static_cast<std::size_t>(e.flow % 8)](w);
    if (n % 64 == 0) {
      std::vector<double> scratch(64 + (lcg >> 58), w);
      handled += scratch.back();
    }
    queue.push(Event{e.time + 0.001 + w * 1e-6, e.flow});
  }
  const double seconds = thread_cpu_seconds() - t0;
  check(std::isfinite(handled), "reference kernel produced a non-finite value");
  return seconds;
}

}  // namespace

HostSpeed::HostSpeed(int threads) : threads_(std::max(threads, 1)) {}

void HostSpeed::sample() {
  std::vector<double> seconds(static_cast<std::size_t>(threads_));
  std::vector<std::thread> others;
  for (int t = 1; t < threads_; ++t) {
    others.emplace_back([&seconds, t] {
      seconds[static_cast<std::size_t>(t)] = reference_slice();
    });
  }
  seconds[0] = reference_slice();
  for (std::thread& t : others) t.join();
  for (const double s : seconds) {
    seconds_.push_back(s);
    total_ += s;
  }
}

void HostSpeed::keep_up(double work_seconds, double share) {
  while (total_ < share * work_seconds) sample();
}

double HostSpeed::slowdown(std::size_t first, std::size_t last) const {
  check(first < last && last <= seconds_.size(),
        "no calibration slice in the range");
  std::vector<double> sorted(seconds_.begin() + static_cast<long>(first),
                             seconds_.begin() + static_cast<long>(last));
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double median =
      n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return median / kNominalSliceSeconds;
}

double HostSpeed::slowdown_around(std::size_t at) const {
  const std::size_t half = kWindowSamples * static_cast<std::size_t>(threads_);
  const std::size_t first = at > half ? at - half : 0;
  return slowdown(first, std::min(seconds_.size(), at + half));
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark; getrusage's
  // ru_maxrss would carry over a larger parent's peak across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }
void Digest::add(std::span<const double> xs) {
  add(static_cast<std::uint64_t>(xs.size()));
  bytes(xs.data(), xs.size_bytes());
}
void Digest::add(std::span<const long> xs) {
  add(static_cast<std::uint64_t>(xs.size()));
  bytes(xs.data(), xs.size_bytes());
}
void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string spec_of(const char* name, std::initializer_list<double> args,
                    int digits) {
  std::string out = name;
  out += '(';
  for (const double a : args) {
    if (out.back() != '(') out += ',';
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", digits, a);
    out += buf;
  }
  out += ')';
  return out;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Spans::drain() {
  if (!enabled_) return;
  auto& tracer = axiomcc::telemetry::Tracer::global();
  std::vector<axiomcc::telemetry::SpanEvent> batch = tracer.collect();
  dropped_ += tracer.dropped();
  tracer.reset();
  events_.insert(events_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
}

void Spans::count(const std::string& name, double delta) {
  if (enabled_) counts_[name] += delta;
}

double Spans::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

double SpanSummary::seconds(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.seconds;
}

long SpanSummary::spans(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.spans;
}

SpanSummary summarize(
    const std::vector<axiomcc::telemetry::SpanEvent>& events) {
  SpanSummary out;
  // Nesting per thread: sorted by start (longer first on ties), a span is a
  // child of the innermost open span that still covers its start.
  std::vector<const axiomcc::telemetry::SpanEvent*> sorted;
  sorted.reserve(events.size());
  for (const auto& e : events) {
    SpanSummary::Totals& t = out.by_name[e.name];
    t.seconds += static_cast<double>(e.duration_us) * 1e-6;
    ++t.spans;
    sorted.push_back(&e);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->thread_id != b->thread_id) return a->thread_id < b->thread_id;
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->duration_us > b->duration_us;
  });
  struct Open {
    const axiomcc::telemetry::SpanEvent* span;
    std::int64_t child_us;
  };
  std::vector<Open> stack;
  const auto close = [&out](const Open& o) {
    out.layer_self_seconds[o.span->category] +=
        static_cast<double>(o.span->duration_us - o.child_us) * 1e-6;
  };
  int thread = -1;
  for (const auto* e : sorted) {
    if (e->thread_id != thread) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      thread = e->thread_id;
    }
    // Pop spans that ended before `e` began. Same-microsecond starts nest
    // (the sort put the longer, enclosing span first).
    while (!stack.empty()) {
      const auto* top = stack.back().span;
      if (top->start_us == e->start_us ||
          top->start_us + top->duration_us > e->start_us) {
        break;
      }
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += e->duration_us;
    stack.push_back(Open{e, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

}  // namespace perfbench
