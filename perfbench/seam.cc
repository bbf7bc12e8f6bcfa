#include "seam.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<std::uint64_t> g_pass_span{0};
std::atomic<std::uint64_t> g_live_step_span{0};
std::atomic<bool> g_in_outer_step{false};

SeamProbe::SeamProbe(dspcam::system::CamBackend& inner, const dspcam::cam::CamUnit* unit,
                     SpanLog* log, unsigned tid, bool outer)
    : ForwardingBackend(inner), unit_(unit), log_(log), tid_(tid), outer_(outer) {}

SeamProbe::SeamProbe(std::unique_ptr<dspcam::system::CamBackend> owned,
                     const dspcam::cam::CamUnit* unit, SpanLog* log, unsigned tid,
                     bool outer)
    : ForwardingBackend(std::move(owned)), unit_(unit), log_(log), tid_(tid), outer_(outer) {}

std::uint64_t SeamProbe::parent() const {
  return (outer_ ? g_pass_span : g_live_step_span).load(std::memory_order_relaxed);
}

void SeamProbe::io_span(const char* name, std::uint64_t t0, std::uint64_t t1) {
  c_.io_ns += t1 - t0;
  ++c_.io_calls;
  if (!outer_ && g_in_outer_step.load(std::memory_order_relaxed)) ++c_.io_calls_in_step;
  if (log_ != nullptr) {
    log_->add(Span{name, t0, t1 - t0, next_span_id(), parent(), tid_});
  }
}

bool SeamProbe::try_submit(dspcam::cam::UnitRequest request) {
  const std::uint64_t t0 = now_ns();
  const bool ok = inner().try_submit(std::move(request));
  io_span("seam.submit", t0, now_ns());
  if (ok) ++c_.submits;
  return ok;
}

std::optional<dspcam::cam::UnitResponse> SeamProbe::try_pop_response() {
  const std::uint64_t t0 = now_ns();
  auto r = inner().try_pop_response();
  io_span("seam.pop_response", t0, now_ns());
  return r;
}

std::optional<dspcam::cam::UnitUpdateAck> SeamProbe::try_pop_ack() {
  const std::uint64_t t0 = now_ns();
  auto r = inner().try_pop_ack();
  io_span("seam.pop_ack", t0, now_ns());
  return r;
}

void SeamProbe::clocked(const char* name, std::uint64_t n, bool many) {
  if (unit_ != nullptr) {
    c_.active_blocks_sum += static_cast<double>(unit_->active_block_count());
    ++c_.active_samples;
  }
  const std::uint64_t id = log_ != nullptr ? next_span_id() : 0;
  const std::uint64_t parent_id = parent();
  if (outer_) {
    g_live_step_span.store(id, std::memory_order_relaxed);
    g_in_outer_step.store(true, std::memory_order_relaxed);
  }
  const std::uint64_t t0 = now_ns();
  if (many) {
    inner().step_many(n);
  } else {
    inner().step();
  }
  const std::uint64_t t1 = now_ns();
  if (outer_) g_in_outer_step.store(false, std::memory_order_relaxed);
  c_.step_ns += t1 - t0;
  ++c_.step_calls;
  c_.cycles += n;
  if (log_ != nullptr) log_->add(Span{name, t0, t1 - t0, id, parent_id, tid_});
}

std::string chrome_trace(const std::vector<const SpanLog*>& logs) {
  auto us = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      os << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", \"ts\": " << us(s.start_ns)
         << ", \"dur\": " << us(s.dur_ns) << ", \"args\": {\"id\": " << s.id
         << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
  return os.str();
}

void SeamProbe::step() { clocked("seam.step", 1, false); }

void SeamProbe::step_many(std::uint64_t n) { clocked("seam.step_many", n, true); }


namespace {

namespace cam = dspcam::cam;

/// A backend whose every call returns at once: behind a SeamProbe it leaves
/// only the probe's own cost to measure.
class NullBackend final : public dspcam::system::CamBackend {
 public:
  unsigned data_width() const override { return 32; }
  cam::CamKind kind() const override { return cam::CamKind::kBinary; }
  unsigned capacity() const override { return 0; }
  unsigned words_per_beat() const override { return 1; }
  unsigned max_keys_per_beat() const override { return 1; }
  void configure_groups(unsigned) override {}
  bool try_submit(cam::UnitRequest) override { return false; }
  std::optional<cam::UnitResponse> try_pop_response() override { return std::nullopt; }
  std::optional<cam::UnitUpdateAck> try_pop_ack() override { return std::nullopt; }
  bool request_full() const override { return true; }
  std::size_t pending_requests() const override { return 0; }
  void step() override {}
  bool idle() const override { return true; }
  Stats stats() const override { return {}; }
  dspcam::model::ResourceUsage resources() const override { return {}; }
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

SeamCost calibrate_seam() {
  constexpr int kReps = 3;
  constexpr std::uint64_t kCalls = 20000;  // about 10 ms in all
  NullBackend null;
  const cam::CamUnit unit{cam::UnitConfig{}};
  SpanLog full(0);  // every add is dropped, as in a traced run's full logs
  SeamProbe probe(null, &unit, &full, 0, false);
  std::vector<double> step_total, step_window, io_total, io_window;
  for (int rep = 0; rep < kReps; ++rep) {
    SeamCounters before = probe.counters();
    std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kCalls; ++i) probe.step();
    std::uint64_t t1 = now_ns();
    step_total.push_back(static_cast<double>(t1 - t0) / kCalls);
    step_window.push_back(static_cast<double>(probe.counters().step_ns - before.step_ns) /
                          kCalls);
    before = probe.counters();
    t0 = now_ns();
    for (std::uint64_t i = 0; i < kCalls; ++i) (void)probe.try_pop_response();
    t1 = now_ns();
    io_total.push_back(static_cast<double>(t1 - t0) / kCalls);
    io_window.push_back(static_cast<double>(probe.counters().io_ns - before.io_ns) / kCalls);
  }
  SeamCost c;
  c.step_window_ns = median_of(step_window);
  c.step_outside_ns = std::max(0.0, median_of(step_total) - c.step_window_ns);
  c.io_window_ns = median_of(io_window);
  c.io_outside_ns = std::max(0.0, median_of(io_total) - c.io_window_ns);
  return c;
}

}  // namespace perfbench
