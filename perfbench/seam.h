// Backend-seam probe: a forwarding CamBackend decorator that times the
// calls crossing the CamDriver -> backend boundary (and, under the sharded
// engine, the engine -> shard boundary) from outside the library.
//
// The decorator is transparent: every virtual forwards to the wrapped
// backend unchanged, so simulated cycles and results are identical with and
// without it (transparency_test.cc pins that). It only reads a clock
// around the calls that do work - step/step_many (the clock) and
// try_submit/try_pop_* (request I/O) - and keeps a bounded in-memory log of
// those spans for the Chrome trace written when the benchmark ends.
//
// ResetClock, a second decorator, only reads the clock at each reset
// request; the untraced triangle-counting passes time their vertex jobs
// with it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cam/unit.h"
#include "src/fault/fault.h"
#include "src/system/backend.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the process's first call.
std::uint64_t now_ns();

/// One recorded span; `parent` is the id of the span that caused it (0 for
/// none). Chrome trace "X" events are emitted from these.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  unsigned tid = 0;
};

/// Bounded span buffer owned by one thread at a time (one per seam). Spans
/// beyond the capacity are counted, not stored, so a long run keeps a
/// fixed memory footprint.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 20000) : capacity_(capacity) {}

  void add(const Span& s) {
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Span ids are process-unique. The benchmark publishes its live pass span
/// (the parent of the driver-facing seam's spans), and that seam publishes
/// its live step span so shard seams, stepped on pool threads inside it,
/// can name their parent.
std::uint64_t next_span_id();
extern std::atomic<std::uint64_t> g_pass_span;
extern std::atomic<std::uint64_t> g_live_step_span;
/// True while the driver-facing seam is inside step()/step_many(), so a
/// shard seam can tell whether its I/O call ran in the engine's stepping or
/// in the engine's own try_submit/try_pop_*.
extern std::atomic<bool> g_in_outer_step;

/// The spans of `logs` as Chrome trace-event JSON ("X" events, pid 1, one
/// thread per seam), the format tools/trace_lint checks.
std::string chrome_trace(const std::vector<const SpanLog*>& logs);

/// Host time and call counts accumulated at one seam.
struct SeamCounters {
  std::uint64_t step_ns = 0;      ///< Inside step() / step_many().
  std::uint64_t io_ns = 0;        ///< Inside try_submit() / try_pop_*().
  std::uint64_t step_calls = 0;   ///< step() + step_many() calls.
  std::uint64_t cycles = 0;       ///< Cycles those calls advanced.
  std::uint64_t io_calls = 0;     ///< try_submit() + try_pop_*() calls.
  std::uint64_t io_calls_in_step = 0;  ///< Of those, made inside the outer
                                       ///< seam's step (shard seams only).
  std::uint64_t submits = 0;      ///< Accepted try_submit() calls.
  double active_blocks_sum = 0;   ///< CamUnit active blocks, sampled before
  std::uint64_t active_samples = 0;  ///< each step call (unit seams only).

  /// Field-wise difference: what accrued between two readings.
  SeamCounters operator-(const SeamCounters& o) const {
    return {step_ns - o.step_ns,       io_ns - o.io_ns,
            step_calls - o.step_calls, cycles - o.cycles,
            io_calls - o.io_calls,     io_calls_in_step - o.io_calls_in_step,
            submits - o.submits,
            active_blocks_sum - o.active_blocks_sum, active_samples - o.active_samples};
  }
  SeamCounters& operator+=(const SeamCounters& o) {
    step_ns += o.step_ns;
    io_ns += o.io_ns;
    step_calls += o.step_calls;
    cycles += o.cycles;
    io_calls += o.io_calls;
    io_calls_in_step += o.io_calls_in_step;
    submits += o.submits;
    active_blocks_sum += o.active_blocks_sum;
    active_samples += o.active_samples;
    return *this;
  }
};

/// The probe's own host cost per forwarded call, split by where it lands:
/// `*_window_ns` inside the timed window (the clock read), so it inflates
/// SeamCounters::step_ns / io_ns; `*_outside_ns` around it (span id, span
/// log, active-block sample, the extra virtual call), which the caller's
/// own time absorbs.
struct SeamCost {
  double step_window_ns = 0;
  double step_outside_ns = 0;
  double io_window_ns = 0;
  double io_outside_ns = 0;
};

/// Measures SeamCost by forwarding to a backend whose calls do nothing,
/// sampling a unit and logging into a full SpanLog, as a long traced run
/// does once its logs fill. Median of three short repetitions; callers
/// calibrate repeatedly and take medians again, as the host's speed drifts.
SeamCost calibrate_seam();

/// A CamBackend that forwards every call to a wrapped backend unchanged.
/// Either borrows `inner` or owns it (the ShardFactory path hands ownership
/// to the engine through the wrapper). The decorators below derive from it
/// and override only the calls they observe.
class ForwardingBackend : public dspcam::system::CamBackend {
 public:
  explicit ForwardingBackend(dspcam::system::CamBackend& inner) : inner_(&inner) {}
  explicit ForwardingBackend(std::unique_ptr<dspcam::system::CamBackend> owned)
      : owned_(std::move(owned)), inner_(owned_.get()) {}

  ForwardingBackend(const ForwardingBackend&) = delete;
  ForwardingBackend& operator=(const ForwardingBackend&) = delete;

  unsigned data_width() const override { return inner_->data_width(); }
  dspcam::cam::CamKind kind() const override { return inner_->kind(); }
  unsigned capacity() const override { return inner_->capacity(); }
  unsigned words_per_beat() const override { return inner_->words_per_beat(); }
  unsigned max_keys_per_beat() const override { return inner_->max_keys_per_beat(); }
  unsigned max_groups() const override { return inner_->max_groups(); }
  void configure_groups(unsigned m) override { inner_->configure_groups(m); }

  bool try_submit(dspcam::cam::UnitRequest request) override {
    return inner_->try_submit(std::move(request));
  }
  std::optional<dspcam::cam::UnitResponse> try_pop_response() override {
    return inner_->try_pop_response();
  }
  std::optional<dspcam::cam::UnitUpdateAck> try_pop_ack() override {
    return inner_->try_pop_ack();
  }
  bool request_full() const override { return inner_->request_full(); }
  std::size_t pending_requests() const override { return inner_->pending_requests(); }

  void step() override { inner_->step(); }
  void step_many(std::uint64_t n) override { inner_->step_many(n); }
  std::uint64_t output_horizon() const override { return inner_->output_horizon(); }
  bool idle() const override { return inner_->idle(); }

  Stats stats() const override { return inner_->stats(); }
  dspcam::model::ResourceUsage resources() const override { return inner_->resources(); }
  void record_telemetry(dspcam::telemetry::MetricRegistry& registry,
                        const std::string& prefix) const override {
    inner_->record_telemetry(registry, prefix);
  }
  void set_span_tracer(dspcam::telemetry::SpanTracer* tracer) override {
    inner_->set_span_tracer(tracer);
  }
  void set_flight_recorder(dspcam::telemetry::FlightRecorder* recorder) override {
    inner_->set_flight_recorder(recorder);
  }
  void record_counter_tracks(dspcam::telemetry::SpanTracer& tracer,
                             const std::string& prefix,
                             std::uint64_t cycle) const override {
    inner_->record_counter_tracks(tracer, prefix, cycle);
  }
  dspcam::fault::FaultTarget* fault_target() override { return inner_->fault_target(); }
  void purge() override { inner_->purge(); }
  std::vector<dspcam::fault::EntryState> logical_entries() override {
    return inner_->logical_entries();
  }
  std::vector<std::uint64_t> snapshot_cursors() const override {
    return inner_->snapshot_cursors();
  }
  void restore_cursors(const std::vector<std::uint64_t>& cursors) override {
    inner_->restore_cursors(cursors);
  }
  std::string debug_dump() const override { return inner_->debug_dump(); }

 protected:
  dspcam::system::CamBackend& inner() { return *inner_; }

 private:
  std::unique_ptr<dspcam::system::CamBackend> owned_;
  dspcam::system::CamBackend* inner_;
};

/// The seam probe.
class SeamProbe final : public ForwardingBackend {
 public:
  /// `unit` (optional) is sampled for active blocks at each step call;
  /// `log` (optional) receives spans on Chrome trace thread `tid`;
  /// `outer` marks the driver-facing seam whose step spans parent the
  /// shard seams' spans.
  SeamProbe(dspcam::system::CamBackend& inner, const dspcam::cam::CamUnit* unit,
            SpanLog* log, unsigned tid, bool outer);
  SeamProbe(std::unique_ptr<dspcam::system::CamBackend> owned,
            const dspcam::cam::CamUnit* unit, SpanLog* log, unsigned tid,
            bool outer);

  const SeamCounters& counters() const noexcept { return c_; }

  bool try_submit(dspcam::cam::UnitRequest request) override;
  std::optional<dspcam::cam::UnitResponse> try_pop_response() override;
  std::optional<dspcam::cam::UnitUpdateAck> try_pop_ack() override;
  void step() override;
  void step_many(std::uint64_t n) override;

 private:
  void clocked(const char* name, std::uint64_t n, bool many);
  void io_span(const char* name, std::uint64_t t0, std::uint64_t t1);
  std::uint64_t parent() const;

  const dspcam::cam::CamUnit* unit_;
  SpanLog* log_;
  unsigned tid_;
  bool outer_;
  SeamCounters c_;
};

/// Reads the clock once per accepted reset request and nowhere else. A
/// caller that resets the CAM before each job (triangle counting reloads
/// one vertex's neighbour list per job) thereby marks its job boundaries,
/// at the cost of a forwarded call per request; the untraced benchmark
/// times its jobs this way.
class ResetClock final : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

  /// now_ns() at each accepted reset, in order.
  const std::vector<std::uint64_t>& resets() const noexcept { return resets_; }

  bool try_submit(dspcam::cam::UnitRequest request) override {
    const bool reset = request.op == dspcam::cam::OpKind::kReset;
    const bool ok = inner().try_submit(std::move(request));
    if (ok && reset) resets_.push_back(now_ns());
    return ok;
  }

 private:
  std::vector<std::uint64_t> resets_;
};

}  // namespace perfbench
