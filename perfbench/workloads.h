// The benchmark's three workloads, each driven through the public stack
// CamDriver -> (ShardedCamEngine) -> CamSystem -> CamUnit/CamBlock ->
// MatchKernel in EvalMode::kFast:
//
//   tc_community  - tc::count_triangles_with_backend on the paper's TC
//                   config (2K x 32 BCAM, 16 blocks x 128) over a community
//                   graph; closed loop, one edge's search burst drained
//                   before the next; each vertex's job timed by ResetClock.
//   stream_tcam48 - a closed-window stream of 4-key beats through
//                   CamDriver -> 4-shard range-partitioned engine of 16 x 64
//                   ternary 48-bit CamSystems, about half the keys hitting,
//                   drained by horizon-batched step_many windows at the end.
//   lpm_churn     - apps::LpmTable on a 2K ternary 32-bit CamSystem: 7
//                   lookups per route replacement on average, every op a
//                   synchronous ticket.
//
// Inputs come from the run's seed only; the library receives the generated
// inputs. Every pass checks each answer against a host reference computed
// outside the timed region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "seam.h"
#include "src/cam/types.h"

namespace perfbench {

/// splitmix64: the benchmark's own generator, so inputs depend on the seed
/// and this file alone.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0; the modulo bias is irrelevant here).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// True with probability num / den.
  bool chance(std::uint64_t num, std::uint64_t den) { return below(den) < num; }

 private:
  std::uint64_t s_;
};

/// How a pass is instrumented and threaded.
struct PassOptions {
  bool seam = false;  ///< Wrap the driver's backend (and each shard) in SeamProbes.
  /// Engine stepping threads. The benchmark steps serially: on a shared
  /// 4-vCPU Xeon VM a 4-thread pool ran each pass about 30% slower than one
  /// thread, and descheduled workers stalled the barrier for milliseconds,
  /// so the p99 latency's interquartile range over 10 runs was 0.88 of its
  /// median (0.21 serial). The tests run 1 and 4 threads and pin identical
  /// results. The engine runs exactly this many (no clamp to host cores).
  unsigned step_threads = 1;
};

/// Raw per-layer material from one seam-instrumented pass.
struct LayerSample {
  SeamCounters outer;                 ///< The driver-facing seam.
  std::vector<SeamCounters> systems;  ///< Shard seams (sharded workload only).
  unsigned effective_threads = 1;     ///< Engine stepping threads actually used.
};

/// Outcome of one pass.
struct PassResult {
  double setup_s = 0;   ///< Input generation + backend construction + preload.
  double run_s = 0;     ///< The timed body.
  std::uint64_t work = 0;        ///< Completed work units (edge / key / op).
  std::uint64_t attempted = 0;   ///< Operations attempted (same units).
  std::uint64_t failed = 0;      ///< Wrong, shard_failed or parity_error answers.
  std::string error;             ///< First correctness failure, if any.

  // Deterministic fingerprint of the offered work.
  std::uint64_t sim_cycles = 0;
  std::uint64_t keys = 0;     ///< Per-key search results delivered.
  std::uint64_t hits = 0;
  std::uint64_t tickets = 0;  ///< Completed driver tickets (searches + writes).
  std::uint64_t stall_cycles = 0;
  std::uint64_t fusion_batches = 0;
  std::uint64_t fusion_barrier_breaks = 0;
  std::uint64_t gated_cycles = 0;
  std::uint64_t system_cycles = 0;  ///< Cycles summed over the CamSystems.
  unsigned sweeps_per_key = 0;      ///< Block sweeps one searched key costs.
  std::uint64_t digest = 0;         ///< Hash of every answer, in order.

  // Per request, in completion order (released once summarised below, so
  // memory does not grow with the number of passes). A request is a beat
  // (stream), a table op (LPM) or one vertex's job (TC).
  std::vector<double> latency_us;       ///< Host time from issue to completion.
  std::vector<std::uint64_t> done_ns;   ///< now_ns() at completion.
  std::vector<std::uint32_t> req_work;  ///< Work units the request completed.
  std::uint64_t start_ns = 0;           ///< now_ns() when the first request began.
  std::size_t chunk_requests = 1000;    ///< Requests per timing chunk.

  // Summary: the pass cut into chunks of chunk_requests requests.
  std::size_t latency_samples = 0;
  std::vector<double> chunk_s;           ///< Duration of each chunk.
  std::vector<std::uint64_t> chunk_work;  ///< Work units each chunk completed.
  std::vector<double> chunk_p50_us;      ///< Median latency within each chunk.
  std::vector<double> chunk_p99_us;      ///< 99th percentile within each chunk.
  LayerSample layers;              ///< Filled when PassOptions::seam.
};

/// Block geometry the workload's CamSystems select their kernel for.
struct Geometry {
  dspcam::cam::CamKind kind = dspcam::cam::CamKind::kBinary;
  unsigned data_width = 32;
  unsigned block_size = 128;
  std::uint64_t dont_care = 0;  ///< Typical TCAM don't-care bits of a row.
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Geometry geometry() const = 0;
  /// Name of the kernel the workload's blocks run (from a built unit).
  virtual std::string unit_kernel_name() const = 0;
  /// One pass: set-up, the timed body, then the correctness checks.
  /// With options.seam, the seams log spans into `outer_log` and (one per
  /// shard) `system_logs` when those are non-null.
  virtual PassResult run_pass(const PassOptions& options, SpanLog* outer_log,
                              std::vector<SpanLog>* system_logs) = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
