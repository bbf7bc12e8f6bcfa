#include "workloads.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/apps/lpm.h"
#include "src/cam/mask.h"
#include "src/graph/builder.h"
#include "src/graph/triangle.h"
#include "src/system/cam_system.h"
#include "src/system/driver.h"
#include "src/system/sharded_engine.h"
#include "src/tc/validate.h"

namespace perfbench {

namespace {

namespace cam = dspcam::cam;
namespace sys = dspcam::system;
namespace graph = dspcam::graph;

constexpr double kNsPerS = 1e9;

/// FNV-1a over 64-bit words: the completion digest.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / kNsPerS;
}

/// Counters read off one CamSystem, before and after the timed body.
struct SystemReading {
  sys::CamBackend::Stats stats;
  std::uint64_t fusion_batches = 0;
  std::uint64_t barrier_breaks = 0;

  static SystemReading of(const sys::CamSystem& s) {
    return {s.stats(), s.fusion_batches(), s.fusion_barrier_breaks()};
  }
};

/// Adds the CamSystem deltas of the timed body to `r`.
void add_system_delta(PassResult& r, const SystemReading& before,
                      const SystemReading& after) {
  r.fusion_batches += after.fusion_batches - before.fusion_batches;
  r.fusion_barrier_breaks += after.barrier_breaks - before.barrier_breaks;
  r.gated_cycles += after.stats.gated_cycles - before.stats.gated_cycles;
  r.system_cycles += after.stats.cycles - before.stats.cycles;
}

void fail(PassResult& r, std::string what) {
  ++r.failed;
  if (r.error.empty()) r.error = std::move(what);
}

// ---------------------------------------------------------------------------
// tc_community

/// Planted-community graph: vertices in consecutive communities of
/// `community` ids, each intra-community pair an edge with the probability
/// that puts `in_fraction` of the edges inside communities, then uniform
/// inter-community shortcuts until exactly `edges` undirected edges exist.
/// The fixed edge count keeps the offered work equal across seeds.
graph::CsrGraph community_graph(std::uint32_t n, std::uint64_t edges,
                                std::uint32_t community, double in_fraction,
                                SplitMix& rng) {
  const std::uint64_t n_comm = (n + community - 1) / community;
  const double pairs = n_comm * community * (community - 1) / 2.0;
  const auto p_in = static_cast<std::uint64_t>(
      std::min(0.95, edges * in_fraction / pairs) * 4294967296.0);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> list;
  auto add = [&](std::uint32_t u, std::uint32_t v) {
    if (u == v) return;
    if (u > v) std::swap(u, v);
    if (seen.insert((std::uint64_t{u} << 32) | v).second) list.emplace_back(u, v);
  };
  for (std::uint64_t c = 0; c < n_comm && list.size() < edges; ++c) {
    const auto lo = static_cast<std::uint32_t>(c * community);
    const std::uint32_t hi = std::min<std::uint32_t>(n, lo + community);
    for (std::uint32_t u = lo; u < hi; ++u) {
      for (std::uint32_t v = u + 1; v < hi && list.size() < edges; ++v) {
        if (rng.below(4294967296ull) < p_in) add(u, v);
      }
    }
  }
  while (list.size() < edges) {
    add(static_cast<std::uint32_t>(rng.below(n)), static_cast<std::uint32_t>(rng.below(n)));
  }
  return graph::build_undirected(n, list);
}

class TcCommunity final : public Workload {
 public:
  explicit TcCommunity(std::uint64_t seed) : seed_(seed) {}

  Geometry geometry() const override {
    return {cam::CamKind::kBinary, 32, 128, 0};
  }

  std::string unit_kernel_name() const override {
    return sys::CamSystem(config()).unit().match_kernel_name();
  }

  PassResult run_pass(const PassOptions& options, SpanLog* outer_log,
                      std::vector<SpanLog>*) override {
    PassResult r;
    const std::uint64_t s0 = now_ns();
    SplitMix rng(seed_);
    const graph::CsrGraph g = community_graph(3000, 30000, 40, 0.8, rng);
    sys::CamSystem system(config());
    std::optional<SeamProbe> probe;
    if (options.seam) probe.emplace(system, &system.unit(), outer_log, 1, true);
    ResetClock clock(probe ? static_cast<sys::CamBackend&>(*probe) : system);
    r.setup_s = seconds_between(s0, now_ns());

    if (!reference_) {
      reference_ = graph::count_triangles_merge(graph::orient_by_degree(g));
      job_edges_ = jobs(g, system.capacity());
    }
    const std::uint64_t edges = g.num_edges() / 2;
    const SystemReading before = SystemReading::of(system);
    const SeamCounters seam_before = probe ? probe->counters() : SeamCounters{};
    const std::uint64_t t0 = now_ns();
    const std::uint64_t triangles = dspcam::tc::count_triangles_with_backend(g, clock);
    const std::uint64_t t1 = now_ns();
    const SystemReading after = SystemReading::of(system);

    r.run_s = seconds_between(t0, t1);
    r.work = r.attempted = edges;
    // The count resets once up front, then once per job; job j runs from
    // reset j + 1 to the next reset (the last one to the end).
    const std::vector<std::uint64_t>& resets = clock.resets();
    if (resets.size() != job_edges_.size() + 1) {
      fail(r, "tc_community: " + std::to_string(resets.size()) + " resets for " +
                  std::to_string(job_edges_.size()) +
                  " vertex jobs; the job clock expects one reset up front and one per job");
    } else {
      r.start_ns = resets[1 % resets.size()];
      r.chunk_requests = kJobsPerChunk;
      r.req_work = job_edges_;
      for (std::size_t j = 0; j < job_edges_.size(); ++j) {
        const std::uint64_t end = j + 2 < resets.size() ? resets[j + 2] : t1;
        r.latency_us.push_back(static_cast<double>(end - resets[j + 1]) / 1e3);
        r.done_ns.push_back(end);
      }
    }
    if (triangles != *reference_) {
      r.failed = edges;
      r.error = "tc_community: CAM counted " + std::to_string(triangles) +
                " triangles, merge reference " + std::to_string(*reference_);
    }
    r.sim_cycles = after.stats.cycles - before.stats.cycles;
    r.keys = after.stats.keys_searched - before.stats.keys_searched;
    r.hits = after.stats.hits - before.stats.hits;
    r.tickets = (after.stats.responses - before.stats.responses) +
                (after.stats.acks - before.stats.acks);
    r.stall_cycles = after.stats.stall_cycles - before.stats.stall_cycles;
    add_system_delta(r, before, after);
    r.sweeps_per_key = system.unit().blocks_per_group(0);
    Digest d;
    for (std::uint64_t v : {triangles, r.sim_cycles, r.keys, r.hits, r.tickets}) d.add(v);
    r.digest = d.h;
    if (probe) r.layers.outer = probe->counters() - seam_before;
    return r;
  }

 private:
  /// Vertex jobs per timing chunk: about 10 ms on a 2 GHz Xeon, as long as
  /// the other workloads' chunks.
  static constexpr std::size_t kJobsPerChunk = 20;

  /// The jobs count_triangles_with_backend runs, in order, as the forward
  /// edges each completes: for every vertex with a higher-numbered
  /// neighbour, one job per capacity-sized slice of its neighbour list,
  /// each searching every forward edge (credited to the first slice).
  static std::vector<std::uint32_t> jobs(const graph::CsrGraph& g, std::uint64_t capacity) {
    std::vector<std::uint32_t> out;
    for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto nu = g.neighbors(u);
      const auto forward = static_cast<std::uint32_t>(
          std::count_if(nu.begin(), nu.end(), [u](graph::VertexId v) { return v > u; }));
      if (forward == 0) continue;
      const std::uint64_t slices = (nu.size() + capacity - 1) / capacity;
      for (std::uint64_t c = 0; c < slices; ++c) out.push_back(c == 0 ? forward : 0);
    }
    return out;
  }

  /// The paper's TC configuration: 2K x 32-bit BCAM, 16 blocks of 128.
  static sys::CamSystem::Config config() {
    sys::CamSystem::Config c;
    c.unit.block.cell.kind = cam::CamKind::kBinary;
    c.unit.block.cell.data_width = 32;
    c.unit.block.block_size = 128;
    c.unit.block.bus_width = 512;
    c.unit.unit_size = 16;
    c.unit.bus_width = 512;
    c.unit = cam::UnitConfig::with_auto_timing(c.unit);
    return c;
  }

  std::uint64_t seed_;
  std::optional<std::uint64_t> reference_;
  std::vector<std::uint32_t> job_edges_;  ///< Forward edges per vertex job.
};

// ---------------------------------------------------------------------------
// stream_tcam48

class StreamTcam48 final : public Workload {
 public:
  static constexpr unsigned kShards = 4;
  static constexpr unsigned kRulesPerShard = 512;  // half of 16 x 64
  static constexpr unsigned kKeysPerBeat = 4;
  static constexpr unsigned kWindow = 32;           // beats in flight
  static constexpr unsigned kPoolKeys = 4096;
  static constexpr std::uint64_t kDontCare = 0xff;  // low 8 bits
  static constexpr std::uint64_t kKeyMask = (1ull << 48) - 1;

  static constexpr std::uint64_t kBeats = 40000;

  explicit StreamTcam48(std::uint64_t seed) : seed_(seed) {}

  Geometry geometry() const override {
    return {cam::CamKind::kTernary, 48, 64, kDontCare};
  }

  std::string unit_kernel_name() const override {
    return sys::CamSystem(shard_config()).unit().match_kernel_name();
  }

  PassResult run_pass(const PassOptions& options, SpanLog* outer_log,
                      std::vector<SpanLog>* system_logs) override {
    PassResult r;
    const std::uint64_t s0 = now_ns();
    const Inputs in = generate();

    sys::ShardedCamEngine::Config ecfg;
    ecfg.shards = kShards;
    ecfg.partition = sys::ShardedCamEngine::Partition::kRange;
    ecfg.key_bits = 48;
    ecfg.step_threads = options.step_threads;
    ecfg.clamp_threads_to_cores = false;
    std::vector<sys::CamSystem*> systems(kShards, nullptr);
    std::vector<SeamProbe*> probes(kShards, nullptr);
    const sys::CamSystem::Config scfg = shard_config();
    auto factory = [&](unsigned s) -> std::unique_ptr<sys::CamBackend> {
      auto shard = std::make_unique<sys::CamSystem>(scfg);
      systems[s] = shard.get();
      if (!options.seam) return shard;
      SpanLog* log = system_logs != nullptr ? &system_logs->at(s) : nullptr;
      const cam::CamUnit* unit = &shard->unit();
      auto probe = std::make_unique<SeamProbe>(std::move(shard), unit, log, 10 + s, false);
      probes[s] = probe.get();
      return probe;
    };
    sys::ShardedCamEngine engine(ecfg, factory);
    std::optional<SeamProbe> outer;
    if (options.seam) outer.emplace(engine, nullptr, outer_log, 1, true);
    sys::CamBackend& top = outer ? static_cast<sys::CamBackend&>(*outer) : engine;
    sys::CamDriver driver(top);
    const unsigned stored = driver.store(in.rules, in.masks);
    r.setup_s = seconds_between(s0, now_ns());
    if (stored != in.rules.size()) {
      fail(r, "stream_tcam48: preload stored " + std::to_string(stored) + " of " +
                  std::to_string(in.rules.size()) + " rules");
      return r;
    }
    if (!reference_) reference_ = brute_force(in);

    std::vector<SystemReading> before;
    for (const auto* s : systems) before.push_back(SystemReading::of(*s));
    const auto ebefore = engine.stats();
    SeamCounters outer_before;
    std::vector<SeamCounters> probes_before;
    if (options.seam) {
      outer_before = outer->counters();
      for (const auto* p : probes) probes_before.push_back(p->counters());
    }
    std::vector<std::uint64_t> submitted_at(kBeats);
    r.latency_us.reserve(kBeats);
    r.done_ns.reserve(kBeats);
    sys::CamDriver::Ticket first_ticket = 0;
    std::uint64_t next = 0;
    Digest d;
    auto submit = [&] {
      cam::UnitRequest req;
      req.op = cam::OpKind::kSearch;
      for (unsigned k = 0; k < kKeysPerBeat; ++k) {
        req.keys.push_back(in.pool[in.beat_keys[next * kKeysPerBeat + k]]);
      }
      submitted_at[next] = now_ns();
      const auto ticket = driver.submit_async(std::move(req));
      if (next == 0) first_ticket = ticket;
      ++next;
    };
    auto complete = [&](const sys::CamDriver::Completion& c) {
      const std::uint64_t t = now_ns();
      const std::uint64_t beat = c.ticket - first_ticket;
      r.latency_us.push_back(static_cast<double>(t - submitted_at[beat]) / 1e3);
      r.done_ns.push_back(t);
      if (c.results.size() != kKeysPerBeat) {
        fail(r, "stream_tcam48: beat " + std::to_string(beat) + " returned " +
                    std::to_string(c.results.size()) + " results");
        return;
      }
      for (unsigned k = 0; k < kKeysPerBeat; ++k) {
        const auto& res = c.results[k];
        const Answer& want = (*reference_)[in.beat_keys[beat * kKeysPerBeat + k]];
        d.add(res.hit ? res.global_address : ~0ull);
        if (res.shard_failed || res.parity_error) {
          fail(r, "stream_tcam48: shard_failed/parity_error result");
        } else if (res.hit != want.hit || (want.hit && res.global_address != want.address)) {
          fail(r, "stream_tcam48: beat " + std::to_string(beat) + " key " +
                      std::to_string(k) + " disagrees with the brute-force scan");
        }
      }
    };

    const std::uint64_t t0 = now_ns();
    r.start_ns = t0;
    while (next < kWindow && next < kBeats) submit();
    while (next < kBeats) {
      driver.poll();
      while (auto c = driver.try_pop_completion()) {
        complete(*c);
        if (next < kBeats) submit();
      }
    }
    driver.drain();
    while (auto c = driver.try_pop_completion()) complete(*c);
    const std::uint64_t t1 = now_ns();

    r.run_s = seconds_between(t0, t1);
    r.req_work.assign(r.latency_us.size(), kKeysPerBeat);
    r.attempted = kBeats * kKeysPerBeat;
    r.work = r.attempted - r.failed;
    if (r.latency_us.size() != kBeats) {
      fail(r, "stream_tcam48: " + std::to_string(r.latency_us.size()) + " of " +
                  std::to_string(kBeats) + " beats completed");
    }
    const auto eafter = engine.stats();
    r.sim_cycles = eafter.cycles - ebefore.cycles;
    r.keys = eafter.keys_searched - ebefore.keys_searched;
    r.hits = eafter.hits - ebefore.hits;
    r.tickets = kBeats;
    r.stall_cycles = eafter.stall_cycles - ebefore.stall_cycles;
    for (unsigned s = 0; s < kShards; ++s) {
      add_system_delta(r, before[s], SystemReading::of(*systems[s]));
    }
    r.sweeps_per_key = systems[0]->unit().blocks_per_group(0);
    r.digest = d.h;
    if (options.seam) {
      r.layers.outer = outer->counters() - outer_before;
      for (unsigned s = 0; s < kShards; ++s) {
        r.layers.systems.push_back(probes[s]->counters() - probes_before[s]);
      }
      r.layers.effective_threads = engine.effective_step_threads();
    }
    return r;
  }

 private:
  struct Inputs {
    std::vector<cam::Word> rules;      ///< Stored words, preload order.
    std::vector<std::uint64_t> masks;  ///< Their TCAM masks.
    std::vector<cam::Word> pool;       ///< Distinct-ish search keys.
    std::vector<std::uint32_t> beat_keys;  ///< Pool index per beat slot.
  };
  struct Answer {
    bool hit = false;
    std::uint32_t address = 0;
  };

  static sys::CamSystem::Config shard_config() {
    sys::CamSystem::Config c;
    c.unit.block.cell.kind = cam::CamKind::kTernary;
    c.unit.block.cell.data_width = 48;
    c.unit.block.block_size = 64;
    c.unit.block.bus_width = 480;  // 10 words of 48 bits on the 512-bit channel
    c.unit.unit_size = 16;
    c.unit.bus_width = 480;
    c.unit = cam::UnitConfig::with_auto_timing(c.unit);
    return c;
  }

  /// Rules: 512 per range shard (top two key bits), random middle bits,
  /// low 8 bits don't-care, preloaded in shuffled order. Keys: half derived
  /// from a rule (a hit), half uniform over the 48-bit space (a miss but
  /// for a 2^-30 chance), so about half the keys hit.
  Inputs generate() const {
    SplitMix rng(seed_ ^ 0x7ca5'48ull);
    Inputs in;
    const std::uint64_t mask = cam::tcam_mask(48, kDontCare);
    for (unsigned s = 0; s < kShards; ++s) {
      for (unsigned i = 0; i < kRulesPerShard; ++i) {
        in.rules.push_back((std::uint64_t{s} << 46) |
                           ((rng.next() & ((1ull << 38) - 1)) << 8));
      }
    }
    for (std::size_t i = in.rules.size(); i > 1; --i) {
      std::swap(in.rules[i - 1], in.rules[rng.below(i)]);
    }
    in.masks.assign(in.rules.size(), mask);
    for (unsigned i = 0; i < kPoolKeys; ++i) {
      in.pool.push_back(i % 2 == 0 ? in.rules[rng.below(in.rules.size())] | rng.below(256)
                                   : rng.next() & kKeyMask);
    }
    for (std::uint64_t i = 0; i < kBeats * kKeysPerBeat; ++i) {
      in.beat_keys.push_back(static_cast<std::uint32_t>(rng.below(kPoolKeys)));
    }
    return in;
  }

  /// Lowest matching global address per pool key, by scanning every rule.
  /// A range-partitioned append lands a rule at shard * capacity + its rank
  /// among the rules of its shard in preload order.
  static std::vector<Answer> brute_force(const Inputs& in) {
    const unsigned capacity = sys::CamSystem(shard_config()).capacity();
    std::vector<std::uint32_t> address(in.rules.size());
    std::vector<std::uint32_t> fill(kShards, 0);
    for (std::size_t i = 0; i < in.rules.size(); ++i) {
      const auto s = static_cast<unsigned>(in.rules[i] >> 46);
      address[i] = s * capacity + fill[s]++;
    }
    std::vector<Answer> out(in.pool.size());
    for (std::size_t k = 0; k < in.pool.size(); ++k) {
      for (std::size_t i = 0; i < in.rules.size(); ++i) {
        if (!cam::masked_match(in.rules[i], in.pool[k], in.masks[i], 48)) continue;
        if (!out[k].hit || address[i] < out[k].address) out[k] = {true, address[i]};
      }
    }
    return out;
  }

  std::uint64_t seed_;
  std::optional<std::vector<Answer>> reference_;
};

// ---------------------------------------------------------------------------
// lpm_churn

class LpmChurn final : public Workload {
 public:
  static constexpr unsigned kSlotsPerLength = 62;  // 33 x 62 <= 2048
  static constexpr unsigned kRoutes = 600;
  static constexpr unsigned kLookupsPerReplacement = 7;  // mean; 4..10 per gap

  static constexpr std::uint64_t kReplacements = 6000;

  explicit LpmChurn(std::uint64_t seed) : seed_(seed) {}

  Geometry geometry() const override {
    return {cam::CamKind::kTernary, 32, 128, 0xff};
  }

  std::string unit_kernel_name() const override {
    return sys::CamSystem(config()).unit().match_kernel_name();
  }

  PassResult run_pass(const PassOptions& options, SpanLog* outer_log,
                      std::vector<SpanLog>*) override {
    PassResult r;
    const std::uint64_t s0 = now_ns();
    const Inputs in = generate();
    sys::CamSystem system(config());
    std::optional<SeamProbe> probe;
    if (options.seam) probe.emplace(system, &system.unit(), outer_log, 1, true);
    sys::CamBackend& top = probe ? static_cast<sys::CamBackend&>(*probe) : system;
    dspcam::apps::LpmTable table(top, kSlotsPerLength);
    for (const Route& rt : in.initial) {
      if (!table.add_route(rt.prefix, rt.len, rt.hop)) {
        fail(r, "lpm_churn: preload rejected a route");
        return r;
      }
    }
    r.setup_s = seconds_between(s0, now_ns());
    if (!reference_) reference_ = host_lpm(in);

    const SystemReading before = SystemReading::of(system);
    const SeamCounters seam_before = probe ? probe->counters() : SeamCounters{};
    Digest d;
    r.latency_us.reserve(in.ops.size());
    r.done_ns.reserve(in.ops.size());
    const std::uint64_t t0 = now_ns();
    r.start_ns = t0;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      const std::uint64_t a = now_ns();
      std::uint64_t got = 0;
      switch (op.kind) {
        case Op::kLookup: {
          const auto hop = table.lookup(op.route.prefix);
          got = hop ? *hop : kNoRoute;
          break;
        }
        case Op::kRemove:
          got = table.remove_route(op.route.prefix, op.route.len) ? 1 : 0;
          break;
        case Op::kAdd:
          got = table.add_route(op.route.prefix, op.route.len, op.route.hop) ? 1 : 0;
          break;
      }
      const std::uint64_t b = now_ns();
      r.latency_us.push_back(static_cast<double>(b - a) / 1e3);
      r.done_ns.push_back(b);
      d.add(got);
      if (got != (*reference_)[i]) {
        fail(r, "lpm_churn: op " + std::to_string(i) + " returned " + std::to_string(got) +
                    ", host LPM expects " + std::to_string((*reference_)[i]));
      }
    }
    const std::uint64_t t1 = now_ns();
    const SystemReading after = SystemReading::of(system);

    r.run_s = seconds_between(t0, t1);
    r.req_work.assign(r.latency_us.size(), 1);
    r.attempted = in.ops.size();
    r.work = r.attempted - r.failed;
    r.sim_cycles = after.stats.cycles - before.stats.cycles;
    r.keys = after.stats.keys_searched - before.stats.keys_searched;
    r.hits = after.stats.hits - before.stats.hits;
    r.tickets = (after.stats.responses - before.stats.responses) +
                (after.stats.acks - before.stats.acks);
    r.stall_cycles = after.stats.stall_cycles - before.stats.stall_cycles;
    add_system_delta(r, before, after);
    r.sweeps_per_key = system.unit().blocks_per_group(0);
    r.digest = d.h;
    if (probe) r.layers.outer = probe->counters() - seam_before;
    return r;
  }

 private:
  static constexpr std::uint64_t kNoRoute = ~0ull;

  struct Route {
    std::uint32_t prefix = 0;
    unsigned len = 0;
    std::uint32_t hop = 0;
  };
  struct Op {
    enum Kind { kLookup, kRemove, kAdd } kind = kLookup;
    Route route;  ///< kLookup: route.prefix is the address.
  };
  struct Inputs {
    std::vector<Route> initial;
    std::vector<Op> ops;
  };

  static std::uint32_t prefix_mask(unsigned len) {
    return len == 0 ? 0 : static_cast<std::uint32_t>(~0ull << (32 - len));
  }

  static sys::CamSystem::Config config() {
    sys::CamSystem::Config c;
    c.unit.block.cell.kind = cam::CamKind::kTernary;
    c.unit.block.cell.data_width = 32;
    c.unit.block.block_size = 128;
    c.unit.block.bus_width = 512;
    c.unit.unit_size = 16;
    c.unit.bus_width = 512;
    return c;
  }

  /// 600 routes with lengths uniform over /8../32 (the table reserves a
  /// fixed region per length, so a realistic /24-heavy mix would overflow
  /// it), then the op stream: 4 to 10 lookups, 7 on average (3 in 4 inside
  /// a live route, the rest uniform), one remove of a live route, one add
  /// of a fresh route. The generator tracks the live set, so every
  /// remove/add succeeds.
  Inputs generate() const {
    SplitMix rng(seed_ ^ 0x1b11'c4ull);
    Inputs in;
    std::vector<Route> live;
    std::unordered_set<std::uint64_t> present;
    std::vector<unsigned> per_len(33, 0);
    auto fresh = [&] {
      while (true) {
        Route rt;
        rt.len = 8 + static_cast<unsigned>(rng.below(25));
        rt.prefix = static_cast<std::uint32_t>(rng.next()) & prefix_mask(rt.len);
        rt.hop = static_cast<std::uint32_t>(rng.next());
        const std::uint64_t key = (std::uint64_t{rt.len} << 32) | rt.prefix;
        if (per_len[rt.len] < kSlotsPerLength && present.insert(key).second) {
          ++per_len[rt.len];
          return rt;
        }
      }
    };
    for (unsigned i = 0; i < kRoutes; ++i) live.push_back(fresh());
    in.initial = live;
    for (std::uint64_t rep = 0; rep < kReplacements; ++rep) {
      const std::uint64_t lookups = kLookupsPerReplacement - 3 + rng.below(7);
      for (std::uint64_t l = 0; l < lookups; ++l) {
        Op op;
        if (rng.chance(3, 4)) {
          const Route& rt = live[rng.below(live.size())];
          op.route.prefix = rt.prefix | (static_cast<std::uint32_t>(rng.next()) & ~prefix_mask(rt.len));
        } else {
          op.route.prefix = static_cast<std::uint32_t>(rng.next());
        }
        in.ops.push_back(op);
      }
      const std::size_t victim = rng.below(live.size());
      const Route gone = live[victim];
      in.ops.push_back({Op::kRemove, gone});
      present.erase((std::uint64_t{gone.len} << 32) | gone.prefix);
      --per_len[gone.len];
      live[victim] = fresh();
      in.ops.push_back({Op::kAdd, live[victim]});
    }
    return in;
  }

  /// Expected result of every op from a host longest-prefix match that
  /// replays the same stream: the next hop (or kNoRoute) for a lookup, 1
  /// for a remove/add that must succeed.
  static std::vector<std::uint64_t> host_lpm(const Inputs& in) {
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> by_len(33);
    for (const Route& rt : in.initial) by_len[rt.len][rt.prefix] = rt.hop;
    std::vector<std::uint64_t> out;
    out.reserve(in.ops.size());
    for (const Op& op : in.ops) {
      switch (op.kind) {
        case Op::kLookup: {
          std::uint64_t hop = kNoRoute;
          for (int len = 32; len >= 0; --len) {
            const auto it = by_len[len].find(op.route.prefix & prefix_mask(len));
            if (it != by_len[len].end()) {
              hop = it->second;
              break;
            }
          }
          out.push_back(hop);
          break;
        }
        case Op::kRemove:
          out.push_back(by_len[op.route.len].erase(op.route.prefix));
          break;
        case Op::kAdd:
          out.push_back(by_len[op.route.len].emplace(op.route.prefix, op.route.hop).second);
          break;
      }
    }
    return out;
  }

  std::uint64_t seed_;
  std::optional<std::vector<std::uint64_t>> reference_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tc_community", "stream_tcam48",
                                                 "lpm_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "tc_community") return std::make_unique<TcCommunity>(seed);
  if (name == "stream_tcam48") return std::make_unique<StreamTcam48>(seed);
  if (name == "lpm_churn") return std::make_unique<LpmChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
