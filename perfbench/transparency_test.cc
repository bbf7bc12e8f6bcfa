// The seam probe and the reset clock must be invisible to the simulation:
// a pass with and without them offers and answers identical work, and the sharded stream is
// byte-identical across engine stepping-thread counts. The seam spans must
// pass the repository's trace_lint checks, and the probe's per-call cost
// calibration must give plausible figures.
#include <gtest/gtest.h>

#include "kernel_probe.h"
#include "seam.h"
#include "src/graph/builder.h"
#include "src/system/cam_system.h"
#include "src/tc/validate.h"
#include "tools/trace_lint_lib.h"
#include "workloads.h"

namespace perfbench {
namespace {

PassResult run(const std::string& name, const PassOptions& options,
               SpanLog* outer_log = nullptr, std::vector<SpanLog>* system_logs = nullptr) {
  auto w = make_workload(name, 7);
  EXPECT_NE(w, nullptr);
  return w->run_pass(options, outer_log, system_logs);
}

void expect_same_work(const PassResult& a, const PassResult& b) {
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_TRUE(b.error.empty()) << b.error;
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_GT(a.keys, 0u);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.tickets, b.tickets);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Seam, TransparentOnEveryWorkload) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    PassOptions probed;
    probed.seam = true;
    SpanLog outer;
    std::vector<SpanLog> systems(8);
    const PassResult with = run(name, probed, &outer, &systems);
    expect_same_work(run(name, PassOptions{}), with);
    EXPECT_GT(with.layers.outer.step_calls, 0u);
    EXPECT_GT(with.layers.outer.submits, 0u);
  }
}

TEST(ResetClock, TransparentAndSeesOneResetPerJob) {
  // A triangle (0, 1, 2) plus a pendant edge (2, 3): vertices 0, 1 and 2
  // have a higher-numbered neighbour, so the count runs three jobs.
  const auto g = dspcam::graph::build_undirected(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  dspcam::system::CamSystem::Config c;
  c.unit.unit_size = 2;
  dspcam::system::CamSystem plain(c), clocked(c);
  ResetClock clock(clocked);
  EXPECT_EQ(dspcam::tc::count_triangles_with_backend(g, plain), 1u);
  EXPECT_EQ(dspcam::tc::count_triangles_with_backend(g, clock), 1u);
  EXPECT_EQ(clock.resets().size(), 1u + 3u);
  const auto a = plain.stats();
  const auto b = clocked.stats();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.keys_searched, b.keys_searched);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.acks, b.acks);
}

TEST(Seam, StreamIdenticalAcrossStepThreads) {
  PassOptions one, four;
  one.step_threads = 1;
  four.step_threads = 4;
  const PassResult base = run("stream_tcam48", one);
  expect_same_work(base, run("stream_tcam48", four));
  one.seam = four.seam = true;
  expect_same_work(base, run("stream_tcam48", one));
  const PassResult probed4 = run("stream_tcam48", four);
  expect_same_work(base, probed4);
  EXPECT_EQ(probed4.layers.effective_threads, 4u);
  EXPECT_EQ(probed4.layers.systems.size(), 4u);
}

TEST(Seam, TraceIsAcceptedByTraceLint) {
  PassOptions probed;
  probed.seam = true;
  SpanLog outer;
  std::vector<SpanLog> systems(8);
  run("stream_tcam48", probed, &outer, &systems);
  std::vector<const SpanLog*> logs = {&outer};
  for (const auto& s : systems) logs.push_back(&s);
  const auto lint = dspcam::tools::tracelint::lint_trace(chrome_trace(logs));
  EXPECT_TRUE(lint.ok) << lint.error;
  EXPECT_GT(lint.spans, outer.spans().size());  // shard spans are present too
}

TEST(KernelProbe, TimesTheKernelTheBlocksRun) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    auto w = make_workload(name, 7);
    const Geometry g = w->geometry();
    const KernelProbe k = probe_kernel(g.kind, g.data_width, g.block_size, g.dont_care, 7);
    EXPECT_EQ(k.name, w->unit_kernel_name());
    EXPECT_GT(k.ns_per_sweep, 0.0);
  }
}

TEST(SeamCost, CalibrationMeasuresTheProbe) {
  const SeamCost c = calibrate_seam();
  EXPECT_GT(c.step_window_ns, 0.0);  // a clock read at least
  EXPECT_GT(c.io_window_ns, 0.0);
  EXPECT_LT(c.step_window_ns + c.step_outside_ns, 1e5);
  EXPECT_LT(c.io_window_ns + c.io_outside_ns, 1e5);
}

}  // namespace
}  // namespace perfbench
