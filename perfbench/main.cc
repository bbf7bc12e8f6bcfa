// perfbench: end-to-end work/s benchmark over the paper's workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Runs back-to-back passes of one workload for --seconds, each pass a fresh
// set-up plus a fixed amount of work, and checks every answer.
//
// --trace 0 prints one JSON record per pass ({"pass": {...}}) and a closing
// {"process": {...}} line. A pass record carries the work rate and latency
// percentiles of each chunk of its requests; run.py pools the records of
// several such processes into the end-to-end metrics, timed over the
// fastest chunks.
//
// --trace 1 alternates untraced passes and passes with the backend seam
// probed (at least three of each), then prints the per-layer metrics as
// the result object and writes the seam spans as a Chrome trace to
// <out-dir>/<workload>.trace.json. The probe's own per-call cost is
// calibrated and subtracted from the layers it lands in; it is reported as
// trace.probe_frac.
//
// A wrong answer exits 1, a usage error 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "kernel_probe.h"
#include "seam.h"
#include "tools/trace_lint_lib.h"
#include "workloads.h"

namespace {

using perfbench::PassResult;

constexpr int kMinTracedPasses = 3;  // and as many untraced, in a --trace 1 run

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident memory of this process image, from /proc/self/status
/// VmHWM. (getrusage's ru_maxrss would also count the pre-exec image of the
/// launching process, which Linux folds into it at exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return NAN;
}

/// Cuts a pass's requests, in completion order, into chunks of
/// chunk_requests (one chunk when the pass has fewer) and records each
/// chunk's duration, work and latency percentiles; a trailing partial
/// chunk is left out. Then frees the per-request samples.
void summarise(PassResult& r) {
  const std::size_t n = r.latency_us.size();
  r.latency_samples = n;
  const std::size_t size = std::min(n, r.chunk_requests);
  std::uint64_t from = r.start_ns;
  for (std::size_t lo = 0; size > 0 && lo + size <= n; lo += size) {
    const auto first = static_cast<std::ptrdiff_t>(lo);
    const auto last = static_cast<std::ptrdiff_t>(lo + size);
    const std::vector<double> lat(r.latency_us.begin() + first, r.latency_us.begin() + last);
    const std::uint64_t to = r.done_ns[lo + size - 1];
    r.chunk_s.push_back(static_cast<double>(to - from) / 1e9);
    r.chunk_work.push_back(std::accumulate(r.req_work.begin() + first,
                                           r.req_work.begin() + last, std::uint64_t{0}));
    r.chunk_p50_us.push_back(percentile(lat, 0.50));
    r.chunk_p99_us.push_back(percentile(lat, 0.99));
    from = to;
  }
  std::vector<double>().swap(r.latency_us);
  std::vector<std::uint64_t>().swap(r.done_ns);
  std::vector<std::uint32_t>().swap(r.req_work);
}

/// Runs passes until `seconds` have elapsed and at least `min_passes` ran.
/// `rss_after_first`, when given, receives the peak memory after pass one.
std::vector<PassResult> run_passes(perfbench::Workload& w, double seconds, int min_passes,
                                   const perfbench::PassOptions& options,
                                   perfbench::SpanLog* outer_log,
                                   std::vector<perfbench::SpanLog>* system_logs,
                                   perfbench::SpanLog* pass_log,
                                   double* rss_after_first = nullptr) {
  std::vector<PassResult> passes;
  const std::uint64_t start = perfbench::now_ns();
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(perfbench::now_ns() - start) / 1e9 < seconds) {
    const std::uint64_t id = perfbench::next_span_id();
    perfbench::g_pass_span.store(id, std::memory_order_relaxed);
    const std::uint64_t t0 = perfbench::now_ns();
    PassResult& r = passes.emplace_back(w.run_pass(options, outer_log, system_logs));
    summarise(r);
    if (rss_after_first != nullptr && passes.size() == 1) *rss_after_first = peak_rss_mb();
    if (pass_log != nullptr) {
      pass_log->add({"workload.pass", t0, perfbench::now_ns() - t0, id, 0, 0});
    }
    if (r.failed != 0 || !r.error.empty()) break;
  }
  return passes;
}

/// Mean work rate of the fastest 5% (at least 3) of the chunks of
/// `passes`, as run.py times the end-to-end work_per_s.
double fastest_rate(const std::vector<PassResult>& passes) {
  std::vector<double> rates;
  for (const PassResult& p : passes) {
    for (std::size_t i = 0; i < p.chunk_s.size(); ++i) {
      rates.push_back(static_cast<double>(p.chunk_work[i]) / p.chunk_s[i]);
    }
  }
  std::sort(rates.begin(), rates.end(), std::greater<>());
  const auto share = static_cast<std::size_t>(std::ceil(0.05 * static_cast<double>(rates.size())));
  const std::size_t k = std::min(rates.size(), std::max<std::size_t>(3, share));
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += rates[i];
  return sum / static_cast<double>(k);
}

/// Checks every pass answered correctly and offered identical work.
std::string check(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    if (!p.error.empty()) return p.error;
    const PassResult& f = passes.front();
    if (p.sim_cycles != f.sim_cycles || p.keys != f.keys || p.hits != f.hits ||
        p.tickets != f.tickets || p.digest != f.digest) {
      return "passes over the same inputs disagree (sim_cycles/keys/hits/tickets/digest)";
    }
  }
  return "";
}

std::string nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i == 0 ? "" : ", ") + num(v[i]);
  return out + "]";
}

void write_json_object(std::ostream& os, const std::map<std::string, std::string>& kv) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : kv) {
    os << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  os << '}';
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c >= ' ' ? c : ' ';
  }
  return q + '"';
}

/// --trace 0: one record per pass plus a closing process line. Peak memory
/// is read after the first pass, so it covers a fixed amount of work
/// however many passes the process then fits in.
int report_passes(perfbench::Workload& w, const Args& args) {
  double rss_mb = 0;
  const std::vector<PassResult> passes = run_passes(
      w, args.seconds, 1, perfbench::PassOptions{}, nullptr, nullptr, nullptr, &rss_mb);
  const std::string error = check(passes);
  std::ostringstream out;
  for (const PassResult& p : passes) {
    out << "{\"pass\": ";
    write_json_object(out, {{"run_s", num(p.run_s)},
                            {"setup_s", num(p.setup_s)},
                            {"work", std::to_string(p.work)},
                            {"attempted", std::to_string(p.attempted)},
                            {"failed", std::to_string(p.failed)},
                            {"sim_cycles", std::to_string(p.sim_cycles)},
                            {"keys", std::to_string(p.keys)},
                            {"hits", std::to_string(p.hits)},
                            {"tickets", std::to_string(p.tickets)},
                            {"digest", std::to_string(p.digest)},
                            {"latency_samples", std::to_string(p.latency_samples)},
                            {"chunk_s", nums(p.chunk_s)},
                            {"chunk_work", nums(std::vector<double>(p.chunk_work.begin(),
                                                                    p.chunk_work.end()))},
                            {"chunk_p50_us", nums(p.chunk_p50_us)},
                            {"chunk_p99_us", nums(p.chunk_p99_us)}});
    out << "}\n";
  }
  out << "{\"process\": ";
  write_json_object(out, {{"peak_rss_mb", num(rss_mb)}, {"error", quoted(error)}});
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return error.empty() ? 0 : 1;
}

/// --trace 1: alternating untraced and seam-probed passes, then the
/// per-layer metrics as the result object.
int report_layers(perfbench::Workload& w, const Args& args) {
  std::map<std::string, std::string> metrics;  // name -> {"value", "unit"} object
  std::map<std::string, std::string> detail;
  auto metric = [&](const std::string& name, double value, const std::string& unit) {
    metrics[name] = "{\"value\": " + num(value) + ", \"unit\": \"" + unit + "\"}";
  };

  // Untraced and probed passes alternate, so host speed drift falls on
  // both alike; the probe's cost is calibrated before each probed pass.
  perfbench::SpanLog outer_log, pass_log;
  std::vector<perfbench::SpanLog> system_logs(8);
  perfbench::PassOptions traced;
  traced.seam = true;
  std::vector<PassResult> plain, tp;
  std::vector<perfbench::SeamCost> costs;
  auto one_pass = [&](const perfbench::PassOptions& options, std::vector<PassResult>& into) {
    const bool seam = options.seam;
    into.push_back(std::move(run_passes(w, 0, 1, options, seam ? &outer_log : nullptr,
                                        seam ? &system_logs : nullptr,
                                        seam ? &pass_log : nullptr)
                                 .front()));
    return into.back().failed == 0 && into.back().error.empty();
  };
  const std::uint64_t start = perfbench::now_ns();
  bool ok = true;
  do {
    ok = one_pass(perfbench::PassOptions{}, plain);
    costs.push_back(perfbench::calibrate_seam());
    ok = one_pass(traced, tp) && ok;
  } while (ok && (static_cast<int>(tp.size()) < kMinTracedPasses ||
                  static_cast<double>(perfbench::now_ns() - start) / 1e9 < args.seconds));

  std::string error = check(plain);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : plain) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const PassResult& f = plain.front();
  if (error.empty()) error = check(tp);
  if (error.empty() && (tp.front().sim_cycles != f.sim_cycles ||
                        tp.front().digest != f.digest)) {
    error = "the seam probe changed the simulated run";
  }
  for (const PassResult& p : tp) {
    attempted += p.attempted;
    failed += p.failed;
  }

  // Sums over the traced passes.
  double total_ns = 0;
  perfbench::SeamCounters outer, sys_sum;
  for (const PassResult& p : tp) {
    total_ns += p.run_s * 1e9;
    outer += p.layers.outer;
    for (const auto& s : p.layers.systems) sys_sum += s;
  }
  const PassResult& t = tp.front();
  const double n_passes = static_cast<double>(tp.size());
  const bool sharded = !t.layers.systems.empty();
  const double threads = t.layers.effective_threads;

  // Take the probe's own cost out of every layer it landed in. A seam's
  // clock reads sit inside its step / I/O windows, the rest of its per-call
  // cost in its caller's time. The outer seam's caller is the driver; a
  // shard seam's is the engine, inside the outer seam's step window or, for
  // I/O the engine forwards at once, its I/O window.
  perfbench::SeamCost cost;
  {
    std::vector<double> sw, so, iw, io;
    for (const perfbench::SeamCost& c : costs) {
      sw.push_back(c.step_window_ns);
      so.push_back(c.step_outside_ns);
      iw.push_back(c.io_window_ns);
      io.push_back(c.io_outside_ns);
    }
    cost = {median(sw), median(so), median(iw), median(io)};
  }
  const double step_call_ns = cost.step_window_ns + cost.step_outside_ns;
  const double io_call_ns = cost.io_window_ns + cost.io_outside_ns;
  auto calls = [](std::uint64_t n) { return static_cast<double>(n); };
  const double shard_in_step =
      (calls(sys_sum.step_calls) * step_call_ns + calls(sys_sum.io_calls_in_step) * io_call_ns) /
      threads;
  const double shard_in_io = calls(sys_sum.io_calls - sys_sum.io_calls_in_step) * io_call_ns;
  const double outer_step_window = calls(outer.step_calls) * cost.step_window_ns;
  const double outer_io_window = calls(outer.io_calls) * cost.io_window_ns;
  const double outer_outside = calls(outer.step_calls) * cost.step_outside_ns +
                               calls(outer.io_calls) * cost.io_outside_ns;
  const double probe_ns =
      outer_step_window + outer_io_window + outer_outside + shard_in_step + shard_in_io;
  const double step_ns = static_cast<double>(outer.step_ns) - outer_step_window - shard_in_step;
  const double io_ns = static_cast<double>(outer.io_ns) - outer_io_window - shard_in_io;
  const double driver_self_ns = total_ns - step_ns - io_ns - probe_ns;
  const double sys_step_ns =
      static_cast<double>(sys_sum.step_ns) - calls(sys_sum.step_calls) * cost.step_window_ns;

  const perfbench::Geometry g = w.geometry();
  const perfbench::KernelProbe k =
      perfbench::probe_kernel(g.kind, g.data_width, g.block_size, g.dont_care, args.seed);
  const double engine_self =
      sharded ? std::max(0.0, step_ns - sys_step_ns / threads) / total_ns : 0.0;
  const double kernel_est = static_cast<double>(t.keys) * n_passes * t.sweeps_per_key *
                            k.ns_per_sweep / threads / total_ns;
  const perfbench::SeamCounters& unit_seams = sharded ? sys_sum : outer;

  metric("driver.self_frac", driver_self_ns / total_ns, "ratio");
  metric("driver.self_ns_per_request", driver_self_ns / static_cast<double>(outer.submits), "ns");
  metric("driver.cycles_per_step_call",
         static_cast<double>(outer.cycles) / static_cast<double>(outer.step_calls), "cycles");
  metric("driver.requests", static_cast<double>(outer.submits) / n_passes, "count");
  metric("backend.step_frac", step_ns / total_ns, "ratio");
  metric("backend.io_frac", io_ns / total_ns, "ratio");
  metric("backend.step_ns_per_cycle", step_ns / static_cast<double>(outer.cycles), "ns/cycle");
  metric("engine.self_frac", engine_self, "ratio");
  metric("engine.shard_busy_frac",
         sharded ? sys_step_ns / (step_ns * threads) : 0.0, "ratio");
  metric("engine.io_frac", sharded ? io_ns / total_ns : 0.0, "ratio");
  metric("engine.stall_cycles_per_beat",
         sharded ? static_cast<double>(t.stall_cycles) / static_cast<double>(t.tickets) : 0.0,
         "cycles");
  metric("system.step_ns_per_cycle",
         sharded ? sys_step_ns / static_cast<double>(sys_sum.cycles)
                 : step_ns / static_cast<double>(outer.cycles),
         "ns/cycle");
  metric("system.fusion_batches", static_cast<double>(t.fusion_batches), "count");
  metric("system.fusion_barrier_breaks", static_cast<double>(t.fusion_barrier_breaks), "count");
  metric("system.gated_cycle_frac",
         static_cast<double>(t.gated_cycles) / static_cast<double>(t.system_cycles), "ratio");
  metric("unit.active_blocks_mean",
         unit_seams.active_blocks_sum / static_cast<double>(unit_seams.active_samples), "blocks");
  metric("unit.bookkeeping_frac", step_ns / total_ns - engine_self - kernel_est, "ratio");
  metric("kernel.ns_per_sweep", k.ns_per_sweep, "ns");
  metric("kernel.sweeps_per_key", t.sweeps_per_key, "count");
  metric("kernel.est_frac", kernel_est, "ratio");
  metric("kernel.fused", k.fused ? 1 : 0, "bool");
  metric("work.keys_searched", static_cast<double>(t.keys), "count");
  metric("work.hits", static_cast<double>(t.hits), "count");
  metric("work.tickets", static_cast<double>(t.tickets), "count");
  metric("trace.overhead_frac", fastest_rate(plain) / fastest_rate(tp) - 1, "ratio");
  metric("trace.probe_frac", probe_ns / total_ns, "ratio");

  detail["kernel"] = quoted(k.name);
  detail["kernel_path"] = quoted(k.fused ? "fused" : "unfused");
  detail["unit_kernel"] = quoted(w.unit_kernel_name());
  detail["effective_step_threads"] = std::to_string(t.layers.effective_threads);
  detail["traced_passes"] = std::to_string(tp.size());
  detail["probe_ns_per_step_call"] = num(cost.step_window_ns + cost.step_outside_ns);
  detail["probe_ns_per_io_call"] = num(cost.io_window_ns + cost.io_outside_ns);

  std::vector<const perfbench::SpanLog*> logs = {&pass_log, &outer_log};
  std::uint64_t dropped = outer_log.dropped();
  for (const auto& l : system_logs) {
    logs.push_back(&l);
    dropped += l.dropped();
  }
  const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
  const std::string text = perfbench::chrome_trace(logs);
  const auto lint = dspcam::tools::tracelint::lint_trace(text);
  std::ofstream file(path);
  file << text;
  if (error.empty() && !lint.ok) error = "trace_lint rejects the seam trace: " + lint.error;
  if (error.empty() && !file) error = "cannot write " + path;
  detail["trace_file"] = quoted(path);
  detail["trace_spans_dropped"] = std::to_string(dropped);

  if (!error.empty()) {
    detail["error"] = quoted(error);
    if (failed == 0) failed = 1;
  }
  std::ostringstream out;
  out << "{\"detail\": ";
  write_json_object(out, detail);
  out << "}\n{\"correct\": " << (error.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": ";
  write_json_object(out, metrics);
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return error.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);
  return args.trace == 0 ? report_passes(*workload, args) : report_layers(*workload, args);
}
