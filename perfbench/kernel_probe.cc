#include "kernel_probe.h"

#include <algorithm>
#include <vector>

#include "seam.h"
#include "src/cam/encoder.h"
#include "src/cam/mask.h"
#include "src/cam/match_kernel.h"
#include "workloads.h"

namespace perfbench {

namespace {
volatile std::uint64_t g_sink = 0;
}  // namespace

KernelProbe probe_kernel(dspcam::cam::CamKind kind, unsigned data_width,
                         unsigned block_size, std::uint64_t dont_care,
                         std::uint64_t seed) {
  namespace cam = dspcam::cam;
  cam::MatchKernelQuery q;
  q.kind = kind;
  q.data_width = data_width;
  q.block_size = block_size;
  const cam::MatchKernel& k = cam::select_match_kernel(q);

  // A full block of valid rows in the block's packed layout: stored words,
  // pre-inverted compare masks (~MASK over 48 bits), packed valid flags.
  SplitMix rng(seed);
  const std::uint64_t width = data_width >= 64 ? ~0ull : (1ull << data_width) - 1;
  const std::uint64_t mask = kind == cam::CamKind::kBinary
                                 ? cam::bcam_mask(data_width)
                                 : cam::tcam_mask(data_width, dont_care);
  std::vector<std::uint64_t> stored(block_size), nmask(block_size);
  std::vector<std::uint64_t> valid((block_size + 63) / 64, ~0ull);
  if (block_size % 64 != 0) valid.back() = (1ull << (block_size % 64)) - 1;
  for (unsigned i = 0; i < block_size; ++i) {
    stored[i] = rng.next() & width & ~mask;
    nmask[i] = ~mask & ((1ull << 48) - 1);
  }
  std::vector<cam::Word> keys(256);
  for (auto& key : keys) key = rng.next() & width;  // misses: full sweeps
  std::vector<std::uint64_t> bits((block_size + 63) / 64);
  dspcam::BitVec match(block_size);  // the unfused path's match-line vector
  cam::BlockResponse resp;

  constexpr int kReps = 7;
  constexpr std::size_t kSweeps = 200000;
  std::vector<double> per_rep;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSweeps; ++i) {
      const cam::Word key = keys[i & (keys.size() - 1)];
      if (k.encode_fn != nullptr) {
        cam::EncodedMatch out;
        k.encode_fn(stored.data(), nmask.data(), valid.data(), key, block_size,
                    cam::EncodingScheme::kPriorityIndex, out, bits.data());
        sink += out.first_match + (out.hit ? 1 : 0);
      } else {
        // What CamBlock's unfused path runs for one compare: the sweep,
        // the valid-AND into the match lines, then the encoder's scan.
        k.fn(stored.data(), nmask.data(), key, block_size, bits.data());
        for (std::size_t w = 0; w < bits.size(); ++w) match.set_word(w, bits[w] & valid[w]);
        cam::encode_match_lines_into(match, cam::EncodingScheme::kPriorityIndex,
                                     cam::QueryTag{}, resp);
        sink += resp.first_match + (resp.hit ? 1 : 0);
      }
    }
    per_rep.push_back(static_cast<double>(now_ns() - t0) / kSweeps);
  }
  std::sort(per_rep.begin(), per_rep.end());
  KernelProbe p;
  p.name = k.name;
  p.fused = k.encode_fn != nullptr;
  p.ns_per_sweep = per_rep[kReps / 2];
  g_sink = sink;  // keeps the sweeps' results observable
  return p;
}

}  // namespace perfbench
