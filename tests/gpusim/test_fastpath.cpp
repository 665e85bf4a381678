// Golden determinism check for the chained warp interpreter (DESIGN.md §12):
// LaunchStats, per-stage profiles, racecheck reports, and fault-injection
// events hash to values recorded from the retired per-lane resume loop,
// which produced the same bits, for sim_threads 1 and 4. A deliberate model
// change updates the hashes; anything else that moves them is a bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "gpusim/launch.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "reduce/tree.hpp"

namespace accred {
namespace {

using gpusim::Device;
using gpusim::LaunchStats;
using gpusim::SimOptions;
using gpusim::ThreadCtx;

/// Everything the determinism contract gates, folded into one comparable
/// string. Doubles print as hexfloat so "identical" means bit-identical.
std::string fingerprint(const LaunchStats& s) {
  std::ostringstream os;
  os << std::hexfloat;
  os << s.blocks << '|' << s.threads << '|' << s.gmem_requests << '|'
     << s.gmem_segments << '|' << s.gmem_bytes << '|' << s.smem_requests
     << '|' << s.smem_cycles << '|' << s.barriers << '|' << s.syncwarps
     << '|' << s.alu_units << '|' << s.device_time_ns << '|'
     << s.barrier_exit_divergence << '|' << s.barrier_site_mismatch << '\n';
  os << obs::profile_to_json(s.profile).dump() << '\n';
  os << "races=" << s.races << '\n';
  for (const gpusim::RaceReport& r : s.race_reports) {
    os << to_string(r) << '\n';
  }
  os << "faults_armed=" << (s.faults_armed ? 1 : 0) << '\n';
  for (const gpusim::FaultEvent& e : s.fault_events) {
    os << to_string(e) << '\n';
  }
  return os.str();
}

/// FNV-1a 64 of a fingerprint: a stable hash to pin golden values.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Asserts that `fp` hashes to `golden`; the message carries the actual
/// hash so an intended model change can update the constant.
void expect_golden(const std::string& fp, std::uint64_t golden,
                   std::uint32_t sim_threads) {
  const std::uint64_t got = fnv1a(fp);
  EXPECT_EQ(got, golden) << "sim_threads=" << sim_threads << " hash 0x"
                         << std::hex << got << "\n"
                         << fp;
}

/// Divergent tree reduction exercising every gated output: a grid-stride
/// load loop with lane-dependent extra work (intra-warp divergence), shared
/// staging, the warp-synchronous tree tail (syncthreads + syncwarp), and
/// prof_scope stages for the profiler / racecheck / fault attribution.
struct DivergentTreeFixture {
  static constexpr std::int64_t kBlocks = 48;
  static constexpr std::int64_t kThreads = 128;
  static constexpr std::int64_t kN = 1 << 15;

  Device dev;
  gpusim::DeviceBuffer<float> data{dev.alloc<float>(kN)};
  gpusim::DeviceBuffer<float> out{
      dev.alloc<float>(static_cast<std::size_t>(kBlocks))};
  gpusim::SharedLayout layout;
  gpusim::SharedView<float> sbuf{
      layout.add<float>(static_cast<std::size_t>(kThreads))};
  acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  DivergentTreeFixture() {
    auto host = data.host_span();
    for (std::int64_t i = 0; i < kN; ++i) {
      host[static_cast<std::size_t>(i)] =
          0.125F * static_cast<float>(i % 193) - 7.0F;
    }
  }

  LaunchStats run(std::uint32_t sim_threads, const std::string& faults = {}) {
    out.fill(0.0F);
    auto dv = data.view();
    auto ov = out.view();
    auto sb = sbuf;
    auto op = rop;
    SimOptions opts;
    opts.sim_threads = sim_threads;
    opts.profile = true;
    opts.racecheck = true;
    opts.faults = faults;
    return gpusim::launch(
        dev, {static_cast<std::uint32_t>(kBlocks)},
        {static_cast<std::uint32_t>(kThreads)}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          float priv = 0;
          {
            auto s = ctx.prof_scope("load");
            for (std::int64_t i =
                     ctx.blockIdx.x * kThreads + ctx.threadIdx.x;
                 i < kN; i += kBlocks * kThreads) {
              priv += ctx.ld(dv, static_cast<std::size_t>(i));
            }
            // Lane-dependent divergence: a third of each warp does extra
            // reads and ALU work, so the chained pass crosses reconvergence
            // points with lanes in different states.
            if (ctx.threadIdx.x % 3 == 0) {
              priv += ctx.ld(dv, ctx.threadIdx.x);
              ctx.alu(2.0);
            }
          }
          {
            auto s = ctx.prof_scope("stage");
            ctx.sts(sb, ctx.threadIdx.x, priv);
          }
          reduce::block_tree_reduce(ctx, sb, 0, kThreads, 1, ctx.threadIdx.x,
                                    op);
          if (ctx.linear_tid() == 0) {
            ctx.st(ov, ctx.blockIdx.x, ctx.lds(sb, 0));
          }
        },
        opts);
  }

  /// The kernel's per-block outputs, bit-exact.
  std::string partials() const {
    std::ostringstream os;
    os << std::hexfloat;
    for (const float v : out.host_span()) os << v << ' ';
    return os.str();
  }
};

// Golden hashes of fingerprint() (plus partials() for the clean kernel).
constexpr std::uint64_t kCleanGolden = 0xc0b0ce3cb172bc7b;
constexpr std::uint64_t kCampaignGolden = 0xde7745f3993bc622;
constexpr std::uint64_t kMutantGolden = 0x962034c7a40b0d7a;

TEST(Fastpath, CleanKernelMatchesGolden) {
  DivergentTreeFixture fix;
  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = fix.run(threads);
    EXPECT_GT(got.barriers, 0U);
    EXPECT_GT(got.syncwarps, 0U);
    EXPECT_FALSE(got.profile.empty());
    EXPECT_EQ(got.races, 0U);  // the clean kernel must stay clean
    expect_golden(fingerprint(got) + fix.partials(), kCleanGolden, threads);
  }
}

TEST(Fastpath, FaultCampaignEventsMatchGolden) {
  // A two-fault campaign: a seeded bit flip in the load stage of block 2
  // and a dropped barrier in block 7's tree stage. Event lists, race
  // reports (the skipped barrier races), and the lenient-mode diagnostic
  // counters are pinned.
  const std::string campaign =
      "bitflip@load:block=2,nth=1,seed=9;skip_barrier@tree:block=7,warp=0";
  DivergentTreeFixture fix;
  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = fix.run(threads, campaign);
    EXPECT_TRUE(got.faults_armed);
    EXPECT_FALSE(got.fault_events.empty());
    expect_golden(fingerprint(got), kCampaignGolden, threads);
  }
}

TEST(Fastpath, BarrierDeletionMutantRacesMatchGolden) {
  // The barrier-deletion mutant: a hand-rolled tree that drops syncthreads
  // while multiple warps still participate. Racecheck must flag the same races —
  // same count, same first reports, same stage attribution.
  Device dev;
  constexpr std::uint32_t kThreads = 128;
  auto out = dev.alloc<float>(4);
  gpusim::SharedLayout layout;
  auto sb = layout.add<float>(kThreads);
  auto ov = out.view();

  auto run = [&](std::uint32_t sim_threads) {
    out.fill(0.0F);
    SimOptions opts;
    opts.sim_threads = sim_threads;
    opts.racecheck = true;
    opts.profile = true;
    return gpusim::launch(
        dev, {4}, {kThreads}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          auto s = ctx.prof_scope("mutant_tree");
          const std::uint32_t t = ctx.threadIdx.x;
          ctx.sts(sb, t, static_cast<float>(t % 7));
          ctx.syncthreads();
          for (std::uint32_t stride = kThreads / 2; stride >= 1;
               stride /= 2) {
            if (t < stride) {
              const float a = ctx.lds(sb, t);
              const float b = ctx.lds(sb, t + stride);
              ctx.sts(sb, t, a + b);
            }
            // Deliberate mutation: no syncthreads between multi-warp
            // strides; only the warp-synchronous tail is synchronized.
            if (stride <= 16) ctx.syncwarp();
          }
          if (t == 0) ctx.st(ov, ctx.blockIdx.x, ctx.lds(sb, 0));
        },
        opts);
  };

  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = run(threads);
    EXPECT_GT(got.races, 0U) << "the mutant must actually race";
    EXPECT_FALSE(got.race_reports.empty());
    expect_golden(fingerprint(got), kMutantGolden, threads);
  }
}

}  // namespace
}  // namespace accred
