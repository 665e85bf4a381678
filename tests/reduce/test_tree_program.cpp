// The in-block tree as a lane program (DESIGN.md §12, "Lane programs"):
// every lane parks its fiber once per block_tree_reduce call whatever the
// tree's shape, and an exception raised inside a scheduler-run tree step
// surfaces exactly as it does from straight-line kernel code, leaving the
// host thread's scheduler clean for the next launch.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/launch.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "reduce/tree.hpp"

namespace accred::reduce {
namespace {

using gpusim::Device;
using gpusim::LaunchError;
using gpusim::LaunchErrorCode;
using gpusim::LaunchStats;
using gpusim::SimOptions;
using gpusim::ThreadCtx;

/// One tree shape: a 2-D block whose rows of blockDim.x lanes each reduce
/// `count` staged values v[i] = i + 1 (shared or global staging).
struct TreeShape {
  std::uint32_t block_x = 128;
  std::uint32_t rows = 1;
  std::uint32_t count = 128;
  AddrMode addr = AddrMode::kSequential;
  bool global = false;
  int calls = 1;  ///< back-to-back tree calls per lane
};

struct ShapeRun {
  std::uint64_t parks = 0;      ///< fiber parks of the whole launch
  std::uint64_t lanes = 0;      ///< simulated threads
  std::vector<long long> sums;  ///< per block and row, last call's result
};

ShapeRun run_shape(const TreeShape& shape) {
  constexpr std::uint32_t kBlocks = 3;
  const std::uint32_t block_threads = shape.block_x * shape.rows;
  const std::uint32_t row_elems = std::max(shape.block_x, shape.count);
  Device dev;
  auto out = dev.alloc<long long>(kBlocks * shape.rows);
  auto stage = dev.alloc<long long>(kBlocks * shape.rows * row_elems);
  auto ov = out.view();
  auto gv = stage.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<long long>(shape.rows * row_elems);
  const acc::RuntimeOp<long long> rop{acc::ReductionOp::kSum};
  TreeOptions opt;
  opt.addr = shape.addr;
  SimOptions so;
  so.sim_threads = 1;  // blocks run on this thread's scheduler

  const std::uint64_t before = gpusim::tls_scheduler().fiber_parks();
  const LaunchStats stats = gpusim::launch(
      dev, {kBlocks}, {shape.block_x, shape.rows}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t x = ctx.threadIdx.x;
        const std::uint32_t y = ctx.threadIdx.y;
        const std::uint32_t local = x < shape.count ? x : ~0U;
        const std::size_t gbase =
            (static_cast<std::size_t>(ctx.blockIdx.x) * shape.rows + y) *
            row_elems;
        for (int c = 0; c < shape.calls; ++c) {
          // The tree's leading barrier orders these staging stores.
          if (x < shape.count) {
            const auto v = static_cast<long long>(x) + 1;
            if (shape.global) {
              ctx.st(gv, gbase + x, v);
            } else {
              ctx.sts(sbuf, y * row_elems + x, v);
            }
          }
          if (shape.global) {
            block_tree_reduce_global(ctx, gv, gbase, shape.count, local, rop,
                                     opt);
          } else {
            block_tree_reduce(ctx, sbuf, y * row_elems, shape.count, 1, local,
                              rop, opt);
          }
          if (x == 0 && shape.count > 0) {
            ctx.st(ov, ctx.blockIdx.x * shape.rows + y,
                   shape.global ? ctx.ld(gv, gbase)
                                : ctx.lds(sbuf, y * row_elems));
          }
        }
      },
      so);
  ShapeRun r;
  r.parks = gpusim::tls_scheduler().fiber_parks() - before;
  r.lanes = stats.threads;
  EXPECT_EQ(r.lanes, std::uint64_t{kBlocks} * block_threads);
  const auto host = out.host_span();
  r.sums.assign(host.begin(), host.end());
  return r;
}

void expect_one_park_per_tree(const TreeShape& shape) {
  const ShapeRun r = run_shape(shape);
  EXPECT_EQ(r.parks, r.lanes * static_cast<std::uint64_t>(shape.calls))
      << "count=" << shape.count << " rows=" << shape.rows;
  const long long n = shape.count;
  if (n == 0) return;
  for (const long long s : r.sums) EXPECT_EQ(s, n * (n + 1) / 2);
}

TEST(TreeProgramParks, CountOfAtMostOneParksAtTheLeadBarrierOnly) {
  expect_one_park_per_tree({.block_x = 64, .count = 1});
  expect_one_park_per_tree({.block_x = 64, .count = 0});
}

TEST(TreeProgramParks, NonPowerOfTwoPreFold) {
  expect_one_park_per_tree({.block_x = 128, .count = 100});
  expect_one_park_per_tree({.block_x = 96, .count = 96});
}

TEST(TreeProgramParks, WarpTailWithSeveralRows) {
  // Four 64-lane rows each run the syncwarp tail and its publish barrier.
  expect_one_park_per_tree({.block_x = 64, .rows = 4, .count = 64});
  expect_one_park_per_tree({.block_x = 32, .rows = 3, .count = 20});
}

TEST(TreeProgramParks, InterleavedAddressing) {
  expect_one_park_per_tree(
      {.block_x = 128, .count = 128, .addr = AddrMode::kInterleavedThreads});
  expect_one_park_per_tree(
      {.block_x = 128, .count = 77, .addr = AddrMode::kInterleavedThreads});
}

TEST(TreeProgramParks, GlobalMemoryTree) {
  expect_one_park_per_tree({.block_x = 128, .count = 128, .global = true});
  expect_one_park_per_tree({.block_x = 64, .count = 50, .global = true});
}

TEST(TreeProgramParks, BackToBackTreesParkOncePerCall) {
  expect_one_park_per_tree({.block_x = 64, .rows = 2, .count = 64, .calls = 3});
}

// ---- exceptions raised inside a tree step -----------------------------

constexpr std::uint32_t kBlocks = 4;
constexpr std::uint32_t kThreads = 128;

/// 4 blocks x 128 lanes: shared staging, one block_tree_reduce over `count`
/// elements of a `view_elems` shared view, per-block result to global.
/// Profiled and racechecked so every gated output is in play.
struct FaultFixture {
  Device dev;
  gpusim::DeviceBuffer<float> out{dev.alloc<float>(kBlocks)};

  LaunchStats run(const std::string& faults, std::uint32_t count = kThreads,
                  std::uint32_t view_elems = kThreads) {
    out.fill(0.0F);
    gpusim::SharedLayout layout;
    auto sbuf = layout.add<float>(view_elems);
    auto ov = out.view();
    const acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};
    SimOptions so;
    so.sim_threads = 1;
    so.profile = true;
    so.racecheck = true;
    so.faults = faults;
    return gpusim::launch(
        dev, {kBlocks}, {kThreads}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          const std::uint32_t t = ctx.threadIdx.x;
          {
            auto s = ctx.prof_scope("staging");
            if (t < view_elems) {
              ctx.sts(sbuf, t,
                      static_cast<float>((t * 7 + ctx.blockIdx.x) % 13));
            }
          }
          block_tree_reduce(ctx, sbuf, 0, count, 1, t, rop);
          if (t == 0) ctx.st(ov, ctx.blockIdx.x, ctx.lds(sbuf, 0));
        },
        so);
  }

  /// Stats, profile, race reports and per-block outputs, bit-exact.
  std::string fingerprint(const LaunchStats& s) const {
    std::ostringstream os;
    os << std::hexfloat << s.blocks << '|' << s.threads << '|'
       << s.gmem_requests << '|' << s.gmem_segments << '|' << s.smem_requests
       << '|' << s.smem_cycles << '|' << s.barriers << '|' << s.syncwarps
       << '|' << s.alu_units << '|' << s.device_time_ns << '\n'
       << obs::profile_to_json(s.profile).dump() << "\nraces=" << s.races
       << '\n';
    for (const gpusim::RaceReport& r : s.race_reports) {
      os << to_string(r) << '\n';
    }
    for (const float v : out.host_span()) os << v << ' ';
    return os.str();
  }
};

/// The fingerprint of a clean launch on a brand-new host thread, whose
/// scheduler has never seen a fault.
std::string fresh_clean_fingerprint() {
  std::string fp;
  std::thread([&] {
    FaultFixture fresh;
    fp = fresh.fingerprint(fresh.run(""));
  }).join();
  return fp;
}

struct AbortCase {
  const char* spec;
  std::uint32_t warp;
  std::uint32_t barrier_seq;
  const char* fired;  ///< to_string of the single fired event
};

// The sites a straight-line loop over the same tree reports for the same
// op ordinals (checked against one). nth=40 of warp 2 lands in the first
// stride step (the warp's lanes only arrive at its barrier); nth=300 of
// warp 0 lands in the syncwarp tail.
const AbortCase kAbortCases[] = {
    {"warp_abort@tree:block=1,warp=2,nth=40", 2, 1,
     "warp_abort fired in block=(1,0,0) warp=2 stage=tree: aborted at "
     "instrumented op 40"},
    {"warp_abort@tree:block=1,warp=0,nth=300", 0, 3,
     "warp_abort fired in block=(1,0,0) warp=0 stage=tree: aborted at "
     "instrumented op 300"},
};

TEST(TreeProgramFaults, WarpAbortInsideATreeStepSurfacesAtItsSite) {
  const std::string fresh = fresh_clean_fingerprint();
  for (const AbortCase& c : kAbortCases) {
    FaultFixture fix;
    try {
      (void)fix.run(c.spec);
      ADD_FAILURE() << "expected LaunchError{kWarpAbort} for " << c.spec;
    } catch (const LaunchError& e) {
      const gpusim::LaunchErrorInfo& info = e.info();
      EXPECT_EQ(info.code, LaunchErrorCode::kWarpAbort) << c.spec;
      EXPECT_TRUE(info.injected);
      EXPECT_TRUE(info.has_site);
      EXPECT_EQ(info.block.x, 1U);
      EXPECT_EQ(info.warp, c.warp);
      EXPECT_EQ(info.stage, "tree");
      EXPECT_EQ(info.barrier_seq, c.barrier_seq) << c.spec;
      ASSERT_EQ(info.fired.size(), 1U);
      EXPECT_EQ(to_string(info.fired[0]), c.fired);
    }
    // Same host thread, same scheduler: no lane program of the aborted
    // block survives into the next launch.
    EXPECT_EQ(fix.fingerprint(fix.run("")), fresh) << "after " << c.spec;
  }
}

TEST(TreeProgramFaults, OutOfRangeIndexInsideATreeStepSurfacesUnchanged) {
  const std::string fresh = fresh_clean_fingerprint();
  FaultFixture fix;
  // A 128-element tree over a 64-element view: lane 0's first stride step
  // loads element 64.
  try {
    (void)fix.run("", kThreads, kThreads / 2);
    ADD_FAILURE() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(),
                 "shared load out of bounds: index 64 in shared view of 64 "
                 "elements");
  }
  EXPECT_EQ(fix.fingerprint(fix.run("")), fresh);
}

}  // namespace
}  // namespace accred::reduce
