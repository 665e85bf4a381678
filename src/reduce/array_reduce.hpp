// Array reductions — the extension §5 credits to Komoda et al. [11]: the
// OpenACC specification of the paper's era only allowed *scalar* reduction
// variables, so histogram-style kernels ("every element of an array needs
// to do reduction") had no direct spelling. This module lifts the scalar
// machinery to arrays:
//   * every thread keeps a private copy of the whole array and folds its
//     loop window into it,
//   * per-element in-block trees consolidate, reusing one shared slab
//     (the §3.3 slab-sharing idea applied across elements),
//   * per-block partial arrays land in global memory and a single-block
//     kernel finalizes every element (the Fig. 5c pattern, vectorized).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Per-thread private view of the reduction array inside the loop body.
template <typename T>
class ArrayAccum {
public:
  ArrayAccum(gpusim::ThreadCtx& ctx, std::span<T> priv,
             acc::RuntimeOp<T> op) noexcept
      : ctx_(&ctx), priv_(priv), op_(op) {}

  /// Fold `v` into element `e` of this thread's private copy.
  void add(std::size_t e, T v) {
    if (e >= priv_.size()) {
      throw std::out_of_range("array reduction element out of range");
    }
    priv_[e] = op_.apply(priv_[e], v);
    ctx_->alu(2);
  }

  [[nodiscard]] std::size_t size() const noexcept { return priv_.size(); }

private:
  gpusim::ThreadCtx* ctx_;
  std::span<T> priv_;
  acc::RuntimeOp<T> op_;
};

template <typename T>
struct ArrayReduceResult {
  std::vector<T> values;  ///< final array, length = array_len
  gpusim::LaunchStats stats;
  int kernels = 0;
};

/// Reduce an array of `array_len` elements over a same-loop iteration
/// space of `extent`, gang+vector distributed. `body(ctx, idx, accum)` is
/// called once per iteration and may fold into any element.
template <typename T, typename Body>
ArrayReduceResult<T> run_array_reduction(gpusim::Device& dev,
                                         std::int64_t extent,
                                         std::size_t array_len,
                                         const acc::LaunchConfig& cfg,
                                         acc::ReductionOp op, Body&& body,
                                         const StrategyConfig& sc = {}) {
  if (array_len == 0 || array_len > 4096) {
    throw std::invalid_argument(
        "array reduction supports 1..4096 elements (private copies live in "
        "thread-local storage)");
  }
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::uint32_t nthreads = w * v;
  const std::size_t total_threads = static_cast<std::size_t>(g) * nthreads;

  // One partial array per block, element-major within the block so the
  // finalize kernel reads each element's partials at stride array_len.
  auto partials = dev.alloc<T>(static_cast<std::size_t>(g) * array_len);
  auto pview = partials.view();

  gpusim::SharedLayout layout;
  auto sbuf = layout.add<T>(nthreads);  // slab reused per element (§3.3)

  auto kernel = [&, pview](gpusim::ThreadCtx& ctx) {
    const acc::RuntimeOp<T> rop{op};
    const std::uint32_t tid = ctx.linear_tid();
    const std::uint32_t bid = ctx.blockIdx.x;
    const std::size_t gtid = static_cast<std::size_t>(bid) * nthreads + tid;

    // The private copies live in one slab per host thread, not in the lane
    // frames: a faulting launch abandons its lanes' frames without
    // unwinding them (Fiber::abandon), so a frame-owned vector would leak.
    // A host thread simulates one block at a time, and the block's first
    // lane to start sizes the slab for all of its lanes before any of them
    // holds a span into it.
    thread_local std::vector<T> slab;
    const std::size_t need = static_cast<std::size_t>(nthreads) * array_len;
    if (slab.size() < need) slab.resize(need);
    const std::span<T> priv(
        slab.data() + static_cast<std::size_t>(tid) * array_len, array_len);
    std::fill(priv.begin(), priv.end(), rop.identity());
    ArrayAccum<T> accum(ctx, priv, rop);
    device_loop(sc.assignment, extent, static_cast<std::int64_t>(gtid),
                static_cast<std::int64_t>(total_threads),
                [&](std::int64_t idx) {
                  ctx.alu(2);
                  body(ctx, idx, accum);
                });

    // Per-element consolidation through the shared slab.
    for (std::size_t e = 0; e < array_len; ++e) {
      ctx.sts(sbuf, tid, priv[e]);
      block_tree_reduce(ctx, sbuf, 0, nthreads, 1, tid, rop, sc.tree);
      if (tid == 0) {
        ctx.st(pview, static_cast<std::size_t>(bid) * array_len + e,
               ctx.lds(sbuf, 0));
      }
      ctx.syncthreads();  // slab reused by the next element
    }
  };

  ArrayReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "array_partial"));
  res.kernels = 1;

  // Finalize: one block folds each element's per-gang partials.
  auto out = dev.alloc<T>(array_len);
  auto oview = out.view();
  const std::uint32_t ft = sc.finalize_threads;
  gpusim::SharedLayout flayout;
  auto fbuf = flayout.add<T>(ft);
  auto fin = [&, pview, oview](gpusim::ThreadCtx& ctx) {
    const acc::RuntimeOp<T> rop{op};
    const std::uint32_t t = ctx.threadIdx.x;
    for (std::size_t e = 0; e < array_len; ++e) {
      T priv = rop.identity();
      device_loop(sc.assignment, g, t, ft, [&](std::int64_t b) {
        ctx.alu(2);
        priv = rop.apply(
            priv, ctx.ld(pview, static_cast<std::size_t>(b) * array_len + e));
      });
      ctx.sts(fbuf, t, priv);
      block_tree_reduce(ctx, fbuf, 0, ft, 1, t, rop, sc.tree);
      if (t == 0) ctx.st(oview, e, ctx.lds(fbuf, 0));
      ctx.syncthreads();
    }
  };
  res.stats += gpusim::launch(dev, {1}, {ft}, flayout.bytes(), fin,
                              labeled_sim(sc.sim, "array_finalize"));
  res.kernels += 1;

  res.values.resize(array_len);
  out.copy_to_host(res.values);
  return res;
}

}  // namespace accred::reduce
