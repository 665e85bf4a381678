// In-block log-step tree reduction (the paper's Fig. 7, after Harris [10]),
// generalized the way OpenUH needs it:
//   * arbitrary (non-power-of-2) element counts via a pre-fold step (§3.3),
//   * per-row operation so each worker's vector lanes can reduce their own
//     row concurrently (Fig. 6c),
//   * strided element layout so the transposed layouts of Fig. 6b / 8b are
//     expressible (and their bank conflicts measurable),
//   * a warp-synchronous tail that replaces syncthreads with (free)
//     syncwarp once only one warp participates (§3.1.1's "unroll the last
//     6 iterations"),
//   * both shared-memory and global-memory operands (§3.3's fallback).
//
// Contract: stage the per-thread partials, then have EVERY thread of the
// block call the same tree function with the same `count` and options (the
// functions contain barriers; the leading barrier orders the staging
// stores). Non-participants pass `local >= count`. On return, the result
// sits in the row's first element and is visible block-wide.
//
// In the simulator the tree runs as a lane program (DESIGN.md §12): the
// calling lane's fiber parks once, at the leading barrier, and the block
// scheduler steps the remaining rendezvous on its own stack, making the
// same ThreadCtx calls in the same order as straight-line code would. An
// exception raised inside a step (an out-of-range index, an injected
// warp_abort) surfaces from the launch as it would from the kernel body,
// but cannot be caught by the kernel around the tree call.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "acc/ops.hpp"
#include "gpusim/thread_ctx.hpp"

namespace accred::reduce {

enum class AddrMode : std::uint8_t {
  kSequential,          ///< active threads 0..stride-1 (paper's choice)
  kInterleavedThreads,  ///< Harris kernel-1 baseline: thread t active when
                        ///< t % (2*stride) == 0 (divergent, conflict-prone)
};

struct TreeOptions {
  AddrMode addr = AddrMode::kSequential;
  /// Switch to syncwarp once a single warp of lanes remains (requires the
  /// participating lanes 0..31 of a row to be one hardware warp).
  bool unroll_last_warp = true;
  /// Model full unrolling (paper: "we unroll all iterations"): removes the
  /// per-step loop-arithmetic ALU charge.
  bool full_unroll = true;
};

namespace detail {

/// True when the first 32 participants of a contiguous row form one
/// hardware warp — the precondition for the warp-synchronous tail. The
/// result must be uniform across the block: with blockDim.x a multiple of
/// 32, all row bases used by the strategies (y * blockDim.x, or 0) are
/// warp-aligned; otherwise the tail is disabled for everyone.
[[nodiscard]] constexpr bool warp_tail_allowed(std::uint32_t stride_elems,
                                               std::uint32_t block_x) {
  return stride_elems == 1 && block_x % 32 == 0;
}

// `Op` is anything with the RuntimeOp shape — `.apply(a, b)` over the
// staged element type. Payload reductions (acc::ArgMinOp over
// acc::ValueIndex pairs, the bench's moment pairs) reuse the tree
// unchanged this way.
//
// The tree as one lane's resumable program (gpusim::LaneProgram): lead
// barrier, optional pre-fold, one state per stride, publish barrier. Each
// step makes exactly the ThreadCtx calls the same stretch of a
// straight-line loop would, up to and including the arrival half of the
// next rendezvous.
template <typename Mem, typename Op>
class TreeProgram {
public:
  TreeProgram(accred::gpusim::ThreadCtx& ctx, const Mem& mem,
              std::uint32_t row_base, std::uint32_t count,
              std::uint32_t stride_elems, std::uint32_t local, Op op,
              const TreeOptions& opt, bool warp_tail_ok)
      : ctx_(&ctx),
        mem_(mem),
        op_(op),
        row_base_(row_base),
        count_(count),
        stride_elems_(stride_elems),
        local_(local),
        pow2_(count > 1 ? std::bit_floor(count) : 1),
        sequential_(opt.addr == AddrMode::kSequential),
        // Switch to syncwarp once a single warp of lanes remains; the warp
        // result is then published block-wide by one more syncthreads.
        warp_tail_(sequential_ && opt.unroll_last_warp && warp_tail_ok),
        full_unroll_(opt.full_unroll),
        stride_(sequential_ ? pow2_ / 2 : 1) {}

  /// LaneProgram::Step over a TreeProgram.
  static bool step(void* self) {
    return static_cast<TreeProgram*>(self)->advance();
  }

private:
  enum class State : std::uint8_t { kLead, kPreFold, kStride, kPublish, kEnd };

  bool advance() {
    for (;;) {
      switch (state_) {
        case State::kLead:  // order the callers' staging stores
          state_ = count_ <= 1       ? State::kEnd
                   : count_ > pow2_ ? State::kPreFold
                                    : State::kStride;
          if (ctx_->arrive_syncthreads()) return state_ != State::kEnd;
          break;
        case State::kPreFold:
          // Pre-fold the non-power-of-2 overhang (§3.3): element i absorbs
          // element i + pow2 for i < count - pow2.
          if (local_ < count_ - pow2_) combine(local_, local_ + pow2_);
          state_ = State::kStride;
          if (ctx_->arrive_syncthreads()) return true;
          break;
        case State::kStride:
          if (stride_step()) return state_ != State::kEnd;
          break;
        case State::kPublish:  // the warp-private tail result, block-wide
          state_ = State::kEnd;
          if (ctx_->arrive_syncthreads()) return false;
          break;
        case State::kEnd:
          return false;
      }
    }
  }

  /// One log step; true when the lane arrived at (did not skip) its
  /// closing rendezvous.
  bool stride_step() {
    const std::uint32_t s = stride_;
    bool warp_scope = false;
    if (sequential_) {
      warp_scope = warp_tail_ && s < 32;
      if (local_ < s) combine(local_, local_ + s);
      stride_ = s / 2;
      if (stride_ == 0) state_ = warp_tail_ ? State::kPublish : State::kEnd;
    } else {
      // Interleaved-thread addressing (Harris kernel 1): thread 2*s*m folds
      // element 2*s*m + s. Highly divergent within warps, and the active
      // threads span warps throughout, so every step is a syncthreads.
      if (local_ < pow2_ && local_ % (2 * s) == 0) combine(local_, local_ + s);
      stride_ = s * 2;
      if (stride_ >= pow2_) state_ = State::kEnd;
    }
    if (!full_unroll_) ctx_->alu(2);  // loop bookkeeping per step
    if (warp_scope) {
      ctx_->arrive_syncwarp();
      return true;
    }
    return ctx_->arrive_syncthreads();
  }

  void combine(std::uint32_t dst, std::uint32_t src) {
    const auto a = mem_.load(*ctx_, elem(dst));
    const auto b = mem_.load(*ctx_, elem(src));
    mem_.store(*ctx_, elem(dst), op_.apply(a, b));
  }
  [[nodiscard]] std::uint32_t elem(std::uint32_t idx) const {
    return row_base_ + idx * stride_elems_;
  }

  accred::gpusim::ThreadCtx* ctx_;
  Mem mem_;
  Op op_;
  std::uint32_t row_base_, count_, stride_elems_, local_, pow2_;
  bool sequential_, warp_tail_, full_unroll_;
  std::uint32_t stride_;  ///< the next log step's stride
  State state_ = State::kLead;
};

template <typename Mem, typename Op>
void tree_reduce_impl(accred::gpusim::ThreadCtx& ctx, const Mem& mem,
                      std::uint32_t row_base, std::uint32_t count,
                      std::uint32_t stride_elems, std::uint32_t local,
                      Op op, const TreeOptions& opt,
                      bool warp_tail_ok) {
  // Every combine load/store, barrier, and loop-bookkeeping charge of the
  // in-block tree books into one profiler stage — the per-stage bank
  // conflict factor here is what separates Fig. 6b from 6c.
  auto prof = ctx.prof_scope("tree");
  TreeProgram<Mem, Op> program(ctx, mem, row_base, count, stride_elems, local,
                               op, opt, warp_tail_ok);
  ctx.run_program(&TreeProgram<Mem, Op>::step, &program);
}

template <typename T>
struct SharedMemOps {
  accred::gpusim::SharedView<T> view;
  T load(accred::gpusim::ThreadCtx& ctx, std::uint32_t i) const {
    return ctx.lds(view, i);
  }
  void store(accred::gpusim::ThreadCtx& ctx, std::uint32_t i,
             const T& v) const {
    ctx.sts(view, i, v);
  }
};

template <typename T>
struct GlobalMemOps {
  accred::gpusim::GlobalView<T> view;
  std::size_t base = 0;  ///< this block's region within the buffer
  T load(accred::gpusim::ThreadCtx& ctx, std::uint32_t i) const {
    return ctx.ld(view, base + i);
  }
  void store(accred::gpusim::ThreadCtx& ctx, std::uint32_t i,
             const T& v) const {
    ctx.st(view, base + i, v);
  }
};

}  // namespace detail

/// Reduce `count` elements at shared offsets row_base + t*stride_elems into
/// the row's first element. `local` = this thread's participant index
/// within its row (>= count for bystanders).
template <typename T, typename Op = accred::acc::RuntimeOp<T>>
void block_tree_reduce(accred::gpusim::ThreadCtx& ctx,
                       accred::gpusim::SharedView<T> sbuf,
                       std::uint32_t row_base, std::uint32_t count,
                       std::uint32_t stride_elems, std::uint32_t local,
                       Op op, const TreeOptions& opt = {}) {
  const bool warp_ok =
      detail::warp_tail_allowed(stride_elems, ctx.blockDim.x);
  if (warp_ok && opt.unroll_last_warp && row_base % 32 != 0) {
    // Would make the syncwarp/syncthreads choice non-uniform across rows.
    throw std::invalid_argument(
        "block_tree_reduce: warp-synchronous tail requires warp-aligned row "
        "bases; disable unroll_last_warp for this layout");
  }
  detail::tree_reduce_impl(ctx, detail::SharedMemOps<T>{sbuf}, row_base,
                           count, stride_elems, local, op, opt, warp_ok);
}

/// Same contract, operating on a global-memory region (§3.3 fallback when
/// shared memory is reserved for other data). `base` addresses this
/// block's private region of the staging buffer.
template <typename T, typename Op = accred::acc::RuntimeOp<T>>
void block_tree_reduce_global(accred::gpusim::ThreadCtx& ctx,
                              accred::gpusim::GlobalView<T> gbuf,
                              std::size_t base, std::uint32_t count,
                              std::uint32_t local, Op op,
                              const TreeOptions& opt = {}) {
  detail::tree_reduce_impl(ctx, detail::GlobalMemOps<T>{gbuf, base}, 0, count,
                           1, local, op, opt,
                           /*warp_tail_ok=*/false);
}

}  // namespace accred::reduce
