// Stackful fibers used to give every simulated GPU thread its own
// suspendable execution context, so device code can call `syncthreads()`
// anywhere (including inside nested loops) exactly as CUDA kernels do.
//
// On x86_64 a hand-rolled callee-saved-register context switch is used
// (a few ns per switch); other platforms fall back to POSIX ucontext.
//
// Lanes run through one protocol on either backend (DESIGN.md §12):
// FastChain enters a ready list once and each suspending lane transfers
// control straight into the next lane's fiber (one switch per suspension,
// no scheduler frame in between), returning to the scheduler only when the
// whole pass has parked, completed, or faulted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>

#if !defined(ACCRED_FIBER_ASM)
#include <ucontext.h>
#endif

// ThreadSanitizer cannot see through a stack switch; under -fsanitize=thread
// (the -DACCRED_TSAN=ON preset that checks the host-parallel launch path,
// see pool.hpp) every switch is annotated with TSan's fiber API.
#if defined(__SANITIZE_THREAD__)
#define ACCRED_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ACCRED_TSAN_FIBERS 1
#endif
#endif

// AddressSanitizer likewise tracks one stack per thread unless told about
// each switch (and, for detect_stack_use_after_return, about each fake
// stack): under -fsanitize=address (the asan-ubsan preset) every switch
// is bracketed by __sanitizer_start/finish_switch_fiber, and a re-armed
// pooled stack is unpoisoned, since abandoned frames leave their scopes
// poisoned.
#if defined(__SANITIZE_ADDRESS__)
#define ACCRED_ASAN_FIBERS 1
#endif

namespace accred::gpusim {

class FastChain;

/// Saved execution context of a suspended stack: the stack pointer on the
/// asm backend, a full ucontext_t on the fallback.
#if defined(ACCRED_FIBER_ASM)
using FiberContext = void*;
#else
using FiberContext = ucontext_t;
#endif

/// A reusable fiber stack. Stacks are the expensive part of a fiber, so the
/// block scheduler keeps a pool of them (FiberStackPool, pool.hpp) and
/// re-binds entry functions per simulated thread block.
class Fiber {
public:
  /// Allocation-free entry point: `fn(arg)` runs on the fiber's stack.
  /// The scheduler arms one of these per simulated thread per block —
  /// re-arming stores two pointers instead of constructing a closure.
  /// An entry never returns and never throws: it ends with
  /// FastChain::leave(), after storing any exception via set_exception().
  using RawEntry = void (*)(void*);

  /// `stack_size` must be a multiple of 16; 64 KiB is ample for the device
  /// kernels in this project (no deep recursion on the device side).
  explicit Fiber(std::size_t stack_size = 64 * 1024);
  /// Run on an externally owned stack (a FiberStackPool slab slot). The
  /// memory must be 16-byte aligned and outlive the fiber.
  Fiber(std::byte* stack, std::size_t stack_size);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  /// Arm with an entry point — no allocation, no closure construction.
  /// Must not be running.
  void reset(RawEntry entry, void* arg);

  /// True once the entry has left its chain for good. A FastChain pass
  /// must not enter the fiber again until reset().
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Abandon a suspended fiber after a fatal simulation error: marks it
  /// done so the stack can be reused/destroyed. Frame-local objects on the
  /// abandoned stack are NOT destroyed — only call this on device fibers,
  /// whose locals are trivial by construction.
  void abandon() noexcept { done_ = true; }

  /// The fiber currently executing on this OS thread, or nullptr.
  static Fiber* current() noexcept;

  /// Capture the in-flight exception for later rethrow in the scheduler's
  /// context. Non-std exceptions (`throw 42;`) are wrapped in a structured
  /// LaunchError so top-level handlers always have a what() to print. Only
  /// callable from inside a catch block.
  [[nodiscard]] static std::exception_ptr capture_current_exception();
  /// Store the exception FastChain::run() will rethrow. Entries catch at
  /// their boundary (exceptions cannot unwind through a context switch)
  /// and call this before FastChain::leave().
  void set_exception(std::exception_ptr e) noexcept { eptr_ = std::move(e); }

private:
  friend class FastChain;

  static void trampoline() noexcept;
  void prepare_stack();

  std::size_t stack_size_;
  std::byte* stack_base_ = nullptr;        // start of the usable stack
  std::unique_ptr<std::byte[]> owned_;     // set only for self-owned stacks
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::exception_ptr eptr_;
  bool done_ = true;  // no entry armed yet
  FiberContext self_ctx_{};  // saved context while suspended

#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;  // TSan-side context for this fiber
#endif
#if defined(ACCRED_ASAN_FIBERS)
  void* asan_fake_stack_ = nullptr;  // ASan fake stack while suspended
#endif
};

/// Converged-warp pass driver: runs an ordered list of lane fibers with one
/// context switch per suspension. The scheduler calls run() once per pass;
/// each lane that suspends (park()) or finishes (leave()) transfers control
/// directly into the next unstarted lane's fiber, and the last lane — or
/// the first faulting one — returns to the scheduler frame.
///
/// Lanes start in list order, a lane exception stops the pass before any
/// later lane runs (run() rethrows it), and fibers parked by park() are
/// re-entered by a later run().
class FastChain {
public:
  /// Run every lane of `order` (indices into `fibers`) once to its next
  /// suspension point. Returns when the pass is complete; rethrows the
  /// first lane exception. `count` must be >= 1.
  void run(Fiber* const* fibers, const std::uint32_t* order,
           std::uint32_t count);

  /// Lane side: suspend the running lane mid-kernel (it stays resumable)
  /// and continue the pass. Returns when a later pass re-enters the lane.
  void park();

  /// park() calls since construction: a deterministic count of lane
  /// suspensions for tests (not part of any record).
  [[nodiscard]] std::uint64_t parks() const noexcept { return parks_; }

  /// Lane side: the running lane is finished — normally or with its
  /// exception already stored via Fiber::set_exception(). Marks the fiber
  /// done, abandons its frame, and continues the pass; on a stored
  /// exception the pass aborts straight to the scheduler. Never returns.
  void leave();

private:
  /// Transfer control out of `self` into the next unstarted lane, or back
  /// to the scheduler frame when the list is exhausted (or `to_sched`).
  void dispatch_from(Fiber* self, bool to_sched);

  Fiber* const* fibers_ = nullptr;
  const std::uint32_t* order_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t next_ = 0;          ///< next order_ index to enter
  std::uint64_t parks_ = 0;
  Fiber* current_ = nullptr;        ///< lane holding control (eptr lookup)
  FiberContext sched_ctx_{};        ///< scheduler frame while a pass runs
#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_sched_ = nullptr;
#endif
#if defined(ACCRED_ASAN_FIBERS)
  friend class Fiber;  // the trampoline completes a lane's first switch
  /// Complete a switch into the running stack; the first lane a pass
  /// enters learns the scheduler stack's bounds from it.
  void asan_finish_switch(void* fake_stack);
  void* asan_sched_fake_stack_ = nullptr;
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
  bool asan_from_sched_ = false;
#endif
};

}  // namespace accred::gpusim
