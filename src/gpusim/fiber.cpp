#include "gpusim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "gpusim/error.hpp"

#if defined(ACCRED_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(ACCRED_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace accred::gpusim {

namespace {
thread_local Fiber* tls_current = nullptr;
#if defined(ACCRED_ASAN_FIBERS)
thread_local FastChain* tls_chain = nullptr;  ///< chain of the running pass
#endif

void validate_stack_size(std::size_t n) {
  if (n % 16 != 0 || n < 4096) {
    throw std::invalid_argument(
        "fiber stack size must be >=4096 and 16-aligned");
  }
}
}  // namespace

// TSan must be told about every transfer of control between stacks: each
// switch announces its target right before switching. No-op in regular
// builds.
#if defined(ACCRED_TSAN_FIBERS)
#define ACCRED_TSAN_TO(ctx) __tsan_switch_to_fiber((ctx), 0)
#else
#define ACCRED_TSAN_TO(ctx) (void)0
#endif

// ASan: announce the target stack before each switch — saving the
// suspending side's fake stack, or passing null for a lane leaving for good
// so its fake stack is released — and complete the switch on arrival.
#if defined(ACCRED_ASAN_FIBERS)
#define ACCRED_ASAN_START(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define ACCRED_ASAN_FINISH(fake) tls_chain->asan_finish_switch(fake)
#else
#define ACCRED_ASAN_START(save, bottom, size) (void)0
#define ACCRED_ASAN_FINISH(fake) (void)0
#endif

#if defined(ACCRED_FIBER_ASM)

// void accred_ctx_switch(void** save_sp, void* restore_sp)
//
// Saves the System-V callee-saved general-purpose registers plus the return
// address on the current stack, stores the resulting stack pointer through
// `save_sp`, installs `restore_sp`, and unwinds the same frame layout.
// XMM registers are caller-saved in the SysV ABI, so an ordinary extern "C"
// call boundary is sufficient.
extern "C" void accred_ctx_switch(void** save_sp, void* restore_sp);
asm(R"(
.text
.globl accred_ctx_switch
.type accred_ctx_switch, @function
.align 16
accred_ctx_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
.size accred_ctx_switch, .-accred_ctx_switch
)");

namespace {
/// Save the running context into `save` and continue at `to`.
inline void switch_context(FiberContext* save, const FiberContext* to) {
  accred_ctx_switch(save, *to);
}
}  // namespace

void Fiber::prepare_stack() {
  // Build an initial stack frame such that accred_ctx_switch's epilogue
  // (six pops + ret) lands in trampoline() with a 16-byte-misaligned rsp,
  // matching the ABI state at a normal function entry.
  std::byte* top = stack_base_ + stack_size_;
  auto sp = reinterpret_cast<std::uintptr_t>(top);
  sp &= ~static_cast<std::uintptr_t>(0xf);  // align down to 16
  // Layout (low -> high): r15 r14 r13 r12 rbx rbp retaddr.
  // After the 6 pops, rsp points at retaddr; after ret, rsp = sp, which is
  // 16-aligned minus the 7*8 we reserve => choose slots so entry alignment
  // is correct: at trampoline entry rsp % 16 must equal 8 ... the `ret`
  // consumed the retaddr slot, leaving rsp at (frame_base + 7*8). Reserve
  // an extra 8 bytes so that value is ≡ 8 (mod 16).
  sp -= 8;
  auto* frame = reinterpret_cast<void**>(sp) - 7;
  for (int i = 0; i < 6; ++i) frame[i] = nullptr;  // r15..rbp
  frame[6] = reinterpret_cast<void*>(&Fiber::trampoline);
  self_ctx_ = frame;
}

#else  // ucontext fallback

namespace {
inline void switch_context(FiberContext* save, const FiberContext* to) {
  swapcontext(save, to);
}
}  // namespace

void Fiber::prepare_stack() {
  getcontext(&self_ctx_);
  self_ctx_.uc_stack.ss_sp = stack_base_;
  self_ctx_.uc_stack.ss_size = stack_size_;
  self_ctx_.uc_link = nullptr;
  makecontext(&self_ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

#endif

std::exception_ptr Fiber::capture_current_exception() {
  try {
    throw;  // rethrow the in-flight exception to classify it
  } catch (const std::exception&) {
    return std::current_exception();
  } catch (...) {
    LaunchErrorInfo info;
    info.code = LaunchErrorCode::kDeviceFault;
    info.message = "non-standard exception escaped a device fiber";
    return std::make_exception_ptr(LaunchError(std::move(info)));
  }
}

Fiber* Fiber::current() noexcept { return tls_current; }

Fiber::Fiber(std::size_t stack_size) : stack_size_(stack_size) {
  validate_stack_size(stack_size_);
  owned_ = std::make_unique<std::byte[]>(stack_size_);
  stack_base_ = owned_.get();
#if defined(ACCRED_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::Fiber(std::byte* stack, std::size_t stack_size)
    : stack_size_(stack_size), stack_base_(stack) {
  validate_stack_size(stack_size_);
#if defined(ACCRED_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // A fiber must never be destroyed while suspended mid-execution: its stack
  // would hold live frames. The scheduler guarantees fibers run to completion
  // or are abandoned.
  assert(done_);
#if defined(ACCRED_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() noexcept {
  Fiber* self = tls_current;
  ACCRED_ASAN_FINISH(nullptr);
  self->raw_entry_(self->raw_arg_);
  // Entries end in FastChain::leave(), which never switches back here.
  std::abort();
}

void Fiber::reset(RawEntry entry, void* arg) {
  assert(done_ && "cannot reset a running fiber");
  raw_entry_ = entry;
  raw_arg_ = arg;
  eptr_ = nullptr;
  done_ = false;
#if defined(ACCRED_ASAN_FIBERS)
  // A pooled stack may hold an abandoned frame whose scopes are poisoned.
  ASAN_UNPOISON_MEMORY_REGION(stack_base_, stack_size_);
  asan_fake_stack_ = nullptr;
#endif
  prepare_stack();
}

void FastChain::run(Fiber* const* fibers, const std::uint32_t* order,
                    std::uint32_t count) {
  assert(count >= 1);
  fibers_ = fibers;
  order_ = order;
  count_ = count;
  next_ = 1;
  Fiber* first = fibers[order[0]];
  assert(!first->done());
  current_ = first;
  Fiber* prev = tls_current;
  tls_current = first;
#if defined(ACCRED_TSAN_FIBERS)
  tsan_sched_ = __tsan_get_current_fiber();
  ACCRED_TSAN_TO(first->tsan_fiber_);
#endif
#if defined(ACCRED_ASAN_FIBERS)
  FastChain* prev_chain = std::exchange(tls_chain, this);
  asan_from_sched_ = true;
#endif
  ACCRED_ASAN_START(&asan_sched_fake_stack_, first->stack_base_,
                    first->stack_size_);
  switch_context(&sched_ctx_, &first->self_ctx_);
  ACCRED_ASAN_FINISH(asan_sched_fake_stack_);
#if defined(ACCRED_ASAN_FIBERS)
  tls_chain = prev_chain;
#endif
  tls_current = prev;
  Fiber* last = current_;
  if (last->eptr_) {
    std::exception_ptr e = std::exchange(last->eptr_, nullptr);
    std::rethrow_exception(e);
  }
}

void FastChain::dispatch_from(Fiber* self, bool to_sched) {
  if (!to_sched) {
    const std::uint32_t i = next_++;
    if (i < count_) {
      Fiber* to = fibers_[order_[i]];
      current_ = to;
      tls_current = to;
      ACCRED_TSAN_TO(to->tsan_fiber_);
      ACCRED_ASAN_START(self->done_ ? nullptr : &self->asan_fake_stack_,
                        to->stack_base_, to->stack_size_);
      switch_context(&self->self_ctx_, &to->self_ctx_);
      ACCRED_ASAN_FINISH(self->asan_fake_stack_);
      return;  // a later pass re-entered `self`
    }
  }
  ACCRED_TSAN_TO(tsan_sched_);
  ACCRED_ASAN_START(self->done_ ? nullptr : &self->asan_fake_stack_,
                    asan_sched_bottom_, asan_sched_size_);
  switch_context(&self->self_ctx_, &sched_ctx_);
  ACCRED_ASAN_FINISH(self->asan_fake_stack_);
  // A later pass re-entered `self` (parked lanes only; finished lanes are
  // never switched back into).
}

#if defined(ACCRED_ASAN_FIBERS)
void FastChain::asan_finish_switch(void* fake_stack) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (asan_from_sched_) {
    asan_sched_bottom_ = bottom;
    asan_sched_size_ = size;
    asan_from_sched_ = false;
  }
}
#endif

void FastChain::park() {
  parks_ += 1;
  dispatch_from(current_, /*to_sched=*/false);
}

void FastChain::leave() {
  Fiber* self = current_;
  self->done_ = true;
  // A faulting lane aborts the pass before any later lane runs.
  dispatch_from(self, /*to_sched=*/self->eptr_ != nullptr);
}

}  // namespace accred::gpusim
