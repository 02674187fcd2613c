#include "asyncit/simnet/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "asyncit/support/check.hpp"

// Sanitizer fiber annotations. The asan/tsan CI presets run simnet_test
// and the sim smokes, so every context switch must be announced: asan
// needs the fake-stack handoff (__sanitizer_*_switch_fiber) or it keeps
// attributing frames to the previous stack; tsan needs the fiber API
// (__tsan_*_fiber) or its shadow-stack check flags the switch as a
// corrupted stack. Both headers ship with gcc >= 10 and clang.
#if defined(__SANITIZE_ADDRESS__)
#define ASYNCIT_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define ASYNCIT_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ASYNCIT_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define ASYNCIT_FIBER_TSAN 1
#endif
#endif

#ifdef ASYNCIT_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef ASYNCIT_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// asyncit_simnet_fiber_switch(from, to): pushes the System V
// callee-saved registers (rbp, rbx, r12-r15), then MXCSR and the x87
// control word in one 8-byte slot, stores rsp through `from`, loads `to`
// and pops the frame the other side pushed, in reverse order. Its `ret`
// returns into the other side's call of the switch, or, on a fiber's
// first entry, into Fiber::trampoline (see Fiber::resume). Everything
// else is caller-saved, so the call itself tells the compiler it is
// clobbered. No CET shadow stack is switched: CMakeLists.txt builds
// this file with -fcf-protection=none, so no binary linking it is
// marked for one.
extern "C" void asyncit_simnet_fiber_switch(void** from, void* to);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl asyncit_simnet_fiber_switch
  .hidden asyncit_simnet_fiber_switch
  .type asyncit_simnet_fiber_switch, @function
asyncit_simnet_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size asyncit_simnet_fiber_switch, .-asyncit_simnet_fiber_switch
  .popsection
)");
#endif

namespace asyncit::simnet {

namespace {

/// The fiber a first resume() is about to enter. The trampoline takes
/// no arguments (makecontext can only pass ints portably), so it fetches
/// its Fiber through this slot; thread_local because nothing stops two
/// engines from running on two threads.
thread_local Fiber* g_starting = nullptr;

#if defined(__x86_64__)
/// What the switch pops when it enters a fiber for the first time, laid
/// out at the top of the fiber's stack (fields in ascending addresses).
struct FirstFrame {
  /// The control words of the thread that first resumes the fiber, as
  /// getcontext captures them: a fiber starts in its caller's FP mode.
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  std::uint64_t regs[6];  ///< r15, r14, r13, r12, rbx, rbp: zero
  void (*start)();        ///< the switch's `ret` target: the trampoline
  /// The trampoline's own return address, so it starts with
  /// rsp ≡ 8 (mod 16) as after a call. Zero: it never returns, and a
  /// frame walk stops here.
  std::uint64_t ret;
};
static_assert(sizeof(FirstFrame) == 72, "the switch pops 8 + 6 * 8 + 8");

void switch_context(void*& from, void* to) {
  asyncit_simnet_fiber_switch(&from, to);
}
#else
void switch_context(ucontext_t& from, ucontext_t& to) {
  swapcontext(&from, &to);
}
#endif

std::size_t stack_floor(std::size_t requested) {
  // Sanitizer frames are several times larger (redzones, fake-stack
  // bookkeeping); a 256 KiB production stack overflows under asan.
#if defined(ASYNCIT_FIBER_ASAN)
  const std::size_t floor = 1024 * 1024;
#elif defined(ASYNCIT_FIBER_TSAN)
  const std::size_t floor = 512 * 1024;
#else
  const std::size_t floor = 64 * 1024;
#endif
  return requested < floor ? floor : requested;
}

/// The most finished-fiber stacks one thread keeps mapped: every world
/// this repository runs again in one process fits (perfbench's 300
/// ranks, c14's 100 and 1000, sim_scale_smoke's 1000 twice). Stacks
/// past it are unmapped.
constexpr std::size_t kMaxPooledStacks = 1024;

/// Finished fibers' whole mappings (guard page included) on this thread.
class StackPool {
 public:
  ~StackPool();

  /// A pooled mapping of exactly `bytes`, or nullptr.
  void* take(std::size_t bytes) {
    for (std::size_t i = stacks_.size(); i-- > 0;) {
      if (stacks_[i].bytes != bytes) continue;
      void* map = stacks_[i].map;
      stacks_[i] = stacks_.back();
      stacks_.pop_back();
      return map;
    }
    return nullptr;
  }

  /// Keeps `map` for a later take(); false (the caller unmaps) when the
  /// pool is full.
  bool give(void* map, std::size_t bytes) {
    if (stacks_.size() >= kMaxPooledStacks) return false;
    stacks_.push_back({map, bytes});
    return true;
  }

 private:
  struct Stack {
    void* map;
    std::size_t bytes;
  };
  std::vector<Stack> stacks_;
};

thread_local StackPool t_pool;
/// Set when this thread's t_pool is destroyed, so a Fiber destroyed
/// after it (one owned by a static) unmaps its own stack. Trivially
/// destructible, so it stays readable.
thread_local bool t_pool_gone = false;

StackPool::~StackPool() {
  for (const Stack& s : stacks_) munmap(s.map, s.bytes);
  t_pool_gone = true;
}

}  // namespace

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body)
    : body_(std::move(body)) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_floor(stack_bytes) + page - 1) / page * page;
  map_bytes_ = stack_bytes_ + page;  // + low guard page
  map_ = t_pool_gone ? nullptr : t_pool.take(map_bytes_);
  const bool reused = map_ != nullptr;
  if (!reused) {
    map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    ASYNCIT_CHECK(map_ != MAP_FAILED);
    ASYNCIT_CHECK(mprotect(map_, page, PROT_NONE) == 0);
  }
  stack_lo_ = static_cast<std::uint8_t*>(map_) + page;
#ifdef ASYNCIT_FIBER_ASAN
  // The frames the previous fiber never returned from (its trampoline
  // and entry) left their redzones poisoned.
  if (reused) ASAN_UNPOISON_MEMORY_REGION(stack_lo_, stack_bytes_);
#endif
#ifdef ASYNCIT_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // A live (started, not finished) fiber cannot be safely destroyed:
  // its stack holds un-unwound frames (peer state, RAII locks). The
  // engine only destroys fibers after run() drained them.
  ASYNCIT_CHECK(!started_ || done_);
#ifdef ASYNCIT_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (map_ == nullptr) return;
  if (done_ && !t_pool_gone && t_pool.give(map_, map_bytes_)) return;
  munmap(map_, map_bytes_);
}

void Fiber::trampoline() {
  Fiber* self = g_starting;
  g_starting = nullptr;
  self->entry();
}

void Fiber::entry() {
#ifdef ASYNCIT_FIBER_ASAN
  // First words executed on the new stack: complete the switch the
  // scheduler announced, learning the scheduler's stack bounds so
  // yield()/termination can announce the reverse switch.
  __sanitizer_finish_switch_fiber(nullptr, &sched_stack_lo_,
                                  &sched_stack_bytes_);
#endif
  body_();
  done_ = true;
#ifdef ASYNCIT_FIBER_ASAN
  // nullptr fake-stack save: this stack is terminating, let asan free
  // its fake frames instead of preserving them for a resume that never
  // comes.
  __sanitizer_start_switch_fiber(nullptr, sched_stack_lo_,
                                 sched_stack_bytes_);
#endif
#ifdef ASYNCIT_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_scheduler_, 0);
#endif
  switch_context(ctx_, scheduler_);
  // A finished fiber is never resumed (engine checks done()).
  ASYNCIT_CHECK(false);
}

void Fiber::resume() {
  ASYNCIT_CHECK(!done_);
  if (!started_) {
    started_ = true;
#if defined(__x86_64__)
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
    std::uint8_t* top = static_cast<std::uint8_t*>(stack_lo_) + stack_bytes_;
    ctx_ = ::new (top - sizeof(FirstFrame))
        FirstFrame{mxcsr, x87_cw, 0, {}, &Fiber::trampoline, 0};
#else
    ASYNCIT_CHECK(getcontext(&ctx_) == 0);
    ctx_.uc_stack.ss_sp = stack_lo_;
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = &scheduler_;  // backstop; entry() swaps out explicitly
    makecontext(&ctx_, &Fiber::trampoline, 0);
#endif
    g_starting = this;
  }
#ifdef ASYNCIT_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_sched_fake_stack_, stack_lo_,
                                 stack_bytes_);
#endif
#ifdef ASYNCIT_FIBER_TSAN
  tsan_scheduler_ = __tsan_get_current_fiber();
#endif
#ifdef ASYNCIT_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  switch_context(scheduler_, ctx_);
#ifdef ASYNCIT_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_sched_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::yield() {
  ASYNCIT_CHECK(started_ && !done_);
#ifdef ASYNCIT_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_fake_stack_, sched_stack_lo_,
                                 sched_stack_bytes_);
#endif
#ifdef ASYNCIT_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_scheduler_, 0);
#endif
  switch_context(ctx_, scheduler_);
#ifdef ASYNCIT_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, nullptr, nullptr);
#endif
}

}  // namespace asyncit::simnet
