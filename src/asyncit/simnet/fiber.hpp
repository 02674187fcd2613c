// Cooperative fibers for the virtual-time engine (DESIGN.md §10).
//
// One fiber hosts one simulated rank; the single-threaded SimEngine
// switches between them, so net::Peer / membership / train code runs
// UNCHANGED — a rank blocks by yielding back to the scheduler instead of
// blocking an OS thread. Thread-per-rank with a baton was measured out: a
// futex handoff per event times ~10M events would eat the entire
// 1000-rank wall budget in context switches.
//
// The switch. On x86-64 a switch is a user-space register swap (one
// routine in fiber.cpp): it pushes the callee-saved registers and the
// FP control words (MXCSR, x87 control word) on the stack it leaves,
// stores the stack pointer, loads the other side's and pops what that
// side pushed. No system call: glibc's swapcontext enters the kernel for
// the signal mask on every switch and saves the whole FP environment.
// Every other target keeps getcontext/makecontext/swapcontext, the only
// path that runs there.
//
// FP and signal-mask contract. Each fiber keeps its own rounding mode
// and FP exception masks: a fiber starts with the control words of the
// thread that first resumes it, and every switch restores the words the
// other side left with, as swapcontext restores the FP environment. The
// x86-64 switch does not save or restore the signal mask; nothing in
// this repository changes one, so a fiber runs with its thread's mask.
//
// Stacks are mmap'd with a PROT_NONE guard page at the low end and are
// lazily committed, so 1000 fibers reserve address space, not RSS. A
// finished fiber's stack goes, guard page and all, to a per-thread list
// of at most 1,024 stacks; the next Fiber of the same size on that
// thread takes it instead of mapping a new one, so a process that runs
// many worlds maps its stacks once. The list unmaps what it holds when
// its thread exits. A pooled stack stays resident only in the pages its
// last fiber touched.
//
// Sanitizer contract: the asan and tsan CI legs run the simnet tests, so
// every switch is annotated with the fiber APIs
// (__sanitizer_start_switch_fiber / __tsan_switch_to_fiber families) —
// without them asan misattributes fake stacks across switches and tsan
// aborts on the "unexpected stack switch" heuristic. Under asan a reused
// stack is unpoisoned before its new fiber runs: the frames a finished
// fiber never returned from leave redzone poison behind. See fiber.cpp.
#pragma once

#include <cstddef>
#include <functional>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace asyncit::simnet {

class Fiber {
 public:
  /// `body` runs on the fiber's own stack across resume() calls;
  /// `stack_bytes` is rounded up to whole pages (sanitizer builds
  /// enforce a larger floor for redzone-inflated frames).
  Fiber(std::size_t stack_bytes, std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Scheduler side: runs the fiber until its next yield() or until the
  /// body returns. Must not be called from inside a fiber, nor after
  /// done().
  void resume();

  /// Fiber side: suspends back into the resume() that is running us.
  void yield();

  bool done() const { return done_; }

 private:
#if defined(__x86_64__)
  /// A suspended side is its saved stack pointer: the registers and
  /// control words it pushed sit on the stack it points into.
  using Context = void*;
#else
  using Context = ucontext_t;
#endif

  static void trampoline();
  void entry();

  Context ctx_{};        ///< the fiber's saved context
  Context scheduler_{};  ///< where resume() was called from
  void* map_ = nullptr;  ///< mmap base (guard page lives here)
  std::size_t map_bytes_ = 0;
  void* stack_lo_ = nullptr;  ///< usable stack (above the guard page)
  std::size_t stack_bytes_ = 0;
  std::function<void()> body_;
  bool started_ = false;
  bool done_ = false;

  // Sanitizer bookkeeping (unused members cost nothing when the build
  // has no sanitizer).
  void* asan_fake_stack_ = nullptr;      ///< fiber's saved fake stack
  void* asan_sched_fake_stack_ = nullptr;  ///< scheduler's, across resume
  const void* sched_stack_lo_ = nullptr;   ///< scheduler stack, learned
  std::size_t sched_stack_bytes_ = 0;      ///< at first entry
  void* tsan_fiber_ = nullptr;
  void* tsan_scheduler_ = nullptr;
};

}  // namespace asyncit::simnet
