// The one thread launcher. It sits in support/ so that net::, train::,
// rt:: and operators/ share it without operators/ depending on net::.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace asyncit {

/// Runs body(0) .. body(n - 1) concurrently: rank 0 on the calling
/// thread, every other rank on a thread of its own. Returns once every
/// rank's body has returned; if any threw, rethrows the lowest rank's
/// exception, and only after every thread has joined. The thread mode of
/// both runtimes (net::run_message_passing, train::run_training) runs its
/// ranks through this, rt::run_async_threads and rt::run_sync_threads
/// their workers, and op::picard_solve its sweep threads.
void run_on_threads(std::size_t n,
                    const std::function<void(std::uint32_t)>& body);

}  // namespace asyncit
