#pragma once

/// \file spin_pause.hpp
/// The CPU's spin-wait hint, for loops that poll a value another thread
/// will change: it frees pipeline resources for a sibling hyperthread and
/// avoids the memory-order misspeculation at the loop's exit.

#include <thread>

namespace futrace::support {

inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace futrace::support
