// Copyright 2026 the pdblb authors. MIT license.
//
// SIGPROF sampling profiler, loaded into any binary with LD_PRELOAD: every
// 1 ms of process CPU time (ITIMER_PROF) the handler stores the
// interrupted program counter; at exit the samples and /proc/self/maps are
// written to $PDBLB_PROFILE_OUT (default pdblb_profile.txt) for
// symbolize.py.  See bench/README.md, "Profiling".

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr size_t kMaxSamples = size_t{1} << 20;  // 17 CPU-minutes
uintptr_t g_pcs[kMaxSamples];
std::atomic<size_t> g_next{0};  // the handler may run on any thread

void OnSample(int, siginfo_t*, void* context) {
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const mcontext_t& regs = static_cast<ucontext_t*>(context)->uc_mcontext;
#if defined(__x86_64__)
  g_pcs[i] = static_cast<uintptr_t>(regs.gregs[REG_RIP]);
#elif defined(__aarch64__)
  g_pcs[i] = static_cast<uintptr_t>(regs.pc);
#else
#error "sampler: unsupported architecture"
#endif
}

__attribute__((constructor)) void StartSampling() {
  struct sigaction action = {};
  action.sa_sigaction = OnSample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &action, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void WriteSamples() {
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* path = std::getenv("PDBLB_PROFILE_OUT");
  FILE* out = std::fopen(path != nullptr ? path : "pdblb_profile.txt", "w");
  if (out == nullptr) return;
  const size_t n = std::min(g_next.load(), kMaxSamples);
  for (size_t i = 0; i < n; ++i) std::fprintf(out, "pc %zx\n", g_pcs[i]);
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps)) {
      std::fprintf(out, "map %s", line);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

}  // namespace
