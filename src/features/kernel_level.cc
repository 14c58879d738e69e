#include "features/kernel_level.hh"

#include <atomic>

#include "common/telemetry.hh"

namespace flexon {

namespace {

KernelLevel
detectKernelLevel()
{
    for (KernelLevel level : {KernelLevel::Avx512, KernelLevel::Avx2}) {
        if (cpuHasKernelLevel(level))
            return level;
    }
    return KernelLevel::Scalar;
}

/** The level selectKernel builds; the best one unless a test chose
 * another through setKernelLevel. */
std::atomic<KernelLevel> &
activeLevel()
{
    static std::atomic<KernelLevel> level{bestKernelLevel()};
    return level;
}

} // namespace

const char *
kernelLevelName(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar: return "scalar";
      case KernelLevel::Avx2: return "avx2";
      case KernelLevel::Avx512: return "avx512";
    }
    return "?";
}

bool
cpuHasKernelLevel(KernelLevel level)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    switch (level) {
      case KernelLevel::Scalar: return true;
      case KernelLevel::Avx2: return __builtin_cpu_supports("avx2");
      case KernelLevel::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
    }
    return false;
#else
    return level == KernelLevel::Scalar;
#endif
}

KernelLevel
bestKernelLevel()
{
    static const KernelLevel best = detectKernelLevel();
    return best;
}

bool
setKernelLevel(KernelLevel level)
{
    if (!cpuHasKernelLevel(level))
        return false;
    activeLevel().store(level, std::memory_order_relaxed);
    return true;
}

KernelLevel
activeKernelLevel()
{
    return activeLevel().load(std::memory_order_relaxed);
}

telemetry::Counter &
fallbackCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::global().counter(
            "kernel_fallback_steps",
            "neuron steps taken by the generic fallback kernel");
    return counter;
}

} // namespace flexon
