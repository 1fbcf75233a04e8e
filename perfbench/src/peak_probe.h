// Single-core int8 multiply-accumulate ceiling, the denominator of
// tensor.gemm_peak_frac. A register-only loop of independent accumulator
// chains, so it measures the core's instruction throughput and not memory.
#pragma once

namespace perfbench {

struct PeakProbe {
  double gops = 0;                  ///< 2 ops per int8 multiply-accumulate
  const char* instruction = "none";  ///< "vpdpbusd" or "vpmaddwd"
};

/// Best of 24 short trials, about 0.3 s in all. Uses vpdpbusd where
/// CPUID reports AVX512-VNNI, else vpmaddwd (AVX2);
/// gops stays 0 on a CPU with neither.
[[nodiscard]] PeakProbe measure_int8_peak();

}  // namespace perfbench
