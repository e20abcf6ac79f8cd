// The host-speed reference. A shared VM's speed drifts by tens of percent
// between runs minutes apart (neighbours, frequency, shared caches), and
// every timing in a run drifts with it. The benchmark therefore times a
// fixed kernel of its own, interleaved with the library calls it measures,
// and reports each time scaled to a nominal host:
//
//   reported = measured × nominal_ms / reference_ms
//
// where reference_ms is the median of the samples taken during the same
// phase (set-up, konect-count or serve). Parallel calls are scaled by the
// same sequential kernel: on a noisy host it tracked the library's OpenMP
// kernels to within 7%, closer than a parallel reference with barriers
// did. The kernel is a wedge count (the same kind of sparse, cache-bound
// work as the library's kernels) over a fixed synthetic bipartite graph.
// It uses no library code, so a change to the library cannot move it; its
// input does not depend on --seed.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Reference {
 public:
  Reference();

  /// One pass; returns its wall time in milliseconds.
  double sample_ms();

  /// Every pass so far returned the same count.
  [[nodiscard]] bool consistent() const { return consistent_; }

  /// About the reference's median on the host the nominal times are
  /// quoted for: a 4-vCPU Xeon (Sapphire Rapids) KVM guest, GCC 12.2, -O3.
  static constexpr double kNominalMs = 4.7;

 private:

  std::uint32_t n_ = 0;
  std::vector<std::uint32_t> row_ptr_, row_idx_, col_ptr_, col_idx_;
  std::vector<std::uint32_t> cnt_, touched_;
  std::uint64_t expected_ = 0;
  bool consistent_ = true;
};

}  // namespace perfbench
