#include "reference.hpp"

#include <algorithm>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kVertices = 8000;  // per side
constexpr std::uint32_t kMaxDegree = 16;

/// xorshift64: fixed, self-contained, independent of the library's Rng.
struct XorShift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

void to_csr(const std::vector<std::vector<std::uint32_t>>& lists,
            std::vector<std::uint32_t>& ptr, std::vector<std::uint32_t>& idx) {
  ptr.assign(1, 0);
  for (const auto& l : lists) {
    idx.insert(idx.end(), l.begin(), l.end());
    ptr.push_back(static_cast<std::uint32_t>(idx.size()));
  }
}

}  // namespace

Reference::Reference() : n_(kVertices) {
  // Skewed columns: three quarters of the edges land in the first eighth
  // of V2, so some wedge centres are heavy, as in the KONECT stand-ins.
  XorShift rng{0x2545f4914f6cdd1dULL};
  std::vector<std::vector<std::uint32_t>> rows(n_), cols(n_);
  for (std::uint32_t u = 0; u < n_; ++u) {
    auto& r = rows[u];
    const auto d = 1 + static_cast<std::uint32_t>(rng.next() % kMaxDegree);
    for (std::uint32_t k = 0; k < d; ++k) {
      const bool hot = rng.next() % 4 != 0;
      r.push_back(static_cast<std::uint32_t>(rng.next() % (hot ? n_ / 8 : n_)));
    }
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    for (const std::uint32_t v : r) cols[v].push_back(u);
  }
  to_csr(rows, row_ptr_, row_idx_);
  to_csr(cols, col_ptr_, col_idx_);
  cnt_.assign(n_, 0);
}

double Reference::sample_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t total = 0;
  for (std::uint32_t u = 0; u < n_; ++u) {
    for (std::uint32_t a = row_ptr_[u]; a < row_ptr_[u + 1]; ++a) {
      const std::uint32_t v = row_idx_[a];
      for (std::uint32_t b = col_ptr_[v]; b < col_ptr_[v + 1]; ++b) {
        const std::uint32_t w = col_idx_[b];
        if (w <= u) continue;
        if (cnt_[w]++ == 0) touched_.push_back(w);
      }
    }
    for (const std::uint32_t w : touched_) {
      const std::uint64_t c = cnt_[w];
      total += c * (c - 1) / 2;
      cnt_[w] = 0;
    }
    touched_.clear();
  }
  const double ms = seconds_since(t0) * 1e3;
  if (expected_ == 0) expected_ = total;
  if (total != expected_ || total == 0) consistent_ = false;
  return ms;
}

}  // namespace perfbench
