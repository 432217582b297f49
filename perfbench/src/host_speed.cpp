#include "host_speed.hpp"

#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Calibrations on each side of a sample that its scale is taken from.
constexpr std::size_t kNeighbours = 2;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

HostSpeed::HostSpeed()
    : keys_(std::size_t{1} << 14),
      sorted_(keys_.size()),
      slots_(std::size_t{1} << 15),
      table_(std::size_t{1} << 16) {
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (auto& key : keys_) key = (x = lcg(x));
  char number[24];
  while (text_.size() < (std::size_t{1} << 16)) {
    x = lcg(x);
    const int n = std::snprintf(number, sizeof number, "%llu,",
                                static_cast<unsigned long long>(x >> 24));
    text_.insert(text_.end(), number, number + n);
  }
  kernel_ms();  // touch every page before anything is measured
}

/// The operation mix of the pipeline (text parsing, sorting, hashing,
/// scattered updates) over a working set of about 1 MiB.
double HostSpeed::kernel_ms() {
  const std::int64_t start = now_ns();
  // Decimal parsing with data-dependent branches, like reading JSONL.
  std::uint64_t parsed = 0;
  for (int pass = 0; pass < 8; ++pass) {
    std::uint64_t value = 0;
    for (const char c : text_) {
      if (c == ',') {
        parsed ^= value;
        value = 0;
      } else {
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }
  }
  // Sorting, like event ordering and label normalization.
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  // Hash inserts, like the per-key maps of indexing and extraction.
  std::fill(slots_.begin(), slots_.end(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < 3 * slots_.size() / 4; ++i) {
    const std::uint64_t key = keys_[i % keys_.size()] + i;
    std::size_t slot = ((key * 0x9e3779b97f4a7c15ULL) >> 40) & mask;
    while (slots_[slot] != 0 && slots_[slot] != key) slot = (slot + 1) & mask;
    slots_[slot] = key;
  }
  // Scattered updates, like appends into a growing trace index.
  std::uint64_t x = sink_ | 1;
  for (int i = 0; i < 60000; ++i) {
    x = lcg(x);
    table_[(x >> 24) & (table_.size() - 1)] += x;
  }
  sink_ = x ^ parsed ^ sorted_[sorted_.size() / 2] ^ slots_[x & mask];
  return ms_between(start, now_ns());
}

void HostSpeed::calibrate() {
  kernel_ms_.push_back(kernel_ms());
  at_ns_.push_back(now_ns());
}

void HostSpeed::maybe_calibrate() {
  if (at_ns_.empty() || ms_between(at_ns_.back(), now_ns()) >= kIntervalMs) {
    calibrate();
  }
}

double HostSpeed::scale_at(std::int64_t at_ns) const {
  if (kernel_ms_.empty()) return 1.0;
  const auto after = static_cast<std::size_t>(
      std::upper_bound(at_ns_.begin(), at_ns_.end(), at_ns) - at_ns_.begin());
  const std::size_t from = after > kNeighbours ? after - kNeighbours : 0;
  const std::size_t to = std::min(kernel_ms_.size(), after + kNeighbours);
  return kReferenceMs /
         median({kernel_ms_.begin() + static_cast<std::ptrdiff_t>(from),
                 kernel_ms_.begin() + static_cast<std::ptrdiff_t>(to)});
}

double HostSpeed::median_kernel_ms() const { return median(kernel_ms_); }

std::size_t HostSpeed::resident_bytes() const {
  return text_.size() + 8 * (keys_.size() + sorted_.size() + slots_.size() +
                             table_.size());
}

}  // namespace perfbench
