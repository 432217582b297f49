// Host-speed calibration for the end-to-end timings.
//
// Shared hosts drift: on the 4-vCPU VM the benchmark was built on, the
// same operation ran up to 1.8x slower for minutes at a time while
// co-tenants contended for cores, caches and memory. That is wider than
// any useful regression bound, and no run is long enough to average it
// out. So a fixed single-threaded calibration kernel, which never calls
// the library, is timed between operations, and every operation's wall
// time is scaled by
//
//   kReferenceMs / (median kernel time of the calibrations around it)
//
// The scaled times read "milliseconds at reference host speed". The
// kernel is the same code on both sides of any comparison, so a change
// to the library moves the scaled times as it moves wall time, while a
// slow host phase moves the kernel and the operation together. Raw wall
// figures are printed on stderr next to the scaled ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Kernel time that defines the reference host speed (the kernel took
  /// 2.2-3.0 ms on the 4-vCPU Xeon VM the benchmark was built on).
  static constexpr double kReferenceMs = 3.0;
  /// The kernel runs again once this much wall time has passed.
  static constexpr double kIntervalMs = 200.0;

  HostSpeed();

  /// Runs the kernel now and records its time.
  void calibrate();
  /// Runs the kernel if kIntervalMs passed since the last one.
  void maybe_calibrate();

  /// Factor that turns a wall time that ended at `at_ns` into reference
  /// time: kReferenceMs over the median kernel time of the calibrations
  /// nearest to `at_ns`.
  double scale_at(std::int64_t at_ns) const;
  double median_kernel_ms() const;
  std::size_t calibrations() const { return at_ns_.size(); }
  /// Bytes the kernel keeps resident; peak_rss_mb leaves them out.
  std::size_t resident_bytes() const;

 private:
  double kernel_ms();

  std::vector<char> text_;            ///< decimal numbers to parse
  std::vector<std::uint64_t> keys_;   ///< sort and hash input
  std::vector<std::uint64_t> sorted_;
  std::vector<std::uint64_t> slots_;  ///< open-addressing hash table
  std::vector<std::uint64_t> table_;  ///< scattered read-modify-write
  std::uint64_t sink_ = 1;
  std::vector<std::int64_t> at_ns_;
  std::vector<double> kernel_ms_;
};

}  // namespace perfbench
