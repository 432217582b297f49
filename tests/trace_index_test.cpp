// Randomized differential test of core::TraceIndex. Seeded splits of the
// golden trace are appended as segments — contiguous chunks in shuffled
// order, overlapping interleaved subsequences, timestamps coarsened into
// ties, duplicated (topic, src_ts) writes and take responses, and a
// release -> append -> restore cycle — and every query is compared with
// a naive reference computed over the stably merged rows: (time, append
// sequence) order, the order the index promises to reproduce. The row
// deltas incremental synthesis derives (describe_rows) are compared with
// a naive recomputation from the decoded rows of each segment.
//
// The splits come from a fixed std::mt19937_64 stream, so every platform
// runs the same inputs.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_time.hpp"
#include "core/extract.hpp"
#include "core/incremental.hpp"
#include "trace/serialize.hpp"

namespace tetra::core {
namespace {

using trace::EventType;
using trace::EventVector;
using trace::TraceEvent;

constexpr std::uint64_t kSeed = 0x1dec5eedULL;
constexpr int kSplits = 24;

EventVector golden_trace() {
  EventVector events = trace::read_jsonl_file(
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl");
  trace::sort_by_time(events);
  return events;
}

/// Topic and source timestamp of a dds_write or take event.
std::pair<std::string, std::int64_t> key_of(const TraceEvent& e) {
  if (e.type == EventType::DdsWrite) {
    const auto& info = e.as<trace::DdsWriteInfo>();
    return {info.topic, info.src_ts.count_ns()};
  }
  const auto& info = e.as<trace::TakeInfo>();
  return {info.topic, info.src_ts.count_ns()};
}

bool is_take_response(const TraceEvent& e) {
  return e.type == EventType::Take &&
         e.as<trace::TakeInfo>().kind == trace::TakeKind::Response;
}

/// One seeded way of cutting the trace into time-sorted segments, listed
/// in append order.
std::vector<EventVector> split(const EventVector& golden, std::mt19937_64& rng,
                               int variant) {
  EventVector events = golden;
  if (variant % 3 == 2) {
    // Coarse clock: many rows share a timestamp.
    for (auto& e : events) {
      e.time = TimePoint{e.time.count_ns() / 1'000'000 * 1'000'000};
    }
  }
  // Duplicated keys: copies of some writes and take responses, written
  // by another pid at another time, so the first write and the response
  // lists depend on the merge order.
  std::uniform_int_distribution<std::size_t> pick(0, events.size() - 1);
  for (int k = 0; k < 12; ++k) {
    const TraceEvent& source = events[pick(rng)];
    if (source.type != EventType::DdsWrite && !is_take_response(source)) {
      continue;
    }
    TraceEvent copy = source;
    copy.pid = source.pid + 1;
    copy.time = TimePoint{source.time.count_ns() -
                          static_cast<std::int64_t>(rng() % 3) * 1'000'000};
    events.push_back(copy);
  }
  // Renames: a later and an equal-time P1 for a named pid. The
  // chronologically last one names the node; on a tie, the later
  // appended one.
  const Pid named = events.front().pid;
  const TimePoint named_at = events.front().time;
  const TimePoint midway{events.back().time.count_ns() / 2};
  events.push_back(trace::make_node_event(midway, named, "renamed"));
  events.push_back(trace::make_node_event(named_at, named + 1, "tied"));
  trace::sort_by_time(events);

  const std::size_t parts = 2 + rng() % 5;
  std::vector<EventVector> segments(parts);
  if (variant % 2 == 0) {
    // Contiguous chunks, appended in a shuffled order.
    std::vector<std::size_t> cuts{0, events.size()};
    for (std::size_t p = 1; p < parts; ++p) cuts.push_back(pick(rng));
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t p = 0; p < parts; ++p) {
      segments[p].assign(events.begin() + static_cast<std::ptrdiff_t>(cuts[p]),
                         events.begin() +
                             static_cast<std::ptrdiff_t>(cuts[p + 1]));
    }
    std::shuffle(segments.begin(), segments.end(), rng);
  } else {
    // Overlapping batches: each row goes to a random segment, so every
    // segment spans the whole run.
    for (const auto& e : events) segments[rng() % parts].push_back(e);
  }
  // A segment holding only sched activity of a pid seen nowhere else.
  trace::SchedWakeupInfo wakeup;
  wakeup.woken_pid = 4242;
  wakeup.target_cpu = 0;
  segments.insert(
      segments.begin() + static_cast<std::ptrdiff_t>(rng() % parts),
      EventVector{trace::make_sched_wakeup(events[pick(rng)].time, wakeup)});
  return segments;
}

/// Naive reference over the stably merged rows: every lookup is read off
/// one walk of the merged order.
struct Reference {
  using Key = std::pair<std::string, std::int64_t>;
  std::vector<std::pair<TraceEvent, std::size_t>> merged;  ///< (event, seq)
  std::map<Pid, std::vector<std::size_t>> ros;
  std::map<Pid, std::vector<std::size_t>> p14;
  std::map<Pid, std::string> nodes;
  std::map<Key, std::size_t> first_write;
  std::map<Key, std::vector<std::size_t>> responses;
  std::map<Pid, EventVector> sched_of;  ///< sched rows naming each pid

  explicit Reference(const std::vector<EventVector>& segments) {
    for (const auto& segment : segments) {
      for (const auto& e : segment) merged.emplace_back(e, merged.size());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.time < b.first.time;
                     });
    for (const auto& [e, seq] : merged) {
      if (e.type == EventType::SchedSwitch) {
        // The idle pid is no thread: Alg. 2 never tracks it.
        const auto& info = e.as<trace::SchedSwitchInfo>();
        if (info.prev_pid != kIdlePid) sched_of[info.prev_pid].push_back(e);
        if (info.next_pid != kIdlePid && info.next_pid != info.prev_pid) {
          sched_of[info.next_pid].push_back(e);
        }
        continue;
      }
      if (e.type == EventType::SchedWakeup) {
        sched_of[e.as<trace::SchedWakeupInfo>().woken_pid].push_back(e);
        continue;
      }
      ros[e.pid].push_back(seq);
      if (e.type == EventType::TakeTypeErased) p14[e.pid].push_back(seq);
      if (e.type == EventType::RmwCreateNode) {
        nodes[e.pid] = e.as<trace::NodeInfo>().node_name;
      }
      if (e.type == EventType::DdsWrite) first_write.emplace(key_of(e), seq);
      if (is_take_response(e)) responses[key_of(e)].push_back(seq);
    }
  }

  std::size_t next_take_type_erased_after(Pid pid, std::size_t after) const {
    const auto it = p14.find(pid);
    if (it == p14.end()) return TraceIndex::npos;
    // Position of `after` in the merged order.
    std::size_t rank = 0;
    while (merged[rank].second != after) ++rank;
    for (const std::size_t seq : it->second) {
      std::size_t seq_rank = 0;
      while (merged[seq_rank].second != seq) ++seq_rank;
      if (seq_rank > rank) return seq;
    }
    return TraceIndex::npos;
  }
};

/// Alg. 2 as a linear scan over the pid's merged sched rows, with the
/// indexed calculator's guard that a switch-out only counts while the pid
/// is on the CPU. (exec_time_naive, the verbatim transcription, counts
/// every switch-out; tie reordering across overlapping segments can put
/// two switch-outs of one pid in a row, where the two differ.)
Duration naive_exec_time(const EventVector& sched, TimePoint start,
                         TimePoint end, Pid pid) {
  if (end < start) return Duration::zero();
  Duration total = Duration::zero();
  TimePoint last_start = start;
  bool on_cpu = true;
  for (const auto& e : sched) {
    if (e.type != EventType::SchedSwitch || e.time <= start) continue;
    if (e.time >= end) break;
    const auto& info = e.as<trace::SchedSwitchInfo>();
    if (info.prev_pid == pid) {
      if (on_cpu) total += e.time - last_start;
      on_cpu = false;
    }
    if (info.next_pid == pid) {
      last_start = e.time;
      on_cpu = true;
    }
  }
  if (on_cpu) total += end - last_start;
  return total;
}

std::optional<TimePoint> naive_last_wakeup(const EventVector& sched, Pid pid,
                                           TimePoint t) {
  std::optional<TimePoint> last;
  for (const auto& e : sched) {
    if (e.type == EventType::SchedWakeup && e.time <= t &&
        e.as<trace::SchedWakeupInfo>().woken_pid == pid) {
      last = e.time;
    }
  }
  return last;
}

std::size_t naive_preemptions(const EventVector& sched, TimePoint start,
                              TimePoint end, Pid pid) {
  std::size_t count = 0;
  for (const auto& e : sched) {
    if (e.type != EventType::SchedSwitch || e.time <= start || e.time >= end) {
      continue;
    }
    const auto& info = e.as<trace::SchedSwitchInfo>();
    if (info.prev_pid == pid &&
        info.prev_state == trace::ThreadRunState::Runnable) {
      ++count;
    }
  }
  return count;
}

/// Every query of `index` against `ref`, for every pid and key of the
/// merged rows plus a few misses.
void expect_matches(const TraceIndex& index, const Reference& ref,
                    const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(index.size(), ref.merged.size());
  EXPECT_EQ(index.nodes(), ref.nodes);

  std::set<Pid> pids{kInvalidPid, 424242};
  std::set<Reference::Key> keys{{"/no-such-topic", 1}};
  for (const auto& [pid, rows] : ref.ros) pids.insert(pid);
  for (const auto& [pid, rows] : ref.sched_of) pids.insert(pid);
  for (const auto& [e, seq] : ref.merged) {
    if (e.type == EventType::DdsWrite || e.type == EventType::Take) {
      keys.insert(key_of(e));
      keys.insert({key_of(e).first, key_of(e).second + 1});  // a miss
    }
  }
  const auto value_or = [](const auto& map, const auto& key, auto fallback) {
    const auto it = map.find(key);
    return it == map.end() ? fallback : it->second;
  };

  for (const Pid pid : pids) {
    EXPECT_EQ(index.ros_events_of(pid),
              value_or(ref.ros, pid, std::vector<std::size_t>{}))
        << pid;
  }
  for (const auto& key : keys) {
    const TimePoint ts{key.second};
    EXPECT_EQ(index.find_write(key.first, ts),
              value_or(ref.first_write, key, TraceIndex::npos))
        << key.first << " " << key.second;
    EXPECT_EQ(index.find_take_responses(key.first, ts),
              value_or(ref.responses, key, std::vector<std::size_t>{}))
        << key.first << " " << key.second;
  }
  for (const auto& [e, seq] : ref.merged) {
    if (e.type == EventType::Take || e.type == EventType::TakeTypeErased) {
      EXPECT_EQ(index.next_take_type_erased_after(e.pid, seq),
                ref.next_take_type_erased_after(e.pid, seq))
          << e.pid << " after " << seq;
    }
  }

  // Alg. 2 queries over windows between ROS events of each pid
  // (callback-sized) and over the whole run.
  const ExecTimeCalculator& calc = index.exec_calc();
  const TimePoint first = ref.merged.front().first.time;
  const TimePoint last = ref.merged.back().first.time;
  for (const Pid pid : pids) {
    const EventVector sched = value_or(ref.sched_of, pid, EventVector{});
    const auto ros = value_or(ref.ros, pid, std::vector<std::size_t>{});
    std::vector<std::pair<TimePoint, TimePoint>> windows{{first, last}};
    for (std::size_t k = 0; k + 1 < ros.size(); k += 4) {
      windows.emplace_back(index.event_at(ros[k]).time,
                           index.event_at(ros[k + 1]).time);
    }
    for (const auto& [start, end] : windows) {
      EXPECT_EQ(calc.exec_time(start, end, pid),
                naive_exec_time(sched, start, end, pid))
          << pid << " [" << start.count_ns() << ", " << end.count_ns() << "]";
      EXPECT_EQ(calc.last_wakeup_before(pid, start),
                naive_last_wakeup(sched, pid, start))
          << pid << " at " << start.count_ns();
      EXPECT_EQ(calc.preemptions_in(start, end, pid),
                naive_preemptions(sched, start, end, pid))
          << pid;
    }
  }
}

/// The delta of one segment, recomputed from its decoded rows with
/// string keys.
struct NaiveDelta {
  std::set<Pid> ros_pids, sched_pids;
  std::set<std::pair<std::string, std::int64_t>> write_keys, response_keys;

  explicit NaiveDelta(const EventVector& segment) {
    for (const auto& e : segment) {
      if (e.type == EventType::SchedSwitch) {
        const auto& info = e.as<trace::SchedSwitchInfo>();
        if (info.prev_pid != kIdlePid) sched_pids.insert(info.prev_pid);
        if (info.next_pid != kIdlePid) sched_pids.insert(info.next_pid);
      } else if (e.type == EventType::SchedWakeup) {
        sched_pids.insert(e.as<trace::SchedWakeupInfo>().woken_pid);
      } else {
        ros_pids.insert(e.pid);
        if (e.type == EventType::DdsWrite) write_keys.insert(key_of(e));
        if (is_take_response(e)) response_keys.insert(key_of(e));
      }
    }
  }
};

std::set<std::pair<std::string, std::int64_t>> named(
    const std::vector<TopicTsKey>& keys, const trace::ColumnsView& view) {
  std::set<std::pair<std::string, std::int64_t>> out;
  for (const auto& [topic, ts] : keys) {
    out.emplace(std::string(view.str(topic)), ts);
  }
  return out;
}

TEST(TraceIndexDifferentialTest, SeededSplitsMatchNaiveMergedReference) {
  const EventVector golden = golden_trace();
  ASSERT_GT(golden.size(), 1000u);
  std::mt19937_64 rng(kSeed);
  for (int variant = 0; variant < kSplits; ++variant) {
    const std::vector<EventVector> segments = split(golden, rng, variant);
    const Reference ref(segments);
    const std::string label = "split " + std::to_string(variant);

    TraceIndex appended;
    for (const auto& segment : segments) appended.append(segment);
    expect_matches(appended, ref, label + " appended");

    // Columns appends (the .ttb / sentinel path), with lookups released
    // after the first segment and restored at the end.
    TraceIndex restored;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      trace::EventColumns columns;
      columns.append(segments[s]);
      restored.append(columns.view());
      if (s == 0) restored.release_lookups();
    }
    restored.restore_lookups();
    expect_matches(restored, ref, label + " released and restored");

    IncrementalSynthesizer incremental;
    for (const auto& segment : segments) {
      const std::size_t first_row = incremental.index().size();
      incremental.append(segment);
      const trace::ColumnsView view = incremental.index().view();
      const AppendDelta delta =
          describe_rows(view, first_row, incremental.index().size());
      const NaiveDelta naive(segment);
      EXPECT_EQ(std::set<Pid>(delta.ros_pids.begin(), delta.ros_pids.end()),
                naive.ros_pids)
          << label;
      EXPECT_EQ(
          std::set<Pid>(delta.sched_pids.begin(), delta.sched_pids.end()),
          naive.sched_pids)
          << label;
      EXPECT_EQ(named(delta.write_keys, view), naive.write_keys) << label;
      EXPECT_EQ(named(delta.response_keys, view), naive.response_keys)
          << label;
      for (const auto* list : {&delta.ros_pids, &delta.sched_pids}) {
        EXPECT_TRUE(std::is_sorted(list->begin(), list->end()));
        EXPECT_EQ(std::adjacent_find(list->begin(), list->end()), list->end());
      }
    }
    expect_matches(incremental.index(), ref, label + " incremental");
  }
}

TEST(TraceIndexReleaseTest, AppendWhileReleasedBuildsNoLookups) {
  const EventVector golden = golden_trace();
  const std::size_t half = golden.size() / 2;
  const std::vector<EventVector> segments{
      EventVector(golden.begin(), golden.begin() + half),
      EventVector(golden.begin() + half, golden.end())};
  const Pid pid = golden.front().pid;

  TraceIndex index;
  index.append(segments[0]);
  index.release_lookups();
  const AppendDelta rows = index.append(segments[1]);
  EXPECT_EQ(rows.first_row, half);
  EXPECT_EQ(rows.end_row, golden.size());
  // Only the rows were copied: every lookup is still released, so the
  // queries that need one refuse to answer rather than read a partial
  // table.
  EXPECT_THROW(index.ros_events_of(pid), std::logic_error);
  EXPECT_THROW(index.nodes(), std::logic_error);
  EXPECT_THROW(index.exec_calc(), std::logic_error);

  index.restore_lookups();
  expect_matches(index, Reference(segments), "restored after append");
}

/// Heap bytes in use (arena chunks plus mmapped chunks), or 0 when the
/// allocator does not report them (e.g. under a sanitizer's allocator).
std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(TraceIndexReleaseTest, ReleaseKeepsOnlyTheWriteTableBuffer) {
  const EventVector golden = golden_trace();
  std::size_t writes = 0;
  for (const auto& e : golden) writes += e.type == EventType::DdsWrite;
  ASSERT_GT(writes, 0u);
  {
    const std::size_t before = heap_in_use();
    const std::vector<char> probe(1 << 20, 1);
    if (heap_in_use() < before + probe.size()) {
      GTEST_SKIP() << "allocator reports no heap statistics";
    }
  }

  // Same rows, same columns; only `built` ever had lookups.
  const std::size_t base = heap_in_use();
  TraceIndex built(golden);
  built.release_lookups();
  const std::size_t with_released = heap_in_use() - base;
  TraceIndex copied;
  copied.release_lookups();
  copied.append(golden);
  const std::size_t columns_only = heap_in_use() - base - with_released;

  // What a release keeps: the dds_write table's buffer, one 24-byte entry
  // per write with at most doubling slack (see release_lookups).
  const std::size_t entry = sizeof(std::int64_t) + 2 * sizeof(std::size_t);
  ASSERT_GE(with_released, columns_only);
  const std::size_t kept = with_released - columns_only;
  EXPECT_GE(kept, writes * entry);
  EXPECT_LE(kept, 2 * writes * entry + 256);
}

}  // namespace
}  // namespace tetra::core
