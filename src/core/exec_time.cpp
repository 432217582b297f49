#include "core/exec_time.hpp"

#include <algorithm>

namespace tetra::core {

Duration exec_time_naive(TimePoint start, TimePoint end, Pid pid,
                         const trace::EventVector& sched_events) {
  // Paper Alg. 2. Line numbering follows the pseudocode; the trailing
  // "no event after end" case (the loop running out) is handled after the
  // loop, which the pseudocode leaves implicit.
  if (end < start) return Duration::zero();  // inverted window: no time
  Duration exec_time = Duration::zero();   // line 1
  TimePoint last_start = start;            // line 2
  bool on_cpu = true;  // the CB start event is emitted from the running thread
  for (const auto& event : sched_events) {  // line 3 (pre-sorted)
    if (event.type != trace::EventType::SchedSwitch) continue;
    const auto& info = event.as<trace::SchedSwitchInfo>();
    if (start < event.time && event.time < end) {  // line 4
      if (info.prev_pid == pid) {                  // line 5
        exec_time += event.time - last_start;      // line 6
        on_cpu = false;
      } else if (info.next_pid == pid) {           // line 7
        last_start = event.time;                   // line 8
        on_cpu = true;
      }
    } else if (event.time > end) {                 // line 9
      if (on_cpu) exec_time += end - last_start;   // line 10
      return exec_time;                            // line 11
    }
  }
  if (on_cpu) exec_time += end - last_start;
  return exec_time;
}

ExecTimeCalculator::ExecTimeCalculator(const trace::EventVector& events) {
  for (const auto& event : events) index_event(event);
  for (Timeline& timeline : timelines_) {
    std::stable_sort(timeline.switches.begin(), timeline.switches.end(),
                     [](const Switch& a, const Switch& b) {
                       return a.time < b.time;
                     });
    std::sort(timeline.wakeups.begin(), timeline.wakeups.end());
  }
}

ExecTimeCalculator::Timeline& ExecTimeCalculator::timeline_for(Pid pid) {
  const auto [slot, added] = slots_.try_emplace(
      pid, static_cast<std::uint32_t>(timelines_.size()));
  if (added) timelines_.emplace_back();
  return timelines_[slot->second];
}

const ExecTimeCalculator::Timeline* ExecTimeCalculator::timeline_of(
    Pid pid) const {
  const auto slot = slots_.find(pid);
  return slot == slots_.end() ? nullptr : &timelines_[slot->second];
}

void ExecTimeCalculator::index_event(const trace::TraceEvent& event) {
  if (event.type == trace::EventType::SchedSwitch) {
    const auto& info = event.as<trace::SchedSwitchInfo>();
    const std::int64_t t = event.time.count_ns();
    if (info.prev_pid != kIdlePid) {
      timeline_for(info.prev_pid)
          .switches.push_back(Switch{t, static_cast<char>(info.prev_state)});
    }
    if (info.next_pid != kIdlePid) {
      timeline_for(info.next_pid).switches.push_back(Switch{t, kSwitchedIn});
    }
  } else if (event.type == trace::EventType::SchedWakeup) {
    timeline_for(event.as<trace::SchedWakeupInfo>().woken_pid)
        .wakeups.push_back(event.time);
  }
}

void ExecTimeCalculator::append_columns(const trace::ColumnsView& v,
                                        std::size_t from) {
  for (Timeline& timeline : timelines_) {
    timeline.switches_before = timeline.switches.size();
    timeline.wakeups_before = timeline.wakeups.size();
  }
  for (std::size_t i = from; i < v.count; ++i) {
    const auto type = static_cast<trace::EventType>(v.type[i]);
    if (type == trace::EventType::SchedSwitch) {
      const Pid prev = static_cast<Pid>(v.sched_prev_pid(i));
      const Pid next = static_cast<Pid>(v.sched_next_pid(i));
      if (prev != kIdlePid) {
        timeline_for(prev).switches.push_back(
            Switch{v.time[i], static_cast<char>(v.aux[i])});
      }
      if (next != kIdlePid) {
        timeline_for(next).switches.push_back(Switch{v.time[i], kSwitchedIn});
      }
    } else if (type == trace::EventType::SchedWakeup) {
      timeline_for(static_cast<Pid>(v.wakeup_pid(i)))
          .wakeups.push_back(TimePoint{v.time[i]});
    }
  }
  // A stable merge keeps older entries first on time ties — identical to
  // the stable_sort a full rebuild applies over the merged event order.
  // Pids first seen in this batch have nothing before it to merge with.
  for (Timeline& timeline : timelines_) {
    auto& switches = timeline.switches;
    const std::size_t old_switches = timeline.switches_before;
    if (old_switches != 0 && old_switches != switches.size() &&
        switches[old_switches].time < switches[old_switches - 1].time) {
      std::inplace_merge(
          switches.begin(),
          switches.begin() + static_cast<std::ptrdiff_t>(old_switches),
          switches.end(),
          [](const Switch& a, const Switch& b) { return a.time < b.time; });
    }
    auto& wakeups = timeline.wakeups;
    const std::size_t old_wakeups = timeline.wakeups_before;
    if (old_wakeups != 0 && old_wakeups != wakeups.size() &&
        wakeups[old_wakeups] < wakeups[old_wakeups - 1]) {
      std::inplace_merge(
          wakeups.begin(),
          wakeups.begin() + static_cast<std::ptrdiff_t>(old_wakeups),
          wakeups.end());
    }
  }
}

Duration ExecTimeCalculator::exec_time(TimePoint start, TimePoint end,
                                       Pid pid) const {
  // Inverted windows (corrupt or hand-edited traces) have no well-defined
  // on-CPU intersection; report zero rather than a negative duration.
  if (end < start) return Duration::zero();
  const Timeline* timeline = timeline_of(pid);
  if (timeline == nullptr) return end - start;  // never switched: ran throughout
  const std::vector<Switch>& switches = timeline->switches;
  const std::int64_t start_ns = start.count_ns();
  const std::int64_t end_ns = end.count_ns();
  std::int64_t total = 0;
  std::int64_t last_start = start_ns;
  bool on_cpu = true;
  auto it = std::upper_bound(
      switches.begin(), switches.end(), start_ns,
      [](std::int64_t t, const Switch& s) { return t < s.time; });
  for (; it != switches.end() && it->time < end_ns; ++it) {
    if (it->state != kSwitchedIn) {
      if (on_cpu) total += it->time - last_start;
      on_cpu = false;
    } else {
      last_start = it->time;
      on_cpu = true;
    }
  }
  if (on_cpu) total += end_ns - last_start;
  return Duration::ns(total);
}

std::optional<TimePoint> ExecTimeCalculator::last_wakeup_before(
    Pid pid, TimePoint t) const {
  const Timeline* timeline = timeline_of(pid);
  if (timeline == nullptr || timeline->wakeups.empty()) return std::nullopt;
  const auto& list = timeline->wakeups;
  auto pos = std::upper_bound(list.begin(), list.end(), t);
  if (pos == list.begin()) return std::nullopt;
  return *(pos - 1);
}

std::size_t ExecTimeCalculator::preemptions_in(TimePoint start, TimePoint end,
                                               Pid pid) const {
  const Timeline* timeline = timeline_of(pid);
  if (timeline == nullptr) return 0;
  std::size_t count = 0;
  for (const Switch& s : timeline->switches) {
    if (s.time <= start.count_ns()) continue;
    if (s.time >= end.count_ns()) break;
    if (s.state == static_cast<char>(trace::ThreadRunState::Runnable)) {
      ++count;
    }
  }
  return count;
}

}  // namespace tetra::core
