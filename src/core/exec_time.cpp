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
  finalize_indices();
}

void ExecTimeCalculator::index_event(const trace::TraceEvent& event) {
  if (event.type == trace::EventType::SchedSwitch) {
    const auto& info = event.as<trace::SchedSwitchInfo>();
    if (info.prev_pid != kIdlePid) {
      switches_[info.prev_pid].push_back(
          Switch{event.time, false, info.prev_state});
    }
    if (info.next_pid != kIdlePid) {
      switches_[info.next_pid].push_back(
          Switch{event.time, true, trace::ThreadRunState::Runnable});
    }
  } else if (event.type == trace::EventType::SchedWakeup) {
    wakeups_[event.as<trace::SchedWakeupInfo>().woken_pid].push_back(event.time);
  }
}

void ExecTimeCalculator::append_columns(const trace::ColumnsView& v,
                                        std::size_t from) {
  // First-touch old sizes, so each per-PID list can be re-merged once.
  std::map<Pid, std::size_t> switch_sizes;
  std::map<Pid, std::size_t> wakeup_sizes;
  for (std::size_t i = from; i < v.count; ++i) {
    const auto type = static_cast<trace::EventType>(v.type[i]);
    if (type == trace::EventType::SchedSwitch) {
      const TimePoint t{v.time[i]};
      const Pid prev = static_cast<Pid>(v.sched_prev_pid(i));
      const Pid next = static_cast<Pid>(v.sched_next_pid(i));
      if (prev != kIdlePid) {
        auto& list = switches_[prev];
        switch_sizes.emplace(prev, list.size());
        list.push_back(Switch{
            t, false,
            static_cast<trace::ThreadRunState>(static_cast<char>(v.aux[i]))});
      }
      if (next != kIdlePid) {
        auto& list = switches_[next];
        switch_sizes.emplace(next, list.size());
        list.push_back(Switch{t, true, trace::ThreadRunState::Runnable});
      }
    } else if (type == trace::EventType::SchedWakeup) {
      const Pid pid = static_cast<Pid>(v.wakeup_pid(i));
      auto& list = wakeups_[pid];
      wakeup_sizes.emplace(pid, list.size());
      list.push_back(TimePoint{v.time[i]});
    }
  }
  // A stable merge keeps older entries first on time ties — identical to
  // the stable_sort a full rebuild applies over the merged event order.
  for (const auto& [pid, old_size] : switch_sizes) {
    auto& list = switches_[pid];
    if (old_size == 0 || old_size == list.size()) continue;
    if (!(list[old_size].time < list[old_size - 1].time)) continue;
    std::inplace_merge(
        list.begin(), list.begin() + static_cast<std::ptrdiff_t>(old_size),
        list.end(),
        [](const Switch& a, const Switch& b) { return a.time < b.time; });
  }
  for (const auto& [pid, old_size] : wakeup_sizes) {
    auto& list = wakeups_[pid];
    if (old_size == 0 || old_size == list.size()) continue;
    if (!(list[old_size] < list[old_size - 1])) continue;
    std::inplace_merge(
        list.begin(), list.begin() + static_cast<std::ptrdiff_t>(old_size),
        list.end());
  }
}

void ExecTimeCalculator::finalize_indices() {
  for (auto& [pid, list] : switches_) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Switch& a, const Switch& b) { return a.time < b.time; });
  }
  for (auto& [pid, list] : wakeups_) {
    std::sort(list.begin(), list.end());
  }
}

const std::vector<ExecTimeCalculator::Switch>* ExecTimeCalculator::switches_for(
    Pid pid) const {
  auto it = switches_.find(pid);
  return it == switches_.end() ? nullptr : &it->second;
}

Duration ExecTimeCalculator::exec_time(TimePoint start, TimePoint end,
                                       Pid pid) const {
  // Inverted windows (corrupt or hand-edited traces) have no well-defined
  // on-CPU intersection; report zero rather than a negative duration.
  if (end < start) return Duration::zero();
  const auto* list = switches_for(pid);
  if (list == nullptr) return end - start;  // never switched: ran throughout
  Duration total = Duration::zero();
  TimePoint last_start = start;
  bool on_cpu = true;
  auto it = std::upper_bound(
      list->begin(), list->end(), start,
      [](TimePoint t, const Switch& s) { return t < s.time; });
  for (; it != list->end() && it->time < end; ++it) {
    if (it->time <= start) continue;
    if (!it->in) {
      if (on_cpu) total += it->time - last_start;
      on_cpu = false;
    } else {
      last_start = it->time;
      on_cpu = true;
    }
  }
  if (on_cpu) total += end - last_start;
  return total;
}

std::optional<TimePoint> ExecTimeCalculator::last_wakeup_before(
    Pid pid, TimePoint t) const {
  auto it = wakeups_.find(pid);
  if (it == wakeups_.end() || it->second.empty()) return std::nullopt;
  const auto& list = it->second;
  auto pos = std::upper_bound(list.begin(), list.end(), t);
  if (pos == list.begin()) return std::nullopt;
  return *(pos - 1);
}

std::size_t ExecTimeCalculator::preemptions_in(TimePoint start, TimePoint end,
                                               Pid pid) const {
  const auto* list = switches_for(pid);
  if (list == nullptr) return 0;
  std::size_t count = 0;
  for (const auto& s : *list) {
    if (s.time <= start) continue;
    if (s.time >= end) break;
    if (!s.in && s.prev_state == trace::ThreadRunState::Runnable) ++count;
  }
  return count;
}

}  // namespace tetra::core
