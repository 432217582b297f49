#include "analysis/latency.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/exec_time.hpp"

namespace tetra::analysis {

const std::vector<TimePoint> InstanceTimeline::kNoWrites{};

namespace {

trace::EventColumns to_columns(const trace::EventVector& events) {
  trace::EventColumns columns;
  columns.append(events);
  return columns;
}

}  // namespace

InstanceTimeline::InstanceTimeline(const trace::EventVector& events)
    : InstanceTimeline(to_columns(events).view()) {}

InstanceTimeline::InstanceTimeline(const trace::ColumnsView& events) {
  // Walk the rows chronologically (ties keep row order); only unsorted
  // input needs an explicit order.
  std::vector<std::size_t> order;
  if (!trace::is_time_sorted(events)) {
    order.resize(events.count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return events.time[a] < events.time[b];
                     });
  }
  std::size_t ends = 0;
  for (std::size_t i = 0; i < events.count; ++i) {
    ends += events.type[i] ==
            static_cast<std::uint8_t>(trace::EventType::CallbackEnd);
  }
  instances_.reserve(ends);
  consumers_.reserve(ends);

  // Per string-table entry: the decoded topic name and its write list,
  // looked up once.
  struct Topic {
    std::string name;
    std::vector<TimePoint>* writes = nullptr;
  };
  std::vector<std::optional<Topic>> topics(events.string_count);
  const auto topic = [&](std::size_t row) -> Topic& {
    const std::uint32_t index = events.arg_c[row];
    const std::string_view name = events.str(index);  // bounds check
    if (!topics[index].has_value()) {
      topics[index].emplace(Topic{std::string(name)});
    }
    return *topics[index];
  };

  // Per-PID in-flight instance assembly, mirroring the single-threaded
  // executor assumption: one open instance per PID at a time. A PID's
  // slot stays in the map between its instances.
  std::map<Pid, std::optional<CallbackInstance>> open;
  const auto open_at = [&](Pid pid) -> CallbackInstance* {
    auto it = open.find(pid);
    return it != open.end() && it->second.has_value() ? &*it->second
                                                      : nullptr;
  };
  for (std::size_t k = 0; k < events.count; ++k) {
    const std::size_t i = order.empty() ? k : order[k];
    const Pid pid = static_cast<Pid>(events.pid[i]);
    switch (static_cast<trace::EventType>(events.type[i])) {
      case trace::EventType::CallbackStart: {
        CallbackInstance& inst = open[pid].emplace();
        inst.pid = pid;
        inst.kind = trace::callback_kind_from_int(events.aux[i]);
        inst.start = TimePoint{events.time[i]};
        break;
      }
      case trace::EventType::TimerCall:
        if (CallbackInstance* inst = open_at(pid)) {
          inst->callback_id = static_cast<CallbackId>(events.arg_a[i]);
        }
        break;
      case trace::EventType::Take:
        if (CallbackInstance* inst = open_at(pid)) {
          inst->callback_id = static_cast<CallbackId>(events.arg_a[i]);
          inst->take = {topic(i).name, TimePoint{events.arg_b[i]}};
        }
        break;
      case trace::EventType::DdsWrite: {
        Topic& written = topic(i);
        if (written.writes == nullptr) {
          written.writes = &writes_by_topic_[written.name];
        }
        const TimePoint src_ts{events.arg_b[i]};
        written.writes->push_back(src_ts);
        if (CallbackInstance* inst = open_at(pid)) {
          inst->writes.push_back({written.name, src_ts});
        }
        break;
      }
      case trace::EventType::CallbackEnd:
        if (CallbackInstance* inst = open_at(pid)) {
          inst->end = TimePoint{events.time[i]};
          const std::size_t index = instances_.size();
          if (inst->take.has_value()) {
            consumers_[Key{inst->take->first, inst->take->second.count_ns()}]
                .push_back(index);
          }
          instances_.push_back(std::move(*inst));
          open[pid].reset();
        }
        break;
      default:
        break;
    }
  }
}

InstanceTimeline::InstanceTimeline(
    std::vector<CallbackInstance> instances,
    std::map<std::string, std::vector<TimePoint>> external_writes)
    : instances_(std::move(instances)),
      writes_by_topic_(std::move(external_writes)) {
  consumers_.reserve(instances_.size());
  for (std::size_t index = 0; index < instances_.size(); ++index) {
    const CallbackInstance& inst = instances_[index];
    if (inst.take.has_value()) {
      consumers_[Key{inst.take->first, inst.take->second.count_ns()}]
          .push_back(index);
    }
    for (const auto& [topic, ts] : inst.writes) {
      writes_by_topic_[topic].push_back(ts);
    }
  }
  // The event-based constructor yields per-topic writes in trace order;
  // match that here so traversal output is independent of how the
  // timeline was fed.
  for (auto& [topic, writes] : writes_by_topic_) {
    std::sort(writes.begin(), writes.end());
  }
}

std::vector<const CallbackInstance*> InstanceTimeline::consumers_of(
    const std::string& topic, TimePoint src_ts) const {
  std::vector<const CallbackInstance*> out;
  const std::vector<std::size_t>* indices = consumer_indices(topic, src_ts);
  if (indices == nullptr) return out;
  out.reserve(indices->size());
  for (std::size_t index : *indices) out.push_back(&instances_[index]);
  return out;
}

const std::vector<std::size_t>* InstanceTimeline::consumer_indices(
    const std::string& topic, TimePoint src_ts) const {
  auto it = consumers_.find(Key{topic, src_ts.count_ns()});
  return it == consumers_.end() ? nullptr : &it->second;
}

const std::vector<TimePoint>& InstanceTimeline::writes_on(
    const std::string& topic) const {
  auto it = writes_by_topic_.find(topic);
  return it == writes_by_topic_.end() ? kNoWrites : it->second;
}

namespace {

/// Follows one sample recursively to the deepest consumer end time.
/// Returns the completion time of the chain for this sample, if the whole
/// remaining topic sequence is traversed.
std::optional<TimePoint> follow(const InstanceTimeline& timeline,
                                const std::vector<std::string>& topics,
                                std::size_t depth, TimePoint src_ts) {
  const std::vector<std::size_t>* consumers =
      timeline.consumer_indices(topics[depth], src_ts);
  if (consumers == nullptr) return std::nullopt;
  std::optional<TimePoint> best;
  for (const std::size_t index : *consumers) {
    const CallbackInstance* instance = &timeline.instances()[index];
    if (depth + 1 == topics.size()) {
      // Last hop: the chain completes when the final consumer finishes.
      if (!best.has_value() || instance->end > *best) best = instance->end;
      continue;
    }
    // Find this instance's write on the next topic (if it produced one).
    for (const auto& [topic, ts] : instance->writes) {
      if (topic == topics[depth + 1]) {
        auto completed = follow(timeline, topics, depth + 1, ts);
        if (completed.has_value() && (!best.has_value() || *completed > *best)) {
          best = completed;
        }
      }
    }
  }
  return best;
}

}  // namespace

ChainLatencyResult measure_chain_latency(const InstanceTimeline& timeline,
                                         const std::vector<std::string>& topics) {
  ChainLatencyResult result;
  if (topics.empty()) return result;
  for (TimePoint src_ts : timeline.writes_on(topics[0])) {
    auto completed = follow(timeline, topics, 0, src_ts);
    if (completed.has_value()) {
      result.latencies.add(*completed - src_ts);
      ++result.complete;
    } else {
      ++result.incomplete;
    }
  }
  return result;
}

std::map<CallbackId, SampleSet> measure_waiting_times(
    const trace::EventVector& events) {
  core::ExecTimeCalculator calc(events);
  InstanceTimeline timeline(events);
  std::map<CallbackId, SampleSet> out;
  for (const auto& instance : timeline.instances()) {
    auto wakeup = calc.last_wakeup_before(instance.pid, instance.start);
    if (!wakeup.has_value()) continue;
    out[instance.callback_id].add(instance.start - *wakeup);
  }
  return out;
}

}  // namespace tetra::analysis
