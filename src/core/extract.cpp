#include "core/extract.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <tuple>

#include "support/string_utils.hpp"

namespace tetra::core {

const std::vector<std::size_t> TraceIndex::kEmpty{};

namespace {

std::atomic<std::uint64_t> rows_written_total{0};

/// Restores (time, seq) order after pushing a batch whose entries are
/// themselves (time, seq)-sorted: one stable in-place merge, skipped when
/// the batch already belongs at the tail (the overwhelmingly common case).
void merge_tail(std::vector<std::size_t>& list, std::size_t old_size,
                const trace::ColumnsView& v) {
  if (old_size == 0 || old_size == list.size()) return;
  const auto chrono_less = [&v](std::size_t a, std::size_t b) {
    return v.time[a] < v.time[b] || (v.time[a] == v.time[b] && a < b);
  };
  if (!chrono_less(list[old_size], list[old_size - 1])) return;
  std::inplace_merge(list.begin(), list.begin() + old_size, list.end(),
                     chrono_less);
}

/// Orders a batch of keyed rows by (topic, src_ts, seq).
template <typename It>
void sort_keyed_batch(It first, It last) {
  std::sort(first, last, [](const auto& a, const auto& b) {
    return std::tie(a.topic, a.src_ts, a.seq) <
           std::tie(b.topic, b.src_ts, b.seq);
  });
}

}  // namespace

const char* ros2_request_suffix() { return "Request"; }
const char* ros2_reply_suffix() { return "Reply"; }

bool is_service_request_topic(const std::string& topic) {
  return ends_with(topic, ros2_request_suffix());
}

bool is_service_reply_topic(const std::string& topic) {
  return ends_with(topic, ros2_reply_suffix());
}

TraceIndex::TraceIndex(const trace::EventVector& events) {
  const bool sorted = std::is_sorted(
      events.begin(), events.end(),
      [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
        return a.time < b.time;
      });
  if (sorted) {
    columns_.append(events);
  } else {
    trace::EventVector copy = events;
    trace::sort_by_time(copy);
    columns_.append(copy);
  }
  appended(0);
}

AppendDelta TraceIndex::append(const trace::EventVector& sorted_segment) {
  const bool sorted = std::is_sorted(
      sorted_segment.begin(), sorted_segment.end(),
      [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
        return a.time < b.time;
      });
  if (!sorted) {
    throw std::invalid_argument("TraceIndex::append requires a time-sorted "
                                "segment");
  }
  const std::size_t base = columns_.size();
  columns_.append(sorted_segment);
  return appended(base);
}

AppendDelta TraceIndex::append(const trace::ColumnsView& view) {
  if (!trace::is_time_sorted(view)) {
    throw std::invalid_argument("TraceIndex::append requires a time-sorted "
                                "segment");
  }
  const std::size_t base = columns_.size();
  columns_.append(view);
  return appended(base);
}

std::uint64_t TraceIndex::rows_written() {
  return rows_written_total.load(std::memory_order_relaxed);
}

void TraceIndex::reset_rows_written() {
  rows_written_total.store(0, std::memory_order_relaxed);
}

void TraceIndex::release_lookups() {
  // Move-assigning a fresh object frees the storage (`v = {}` would keep
  // a std::vector's capacity). The write table alone keeps its buffer,
  // for restore_lookups() to refill; see the declaration.
  slots_ = decltype(slots_)();
  pid_lists_ = decltype(pid_lists_)();
  writes_.clear();
  response_keys_ = decltype(response_keys_)();
  response_lists_ = decltype(response_lists_)();
  nodes_ = decltype(nodes_)();
  exec_calc_ = ExecTimeCalculator();
  lookups_released_ = true;
}

void TraceIndex::restore_lookups() {
  if (!lookups_released_) return;
  lookups_released_ = false;
  for (std::size_t k = 0; k < batch_starts_.size(); ++k) {
    const std::size_t end =
        k + 1 < batch_starts_.size() ? batch_starts_[k + 1] : size();
    index_rows(batch_starts_[k], end);
  }
}

AppendDelta TraceIndex::appended(std::size_t base) {
  batch_starts_.push_back(base);
  rows_written_total.fetch_add(size() - base, std::memory_order_relaxed);
  if (!lookups_released_) index_rows(base, size());
  AppendDelta delta;
  delta.first_row = base;
  delta.end_row = size();
  return delta;
}

void TraceIndex::index_rows(std::size_t from, std::size_t to) {
  const trace::ColumnsView v = columns_.view().slice(0, to);
  for (PidLists& lists : pid_lists_) {
    lists.ros_before = lists.ros.size();
    lists.p14_before = lists.p14.size();
  }
  const std::size_t old_writes = writes_.size();
  std::vector<KeyedRow> responses;

  for (std::size_t i = from; i < v.count; ++i) {
    const auto type = static_cast<trace::EventType>(v.type[i]);
    if (type == trace::EventType::SchedSwitch ||
        type == trace::EventType::SchedWakeup) {
      continue;  // the exec-time calculator's rows
    }
    const Pid pid = static_cast<Pid>(v.pid[i]);
    const auto [slot, added] = slots_.try_emplace(
        pid, static_cast<std::uint32_t>(pid_lists_.size()));
    if (added) pid_lists_.emplace_back();
    PidLists& lists = pid_lists_[slot->second];
    lists.ros.push_back(i);

    switch (type) {
      case trace::EventType::RmwCreateNode:
        // Last event in merged order names the node: the newcomer (larger
        // seq) wins unless it is chronologically earlier.
        if (lists.name_seq == npos || v.time[i] >= lists.name_time) {
          lists.name_time = v.time[i];
          lists.name_seq = i;
          nodes_[pid] = std::string(v.str(v.arg_c[i]));
        }
        break;
      case trace::EventType::DdsWrite:
        writes_.push_back(KeyedRow{v.arg_c[i], v.arg_b[i], i});
        break;
      case trace::EventType::Take:
        if (static_cast<trace::TakeKind>(v.aux[i]) ==
            trace::TakeKind::Response) {
          responses.push_back(KeyedRow{v.arg_c[i], v.arg_b[i], i});
        }
        break;
      case trace::EventType::TakeTypeErased:
        lists.p14.push_back(i);
        break;
      default:
        break;
    }
  }

  for (PidLists& lists : pid_lists_) {
    merge_tail(lists.ros, lists.ros_before, v);
    merge_tail(lists.p14, lists.p14_before, v);
  }
  // Within one batch, seq order is (time, seq) order; across batches a
  // key tie falls back to the rows' times.
  const auto batch = writes_.begin() + static_cast<std::ptrdiff_t>(old_writes);
  sort_keyed_batch(batch, writes_.end());
  std::inplace_merge(
      writes_.begin(), batch, writes_.end(),
      [&v](const KeyedRow& a, const KeyedRow& b) {
        return std::tie(a.topic, a.src_ts, v.time[a.seq], a.seq) <
               std::tie(b.topic, b.src_ts, v.time[b.seq], b.seq);
      });
  if (!responses.empty()) index_responses(responses, v);
  exec_calc_.append_columns(v, from);
}

void TraceIndex::index_responses(std::vector<KeyedRow>& batch,
                                 const trace::ColumnsView& v) {
  sort_keyed_batch(batch.begin(), batch.end());
  // Keys new in this batch are appended after the old, sorted ones.
  const auto old_keys = static_cast<std::ptrdiff_t>(response_keys_.size());
  for (std::size_t run = 0; run < batch.size();) {
    const TopicTsKey key = batch[run].key();
    std::size_t run_end = run + 1;
    while (run_end < batch.size() && batch[run_end].key() == key) ++run_end;
    const auto old_end = response_keys_.begin() + old_keys;
    const auto found = std::lower_bound(
        response_keys_.begin(), old_end, key,
        [](const ResponseKey& k, const TopicTsKey& wanted) {
          return k.key() < wanted;
        });
    std::uint32_t list = 0;
    if (found != old_end && found->key() == key) {
      list = found->list;
    } else {
      list = static_cast<std::uint32_t>(response_lists_.size());
      response_lists_.emplace_back();
      response_keys_.push_back(ResponseKey{key.first, key.second, list});
    }
    std::vector<std::size_t>& rows = response_lists_[list];
    const std::size_t old_size = rows.size();
    rows.reserve(old_size + (run_end - run));
    for (; run < run_end; ++run) rows.push_back(batch[run].seq);
    merge_tail(rows, old_size, v);
  }
  // New keys were appended in key order; one merge sorts the table.
  std::inplace_merge(
      response_keys_.begin(), response_keys_.begin() + old_keys,
      response_keys_.end(), [](const ResponseKey& a, const ResponseKey& b) {
        return a.key() < b.key();
      });
}

trace::TraceEvent TraceIndex::event_at(std::size_t seq) const {
  return trace::materialize_event(columns_.view(), seq);
}

const std::vector<std::size_t>& TraceIndex::ros_events_of(Pid pid) const {
  require_lookups();
  const auto slot = slots_.find(pid);
  return slot == slots_.end() ? kEmpty : pid_lists_[slot->second].ros;
}

std::size_t TraceIndex::find_write(const std::string& topic,
                                   TimePoint src_ts) const {
  const std::uint32_t topic_index = columns_.lookup(topic);
  if (topic_index == trace::EventColumns::npos) return npos;
  const TopicTsKey key{topic_index, src_ts.count_ns()};
  const auto it = std::lower_bound(
      writes_.begin(), writes_.end(), key,
      [](const KeyedRow& e, const TopicTsKey& wanted) {
        return e.key() < wanted;
      });
  return it == writes_.end() || it->key() != key ? npos : it->seq;
}

const std::vector<std::size_t>& TraceIndex::find_take_responses(
    const std::string& topic, TimePoint src_ts) const {
  const std::uint32_t topic_index = columns_.lookup(topic);
  if (topic_index == trace::EventColumns::npos) return kEmpty;
  const TopicTsKey key{topic_index, src_ts.count_ns()};
  const auto it = std::lower_bound(
      response_keys_.begin(), response_keys_.end(), key,
      [](const ResponseKey& k, const TopicTsKey& wanted) {
        return k.key() < wanted;
      });
  if (it == response_keys_.end() || it->key() != key) return kEmpty;
  return response_lists_[it->list];
}

std::size_t TraceIndex::next_take_type_erased_after(Pid pid,
                                                    std::size_t after) const {
  const auto slot = slots_.find(pid);
  if (slot == slots_.end()) return npos;
  const std::vector<std::size_t>& p14 = pid_lists_[slot->second].p14;
  const trace::ColumnsView v = columns_.view();
  const auto key = std::make_pair(v.time[after], after);
  auto pos = std::upper_bound(
      p14.begin(), p14.end(), key,
      [&v](const std::pair<std::int64_t, std::size_t>& k, std::size_t seq) {
        return k < std::make_pair(v.time[seq], seq);
      });
  return pos == p14.end() ? npos : *pos;
}

AppendDelta describe_rows(const trace::ColumnsView& v, std::size_t first_row,
                          std::size_t end_row) {
  AppendDelta delta;
  delta.first_row = first_row;
  delta.end_row = end_row;
  for (std::size_t i = first_row; i < end_row; ++i) {
    switch (static_cast<trace::EventType>(v.type[i])) {
      case trace::EventType::SchedSwitch:
        for (const Pid pid : {static_cast<Pid>(v.sched_prev_pid(i)),
                              static_cast<Pid>(v.sched_next_pid(i))}) {
          if (pid != kIdlePid) delta.sched_pids.push_back(pid);
        }
        continue;
      case trace::EventType::SchedWakeup:
        delta.sched_pids.push_back(static_cast<Pid>(v.wakeup_pid(i)));
        continue;
      case trace::EventType::DdsWrite:
        delta.write_keys.emplace_back(v.arg_c[i], v.arg_b[i]);
        break;
      case trace::EventType::Take:
        if (static_cast<trace::TakeKind>(v.aux[i]) ==
            trace::TakeKind::Response) {
          delta.response_keys.emplace_back(v.arg_c[i], v.arg_b[i]);
        }
        break;
      default:
        break;
    }
    delta.ros_pids.push_back(static_cast<Pid>(v.pid[i]));
  }
  const auto sort_unique = [](auto& items) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  };
  sort_unique(delta.ros_pids);
  sort_unique(delta.sched_pids);
  sort_unique(delta.write_keys);
  sort_unique(delta.response_keys);
  return delta;
}

CallbackId find_caller(const TraceIndex& index, std::size_t take_seq,
                       ExtractDeps* deps) {
  // Step 1: the dds_write with the same topic and source timestamp as the
  // take identifies the writing process and the write instant.
  const trace::ColumnsView v = index.view();
  const std::string topic(v.str(v.arg_c[take_seq]));
  const std::int64_t src_ts = v.arg_b[take_seq];
  if (deps != nullptr) deps->write_keys.emplace(v.arg_c[take_seq], src_ts);
  const std::size_t write_seq = index.find_write(topic, TimePoint{src_ts});
  if (write_seq == TraceIndex::npos) return kInvalidCallbackId;
  const Pid writer_pid = static_cast<Pid>(v.pid[write_seq]);
  const std::int64_t write_time = v.time[write_seq];
  if (deps != nullptr) deps->pids.insert(writer_pid);

  // Step 2: in the writer's event stream, the timer_call or take event
  // that chronologically precedes the write and follows the last CB start
  // identifies the caller callback.
  CallbackId caller = kInvalidCallbackId;
  for (std::size_t seq : index.ros_events_of(writer_pid)) {
    if (v.time[seq] > write_time) break;
    switch (static_cast<trace::EventType>(v.type[seq])) {
      case trace::EventType::CallbackStart:
        caller = kInvalidCallbackId;  // a new CB instance began
        break;
      case trace::EventType::TimerCall:
      case trace::EventType::Take:
        caller = static_cast<CallbackId>(v.arg_a[seq]);
        break;
      default:
        break;
    }
    if (seq == write_seq) break;
  }
  return caller;
}

CallbackId find_client(const TraceIndex& index, std::size_t write_seq,
                       ExtractDeps* deps) {
  const trace::ColumnsView v = index.view();
  const std::string topic(v.str(v.arg_c[write_seq]));
  const std::int64_t src_ts = v.arg_b[write_seq];
  if (deps != nullptr) deps->response_keys.emplace(v.arg_c[write_seq], src_ts);
  // All take_response events for this response — one per client node of
  // the service (ncl of them). Only the caller's P14 evaluates true.
  for (std::size_t take_seq :
       index.find_take_responses(topic, TimePoint{src_ts})) {
    const Pid take_pid = static_cast<Pid>(v.pid[take_seq]);
    if (deps != nullptr) deps->pids.insert(take_pid);
    const std::size_t p14 = index.next_take_type_erased_after(take_pid,
                                                              take_seq);
    if (p14 != TraceIndex::npos && v.aux[p14] != 0) {
      return static_cast<CallbackId>(v.arg_a[take_seq]);
    }
  }
  return kInvalidCallbackId;
}

namespace {

/// In-flight callback instance state (Alg. 1's CB.* working set).
struct InFlight {
  bool active = false;
  CallbackKind kind = CallbackKind::Timer;
  CallbackId id = kInvalidCallbackId;
  TimePoint start;
  std::string in_topic;
  std::vector<std::string> out_topics;
  bool is_sync_subscriber = false;
  /// Probe executions whose cost lands inside the instance's [start, end]
  /// measurement window (the CB-end exit probe fires after `end` and is
  /// excluded; rmw_take contributes an entry and an exit probe).
  std::int64_t probe_hits = 0;

  void reset() { *this = InFlight{}; }
};

std::string id_suffix(CallbackId id) {
  return id == kInvalidCallbackId ? std::string(kUnknownAnnotation)
                                  : hex_id(id);
}

}  // namespace

CallbackList extract_callbacks(const TraceIndex& index, Pid pid,
                               const ExtractOptions& options,
                               ExtractDeps* deps) {
  if (deps != nullptr) {
    *deps = ExtractDeps{};
    deps->pids.insert(pid);
  }
  CallbackList list;
  list.pid = pid;
  auto node_it = index.nodes().find(pid);
  list.node_name = node_it != index.nodes().end() ? node_it->second : "";

  const trace::ColumnsView v = index.view();
  InFlight cb;
  for (std::size_t seq : index.ros_events_of(pid)) {  // chronological
    switch (static_cast<trace::EventType>(v.type[seq])) {
      case trace::EventType::CallbackStart: {  // lines 3-5
        cb.reset();
        cb.active = true;
        cb.kind = static_cast<CallbackKind>(v.aux[seq]);
        cb.start = TimePoint{v.time[seq]};
        cb.probe_hits = 1;
        break;
      }
      case trace::EventType::TimerCall: {  // lines 6-7
        if (!cb.active) break;
        cb.id = static_cast<CallbackId>(v.arg_a[seq]);
        ++cb.probe_hits;
        break;
      }
      case trace::EventType::Take: {  // lines 8-15
        if (!cb.active) break;
        cb.id = static_cast<CallbackId>(v.arg_a[seq]);
        cb.probe_hits += 2;  // rmw_take entry + exit probes
        const std::string topic(v.str(v.arg_c[seq]));
        switch (static_cast<trace::TakeKind>(v.aux[seq])) {
          case trace::TakeKind::Response:  // lines 10-11
            cb.in_topic = annotate_topic(topic, id_suffix(cb.id));
            break;
          case trace::TakeKind::Request:  // lines 12-13
            cb.in_topic = annotate_topic(
                topic, id_suffix(find_caller(index, seq, deps)));
            break;
          case trace::TakeKind::Data:  // lines 14-15
            cb.in_topic = topic;
            break;
        }
        break;
      }
      case trace::EventType::DdsWrite: {  // lines 16-23
        if (!cb.active) break;
        ++cb.probe_hits;
        const std::string topic(v.str(v.arg_c[seq]));
        std::string top_out;
        if (is_service_request_topic(topic)) {  // lines 17-18
          top_out = annotate_topic(topic, id_suffix(cb.id));
        } else if (is_service_reply_topic(topic)) {  // lines 19-20
          top_out = annotate_topic(topic,
                                   id_suffix(find_client(index, seq, deps)));
        } else {  // lines 21-22
          top_out = topic;
        }
        if (std::find(cb.out_topics.begin(), cb.out_topics.end(), top_out) ==
            cb.out_topics.end()) {
          cb.out_topics.push_back(top_out);
        }
        break;
      }
      case trace::EventType::TakeTypeErased: {  // lines 24-25
        if (cb.active) ++cb.probe_hits;
        if (v.aux[seq] == 0) cb.reset();
        break;
      }
      case trace::EventType::SyncOperator: {  // lines 26-27
        if (!cb.active) break;
        cb.is_sync_subscriber = true;
        ++cb.probe_hits;
        break;
      }
      case trace::EventType::CallbackEnd: {  // lines 28-32
        if (!cb.active) break;
        const TimePoint end{v.time[seq]};
        Duration et = index.exec_calc().exec_time(cb.start, end, pid);
        if (options.compensate_per_hit > Duration::zero() &&
            cb.probe_hits > 0) {
          const Duration overhead = options.compensate_per_hit * cb.probe_hits;
          et = et > overhead ? et - overhead : Duration::zero();
        }

        CallbackRecord instance;
        instance.kind = cb.kind;
        instance.id = cb.id;
        instance.pid = pid;
        instance.node_name = list.node_name;
        instance.in_topic = cb.in_topic;
        instance.is_sync_subscriber = cb.is_sync_subscriber;

        CallbackRecord& record = list.match_or_insert(instance);
        record.is_sync_subscriber |= cb.is_sync_subscriber;
        for (const auto& topic : cb.out_topics) record.add_out_topic(topic);

        std::optional<Duration> wait;
        if (options.compute_waiting_times) {
          if (auto wakeup = index.exec_calc().last_wakeup_before(pid, cb.start)) {
            wait = cb.start - *wakeup;
          }
        }
        record.add_instance(cb.start, et, wait, end);
        cb.reset();
        break;
      }
      default:
        break;
    }
  }
  return list;
}

std::vector<CallbackList> extract_all_nodes(const TraceIndex& index,
                                            const ExtractOptions& options) {
  std::vector<CallbackList> lists;
  lists.reserve(index.nodes().size());
  for (const auto& [pid, name] : index.nodes()) {
    lists.push_back(extract_callbacks(index, pid, options));
  }
  return lists;
}

void merge_worker_lists(std::vector<CallbackList>& lists) {
  std::vector<CallbackList> merged;
  std::map<std::string, std::size_t> index_of_node;
  for (auto& list : lists) {
    // Unnamed lists (PIDs without a P1) are never worker siblings.
    if (list.node_name.empty()) {
      merged.push_back(std::move(list));
      continue;
    }
    auto [it, inserted] = index_of_node.emplace(list.node_name, merged.size());
    if (inserted) {
      merged.push_back(std::move(list));
      continue;
    }
    CallbackList& target = merged[it->second];
    // Keep the lowest PID as the node identity (worker 0 registers first
    // and P1 events arrive in creation order).
    if (list.pid < target.pid) target.pid = list.pid;
    for (auto& record : list.records) {
      CallbackRecord& slot = target.match_or_insert(record);
      slot.merge_from(record);
    }
  }
  lists = std::move(merged);
}

void normalize_labels(std::vector<CallbackList>& lists) {
  // Pass 1: assign a label to every distinct raw callback id, ordering by
  // id within (node, kind) — heap allocation order is creation order, so
  // ordinals are stable across runs.
  std::map<CallbackId, std::string> label_of;
  for (auto& list : lists) {
    std::map<CallbackKind, std::vector<CallbackId>> ids_by_kind;
    for (const auto& record : list.records) {
      auto& ids = ids_by_kind[record.kind];
      if (std::find(ids.begin(), ids.end(), record.id) == ids.end()) {
        ids.push_back(record.id);
      }
    }
    for (auto& [kind, ids] : ids_by_kind) {
      std::sort(ids.begin(), ids.end());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        label_of[ids[i]] = list.node_name + "/" + to_short_string(kind) +
                           std::to_string(i + 1);
      }
    }
  }

  // Pass 2: set record labels and rewrite topic annotations from raw ids
  // to labels (unresolvable annotations keep the '?' marker).
  auto rewrite = [&label_of](const std::string& topic) {
    auto [plain, suffix] = split_annotated_topic(topic);
    if (suffix.empty()) return topic;
    if (suffix == kUnknownAnnotation) return topic;
    const CallbackId id = std::strtoull(suffix.c_str(), nullptr, 16);
    auto it = label_of.find(id);
    return annotate_topic(plain,
                          it == label_of.end() ? kUnknownAnnotation : it->second);
  };
  for (auto& list : lists) {
    for (auto& record : list.records) {
      record.label = label_of[record.id];
      record.in_topic = rewrite(record.in_topic);
      for (auto& topic : record.out_topics) topic = rewrite(topic);
    }
  }
}

}  // namespace tetra::core
