#include "trace/event_columns.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace tetra::trace {

namespace {

std::uint64_t pack_pid_pair(std::int32_t low, std::int32_t high) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(low)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(high)) << 32);
}

}  // namespace

std::string_view ColumnsView::str(std::uint32_t index) const {
  if (index >= string_count) {
    throw std::invalid_argument("string index out of range: " +
                                std::to_string(index));
  }
  const std::uint32_t begin = str_offsets[index];
  const std::uint32_t end = str_offsets[index + 1];
  return std::string_view(blob + begin, end - begin);
}

ColumnsView ColumnsView::slice(std::size_t from, std::size_t n) const {
  ColumnsView v = *this;
  v.time += from;
  v.arg_a += from;
  v.arg_b += from;
  v.pid += from;
  v.arg_c += from;
  v.probe += from;
  v.type += from;
  v.aux += from;
  v.count = n;
  return v;
}

bool is_time_sorted(const ColumnsView& view) {
  for (std::size_t i = 1; i < view.count; ++i) {
    if (view.time[i] < view.time[i - 1]) return false;
  }
  return true;
}

EventColumns::EventColumns() {
  str_offsets_ = {0, 0};  // index 0 is the empty string
  intern_.emplace(std::string(), 0);
}

std::uint32_t EventColumns::intern(std::string_view s) {
  auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(str_offsets_.size() - 1);
  blob_.append(s);
  str_offsets_.push_back(static_cast<std::uint32_t>(blob_.size()));
  intern_.emplace(std::string(s), index);
  return index;
}

std::uint32_t EventColumns::lookup(std::string_view s) const {
  auto it = intern_.find(s);
  return it == intern_.end() ? npos : it->second;
}

void EventColumns::reserve(std::size_t additional_events) {
  const std::size_t target = time_.size() + additional_events;
  for_each_column([target](auto& column) { column.reserve(target); });
}

void EventColumns::append(const TraceEvent& e) {
  std::uint64_t arg_a = 0;
  std::int64_t arg_b = 0;
  std::uint32_t arg_c = 0;
  std::uint8_t aux = 0;
  switch (e.type) {
    case EventType::RmwCreateNode:
      arg_c = intern(e.as<NodeInfo>().node_name);
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      aux = static_cast<std::uint8_t>(e.as<CallbackPhaseInfo>().kind);
      break;
    case EventType::TimerCall:
      arg_a = static_cast<std::uint64_t>(e.as<TimerCallInfo>().callback_id);
      break;
    case EventType::Take: {
      const auto& info = e.as<TakeInfo>();
      aux = static_cast<std::uint8_t>(info.kind);
      arg_a = static_cast<std::uint64_t>(info.callback_id);
      arg_b = info.src_ts.count_ns();
      arg_c = intern(info.topic);
      break;
    }
    case EventType::TakeTypeErased:
      aux = e.as<TakeTypeErasedInfo>().will_dispatch ? 1 : 0;
      break;
    case EventType::SyncOperator:
      arg_a = static_cast<std::uint64_t>(e.as<SyncOperatorInfo>().callback_id);
      break;
    case EventType::DdsWrite: {
      const auto& info = e.as<DdsWriteInfo>();
      arg_b = info.src_ts.count_ns();
      arg_c = intern(info.topic);
      break;
    }
    case EventType::SchedSwitch: {
      const auto& info = e.as<SchedSwitchInfo>();
      aux = static_cast<std::uint8_t>(static_cast<char>(info.prev_state));
      arg_a = pack_pid_pair(info.prev_pid, info.next_pid);
      arg_b = static_cast<std::int64_t>(
          pack_pid_pair(info.cpu, info.prev_prio));
      arg_c = static_cast<std::uint32_t>(info.next_prio);
      break;
    }
    case EventType::SchedWakeup: {
      const auto& info = e.as<SchedWakeupInfo>();
      arg_a = pack_pid_pair(info.woken_pid, info.target_cpu);
      break;
    }
  }
  time_.push_back(e.time.count_ns());
  arg_a_.push_back(arg_a);
  arg_b_.push_back(arg_b);
  pid_.push_back(static_cast<std::int32_t>(e.pid));
  arg_c_.push_back(arg_c);
  probe_.push_back(static_cast<std::uint8_t>(e.probe));
  type_.push_back(static_cast<std::uint8_t>(e.type));
  aux_.push_back(aux);
}

void EventColumns::append(const EventVector& events) {
  reserve(events.size());
  for (const auto& e : events) append(e);
}

void EventColumns::append(const ColumnsView& v) {
  std::vector<std::uint32_t> remap(v.string_count, npos);
  append(v, remap);
}

void EventColumns::append(const ColumnsView& v,
                          std::vector<std::uint32_t>& remap) {
  const std::size_t base = size();
  time_.insert(time_.end(), v.time, v.time + v.count);
  arg_a_.insert(arg_a_.end(), v.arg_a, v.arg_a + v.count);
  arg_b_.insert(arg_b_.end(), v.arg_b, v.arg_b + v.count);
  pid_.insert(pid_.end(), v.pid, v.pid + v.count);
  arg_c_.insert(arg_c_.end(), v.arg_c, v.arg_c + v.count);
  probe_.insert(probe_.end(), v.probe, v.probe + v.count);
  type_.insert(type_.end(), v.type, v.type + v.count);
  aux_.insert(aux_.end(), v.aux, v.aux + v.count);
  // String-bearing rows index the source view's table; rewrite them to
  // indices in our own, interning each distinct source string once.
  for (std::size_t i = 0; i < v.count; ++i) {
    switch (static_cast<EventType>(v.type[i])) {
      case EventType::RmwCreateNode:
      case EventType::Take:
      case EventType::DdsWrite: {
        const std::uint32_t source = v.arg_c[i];
        if (source >= remap.size()) {
          throw std::invalid_argument("string index out of range: " +
                                      std::to_string(source));
        }
        std::uint32_t& target = remap[source];
        if (target == npos) target = intern(v.str(source));
        arg_c_[base + i] = target;
        break;
      }
      default:
        break;
    }
  }
}

void EventColumns::erase_front(std::size_t n) {
  n = std::min(n, size());
  for_each_column([n](auto& column) {
    column.erase(column.begin(),
                 column.begin() + static_cast<std::ptrdiff_t>(n));
  });
}

bool EventColumns::shift_time(std::size_t from, std::int64_t offset_ns) {
  const auto carries_source_ts = [&](std::size_t i) {
    const auto type = static_cast<EventType>(type_[i]);
    return type == EventType::Take || type == EventType::DdsWrite;
  };
  const auto shifts_in_range = [&](std::int64_t ns) {
    std::int64_t shifted = 0;
    return !__builtin_add_overflow(ns, offset_ns, &shifted) &&
           timestamp_in_range(shifted);
  };
  for (std::size_t i = from; i < size(); ++i) {
    if (!shifts_in_range(time_[i]) ||
        (carries_source_ts(i) && !shifts_in_range(arg_b_[i]))) {
      return false;
    }
  }
  for (std::size_t i = from; i < size(); ++i) {
    time_[i] += offset_ns;
    if (carries_source_ts(i)) arg_b_[i] += offset_ns;
  }
  return true;
}

void EventColumns::truncate(std::size_t n) {
  if (n >= size()) return;
  for_each_column([n](auto& column) { column.resize(n); });
}

void EventColumns::merge_tail(std::size_t from) {
  const std::size_t n = size();
  if (from == 0 || from >= n || time_[from - 1] <= time_[from]) return;
  // Rows no later than the tail's first row keep their place.
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(time_.begin(),
                       time_.begin() + static_cast<std::ptrdiff_t>(from),
                       time_[from]) -
      time_.begin());
  std::vector<std::size_t> order;
  order.reserve(n - first);
  std::size_t a = first;
  std::size_t b = from;
  while (a < from && b < n) order.push_back(time_[b] < time_[a] ? b++ : a++);
  while (a < from) order.push_back(a++);
  while (b < n) order.push_back(b++);
  for_each_column([&](auto& column) {
    std::remove_reference_t<decltype(column)> merged;
    merged.reserve(order.size());
    for (const std::size_t i : order) merged.push_back(column[i]);
    std::copy(merged.begin(), merged.end(),
              column.begin() + static_cast<std::ptrdiff_t>(first));
  });
}

ColumnsView EventColumns::view() const {
  ColumnsView v;
  v.time = time_.data();
  v.arg_a = arg_a_.data();
  v.arg_b = arg_b_.data();
  v.pid = pid_.data();
  v.arg_c = arg_c_.data();
  v.probe = probe_.data();
  v.type = type_.data();
  v.aux = aux_.data();
  v.count = time_.size();
  v.str_offsets = str_offsets_.data();
  v.string_count = str_offsets_.size() - 1;
  v.blob = blob_.data();
  v.blob_size = blob_.size();
  return v;
}

TraceEvent materialize_event(const ColumnsView& v, std::size_t i) {
  if (i >= v.count) {
    throw std::out_of_range("event row out of range: " + std::to_string(i));
  }
  TraceEvent e;
  e.time = TimePoint{v.time[i]};
  e.pid = static_cast<Pid>(v.pid[i]);
  e.probe = probe_id_from_int(v.probe[i]);
  e.type = event_type_from_int(v.type[i]);
  switch (e.type) {
    case EventType::RmwCreateNode:
      e.payload = NodeInfo{std::string(v.str(v.arg_c[i]))};
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      e.payload = CallbackPhaseInfo{callback_kind_from_int(v.aux[i])};
      break;
    case EventType::TimerCall:
      e.payload = TimerCallInfo{static_cast<CallbackId>(v.arg_a[i])};
      break;
    case EventType::Take:
      e.payload = TakeInfo{take_kind_from_int(v.aux[i]),
                           static_cast<CallbackId>(v.arg_a[i]),
                           std::string(v.str(v.arg_c[i])),
                           TimePoint{v.arg_b[i]}};
      break;
    case EventType::TakeTypeErased:
      e.payload = TakeTypeErasedInfo{v.aux[i] != 0};
      break;
    case EventType::SyncOperator:
      e.payload = SyncOperatorInfo{static_cast<CallbackId>(v.arg_a[i])};
      break;
    case EventType::DdsWrite:
      e.payload = DdsWriteInfo{std::string(v.str(v.arg_c[i])),
                               TimePoint{v.arg_b[i]}};
      break;
    case EventType::SchedSwitch: {
      SchedSwitchInfo info;
      info.cpu = static_cast<CpuId>(v.sched_cpu(i));
      info.prev_pid = static_cast<Pid>(v.sched_prev_pid(i));
      info.prev_prio = static_cast<int>(v.sched_prev_prio(i));
      info.prev_state =
          thread_run_state_from_char(static_cast<char>(v.aux[i]));
      info.next_pid = static_cast<Pid>(v.sched_next_pid(i));
      info.next_prio = static_cast<int>(v.sched_next_prio(i));
      e.payload = info;
      break;
    }
    case EventType::SchedWakeup: {
      SchedWakeupInfo info;
      info.woken_pid = static_cast<Pid>(v.wakeup_pid(i));
      info.target_cpu = static_cast<CpuId>(v.wakeup_cpu(i));
      e.payload = info;
      break;
    }
  }
  return e;
}

EventVector materialize(const ColumnsView& view) {
  EventVector out;
  out.reserve(view.count);
  for (std::size_t i = 0; i < view.count; ++i) {
    out.push_back(materialize_event(view, i));
  }
  return out;
}

namespace {

/// The per-row checks one at a time, each raising its own message; the
/// fused pass below reruns them on the first row it rejects.
void validate_row(const ColumnsView& v, std::size_t i) {
  try {
    checked_timestamp(v.time[i]);
    probe_id_from_int(v.probe[i]);
    const EventType type = event_type_from_int(v.type[i]);
    switch (type) {
      case EventType::RmwCreateNode:
        v.str(v.arg_c[i]);
        break;
      case EventType::DdsWrite:
        checked_timestamp(v.arg_b[i]);
        v.str(v.arg_c[i]);
        break;
      case EventType::CallbackStart:
      case EventType::CallbackEnd:
        callback_kind_from_int(v.aux[i]);
        break;
      case EventType::Take:
        take_kind_from_int(v.aux[i]);
        checked_timestamp(v.arg_b[i]);
        v.str(v.arg_c[i]);
        break;
      case EventType::SchedSwitch:
        thread_run_state_from_char(static_cast<char>(v.aux[i]));
        break;
      default:
        break;
    }
  } catch (const std::invalid_argument& err) {
    throw std::invalid_argument("invalid event row " + std::to_string(i) +
                                ": " + err.what());
  }
}

/// What validate_row accepts, as lookup tables over the byte columns.
struct RowRules {
  static constexpr int kTypes = static_cast<int>(EventType::SchedWakeup) + 1;
  bool probe_ok[256] = {};
  /// Per event type: the accepted aux bytes, and which of the arg_b /
  /// arg_c columns the type uses.
  bool aux_ok[kTypes][256] = {};
  bool has_src_ts[kTypes] = {};
  bool has_string[kTypes] = {};

  RowRules() {
    for (int p = static_cast<int>(ProbeId::P1_RmwCreateNode);
         p <= static_cast<int>(ProbeId::SchedWakeup); ++p) {
      probe_ok[p] = true;
    }
    for (int t = 0; t < kTypes; ++t) {
      const auto type = static_cast<EventType>(t);
      for (int aux = 0; aux < 256; ++aux) {
        bool ok = true;
        if (type == EventType::CallbackStart || type == EventType::CallbackEnd) {
          ok = aux <= static_cast<int>(CallbackKind::Client);
        } else if (type == EventType::Take) {
          ok = aux <= static_cast<int>(TakeKind::Response);
        } else if (type == EventType::SchedSwitch) {
          const char c = static_cast<char>(aux);
          ok = c == 'R' || c == 'S' || c == 'D' || c == 'X';
        }
        aux_ok[t][aux] = ok;
      }
      has_src_ts[t] = type == EventType::Take || type == EventType::DdsWrite;
      has_string[t] = has_src_ts[t] || type == EventType::RmwCreateNode;
    }
  }
};

}  // namespace

void validate_columns(const ColumnsView& v) {
  static const RowRules rules;
  for (std::size_t i = 0; i < v.count; ++i) {
    const std::uint8_t type = v.type[i];
    bool ok = type < RowRules::kTypes && rules.aux_ok[type][v.aux[i]] &&
              rules.probe_ok[v.probe[i]] && timestamp_in_range(v.time[i]);
    if (ok && rules.has_string[type]) {
      ok = v.arg_c[i] < v.string_count &&
           (!rules.has_src_ts[type] || timestamp_in_range(v.arg_b[i]));
    }
    if (!ok) validate_row(v, i);
  }
}

}  // namespace tetra::trace
