#include "trace/serialize.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json_parser.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "telemetry/metrics.hpp"

namespace tetra::trace {

namespace {

struct JsonlMetrics {
  telemetry::Counter& bytes =
      telemetry::MetricsRegistry::global().counter("trace.jsonl_bytes");
  telemetry::Counter& events =
      telemetry::MetricsRegistry::global().counter("trace.jsonl_events");
  telemetry::Counter& malformed = telemetry::MetricsRegistry::global().counter(
      "trace.jsonl_malformed_skipped");

  static JsonlMetrics& get() {
    static JsonlMetrics metrics;
    return metrics;
  }
};

void write_common(JsonWriter& w, const TraceEvent& e) {
  w.kv("t", e.time.count_ns());
  w.kv("pid", static_cast<std::int64_t>(e.pid));
  w.kv("probe", to_string(e.probe));
  w.kv("type", to_string(e.type));
}

}  // namespace

std::string to_jsonl(const TraceEvent& e) {
  JsonWriter w;
  w.begin_object();
  write_common(w, e);
  switch (e.type) {
    case EventType::RmwCreateNode:
      w.kv("node", e.as<NodeInfo>().node_name);
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd:
      w.kv("kind", to_string(e.as<CallbackPhaseInfo>().kind));
      break;
    case EventType::TimerCall:
      w.kv("cb", static_cast<std::uint64_t>(e.as<TimerCallInfo>().callback_id));
      break;
    case EventType::Take: {
      const auto& info = e.as<TakeInfo>();
      w.kv("take_kind", static_cast<std::int64_t>(info.kind));
      w.kv("cb", static_cast<std::uint64_t>(info.callback_id));
      w.kv("topic", info.topic);
      w.kv("src_ts", info.src_ts.count_ns());
      break;
    }
    case EventType::TakeTypeErased:
      w.kv("dispatch", e.as<TakeTypeErasedInfo>().will_dispatch);
      break;
    case EventType::SyncOperator:
      w.kv("cb", static_cast<std::uint64_t>(e.as<SyncOperatorInfo>().callback_id));
      break;
    case EventType::DdsWrite: {
      const auto& info = e.as<DdsWriteInfo>();
      w.kv("topic", info.topic);
      w.kv("src_ts", info.src_ts.count_ns());
      break;
    }
    case EventType::SchedSwitch: {
      const auto& info = e.as<SchedSwitchInfo>();
      w.kv("cpu", static_cast<std::int64_t>(info.cpu));
      w.kv("prev_pid", static_cast<std::int64_t>(info.prev_pid));
      w.kv("prev_prio", static_cast<std::int64_t>(info.prev_prio));
      w.kv("prev_state", std::string(1, static_cast<char>(info.prev_state)));
      w.kv("next_pid", static_cast<std::int64_t>(info.next_pid));
      w.kv("next_prio", static_cast<std::int64_t>(info.next_prio));
      break;
    }
    case EventType::SchedWakeup: {
      const auto& info = e.as<SchedWakeupInfo>();
      w.kv("woken_pid", static_cast<std::int64_t>(info.woken_pid));
      w.kv("cpu", static_cast<std::int64_t>(info.target_cpu));
      break;
    }
  }
  w.end_object();
  return w.str();
}

TraceEvent from_jsonl(std::string_view line) {
  const JsonValue j = parse_json(line);
  TraceEvent e;
  e.time = TimePoint{checked_timestamp(j.at("t").as_int())};
  e.pid = static_cast<Pid>(j.at("pid").as_int());
  e.probe = probe_id_from_string(j.at("probe").as_string());
  e.type = event_type_from_string(j.at("type").as_string());
  switch (e.type) {
    case EventType::RmwCreateNode:
      e.payload = NodeInfo{j.at("node").as_string()};
      break;
    case EventType::CallbackStart:
    case EventType::CallbackEnd: {
      const std::string& kind = j.at("kind").as_string();
      CallbackKind k;
      if (kind == "timer") k = CallbackKind::Timer;
      else if (kind == "subscriber") k = CallbackKind::Subscription;
      else if (kind == "service") k = CallbackKind::Service;
      else if (kind == "client") k = CallbackKind::Client;
      else throw std::runtime_error("bad callback kind: " + kind);
      e.payload = CallbackPhaseInfo{k};
      break;
    }
    case EventType::TimerCall:
      e.payload = TimerCallInfo{
          static_cast<CallbackId>(j.at("cb").as_int())};
      break;
    case EventType::Take: {
      TakeInfo info;
      info.kind = take_kind_from_int(j.at("take_kind").as_int());
      info.callback_id = static_cast<CallbackId>(j.at("cb").as_int());
      info.topic = j.at("topic").as_string();
      info.src_ts = TimePoint{checked_timestamp(j.at("src_ts").as_int())};
      e.payload = std::move(info);
      break;
    }
    case EventType::TakeTypeErased:
      e.payload = TakeTypeErasedInfo{j.at("dispatch").as_bool()};
      break;
    case EventType::SyncOperator:
      e.payload = SyncOperatorInfo{
          static_cast<CallbackId>(j.at("cb").as_int())};
      break;
    case EventType::DdsWrite:
      e.payload = DdsWriteInfo{
          j.at("topic").as_string(),
          TimePoint{checked_timestamp(j.at("src_ts").as_int())}};
      break;
    case EventType::SchedSwitch: {
      SchedSwitchInfo info;
      info.cpu = static_cast<CpuId>(j.at("cpu").as_int());
      info.prev_pid = static_cast<Pid>(j.at("prev_pid").as_int());
      info.prev_prio = static_cast<int>(j.at("prev_prio").as_int());
      const std::string& st = j.at("prev_state").as_string();
      if (st.size() != 1) {
        throw std::invalid_argument("bad prev_state: '" + st +
                                    "' (expected a single R/S/D/X letter)");
      }
      info.prev_state = thread_run_state_from_char(st[0]);
      info.next_pid = static_cast<Pid>(j.at("next_pid").as_int());
      info.next_prio = static_cast<int>(j.at("next_prio").as_int());
      e.payload = info;
      break;
    }
    case EventType::SchedWakeup: {
      SchedWakeupInfo info;
      info.woken_pid = static_cast<Pid>(j.at("woken_pid").as_int());
      info.target_cpu = static_cast<CpuId>(j.at("cpu").as_int());
      e.payload = info;
      break;
    }
  }
  return e;
}

std::string to_jsonl(const EventVector& events) {
  std::string out;
  for (const auto& e : events) {
    out += to_jsonl(e);
    out += '\n';
  }
  return out;
}

EventVector events_from_jsonl(std::string_view text) {
  EventVector out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    // Tolerate CRLF (and lone-CR-before-LF) line endings from traces that
    // passed through Windows tooling.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) out.push_back(from_jsonl(line));
    start = end + 1;
  }
  JsonlMetrics::get().bytes.add(text.size());
  JsonlMetrics::get().events.add(out.size());
  return out;
}

EventVector events_from_jsonl_lenient(std::string_view text,
                                      JsonlParseStats* stats) {
  EventVector out;
  std::size_t malformed = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      try {
        out.push_back(from_jsonl(line));
      } catch (const std::exception&) {
        ++malformed;
      }
    }
    start = end + 1;
  }
  JsonlMetrics::get().bytes.add(text.size());
  JsonlMetrics::get().events.add(out.size());
  JsonlMetrics::get().malformed.add(malformed);
  if (stats != nullptr) {
    stats->events = out.size();
    stats->malformed_skipped = malformed;
    stats->bytes = text.size();
  }
  return out;
}

EventVector read_jsonl_file_lenient(const std::string& path,
                                    JsonlParseStats* stats) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return events_from_jsonl_lenient(ss.str(), stats);
}

void write_jsonl_file(const std::string& path, const EventVector& events) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  f << to_jsonl(events);
  if (!f) throw std::runtime_error("write failed: " + path);
}

EventVector read_jsonl_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return events_from_jsonl(ss.str());
}

std::size_t binary_footprint_bytes(const EventVector& events) {
  std::size_t total = 0;
  for (const auto& e : events) total += approximate_record_size(e);
  return total;
}

}  // namespace tetra::trace
