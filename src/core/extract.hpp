// Algorithm 1 (paper §IV): extracting every callback of a ROS2 node and
// its architectural + timing attributes from the merged event trace.
//
// The extraction walks the node's ROS2 events chronologically. Because the
// node uses a single-threaded executor, everything between a CB-start
// event and the next CB-end event describes one callback instance. Service
// request/response topics are annotated with caller/client identities via
// the FindCaller/FindClient trace searches, so that multi-client services
// later split into per-caller DAG vertices.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/callback_record.hpp"
#include "core/exec_time.hpp"
#include "trace/event.hpp"
#include "trace/event_columns.hpp"

namespace tetra::core {

struct ExtractOptions {
  /// Also compute waiting times from sched_wakeup events (paper §VII).
  bool compute_waiting_times = false;
  /// Tracer-overhead compensation (src/overhead/): when positive, each
  /// instance's execution time is reduced by this per-probe-hit cost times
  /// the number of probe executions inside its [start, end] window
  /// (clamped at zero). Zero keeps measurements as-is.
  Duration compensate_per_hit = Duration::zero();
};

/// Topic-name suffix conventions by which Alg. 1 classifies dds_write
/// events as service requests/responses (mirrors the rq/…Request and
/// rr/…Reply naming of rmw implementations). The core module re-declares
/// them to stay independent of the middleware substrate.
const char* ros2_request_suffix();
const char* ros2_reply_suffix();
bool is_service_request_topic(const std::string& topic);
bool is_service_reply_topic(const std::string& topic);

/// Lookup key of the (topic, source-timestamp) matching searches: the
/// topic's index in the TraceIndex's string table, and the source
/// timestamp in ns. Keys compare only within one index.
using TopicTsKey = std::pair<std::uint32_t, std::int64_t>;

/// Everything one per-node extraction read outside the node's own event
/// stream. Recorded so incremental re-synthesis can invalidate exactly the
/// nodes whose inputs a new segment touches.
struct ExtractDeps {
  std::set<Pid> pids;                  ///< event streams walked
  std::set<TopicTsKey> write_keys;     ///< dds_write lookups (hit or miss)
  std::set<TopicTsKey> response_keys;  ///< take-response lookups
};

/// What one appended segment contributed, in invalidation terms.
/// TraceIndex::append reports only the row range it appended; the pid and
/// key sets are left empty, because only incremental re-synthesis reads
/// them — IncrementalSynthesizer fills them with describe_rows().
struct AppendDelta {
  std::size_t first_row = 0;            ///< appended rows [first_row,
  std::size_t end_row = 0;              ///<                end_row)
  std::vector<Pid> ros_pids;            ///< pids with new ROS2 events
  std::vector<Pid> sched_pids;          ///< pids with new sched activity
  std::vector<TopicTsKey> write_keys;   ///< new dds_write keys
  std::vector<TopicTsKey> response_keys;  ///< new take-response keys
};

/// The delta of rows [first_row, end_row) of `view`, every set sorted and
/// duplicate-free.
AppendDelta describe_rows(const trace::ColumnsView& view,
                          std::size_t first_row, std::size_t end_row);

/// Pre-built indices over one trace, shared by per-node extractions and by
/// the caller/client resolution searches.
///
/// Storage is columnar (trace::EventColumns) and append-only: segments are
/// appended in arrival order and every per-pid / per-key index keeps its
/// entries sorted by (time, append-sequence). That order is exactly the
/// k-way-merge order of the segments (ties resolve to the earlier-ingested
/// segment, which always has the smaller sequence number), so an index
/// grown by appends is indistinguishable from one built over the fully
/// merged trace — the property incremental re-synthesis relies on.
///
/// The lookups are flat: a hash map gives each pid a slot in a vector of
/// per-pid event lists, and the (topic, src_ts) lookups are sorted tables
/// keyed by topic string index.
///
/// A holder that re-extracts everything on each query anyway can
/// release_lookups() between queries, keeping only the compact columns;
/// restore_lookups() rebuilds them batch by batch, exactly as appended.
class TraceIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  TraceIndex() = default;

  /// Indexes a whole trace at once; copies + sorts when unsorted.
  explicit TraceIndex(const trace::EventVector& events);

  /// Appends one time-sorted segment (throws std::invalid_argument when
  /// unsorted) and returns the appended row range (see AppendDelta).
  AppendDelta append(const trace::EventVector& sorted_segment);

  /// Same, straight from columnar storage (e.g. a mapped .ttb file).
  AppendDelta append(const trace::ColumnsView& view);

  /// Frees the lookup tables (per-pid lists, take-response keys, node
  /// names, exec-time calculator) but keeps the columns. The dds_write
  /// table is emptied but keeps its buffer (24 bytes per write, at most
  /// twice that after growth), as it did when it was the index's only
  /// flat table: freeing it too made the peak RSS of perfbench's pooled
  /// fleet-ttb-batch workload read about 1.3 MiB higher, from where
  /// glibc's per-thread arenas place the next trace's allocations, not
  /// from bytes held. Until restore_lookups(), appends only copy rows and
  /// lookup queries throw std::logic_error.
  void release_lookups();
  /// Rebuilds the released lookups; a no-op when they are present.
  void restore_lookups();

  /// Pre-sizes the columns for `additional_events` more rows.
  void reserve(std::size_t additional_events) {
    columns_.reserve(additional_events);
  }

  /// Number of indexed events. Sequence numbers are [0, size()).
  std::size_t size() const { return columns_.size(); }

  /// Raw columnar view of the indexed events, in append order.
  trace::ColumnsView view() const { return columns_.view(); }

  /// Decodes one event (tests, diagnostics — not the hot path).
  trace::TraceEvent event_at(std::size_t seq) const;

  /// Sequences of ROS2 events of `pid`, chronological ((time, seq) order).
  const std::vector<std::size_t>& ros_events_of(Pid pid) const;

  /// Node name per PID from P1 events; empty map entry when unknown.
  const std::map<Pid, std::string>& nodes() const {
    require_lookups();
    return nodes_;
  }

  /// Sequence of the dds_write matching (topic, src_ts), or npos. When
  /// several match, the chronologically first one wins.
  std::size_t find_write(const std::string& topic, TimePoint src_ts) const;

  /// All take-response (P13) sequences matching (topic, src_ts),
  /// chronological.
  const std::vector<std::size_t>& find_take_responses(const std::string& topic,
                                                      TimePoint src_ts) const;

  /// The chronologically next P14 event of `pid` strictly after sequence
  /// `after` (in (time, seq) order), or npos.
  std::size_t next_take_type_erased_after(Pid pid, std::size_t after) const;

  const ExecTimeCalculator& exec_calc() const {
    require_lookups();
    return exec_calc_;
  }

  /// Rows written into the columns of every TraceIndex, process-wide. A
  /// synthesis writes each event exactly once; bench_merge_strategies
  /// gates on it.
  static std::uint64_t rows_written();
  static void reset_rows_written();

 private:
  /// Bookkeeping after rows [base, size()) were copied in.
  AppendDelta appended(std::size_t base);
  /// Indexes rows [from, to), one time-sorted batch.
  void index_rows(std::size_t from, std::size_t to);
  void require_lookups() const {
    if (lookups_released_) {
      throw std::logic_error("TraceIndex lookups are released");
    }
  }

  /// The event lists of one pid, both in (time, seq) order.
  struct PidLists {
    std::vector<std::size_t> ros;  ///< ROS2 events
    std::vector<std::size_t> p14;  ///< take_type_erased events
    /// List sizes before the batch being indexed (tail merges).
    std::size_t ros_before = 0;
    std::size_t p14_before = 0;
    /// (time, seq) of the P1 event currently naming the pid — appends only
    /// replace a name when the newcomer is chronologically no earlier.
    std::int64_t name_time = 0;
    std::size_t name_seq = npos;
  };
  /// A (topic, src_ts)-keyed row: a dds_write or a take response.
  struct KeyedRow {
    std::uint32_t topic;  ///< string table index
    std::int64_t src_ts;
    std::size_t seq;
    TopicTsKey key() const { return {topic, src_ts}; }
  };
  /// A take-response key and its match list.
  struct ResponseKey {
    std::uint32_t topic;
    std::int64_t src_ts;
    std::uint32_t list;  ///< index into response_lists_
    TopicTsKey key() const { return {topic, src_ts}; }
  };
  void index_responses(std::vector<KeyedRow>& batch,
                       const trace::ColumnsView& v);

  trace::EventColumns columns_;
  std::vector<std::size_t> batch_starts_;  ///< first row of each append
  bool lookups_released_ = false;
  std::unordered_map<Pid, std::uint32_t> slots_;  ///< pid -> pid_lists_
  std::vector<PidLists> pid_lists_;
  /// Every dds_write, sorted by (topic, src_ts, time, seq): a key's first
  /// entry is its chronologically first write, the canonical match.
  std::vector<KeyedRow> writes_;
  /// Take-response keys sorted by (topic, src_ts); each owns one list of
  /// matching rows in (time, seq) order (find_take_responses returns it).
  std::vector<ResponseKey> response_keys_;
  std::vector<std::vector<std::size_t>> response_lists_;
  std::map<Pid, std::string> nodes_;
  ExecTimeCalculator exec_calc_;
  static const std::vector<std::size_t> kEmpty;
};

/// FindCaller (Alg. 1, line 13): resolves which callback issued the
/// service request that the take_request event at `take_seq` consumed.
/// Returns kInvalidCallbackId when unresolvable. When `deps` is given,
/// records everything the search read.
CallbackId find_caller(const TraceIndex& index, std::size_t take_seq,
                       ExtractDeps* deps = nullptr);

/// FindClient (Alg. 1, line 20): resolves which client callback a service
/// response dds_write is dispatched to. Returns kInvalidCallbackId when
/// unresolvable.
CallbackId find_client(const TraceIndex& index, std::size_t write_seq,
                       ExtractDeps* deps = nullptr);

/// Runs Algorithm 1 for one node. `pid` must be a node discovered via P1.
/// When `deps` is given it is reset and filled with the extraction's full
/// read set (for incremental invalidation).
CallbackList extract_callbacks(const TraceIndex& index, Pid pid,
                               const ExtractOptions& options = {},
                               ExtractDeps* deps = nullptr);

/// Convenience: extraction for every node discovered in the trace.
std::vector<CallbackList> extract_all_nodes(const TraceIndex& index,
                                            const ExtractOptions& options = {});

/// Merges per-worker-PID CBlists of one node into a single per-node list.
/// A multi-threaded executor fires P1 once per worker, so Algorithm 1
/// yields one (strictly sequential) list per worker PID; callbacks that
/// migrated between workers are re-unified here via the Alg. 1 matching
/// rule (same id; services also same annotated in-topic), with their
/// instances re-sorted chronologically. Single-threaded nodes pass
/// through untouched. Must run before normalize_labels (ordinals count
/// callbacks per node, not per worker).
void merge_worker_lists(std::vector<CallbackList>& lists);

/// Post-extraction normalization: assigns stable labels
/// ("<node>/<kind><ordinal>", ordinals by callback-id order within the
/// node) and rewrites topic annotations from run-specific raw callback ids
/// to those labels. Required before cross-run DAG merging, since raw ids
/// are pseudo-addresses that change run to run.
void normalize_labels(std::vector<CallbackList>& lists);

}  // namespace tetra::core
