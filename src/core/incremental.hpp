// Incremental model synthesis: Algorithm 1 without re-reading history.
//
// A full synthesis re-runs extraction for every node whenever any segment
// arrives. This class instead keeps the appendable TraceIndex plus, per
// node, the cached CBlist AND the extraction's read set (ExtractDeps).
// When a segment lands, the pids and keys of its appended rows (the
// AppendDelta, derived here by describe_rows) are intersected with each
// node's read set; only nodes whose inputs actually changed are
// re-extracted. Because extraction is a pure function of (index, pid) and
// the appended index is indistinguishable from a fully rebuilt one (see
// TraceIndex), the incremental model is byte-identical to what a from-
// scratch synthesis over the same segments would produce.
#pragma once

#include <map>
#include <set>

#include "core/extract.hpp"
#include "core/model_synthesis.hpp"

namespace tetra::core {

class IncrementalSynthesizer {
 public:
  explicit IncrementalSynthesizer(SynthesisOptions options = {})
      : options_(std::move(options)) {}

  /// Appends one time-sorted segment (throws std::invalid_argument when
  /// unsorted) and marks affected nodes dirty.
  void append(const trace::EventVector& sorted_segment);
  void append(const trace::ColumnsView& view);

  /// The model over everything appended so far. Re-extracts only dirty
  /// nodes; label normalization, worker merging and DAG building always
  /// rerun (they are cheap relative to extraction and depend on the global
  /// node set).
  const TimingModel& model();

  std::size_t event_count() const { return index_.size(); }

  /// Nodes re-extracted by the last model() call (0 when served from
  /// cache) — the observable measure of incremental work.
  std::size_t last_extracted() const { return last_extracted_; }

  const TraceIndex& index() const { return index_; }

 private:
  void apply_delta(const AppendDelta& delta);

  SynthesisOptions options_;
  TraceIndex index_;
  std::map<Pid, CallbackList> lists_;  ///< raw (pre-normalization) CBlists
  std::map<Pid, ExtractDeps> deps_;    ///< read set of each cached list
  std::set<Pid> dirty_;
  TimingModel model_;
  bool model_dirty_ = true;
  std::size_t last_extracted_ = 0;
};

}  // namespace tetra::core
