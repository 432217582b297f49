// tetra trace binary (.ttb): the on-disk twin of EventColumns. One small
// header followed by the eight fixed-width columns and the string table,
// laid out so a memory map of the file IS a valid ColumnsView — ingestion
// becomes a handful of pointer fixups plus one validation scan instead of
// per-line JSON parsing. See docs/TRACE_FORMAT.md for the byte layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event_columns.hpp"

namespace tetra::trace {

inline constexpr char kTtbMagic[8] = {'t', 'e', 't', 'r', 'a', 'T', 'T', 'B'};
inline constexpr std::uint32_t kTtbVersion = 1;
inline constexpr std::uint32_t kTtbEndianProbe = 0x0A0B0C0D;
inline constexpr std::size_t kTtbHeaderSize = 40;

/// Writes a .ttb file. Event order is preserved exactly — conversion never
/// sorts, so JSONL -> ttb -> JSONL is byte-identical.
void write_ttb_file(const std::string& path, const ColumnsView& view);
void write_ttb_file(const std::string& path, const EventColumns& columns);
void write_ttb_file(const std::string& path, const EventVector& events);

/// True when the file exists and starts with the .ttb magic.
bool is_ttb_file(const std::string& path);

/// Reads a trace file into rows in file order: .ttb (detected by magic)
/// is decoded from its columns, anything else parses as JSONL. Throws on
/// unreadable or malformed input.
EventVector read_trace_file(const std::string& path);

/// Read-side handle. Memory-maps the file where the platform allows
/// (read-only, private) and falls back to a buffered read elsewhere; either
/// way the header and every row are validated once at open, after which
/// view() exposes the columns zero-copy until the reader is destroyed.
/// Move-only.
class TtbReader {
 public:
  explicit TtbReader(const std::string& path);
  ~TtbReader();

  TtbReader(TtbReader&& other) noexcept;
  TtbReader& operator=(TtbReader&& other) noexcept;
  TtbReader(const TtbReader&) = delete;
  TtbReader& operator=(const TtbReader&) = delete;

  const ColumnsView& view() const { return view_; }
  std::size_t size() const { return view_.count; }

  /// Decodes every row back into heap TraceEvents (tests, conversion).
  EventVector materialize() const;

  /// Whether the file is served from an mmap (vs the read fallback).
  bool mapped() const { return mapped_; }

 private:
  void parse(const char* data, std::size_t size, const std::string& path);
  void unmap();

  ColumnsView view_;
  std::vector<char> fallback_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  bool mapped_ = false;
};

}  // namespace tetra::trace
