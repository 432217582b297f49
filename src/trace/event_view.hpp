// Sortedness check for row traces. Ingest paths use it to decide whether
// a segment needs a stable time sort before it is appended to an index.
#pragma once

#include "trace/event.hpp"

namespace tetra::trace {

/// True when `events` is non-decreasing in time.
bool is_time_sorted(const EventVector& events);

}  // namespace tetra::trace
