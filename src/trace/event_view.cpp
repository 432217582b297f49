#include "trace/event_view.hpp"

namespace tetra::trace {

bool is_time_sorted(const EventVector& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) return false;
  }
  return true;
}

}  // namespace tetra::trace
