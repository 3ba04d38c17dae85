#include "ecocloud/par/event_merge.hpp"

namespace ecocloud::par {

void merge_event_streams(const std::vector<EventStream>& streams,
                         const EventSink& sink) {
  std::vector<std::size_t> pos(streams.size(), 0);
  for (;;) {
    std::size_t best = streams.size();
    double best_time = 0.0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (pos[s] >= streams[s].events->size()) continue;
      const double time = (*streams[s].events)[pos[s]].time;
      // Strict <: on equal timestamps the earliest stream index wins, so
      // the order never depends on scan direction or input sizes.
      if (best == streams.size() || time < best_time) {
        best = s;
        best_time = time;
      }
    }
    if (best == streams.size()) break;
    const metrics::Event& raw = (*streams[best].events)[pos[best]];
    sink(streams[best].translate ? streams[best].translate(raw) : raw);
    ++pos[best];
  }
}

}  // namespace ecocloud::par
