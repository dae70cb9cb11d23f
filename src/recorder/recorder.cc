#include "recorder/recorder.h"

#include <algorithm>

namespace axiomcc::recorder {

Recorder::Recorder(RecordOptions options) : options_(options) {
  if (options_.ring_depth < 1) options_.ring_depth = 1;
  stride_ = options_.sample_stride < 1 ? 1 : options_.sample_stride;
}

Recorder::Lane& Recorder::lane_for(Subject kind, int subject) {
  const auto k = static_cast<std::size_t>(kind);
  std::uint32_t* slot;
  if (subject < 0) {
    slot = &neg_lane_slots_[k];
  } else {
    std::vector<std::uint32_t>& table = lane_slots_[k];
    const auto idx = static_cast<std::size_t>(subject);
    if (idx >= table.size()) table.resize(idx + 1, 0);
    slot = &table[idx];
  }
  if (*slot == 0) {
    lanes_.emplace_back();
    *slot = static_cast<std::uint32_t>(lanes_.size());
  }
  return lanes_[*slot - 1];
}

void Recorder::emit(const Event& event) {
  if (!wants(event.cls)) return;
  Lane& lane = lane_for(event.subject_kind, event.subject);
  const auto depth = static_cast<std::size_t>(options_.ring_depth);
  if (lane.ring.size() < depth) {
    lane.ring.push_back(Entry{seq_++, event});
  } else {
    lane.ring[lane.next] = Entry{seq_++, event};
    if (++lane.next == depth) lane.next = 0;
  }
  ++lane.total;
  note_step(event.step);
}

Recording Recorder::snapshot() const {
  Recording out;
  out.backend = backend_;
  out.senders = senders_;
  out.steps = steps_;
  out.options = options_;
  std::vector<Entry> merged;
  for (const Lane& lane : lanes_) {
    out.dropped += lane.total - lane.ring.size();
    merged.insert(merged.end(), lane.ring.begin(), lane.ring.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  out.events.reserve(merged.size());
  for (const Entry& entry : merged) out.events.push_back(entry.event);
  return out;
}

}  // namespace axiomcc::recorder
