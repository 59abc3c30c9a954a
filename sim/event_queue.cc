#include "sim/event_queue.h"

#include <utility>

#include "util/logging.h"

namespace structride {

bool EventQueue::Before(const Entry& x, const Entry& y) {
  if (x.event.time != y.event.time) return x.event.time < y.event.time;
  if (x.event.type != y.event.type) return x.event.type < y.event.type;
  return x.seq < y.seq;
}

void EventQueue::Push(const Event& event) {
  heap_.push_back({event, next_seq_++});
  SiftUp(heap_.size() - 1);
}

void EventQueue::PushSorted(std::vector<Event> events) {
  SR_CHECK(cursor_ == sorted_.size());
  for (size_t k = 1; k < events.size(); ++k) {
    const Event& a = events[k - 1];
    const Event& b = events[k];
    SR_CHECK(a.time < b.time || (a.time == b.time && a.type <= b.type));
  }
  sorted_ = std::move(events);
  cursor_ = 0;
  sorted_seq_ = next_seq_;
  next_seq_ += sorted_.size();
}

bool EventQueue::SortedFirst() const {
  if (cursor_ == sorted_.size()) return false;
  return heap_.empty() ||
         Before({sorted_[cursor_], sorted_seq_ + cursor_}, heap_.front());
}

const Event& EventQueue::Top() const {
  SR_CHECK(!empty());
  return SortedFirst() ? sorted_[cursor_] : heap_.front().event;
}

Event EventQueue::Pop() {
  SR_CHECK(!empty());
  if (SortedFirst()) return sorted_[cursor_++];
  Event out = heap_.front().event;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return out;
}

void EventQueue::Clear() {
  heap_.clear();
  sorted_.clear();
  cursor_ = 0;
  next_seq_ = 0;
}

void EventQueue::SiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  while (true) {
    size_t best = i;
    size_t left = 2 * i + 1;
    size_t right = 2 * i + 2;
    if (left < n && Before(heap_[left], heap_[best])) best = left;
    if (right < n && Before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

}  // namespace structride
