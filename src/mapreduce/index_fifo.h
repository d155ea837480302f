// IndexFifo: the vector-backed FIFO of task indices behind JobState's
// pending queues and per-machine / per-rack locality queues.

#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "mapreduce/task.h"

namespace eant::mr {

/// First-in first-out queue of task indices: one vector plus a head offset.
/// A queue that never held an entry owns no heap, unlike a std::deque, which
/// allocates its map and first block on construction (~576 B) — a cost paid
/// by every one of the (job x machine) locality queues, most of them empty.
/// Popped slots are reclaimed when the queue drains, or once they outnumber
/// the live entries, so pops stay amortised O(1).
class IndexFifo {
 public:
  using const_iterator = std::vector<TaskIndex>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  TaskIndex front() const {
    EANT_ASSERT(!empty(), "front() of an empty queue");
    return items_[head_];
  }

  void push_back(TaskIndex index) { items_.push_back(index); }

  void pop_front() {
    EANT_ASSERT(!empty(), "pop_front() of an empty queue");
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ > size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Live entries, front to back.
  const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return items_.end(); }

 private:
  std::vector<TaskIndex> items_;
  std::size_t head_ = 0;
};

}  // namespace eant::mr
