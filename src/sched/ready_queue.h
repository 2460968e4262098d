// Ready queue for DAG dispatch: an explicit binary max-heap keyed by
// critical-path level, ties broken by node index.
//
// The coordinator pushes a node the moment it becomes dispatchable and
// pops the node whose remaining chain to the sink is heaviest - the
// classic critical-path-first order of the artidoro binheap exemplar. The
// index tie-break makes pop order a pure function of the pushed set, so
// two coordinators over the same plan dispatch in the same order (which
// only matters for reproducible traces; correctness never depends on
// order). The coordinator keys its items by fleet index; below 100000
// fleets the zero-padded node ids sort the same way.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sched/dag.h"

namespace qrn::sched {

/// One dispatchable node: its index (the tie-break) and priority
/// (critical-path level).
struct ReadyItem {
    std::size_t node = 0;
    double priority = 0.0;
};

class ReadyQueue {
public:
    void push(ReadyItem item) {
        heap_.push_back(std::move(item));
        sift_up(heap_.size() - 1);
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    /// Removes and returns the highest-priority item. Throws SchedError
    /// on an empty queue.
    ReadyItem pop() {
        if (heap_.empty()) throw SchedError("ReadyQueue::pop: queue is empty");
        ReadyItem top = std::move(heap_.front());
        heap_.front() = std::move(heap_.back());
        heap_.pop_back();
        if (!heap_.empty()) sift_down(0);
        return top;
    }

private:
    /// True when `a` should pop before `b`.
    [[nodiscard]] static bool before(const ReadyItem& a, const ReadyItem& b) {
        if (a.priority != b.priority) return a.priority > b.priority;
        return a.node < b.node;
    }

    void sift_up(std::size_t at) {
        while (at > 0) {
            const std::size_t parent = (at - 1) / 2;
            if (!before(heap_[at], heap_[parent])) return;
            std::swap(heap_[at], heap_[parent]);
            at = parent;
        }
    }

    void sift_down(std::size_t at) {
        for (;;) {
            std::size_t best = at;
            for (const std::size_t child : {2 * at + 1, 2 * at + 2}) {
                if (child < heap_.size() && before(heap_[child], heap_[best])) {
                    best = child;
                }
            }
            if (best == at) return;
            std::swap(heap_[at], heap_[best]);
            at = best;
        }
    }

    std::vector<ReadyItem> heap_;
};

}  // namespace qrn::sched
