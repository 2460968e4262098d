// Bounded MPSC request queue: the daemon's explicit backpressure point.
//
// Reader threads try_push; a full queue is an immediate, visible rejection
// (the connection replies Busy with a retry hint) instead of an invisible
// latency cliff. The single dispatcher pops, which serializes every store
// append and keeps shard contents deterministic in arrival order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "exec/guarded.h"

namespace qrn::serve {

template <typename T>
class BoundedQueue {
public:
    /// capacity == 0 is treated as 1 (a queue that can hold nothing would
    /// reject every request).
    explicit BoundedQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// Enqueues unless the queue is full or closed; never blocks.
    [[nodiscard]] bool try_push(T item) {
        {
            const auto state = state_.lock();
            if (state->closed || state->items.size() >= capacity_) return false;
            state->items.push_back(std::move(item));
        }
        ready_.notify_one();
        return true;
    }

    /// Blocks until an item arrives or the queue is closed AND drained;
    /// nullopt only in the latter case, so closing never loses items.
    [[nodiscard]] std::optional<T> pop() {
        auto state = state_.lock();
        state.wait(ready_, [&state] { return state->closed || !state->items.empty(); });
        if (state->items.empty()) return std::nullopt;
        T item = std::move(state->items.front());
        state->items.pop_front();
        return item;
    }

    /// Rejects future pushes; pop() keeps serving what is already queued.
    void close() {
        state_.lock()->closed = true;
        ready_.notify_all();
    }

    [[nodiscard]] std::size_t size() const { return state_.lock()->items.size(); }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    struct State {
        std::deque<T> items;
        bool closed = false;
    };

    const std::size_t capacity_;
    mutable exec::Guarded<State> state_;
    std::condition_variable ready_;
};

}  // namespace qrn::serve
