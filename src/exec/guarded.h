// A value that can be reached only while its own mutex is held.
//
// Guarded<T> keeps a T next to a std::mutex and hands the T out only
// through lock(), whose handle owns a std::unique_lock for as long as it
// lives. Touching the value without the lock is a compile error, so the
// "this member is guarded by that mutex" contract is checked by the
// compiler rather than by a comment. A condition variable waits through
// the handle, on the handle's own lock, so it always waits on the mutex
// that guards what its predicate reads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

namespace qrn::exec {

template <typename T>
class Guarded {
public:
    /// The locked value: holds the mutex from lock() until destruction.
    class Locked {
    public:
        [[nodiscard]] T* operator->() const noexcept { return value_; }
        [[nodiscard]] T& operator*() const noexcept { return *value_; }

        /// Blocks on `cv`, releasing this handle's lock while asleep,
        /// until `pred()` (evaluated under the lock) holds.
        template <typename Predicate>
        void wait(std::condition_variable& cv, Predicate pred) {
            cv.wait(lock_, std::move(pred));
        }

        /// Blocks on `cv`, releasing this handle's lock while asleep,
        /// until notified or `timeout` passes.
        template <typename Rep, typename Period>
        void wait_for(std::condition_variable& cv,
                      const std::chrono::duration<Rep, Period>& timeout) {
            cv.wait_for(lock_, timeout);
        }

    private:
        friend class Guarded;
        Locked(std::mutex& mutex, T& value) : lock_(mutex), value_(&value) {}

        std::unique_lock<std::mutex> lock_;
        T* value_;
    };

    [[nodiscard]] Locked lock() { return Locked(mutex_, value_); }

private:
    std::mutex mutex_;
    T value_{};
};

}  // namespace qrn::exec
