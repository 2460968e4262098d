// thread-discipline: std::thread in src/obs. Finding.
#include <thread>

void work();

void run_aside() {
    std::thread worker(work);
    worker.join();
}
