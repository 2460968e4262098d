// thread-discipline: std::thread in src/sim. Finding.
#include <thread>

void work();

void run_aside() {
    std::thread worker(work);
    worker.join();
}
