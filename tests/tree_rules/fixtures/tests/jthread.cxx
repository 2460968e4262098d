// thread-discipline: std::jthread starts its thread the same way. Finding.
#include <thread>

void work();

void run_aside() { std::jthread worker(work); }
