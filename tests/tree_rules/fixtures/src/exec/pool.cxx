// thread-discipline: src/exec owns the pool's threads. Allowed.
#include <thread>
#include <vector>

void work();

void start(std::vector<std::thread>& workers) { workers.emplace_back(work); }
