// thread-discipline: std::this_thread starts no thread. Clean.
#include <chrono>
#include <thread>

void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
