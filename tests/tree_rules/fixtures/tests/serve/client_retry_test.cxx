// thread-discipline: the scripted peer of the client retry test. Allowed.
#include <thread>

void serve_script();

std::thread start_peer() { return std::thread(serve_script); }
