// thread-discipline: src/sched's lease-renewal thread. Allowed.
#include <thread>

void renew();

std::thread start_renewer() { return std::thread(renew); }
