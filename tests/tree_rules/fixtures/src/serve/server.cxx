// dispatcher-no-block: a sleep, a join, a socket write and an fstream
// between the qrn:dispatcher markers are findings. pop() is the one
// sanctioned wait, and the same calls outside the markers are the
// readers' business. src/serve may start threads.
#include <chrono>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

struct Socket {
    void write_all(const std::string& frame);
};
struct Queue {
    std::optional<int> pop();
};
void handle(int job);

void dispatch_sleeps(std::thread& worker) {
    // qrn:dispatcher(begin)
    std::this_thread::sleep_for(std::chrono::seconds(1));
    worker.join();
    // qrn:dispatcher(end)
}

void dispatch_writes(Socket& socket, const std::string& frame, const char* path) {
    // qrn:dispatcher(begin)
    socket.write_all(frame);
    std::ifstream manifest(path);
    // qrn:dispatcher(end)
}

void dispatch_clean(Queue& queue) {
    // qrn:dispatcher(begin)
    while (auto job = queue.pop()) handle(*job);
    // qrn:dispatcher(end)
}

void reader(Socket& socket, const std::string& frame, std::thread& worker) {
    socket.write_all(frame);
    worker.join();
}

std::thread start_reader() {
    return std::thread([] {});
}
