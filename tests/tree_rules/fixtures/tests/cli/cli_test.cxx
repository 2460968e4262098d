// raw-file-io: draining the popen pipe of a spawned program. Allowed.
#include <cstdio>
#include <string>

std::string drain(std::FILE* pipe) {
    std::string out;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) out.append(buffer, n);
    return out;
}
