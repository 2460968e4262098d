// raw-parse: sscanf in an example, whatever glibc alias it binds to
// (__isoc99_sscanf, __isoc23_sscanf). Finding.
#include <cstdio>

int count_from(const char* text) {
    int n = 0;
    std::sscanf(text, "%d", &n);
    return n;
}
