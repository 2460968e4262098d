// raw-file-io: POSIX read, a project member named read_exact and a field
// named write_count are not the banned calls. Clean.
#include <cstddef>
#include <unistd.h>

struct Reader {
    void read_exact(char* buffer, std::size_t n, const char* what);
};

struct Totals {
    long write_count = 0;
};

long pull(int fd, char* buffer, std::size_t n, Reader& reader, const Totals& totals) {
    reader.read_exact(buffer, n, "header");
    return ::read(fd, buffer, n) + totals.write_count;
}
