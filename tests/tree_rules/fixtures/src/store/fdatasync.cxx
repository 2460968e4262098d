// raw-fsync: fdatasync, called across two lines. Finding.
#include <unistd.h>

int data_synced(int fd) {
    return ::fdatasync(
        fd);
}
