// raw-fsync: the store's sync wrapper. Allowed.
#include <unistd.h>

int sync_file(int fd) { return fsync(fd); }
int sync_data(int fd) { return fdatasync(fd); }
