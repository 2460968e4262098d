// raw-fsync: fsync outside the sync wrapper, even inside the store.
// Finding.
#include <unistd.h>

int synced(int fd) { return fsync(fd); }
