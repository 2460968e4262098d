// raw-file-io: fopen outside the store. Finding.
#include <cstdio>

std::FILE* open_model(const char* path) { return std::fopen(path, "rb"); }
