// raw-file-io: fread outside the store. Finding.
#include <cstdio>

std::size_t load(std::FILE* file, char* buffer) { return std::fread(buffer, 1, 16, file); }
