// raw-file-io: the manifest serializer has no exemption; fwrite here is
// a finding.
#include <cstdio>

void save(std::FILE* file, const char* bytes, std::size_t n) { std::fwrite(bytes, 1, n, file); }
