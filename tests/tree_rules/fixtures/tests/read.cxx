// raw-file-io: an unchecked stream read, through a pointer. Finding.
#include <istream>

void load(std::istream* stream, char* buffer, std::streamsize n) { stream->read(buffer, n); }
