// raw-file-io: the store checksums what it writes. Allowed.
#include <ostream>
#include <string>

void write_block(std::ostream& out, const std::string& block) {
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
}
