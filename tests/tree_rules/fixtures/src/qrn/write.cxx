// raw-file-io: an unchecked stream write outside the store. Finding.
#include <ostream>
#include <string>

void save(std::ostream& out, const std::string& bytes) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}
