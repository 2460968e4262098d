// throw-message: an empty message is a finding, in both forms in
// unexplained(). A message, a rethrow and a project type are not.
#include <stdexcept>

struct ParseError {
    ParseError(const char* flag, const char* value, const char* expected);
};

void unexplained(int which) {
    if (which == 0) throw std::out_of_range("");
    throw std::invalid_argument{""};
}

void explained(int which) {
    if (which == 0) throw std::invalid_argument("bootstrap: replicates >= 100");
    try {
        unexplained(which);
    } catch (...) {
        throw;
    }
    throw ParseError("--hours", "10h", "a number");
}
