// raw-parse: strtod in a test. Finding.
#include <cstdlib>

double rate_from(const char* text, char** end) { return std::strtod(text, end); }
