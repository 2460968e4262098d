// raw-parse: the JSON reader has no exemption; std::strtod here is a
// finding.
#include <cstdlib>

double parse_number(const char* text, char** end) { return std::strtod(text, end); }
