// raw-parse: std::stod is inline and calls strtod, so the object
// references strtod. Finding.
#include <string>

double parse_hours(const std::string& text) { return std::stod(text); }
