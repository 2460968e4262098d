// raw-parse through a macro: the pasted name is in no token, but the
// call still references strtol. Finding.
#include <string>

#define QRN_TO(kind, text) std::sto##kind(text)

long parse_count(const std::string& text) { return QRN_TO(l, text); }
