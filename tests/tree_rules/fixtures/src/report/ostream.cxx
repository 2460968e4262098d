// iostream-in-lib: writing to a caller's std::ostream names no standard
// stream. Clean.
#include <ostream>

void print_row(std::ostream& out, int value) { out << value << '\n'; }
