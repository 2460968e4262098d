// iostream-in-lib: src/obs writes through the report layer, never to
// std::cerr. Finding.
#include <iostream>

void warn(const char* what) { std::cerr << what << '\n'; }
