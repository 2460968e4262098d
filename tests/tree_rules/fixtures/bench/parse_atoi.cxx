// raw-parse: atoi in a bench program. Finding.
#include <cstdlib>

int runs_from(char** argv) { return std::atoi(argv[1]); }
