// ambient-rng: the C library's global generator. Finding.
#include <cstdlib>

int roll() { return std::rand() % 6; }
