// iostream-in-lib: library code printing to std::cout. Finding.
#include <iostream>

void print_row(int value) { std::cout << value << '\n'; }
