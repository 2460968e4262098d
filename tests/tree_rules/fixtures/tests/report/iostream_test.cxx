// iostream-in-lib: tests are not library code. Clean.
#include <iostream>

void show(int value) { std::cout << value << '\n'; }
