// iostream-in-lib: a program's main owns its standard streams; this
// object is in no library. Clean.
#include <iostream>

int main() {
    std::cout << "qrn\n";
    return 0;
}
