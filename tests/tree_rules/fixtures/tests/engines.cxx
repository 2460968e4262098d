// ambient-rng: a random_device seeding an mt19937 in a test. Finding.
#include <random>

unsigned draw() {
    std::random_device rd;
    std::mt19937 engine(rd());
    return engine();
}
