// ambient-rng through an alias: minstd_rand, spelled Engine. At -O0 its
// members stay out of line, so the object defines them weak. Finding.
#include <random>

using Engine = std::minstd_rand;

unsigned draw(unsigned seed) {
    Engine engine(seed);
    return static_cast<unsigned>(engine());
}
