// ambient-rng: the project's RNG module has no exemption either; a
// random_device here is a finding.
#include <random>

unsigned entropy() {
    std::random_device rd;
    return rd();
}
