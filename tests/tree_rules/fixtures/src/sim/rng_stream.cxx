// rng-stream: an Rng constructed inside a parallel_* call's arguments is
// a finding (direct, temporary and brace). Rng::stream and seeding
// outside a parallel region are not.
#include <cstddef>

namespace stats {
struct Rng {
    explicit Rng(unsigned long seed);
    static Rng stream(unsigned long seed, unsigned long index);
};
}  // namespace stats

namespace exec {
struct ChunkRange {
    std::size_t begin;
    std::size_t end;
};
template <class F> void parallel_for(unsigned, std::size_t n, F body) { body(ChunkRange{0, n}); }
template <class T, class F> T parallel_map(unsigned, std::size_t n, F body) { return body(n); }
template <class T, class F> T parallel_chunks(unsigned, std::size_t n, F body) {
    return body(ChunkRange{0, n});
}
}  // namespace exec

using stats::Rng;
int use(const Rng& rng);

void direct(unsigned long seed) {
    exec::parallel_for(2, 8, [&](const exec::ChunkRange&) {
        stats::Rng rng(seed);
        use(rng);
    });
}

int temporary() {
    return exec::parallel_map<int>(2, 8, [&](std::size_t i) { return use(Rng(i)); });
}

void brace(unsigned long seed) {
    exec::parallel_for(2, 8, [&](const exec::ChunkRange&) { Rng rng{seed}; use(rng); });
}

int blessed(unsigned long seed) {
    return exec::parallel_chunks<int>(2, 8, [&](const exec::ChunkRange& chunk) {
        Rng rng = Rng::stream(seed, chunk.begin);
        return use(rng);
    });
}

int outside(unsigned long seed) {
    stats::Rng rng(seed);
    return use(rng);
}
