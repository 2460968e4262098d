// The campaign inner loop allocates nothing per encounter. This binary
// replaces the global operator new with a counter for the calling thread
// and runs whole fleets at jobs 1, where every stretch runs on that
// thread. A run may allocate its fixed setup (the environment table, the
// chunk list, the merged log) and the incident log's growth, which
// doubles its capacity: logarithmic in incidents, and independent of
// encounters. A heap allocation per encounter, in run_stretch or in
// anything it calls, adds thousands.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet.h"

namespace {

thread_local std::uint64_t allocations = 0;

/// Where the counter's own check parks a block, so that the compiler
/// cannot elide its allocation.
std::vector<double>* volatile escaped = nullptr;

}  // namespace

void* operator new(std::size_t size) {
    ++allocations;
    if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
    throw std::bad_alloc();
}

void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace qrn::sim {
namespace {

template <class Work>
std::uint64_t allocations_of(Work&& work) {
    const std::uint64_t before = allocations;
    work();
    return allocations - before;
}

/// Fixed setup of one run, and the most a log of `incidents` rows may add.
std::uint64_t allocation_bound(std::size_t incidents) {
    return 8 + 2 * static_cast<std::uint64_t>(std::bit_width(incidents));
}

TEST(HotLoopAllocations, CounterSeesOperatorNew) {
    // A counter that never runs would pass every bound below.
    const std::vector<double> row(8, 1.0);
    std::unique_ptr<std::vector<double>> copy;
    EXPECT_EQ(allocations_of([&] {
                  copy = std::make_unique<std::vector<double>>(row);
                  escaped = copy.get();
              }),
              2u);
}

TEST(HotLoopAllocations, FleetRunIsLogarithmicInIncidents) {
    FleetConfig config;
    config.seed = 7;
    const FleetSimulator simulator(config);
    std::uint64_t encounters = 0;
    for (const double hours : {10.0, 100.0, 1000.0, 4000.0}) {
        IncidentLog log;
        const std::uint64_t count =
            allocations_of([&] { log = simulator.run(hours, 1); });
        EXPECT_LE(count, allocation_bound(log.incidents.size()))
            << hours << " h: " << log.encounters << " encounters, "
            << log.incidents.size() << " incidents";
        encounters = log.encounters;
    }
    // The bound means something only when encounters outnumber it by far.
    EXPECT_GT(encounters, 1000 * allocation_bound(0));
}

}  // namespace
}  // namespace qrn::sim
