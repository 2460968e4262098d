// The campaign inner loop allocates nothing per encounter. This binary
// replaces the global operator new with a counter for the calling thread
// and runs whole fleets at jobs 1, where every stretch runs on that
// thread. A run may allocate its fixed setup (the environment table, the
// chunk list, the merged log) and the incident log's growth, which
// doubles its capacity: logarithmic in incidents, and independent of
// encounters. A heap allocation per encounter, in run_stretch or in
// anything it calls, adds thousands. The fleets cover every branch of the
// flattened kernel, and the splitting driver's per-episode path must not
// allocate at all.
//
// Both the plain and the nothrow forms of operator new are replaced (with
// their deletes): a form left to the runtime is not counted, and under
// AddressSanitizer it comes from libasan's allocator and would then be
// freed by the replaced delete.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "sim/splitting.h"

namespace {

thread_local std::uint64_t allocations = 0;

/// Where the counter's own checks park a block, so that the compiler
/// cannot elide its allocation.
std::vector<double>* volatile escaped = nullptr;
void* volatile escaped_block = nullptr;

}  // namespace

void* operator new(std::size_t size) {
    ++allocations;
    if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    ++allocations;
    return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

void operator delete(void* block, const std::nothrow_t&) noexcept { std::free(block); }

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

TEST(HotLoopAllocations, CounterSeesNothrowNew) {
    // std::stable_sort's buffer, for one, comes from the nothrow form.
    EXPECT_EQ(allocations_of([&] { escaped_block = ::operator new(64, std::nothrow); }), 1u);
    ::operator delete(escaped_block);
}

/// The default fleet, and fleets that reach the kernel's other branches:
/// degraded brakes with an aware policy (its speed cap) and an unaware
/// one, ODD exits (MRM and unmonitored) and a perception blackout.
std::vector<FleetConfig> kernel_branches() {
    std::vector<FleetConfig> fleets(5);
    fleets[1].faults.brake_degradation_probability = 0.3;
    fleets[2].faults.brake_degradation_probability = 0.3;
    fleets[2].faults.policy_aware = false;
    fleets[3].odd_exit.exit_probability = 0.2;
    fleets[3].odd_exit.detection_probability = 0.6;
    fleets[4].perception.blackout_probability = 0.01;
    for (FleetConfig& config : fleets) config.seed = 7;
    return fleets;
}

TEST(HotLoopAllocations, FleetRunIsLogarithmicInIncidents) {
    for (const FleetConfig& config : kernel_branches()) {
        const FleetSimulator simulator(config);
        std::uint64_t encounters = 0;
        for (const double hours : {10.0, 100.0, 1000.0, 4000.0}) {
            IncidentLog log;
            const std::uint64_t count =
                allocations_of([&] { log = simulator.run(hours, 1); });
            EXPECT_LE(count, allocation_bound(log.incidents.size()))
                << hours << " h: " << log.encounters << " encounters, "
                << log.incidents.size() << " incidents, " << log.degraded_hours
                << " degraded hours, " << log.odd_exits << " ODD exits";
            encounters = log.encounters;
        }
        // The bound means something only when encounters outnumber it by far.
        EXPECT_GT(encounters, 1000 * allocation_bound(0));
    }
}

TEST(HotLoopAllocations, SeverityEpisodesAllocateNothing) {
    FleetConfig config;
    config.seed = 7;
    const FleetSeverityModel model(config);
    stats::Rng rng = stats::Rng::stream(config.seed, kSplittingStreamBase);
    std::uint64_t episodes = 0;
    double peak = 0.0;
    const std::uint64_t count = allocations_of([&] {
        for (int trial = 0; trial < 1000; ++trial) {
            const FleetSeverityModel::Start start = model.begin(rng);
            for (std::uint64_t e = 0; e < model.episodes(start); ++e) {
                peak = std::max(peak, model.episode_severity(start, e, rng));
            }
            episodes += model.episodes(start);
        }
    });
    EXPECT_EQ(count, 0u) << episodes << " episodes";
    EXPECT_GT(episodes, 10000u);
    EXPECT_GT(peak, 0.0);
}

}  // namespace
}  // namespace qrn::sim
