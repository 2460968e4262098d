// Lease-file protocol: atomic exclusive acquire, expiry, steal/renew with
// generation bumps, release, and the torn-file fallback. The lease layer
// is the distributed scheduler's only mutual-exclusion primitive, so its
// edge cases (double acquire, release-after-steal, malformed bytes) are
// pinned here rather than discovered in a flaky campaign.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"
#include "mutations.h"
#include "store/format.h"
#include "store/lease.h"

namespace {

using namespace qrn;

std::string lease_dir_for(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_lease_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

store::Lease make_lease(const std::string& node, const std::string& owner,
                        std::uint64_t ttl_ms, std::uint64_t generation) {
    return store::Lease{node, owner, store::lease_now_ms(), ttl_ms, generation};
}

TEST(Lease, AcquireIsExclusiveUntilReleased) {
    const auto dir = lease_dir_for("exclusive");
    EXPECT_TRUE(store::try_acquire_lease(
        dir, make_lease("fleet-00001", "a", 60000, 1)));
    // A second acquire loses, even from the same owner: acquire never
    // replaces an existing lease (that is overwrite_lease's job).
    EXPECT_FALSE(store::try_acquire_lease(
        dir, make_lease("fleet-00001", "a", 60000, 1)));
    EXPECT_FALSE(store::try_acquire_lease(
        dir, make_lease("fleet-00001", "b", 60000, 1)));

    store::release_lease(dir, "fleet-00001");
    EXPECT_FALSE(store::read_lease(dir, "fleet-00001").has_value());
    EXPECT_TRUE(store::try_acquire_lease(
        dir, make_lease("fleet-00001", "b", 60000, 1)));
}

TEST(Lease, RoundTripsEveryField) {
    const auto dir = lease_dir_for("roundtrip");
    const store::Lease written = make_lease("fleet-00007", "coord:42", 1234, 9);
    ASSERT_TRUE(store::try_acquire_lease(dir, written));
    const auto read = store::read_lease(dir, "fleet-00007");
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->node, written.node);
    EXPECT_EQ(read->owner, written.owner);
    EXPECT_EQ(read->acquired_ms, written.acquired_ms);
    EXPECT_EQ(read->ttl_ms, written.ttl_ms);
    EXPECT_EQ(read->generation, written.generation);
}

TEST(Lease, ExpiryIsAcquiredPlusTtl) {
    store::Lease lease = make_lease("n", "o", 1000, 1);
    EXPECT_FALSE(store::lease_expired(lease, lease.acquired_ms));
    EXPECT_FALSE(store::lease_expired(lease, lease.acquired_ms + 999));
    EXPECT_TRUE(store::lease_expired(lease, lease.acquired_ms + 1000));
    EXPECT_TRUE(store::lease_expired(lease, lease.acquired_ms + 100000));
}

TEST(Lease, WindowStartingBeyondOneTtlIsExpired) {
    const store::Lease lease{"n", "o", 10000, 1000, 1};
    // A holder whose clock runs ahead by up to one TTL is trusted ...
    EXPECT_FALSE(store::lease_expired(lease, 9000));
    EXPECT_FALSE(store::lease_expired(lease, 9500));
    // ... one further ahead is not.
    EXPECT_TRUE(store::lease_expired(lease, 8999));
    EXPECT_TRUE(store::lease_expired(lease, 0));
    // No field value wraps the comparison.
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_TRUE(store::lease_expired(store::Lease{"n", "o", max, 1000, 1}, 5000));
    EXPECT_FALSE(store::lease_expired(store::Lease{"n", "o", max - 10, max, 1}, max - 20));
    EXPECT_FALSE(store::lease_expired(store::Lease{"n", "o", 5000, max, 1}, max - 1));
}

TEST(Lease, ClaimStealsAFutureStampedLeaseAndDefersToASlightlyAheadOne) {
    const auto dir = lease_dir_for("future");
    // The largest stamp a lease file can carry exactly: centuries ahead.
    const std::uint64_t ttl = 60000;
    store::overwrite_lease(dir, store::Lease{"far", "ahead", 9007199254740991, ttl, 4});
    const auto stolen = store::claim_lease(dir, "far", "b", ttl);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_TRUE(stolen->stolen);
    EXPECT_EQ(stolen->generation, 5u);
    EXPECT_EQ(store::read_lease(dir, "far")->owner, "b");

    // A peer half a TTL ahead holds a live lease.
    store::overwrite_lease(
        dir, store::Lease{"near", "ahead", store::lease_now_ms() + ttl / 2, ttl, 4});
    EXPECT_FALSE(store::claim_lease(dir, "near", "b", ttl).has_value());
    EXPECT_EQ(store::read_lease(dir, "near")->owner, "ahead");
    EXPECT_EQ(store::read_lease(dir, "near")->generation, 4u);
}

TEST(Lease, ClaimStealsALeaseWhoseTtlIsBeyondFourOfItsOwn) {
    const auto dir = lease_dir_for("ttl_cap");
    // Stamped a second ago with the largest TTL a lease file carries
    // exactly: honoured as stated, it would hold the node for centuries.
    // A claimant with a 100 ms TTL honours at most 400 ms of it.
    store::overwrite_lease(dir, store::Lease{"huge", "peer", store::lease_now_ms() - 1000,
                                             9007199254740991, 6});
    const auto stolen = store::claim_lease(dir, "huge", "b", 100);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_TRUE(stolen->stolen);
    EXPECT_EQ(stolen->generation, 7u);
    EXPECT_EQ(store::read_lease(dir, "huge")->owner, "b");
    EXPECT_EQ(store::read_lease(dir, "huge")->ttl_ms, 100u);
}

TEST(Lease, ClaimDefersToALeaseWhoseTtlIsWithinFourOfItsOwn) {
    const auto dir = lease_dir_for("ttl_within_cap");
    // Stamped a second ago: a 3 s TTL is within four of the claimant's
    // 1 s, and a 60 s TTL is capped at 4 s - both still live.
    for (const std::uint64_t ttl : {3000u, 60000u}) {
        store::overwrite_lease(
            dir, store::Lease{"n", "peer", store::lease_now_ms() - 1000, ttl, 2});
        EXPECT_FALSE(store::claim_lease(dir, "n", "b", 1000).has_value()) << ttl;
        EXPECT_EQ(store::read_lease(dir, "n")->owner, "peer") << ttl;
        EXPECT_EQ(store::read_lease(dir, "n")->generation, 2u) << ttl;
    }
}

TEST(Lease, StealReplacesAndBumpsGeneration) {
    const auto dir = lease_dir_for("steal");
    ASSERT_TRUE(store::try_acquire_lease(dir, make_lease("n", "dead", 1, 1)));
    const auto before = store::read_lease(dir, "n");
    ASSERT_TRUE(before.has_value());
    // The stealer reads the old generation and writes generation + 1, so
    // a lease's history is a strictly increasing chain.
    store::overwrite_lease(
        dir, make_lease("n", "thief", 60000, before->generation + 1));
    const auto after = store::read_lease(dir, "n");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->owner, "thief");
    EXPECT_EQ(after->generation, 2u);
}

TEST(Lease, ReleaseOfMissingLeaseIsBenign) {
    const auto dir = lease_dir_for("release_missing");
    store::release_lease(dir, "never-acquired");  // must not throw
    EXPECT_FALSE(store::read_lease(dir, "never-acquired").has_value());
}

TEST(Lease, MalformedFileReadsAsAlwaysStealable) {
    const auto dir = lease_dir_for("malformed");
    {
        std::ofstream torn(store::lease_path(dir, "n"));
        torn << "{\"kind\": \"qrn.lease\", \"node";  // torn mid-write
    }
    const auto lease = store::read_lease(dir, "n");
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->owner, "<malformed>");
    EXPECT_EQ(lease->ttl_ms, 0u);
    EXPECT_TRUE(store::lease_expired(*lease, store::lease_now_ms()));
    // And the steal path recovers it into a well-formed lease.
    store::overwrite_lease(dir, make_lease("n", "healer", 60000,
                                           lease->generation + 1));
    const auto healed = store::read_lease(dir, "n");
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(healed->owner, "healer");
}

TEST(Lease, NonIntegerNumbersReadAsMalformed) {
    // A lease number that is not a non-negative integer a double holds
    // exactly is as damaged as a torn file: stealable, not a live claim
    // that an undefined cast happened to produce.
    const auto dir = lease_dir_for("numbers");
    for (const std::string field : {"acquired_ms", "ttl_ms", "generation"}) {
        for (const std::string bad : {"1e300", "1.5", "18446744073709551616", "-1"}) {
            const auto value = [&](const std::string& name, const std::string& fine) {
                return name == field ? bad : fine;
            };
            {
                std::ofstream out(store::lease_path(dir, "n"), std::ios::trunc);
                out << "{\"kind\": \"qrn.lease\", \"node\": \"n\", \"owner\": \"w\", "
                    << "\"acquired_ms\": " << value("acquired_ms", "1000")
                    << ", \"ttl_ms\": " << value("ttl_ms", "60000")
                    << ", \"generation\": " << value("generation", "1") << "}";
            }
            const auto lease = store::read_lease(dir, "n");
            ASSERT_TRUE(lease.has_value());
            EXPECT_EQ(lease->owner, "<malformed>") << field << " = " << bad;
        }
    }
}

TEST(LeaseMutation, EveryMutantReadsAsALeaseOrMalformedAndClaimNeverThrows) {
    // A real lease: the file claim_lease publishes for a coordinator.
    const auto dir = lease_dir_for("mutation");
    const std::string node = "fleet-00003";
    ASSERT_TRUE(store::claim_lease(dir, node, "coord:4242", 3'600'000).has_value());
    const std::string path = store::lease_path(dir, node);
    std::string lease;
    {
        std::ifstream in(path, std::ios::binary);
        lease.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }

    std::size_t malformed = 0;
    std::vector<std::string> failures;
    for (const std::string& mutant : mutation::mutants(lease, 0x6c65617365, 60)) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << mutant;
        try {
            const auto read = store::read_lease(dir, node);
            if (!read) {
                failures.push_back("a present lease file read as absent");
                continue;
            }
            const bool damaged = read->owner == "<malformed>";
            if (damaged && (read->acquired_ms != 0 || read->ttl_ms != 0 ||
                            read->generation != 0)) {
                failures.push_back("a malformed lease kept decoded fields");
            }
            malformed += damaged ? 1 : 0;
            const auto claim = store::claim_lease(dir, node, "thief", 1000);
            if (damaged && !(claim && claim->stolen)) {
                failures.push_back("a malformed lease was not stolen");
            }
        } catch (const std::exception& error) {
            failures.push_back(error.what());
        }
    }
    EXPECT_GT(malformed, 0u);
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
}

TEST(Lease, ClaimAcquiresStealsOrDefers) {
    const auto dir = lease_dir_for("claim");
    // Free: a fresh acquisition at generation 1.
    const auto fresh = store::claim_lease(dir, "free", "a", 60000);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->generation, 1u);
    EXPECT_FALSE(fresh->stolen);
    EXPECT_EQ(store::read_lease(dir, "free")->owner, "a");

    // Live foreign lease: defer to its holder and leave the file alone.
    EXPECT_FALSE(store::claim_lease(dir, "free", "b", 60000).has_value());
    EXPECT_EQ(store::read_lease(dir, "free")->owner, "a");

    // Expired: stolen at generation + 1.
    store::overwrite_lease(dir, store::Lease{"expired", "dead", 0, 1, 5});
    const auto stolen = store::claim_lease(dir, "expired", "b", 60000);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->generation, 6u);
    EXPECT_TRUE(stolen->stolen);
    const auto after = store::read_lease(dir, "expired");
    EXPECT_EQ(after->owner, "b");
    EXPECT_EQ(after->generation, 6u);

    // Malformed: reads as generation 0, always expired, so stolen at 1.
    {
        std::ofstream torn(store::lease_path(dir, "torn"));
        torn << "{\"kind\": \"qrn.lease\"";
    }
    const auto healed = store::claim_lease(dir, "torn", "c", 60000);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(healed->generation, 1u);
    EXPECT_TRUE(healed->stolen);
    EXPECT_EQ(store::read_lease(dir, "torn")->owner, "c");
}

TEST(Lease, TwoClaimantsRacingOverOneDirectoryAcquireEachNodeOnce) {
    // Both claimants walk the same node ids in the same order, so they
    // meet on almost every node: one reads "no lease" while the other is
    // linking its own. Absence must be decided by the failed open itself,
    // or the loser's second look finds the new file and throws.
    const auto dir = lease_dir_for("race");
    constexpr std::size_t kNodes = 2000;
    std::vector<std::vector<char>> won(2, std::vector<char>(kNodes, 0));
    std::vector<std::size_t> stolen(2, 0);
    EXPECT_NO_THROW(exec::parallel_for(2, 2, [&](const exec::ChunkRange& chunk) {
        const std::string owner = chunk.index == 0 ? "a" : "b";
        for (std::size_t node = 0; node < kNodes; ++node) {
            const auto claim = store::claim_lease(dir, std::to_string(node), owner, 600'000);
            if (!claim) continue;
            won[chunk.index][node] = 1;
            if (claim->stolen) ++stolen[chunk.index];
        }
    }));
    EXPECT_EQ(stolen[0] + stolen[1], 0u);
    std::size_t once = 0;
    for (std::size_t node = 0; node < kNodes; ++node) {
        once += won[0][node] + won[1][node] == 1 ? 1 : 0;
    }
    EXPECT_EQ(once, kNodes);
}

TEST(Lease, AcquireLeavesNoTempFilesBehind) {
    const auto dir = lease_dir_for("no_temps");
    ASSERT_TRUE(store::try_acquire_lease(dir, make_lease("a", "o", 60000, 1)));
    EXPECT_FALSE(store::try_acquire_lease(dir, make_lease("a", "o", 60000, 1)));
    std::size_t files = 0;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(item.path().extension(), ".lease") << item.path();
    }
    EXPECT_EQ(files, 1u);
}

}  // namespace
