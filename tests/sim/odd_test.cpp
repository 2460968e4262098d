// ODD containment and restriction.
#include "sim/odd.h"

#include <gtest/gtest.h>

namespace qrn::sim {
namespace {

Environment benign() {
    Environment env;
    env.weather = Weather::Clear;
    env.lighting = Lighting::Day;
    env.speed_limit_kmh = 40.0;
    env.friction = 0.9;
    env.vru_density = 1.0;
    return env;
}

TEST(Odd, UrbanContainsBenignEnvironment) {
    EXPECT_TRUE(Odd::urban().contains(benign()));
}

TEST(Odd, RejectsEachViolatedLimit) {
    const auto odd = Odd::urban();
    auto env = benign();
    env.speed_limit_kmh = 80.0;
    EXPECT_FALSE(odd.contains(env));
    env = benign();
    env.weather = Weather::Snow;
    EXPECT_FALSE(odd.contains(env));
    env = benign();
    env.weather = Weather::Fog;
    EXPECT_FALSE(odd.contains(env));
    env = benign();
    env.friction = 0.2;
    EXPECT_FALSE(odd.contains(env));
    env = benign();
    env.vru_density = 10.0;
    EXPECT_FALSE(odd.contains(env));
}

TEST(Odd, WeatherAndNightGates) {
    Odd odd = Odd::urban();
    odd.allow_rain = false;
    auto env = benign();
    env.weather = Weather::Rain;
    EXPECT_FALSE(odd.contains(env));
    odd.allow_rain = true;
    EXPECT_TRUE(odd.contains(env));
    odd.allow_night = false;
    env = benign();
    env.lighting = Lighting::Night;
    EXPECT_FALSE(odd.contains(env));
}

TEST(Odd, DescribeMentionsLimits) {
    const auto text = Odd::urban().describe();
    EXPECT_NE(text.find("50"), std::string::npos);
    EXPECT_NE(text.find("rain"), std::string::npos);
}

}  // namespace
}  // namespace qrn::sim
