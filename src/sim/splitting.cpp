#include "sim/splitting.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qrn::sim {

namespace detail {

void apply_cluster_design_effect(const std::vector<TrialOutcome>& outcomes,
                                 stats::LevelTally& tally) {
    const std::uint64_t n = tally.trials;
    const std::uint64_t k = tally.successes;
    if (n == 0) return;
    if (outcomes.size() != n) {
        throw std::invalid_argument(
            "apply_cluster_design_effect: outcomes/trials size mismatch");
    }
    // Cluster sizes and successes, indexed by stage-0 root. Indexed
    // accumulation (roots < n) keeps the later sum's FP addition order
    // deterministic.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> clusters(
        n, {0, 0});  // {m_c, k_c}
    for (const TrialOutcome& outcome : outcomes) {
        auto& cluster = clusters.at(outcome.root);
        ++cluster.first;
        cluster.second += outcome.survived ? 1 : 0;
    }
    std::uint64_t num_clusters = 0;
    for (const auto& cluster : clusters) {
        if (cluster.first > 0) ++num_clusters;
    }
    if (k == 0) {
        // No survivals: every trial's fresh draws failed independently;
        // there is no inherited-success correlation to discount.
        tally.effective_trials = n;
        tally.effective_successes = 0;
        return;
    }
    if (k == n || num_clusters < 2) {
        // Everything survived (possibly purely by inheritance), or all
        // trials share one ancestor: the only independent evidence is the
        // distinct roots.
        tally.effective_trials = num_clusters;
        tally.effective_successes =
            k == n ? num_clusters
                   : static_cast<std::uint64_t>(std::llround(
                         static_cast<double>(k) / static_cast<double>(n) *
                         static_cast<double>(num_clusters)));
        return;
    }
    const double nd = static_cast<double>(n);
    const double p_hat = static_cast<double>(k) / nd;
    double sum_sq = 0.0;
    for (const auto& cluster : clusters) {
        if (cluster.first == 0) continue;
        const double delta = static_cast<double>(cluster.second) -
                             static_cast<double>(cluster.first) * p_hat;
        sum_sq += delta * delta;
    }
    const double bd = static_cast<double>(num_clusters);
    const double var_cluster = bd / (bd - 1.0) * sum_sq / (nd * nd);
    const double var_binomial = p_hat * (1.0 - p_hat) / nd;
    const double deff = var_cluster / var_binomial;
    // Under-dispersion (deff < 1) is possible but never widens the CI: the
    // binomial interval is already the independent-trials baseline.
    const double shrink = std::max(1.0, deff);
    const std::uint64_t n_eff = std::min<std::uint64_t>(
        n, std::max<std::uint64_t>(
               1, static_cast<std::uint64_t>(std::llround(nd / shrink))));
    const std::uint64_t k_eff = std::min<std::uint64_t>(
        n_eff, static_cast<std::uint64_t>(
                   std::llround(p_hat * static_cast<double>(n_eff))));
    tally.effective_trials = n_eff;
    tally.effective_successes = k_eff;
}

}  // namespace detail

double encounter_severity(const EncounterOutcome& outcome) noexcept {
    if (outcome.collision) {
        // Collisions dominate every near miss: the offset clears the
        // plausible closing-speed range of avoided encounters.
        return 200.0 + outcome.impact_speed_kmh;
    }
    // Near-miss severity: how fast the conflict closed, discounted by the
    // clearance that remained when it resolved.
    return std::max(0.0, outcome.closing_speed_kmh - 10.0 * outcome.min_gap_m);
}

FleetSeverityModel::FleetSeverityModel(FleetConfig config)
    : config_(std::move(config)), sampler_(config_.rates) {
    config_.policy.validate();
    terms_ = config_.policy.terms();
}

FleetSeverityModel::Start FleetSeverityModel::begin(stats::Rng& rng) const {
    Start start;
    start.env = sample_environment(config_.odd, rng);
    // cruise speed is a pure function of the environment - no draw.
    start.cruise_kmh = config_.policy.cruise_speed_kmh(start.env, config_.odd);
    sampler_.sample_counts(start.env, hours_per_trial(), rng, start.counts);
    for (const std::uint64_t count : start.counts) start.total += count;
    return start;
}

double FleetSeverityModel::episode_severity(const Start& start,
                                            std::uint64_t episode_index,
                                            stats::Rng& rng) const {
    // Flat episode index -> encounter kind, in the same kind-major order
    // the fleet stretch loop resolves encounters.
    std::size_t kind_index = 0;
    std::uint64_t offset = episode_index;
    while (kind_index < kEncounterKindCount && offset >= start.counts[kind_index]) {
        offset -= start.counts[kind_index];
        ++kind_index;
    }
    if (kind_index >= kEncounterKindCount) {
        throw std::out_of_range("FleetSeverityModel: episode index out of range");
    }
    const EncounterKind kind = encounter_kind_from_index(kind_index);
    const ResolvedEncounter resolved = resolve_encounter(
        kind, start.env, start.cruise_kmh,
        /*decel_cap=*/std::numeric_limits<double>::infinity(),
        /*gap_stretch=*/1.0, config_.policy, terms_, config_.perception, sampler_, rng);
    return encounter_severity(resolved.outcome);
}

}  // namespace qrn::sim
