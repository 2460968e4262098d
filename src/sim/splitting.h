// Clone-and-prune importance splitting over trajectory models.
//
// The driver runs the fixed-effort multilevel scheme whose estimator lives
// in stats/splitting.h: stage 0 simulates N fresh one-stretch trajectories
// and keeps those whose peak encounter severity reaches level L_1; stage l
// clones the survivors of stage l-1 (round-robin) and re-simulates their
// futures until the ladder is exhausted. The tail probability of the top
// level is the product of the per-stage survival fractions.
//
// Determinism discipline. A trajectory is identified by its *lineage*: a
// list of RNG stream segments. Segment 0 carries the trajectory-start
// draws (environment, encounter counts) plus the first episodes; a clone
// appends one fresh segment that takes over after its parent's
// level-crossing episode. Evaluating a trajectory replays every segment
// from Rng::stream(seed, segment_index) - pure (seed, index) functions, no
// shared RNG state - so the whole campaign is bit-identical at every
// `jobs` value: stages are barriers, each stage is an exec::parallel_map
// over clone slots in index order, and survivor lists are rebuilt serially
// in slot order.
//
// Stream-index space. Clone slot j of stage l draws from stream index
// kSplittingStreamBase + l * N + j. The base (2^62) keeps the space
// provably disjoint from fleet stretch streams (indices 0..hours+1; a
// fleet run of 2^62 one-hour stretches is ~5e11 years) - pinned by the
// rng stream-collision tests.
//
// Unbiasedness. Round-robin parent assignment survivors[j % k] makes each
// clone's prefix an exchangeable draw from the survivor set, independent
// of its own fresh-suffix randomness; the per-stage survival fraction is
// then a conditionally unbiased estimate of P(S >= L_l | S >= L_{l-1}),
// and the product telescopes (validated against the closed-form toy tail
// and naive MC in tests/sim/splitting_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "stats/rng.h"
#include "stats/splitting.h"

namespace qrn::sim {

/// First stream index the splitting driver may use. Everything below is
/// reserved for fleet stretch streams (stream h+1 simulates stretch h, so a
/// fleet run would need 2^62 - 1 hours - half a trillion years - to reach
/// this base).
inline constexpr std::uint64_t kSplittingStreamBase = std::uint64_t{1} << 62;

/// Parameters of one splitting campaign.
struct SplittingConfig {
    /// Strictly increasing severity thresholds; the last is the rare event.
    std::vector<double> levels;
    /// Fixed effort N: trajectories simulated at every stage.
    std::uint64_t trials_per_level = 1000;
    /// Two-sided coverage of the composed interval.
    double confidence = 0.95;
    /// Seed of the campaign's stream space (disjoint from any fleet run's
    /// streams even at an equal seed, via kSplittingStreamBase).
    std::uint64_t seed = 42;
};

/// Outcome of a splitting campaign.
struct SplittingResult {
    /// Tail-probability estimate for the final level, with the
    /// Bonferroni-composed Clopper-Pearson interval.
    stats::SplittingEstimate estimate;
    /// Exposure one trajectory represents (model-defined, hours).
    double hours_per_trial = 1.0;
    /// Trajectories simulated across all stages (== levels * N).
    std::uint64_t total_trials = 0;
    /// Episodes re-executed to replay clone prefixes (the cloning overhead).
    std::uint64_t replayed_episodes = 0;
    /// Episodes drawn fresh (the "real" simulation work).
    std::uint64_t fresh_episodes = 0;

    /// Exposure the campaign actually simulated (trials * hours_per_trial;
    /// prefix replays are deterministic re-execution, not new exposure).
    [[nodiscard]] double simulated_hours() const {
        return static_cast<double>(total_trials) * hours_per_trial;
    }

    /// The final level's tail probability as a per-hour frequency interval,
    /// ready for budget verification.
    [[nodiscard]] stats::RateInterval rate_interval() const {
        return stats::splitting_rate_interval(estimate, hours_per_trial);
    }
};

namespace detail {

/// One RNG segment of a trajectory lineage: episodes [from_episode, next
/// segment's from_episode) are drawn from stream `stream_index`. Segment 0
/// additionally carries the trajectory-start draws.
struct LineageSegment {
    std::uint64_t stream_index = 0;
    std::uint64_t from_episode = 0;
};

/// A trajectory in the clone tree, plus its evaluation results.
struct Lineage {
    std::vector<LineageSegment> segments;
    std::uint64_t root = 0;              ///< Stage-0 slot this lineage descends from.
    std::uint64_t crossing_episode = 0;  ///< First episode at/over the level.
    bool survived = false;
};

/// One stage trial reduced to what the design-effect estimate needs.
struct TrialOutcome {
    std::uint64_t root = 0;
    bool survived = false;
};

/// Shrinks `tally`'s CI sample size by the measured cluster design effect:
/// trials sharing a stage-0 root are one cluster; the ratio of the
/// cluster-robust variance of the survival fraction to its binomial
/// variance is the factor by which correlation inflates uncertainty, so
/// effective_trials = trials / max(1, deff) (fraction preserved in
/// effective_successes). Degenerate stages: all-survived collapses to one
/// trial per distinct root (the only independent evidence), zero-survived
/// and single-cluster stages are handled conservatively. `outcomes` must
/// have tally.trials entries with roots < tally.trials.
void apply_cluster_design_effect(const std::vector<TrialOutcome>& outcomes,
                                 stats::LevelTally& tally);

}  // namespace detail

/// Runs a splitting campaign over `model` and returns the composed
/// estimate.
///
/// Model concept (see FleetSeverityModel, the shipped model, and the
/// calibrated toy models in tests/sim/splitting_toy_models.h):
///   struct Start;                               trajectory-start state
///   Start begin(stats::Rng&) const;             draws env + episode count
///   std::uint64_t episodes(const Start&) const; episode count of a start
///   double episode_severity(const Start&, std::uint64_t index,
///                           stats::Rng&) const; severity of one episode
///   double hours_per_trial() const;             exposure per trajectory
///
/// episode_severity must consume a draw sequence depending only on the
/// Start and the RNG (not on the episode index), so a clone's prefix
/// replays bit-identically from its parent's stream indices. The Start is
/// passed by mutable reference: a model may keep running per-trajectory
/// state in it (e.g. the random-walk toy model's walk position), because
/// every evaluation replays its episodes in order from episode 0.
template <typename Model>
SplittingResult run_splitting(const Model& model, const SplittingConfig& config,
                              unsigned jobs = 1) {
    const std::size_t num_levels = config.levels.size();
    if (num_levels == 0) {
        throw std::invalid_argument("run_splitting: needs >= 1 level");
    }
    for (std::size_t l = 1; l < num_levels; ++l) {
        if (!(config.levels[l - 1] < config.levels[l])) {
            throw std::invalid_argument(
                "run_splitting: levels must be strictly increasing");
        }
    }
    if (config.trials_per_level == 0) {
        throw std::invalid_argument("run_splitting: trials_per_level must be > 0");
    }
    const std::uint64_t n = config.trials_per_level;

    struct EvalResult {
        detail::Lineage lineage;
        std::uint64_t fresh_episodes = 0;
        std::uint64_t replayed_episodes = 0;
    };

    // Replays `segments` from their streams, scoring the running severity
    // maximum against `level`. Episodes before `fresh_from` are replays of
    // the parent's draws; the rest are this trajectory's own.
    const auto evaluate = [&](std::vector<detail::LineageSegment> segments,
                              double level, std::uint64_t fresh_from) {
        EvalResult result;
        result.lineage.segments = std::move(segments);
        const auto& segs = result.lineage.segments;
        double max_severity = 0.0;
        bool crossed = false;
        typename Model::Start start{};
        std::uint64_t episodes = 0;
        for (std::size_t s = 0; s < segs.size(); ++s) {
            stats::Rng rng = stats::Rng::stream(config.seed, segs[s].stream_index);
            if (s == 0) {
                start = model.begin(rng);
                episodes = model.episodes(start);
            }
            const std::uint64_t seg_end =
                s + 1 < segs.size() ? segs[s + 1].from_episode : episodes;
            for (std::uint64_t e = segs[s].from_episode; e < seg_end; ++e) {
                const double severity = model.episode_severity(start, e, rng);
                if (severity > max_severity) max_severity = severity;
                if (!crossed && max_severity >= level) {
                    crossed = true;
                    result.lineage.crossing_episode = e;
                }
                if (e < fresh_from) {
                    ++result.replayed_episodes;
                } else {
                    ++result.fresh_episodes;
                }
            }
        }
        result.lineage.survived = crossed;
        return result;
    };

    SplittingResult out;
    out.hours_per_trial = model.hours_per_trial();
    std::vector<stats::LevelTally> tallies(num_levels);
    std::vector<detail::Lineage> survivors;

    for (std::size_t stage = 0; stage < num_levels; ++stage) {
        const obs::ScopedTimer stage_timer("splitting.stage_ns");
        const double level = config.levels[stage];
        std::vector<EvalResult> evals;
        if (stage == 0) {
            // Roots: one fresh stream per slot, whole trajectory is new.
            evals = exec::parallel_map<EvalResult>(jobs, n, [&](std::size_t j) {
                const std::uint64_t stream = kSplittingStreamBase + j;
                EvalResult result = evaluate({{stream, 0}}, level, /*fresh_from=*/0);
                result.lineage.root = j;
                return result;
            });
        } else if (survivors.empty()) {
            // Extinction: no path to this level was found. The remaining
            // stages have no conditional distribution to sample; their
            // tallies stay {0, 0} and the estimator composes them as the
            // vacuous [0, 1] factor.
            break;
        } else {
            const std::uint64_t stage_base =
                kSplittingStreamBase + static_cast<std::uint64_t>(stage) * n;
            const std::size_t k = survivors.size();
            evals = exec::parallel_map<EvalResult>(jobs, n, [&](std::size_t j) {
                // Round-robin over survivors keeps every parent's clone
                // count within one of N/k, independent of slot order.
                const detail::Lineage& parent = survivors[j % k];
                std::vector<detail::LineageSegment> segments = parent.segments;
                // The clone shares the parent's history through its
                // crossing episode and lives its own life after it.
                const std::uint64_t fresh_from = parent.crossing_episode + 1;
                segments.push_back({stage_base + j, fresh_from});
                EvalResult result = evaluate(std::move(segments), level, fresh_from);
                result.lineage.root = parent.root;
                return result;
            });
        }

        survivors.clear();
        stats::LevelTally& tally = tallies[stage];
        tally.trials = n;
        std::vector<detail::TrialOutcome> outcomes;
        outcomes.reserve(evals.size());
        for (auto& eval : evals) {
            out.fresh_episodes += eval.fresh_episodes;
            out.replayed_episodes += eval.replayed_episodes;
            outcomes.push_back({eval.lineage.root, eval.lineage.survived});
            if (eval.lineage.survived) {
                ++tally.successes;
                survivors.push_back(std::move(eval.lineage));
            }
        }
        if (stage > 0) {
            // Clones that descend from the same stage-0 root share inherited
            // history, so the N trials of this stage are positively
            // correlated. Measure the design effect with a cluster-robust
            // variance across root clusters and shrink the CI's sample size
            // accordingly (stage 0 trials are iid: no adjustment).
            detail::apply_cluster_design_effect(outcomes, tally);
        }
        out.total_trials += n;
        if (obs::enabled()) {
            obs::add_counter("splitting.stages", 1);
            obs::add_counter("splitting.trials", n);
            obs::add_counter("splitting.survivors", tally.successes);
        }
    }
    if (obs::enabled()) {
        obs::add_counter("splitting.campaigns", 1);
        obs::add_counter("splitting.fresh_episodes", out.fresh_episodes);
        obs::add_counter("splitting.replayed_episodes", out.replayed_episodes);
    }

    out.estimate = stats::splitting_estimate(tallies, config.levels, config.confidence);
    return out;
}

/// Severity of a resolved encounter, the splitting level function over the
/// fleet model: collisions dominate (offset 200 plus impact speed), and
/// near misses grade by closing speed discounted by the clearance that
/// remained.
[[nodiscard]] double encounter_severity(const EncounterOutcome& outcome) noexcept;

/// Trajectory model over the fleet simulator: one trajectory is one
/// operational stretch-hour (environment sampled in-ODD, Poisson encounter
/// counts, every encounter resolved through the exact resolve_encounter
/// path the fleet uses), scored by peak encounter severity.
///
/// Deliberate simplifications against FleetSimulator::run_stretch, so that
/// episode draws depend only on the trajectory start: no ODD-exit / MRM
/// branch, no brake-degradation faults (decel cap infinite, gap stretch 1),
/// and no secondary-conflict incidents - the level function targets the
/// primary encounter severity the QRN's C3 budgets bound.
class FleetSeverityModel {
public:
    explicit FleetSeverityModel(FleetConfig config);

    struct Start {
        Environment env;
        double cruise_kmh = 0.0;
        std::array<std::uint64_t, kEncounterKindCount> counts{};
        std::uint64_t total = 0;
    };

    [[nodiscard]] Start begin(stats::Rng& rng) const;
    [[nodiscard]] std::uint64_t episodes(const Start& start) const {
        return start.total;
    }
    [[nodiscard]] double episode_severity(const Start& start,
                                          std::uint64_t episode_index,
                                          stats::Rng& rng) const;
    [[nodiscard]] double hours_per_trial() const { return 1.0; }

    [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

private:
    FleetConfig config_;
    ScenarioSampler sampler_;
    /// config_.policy's constant terms, computed once after validation.
    TacticalPolicy::Terms terms_;
};

}  // namespace qrn::sim
