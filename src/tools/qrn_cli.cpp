// qrn - command-line front end for the QRN toolkit.
//
// Subcommands (all JSON flows use the formats of qrn/serialize.h):
//   norm-example                     print the paper's example risk norm
//   types-example                    print the paper's I1/I2/I3 catalog
//   types-generate [--thresholds a,b] generate a complete banded catalog
//   allocate --norm F --types F [--solver NAME] [--ethics X]
//                                    allocate budgets and print the
//                                    allocation snapshot + safety goals
//   verify --norm F --types F --evidence F [--confidence C]
//                                    run Eq. 1 against observed evidence
//   simulate --hours H [--policy P] [--seed N] [--odd urban|highway]
//            [--jobs N]              run the fleet simulator and print the
//                                    evidence document for the paper types
//   campaign --fleets N --hours H [--policy P] [--seed N] [--odd ...]
//            [--jobs N] [--store DIR] [--resume]
//                                    run N independently seeded fleets and
//                                    print the pooled evidence document.
//                                    With --store, each fleet is sealed as
//                                    a content-addressed shard in DIR and
//                                    fleets whose sealed shard already
//                                    matches are reused instead of
//                                    re-simulated (checkpoint/resume;
//                                    outputs stay bit-identical). --resume
//                                    additionally requires DIR to hold a
//                                    previous run's store header (exit 3
//                                    otherwise).
//   campaign ... --store DIR --distributed [--workers N] [--sched-ttl-ms N]
//            [--sched-max-nodes N]
//                                    distributed mode (docs/DISTRIBUTED.md):
//                                    compile the campaign into a work DAG
//                                    (generate -> fleet-i -> aggregate ->
//                                    verify) whose node identities are the
//                                    shards' content keys; a DAG larger
//                                    than --sched-max-nodes is rejected
//                                    with diagnostics (exit 1) and writes
//                                    nothing to DIR/sched. Then write the
//                                    plan to DIR/sched/plan.json and
//                                    dispatch fleet nodes to N worker
//                                    processes (default 2) coordinating
//                                    purely through lease files in the
//                                    store. Expired leases are stolen
//                                    after --sched-ttl-ms (default
//                                    10000). The three flags are usage
//                                    errors without --distributed.
//                                    The workers seal the shards; the run
//                                    then checks that every plan node's
//                                    shard is listed under its plan key
//                                    and aggregates those shards (each
//                                    record is read twice:
//                                    verify, then aggregate). stdout is
//                                    byte-identical to the same campaign
//                                    with --jobs 1, at any worker count
//                                    and across kill/resume cycles.
//                                    Every campaign mode ends in the same
//                                    fleet-order fold (sim::fold_fleets)
//                                    and prints the same summary lines.
//   sched worker --store DIR [--ttl-ms N] [--owner NAME] [--attached]
//                                    one distributed-campaign worker.
//                                    Standalone (default): claim fleet
//                                    nodes of DIR's plan via lease files,
//                                    steal expired leases, exit 0 once
//                                    every shard verifies. --attached is
//                                    the coordinator's internal pipe mode.
//   campaign --splitting L1,L2,... [--splitting-trials N] [--confidence C]
//            [--policy P] [--seed N] [--odd ...] [--jobs N]
//                                    rare-event mode (docs/RARE_EVENTS.md):
//                                    run the clone-and-prune importance-
//                                    splitting ladder over the fleet
//                                    severity model and print the tail
//                                    frequency of the last level with its
//                                    composed Clopper-Pearson interval.
//                                    Levels are positive, strictly
//                                    increasing severities; N trials run
//                                    per level (default 1000). Mutually
//                                    exclusive with --fleets/--hours/
//                                    --store/--resume and the
//                                    --distributed flags; stdout is
//                                    bit-identical for every --jobs.
//   pipeline [--hours H] [--markdown] [--jobs N]
//                                    full demo: allocate, simulate, verify,
//                                    print the safety case (text or
//                                    markdown task list)
//   store inspect --store DIR [--jobs N]
//                                    list the store: provenance, every
//                                    sealed shard with its footer's
//                                    records and exposure, stray .tmp
//                                    files
//   store verify --store DIR [--jobs N]
//                                    full integrity scan of every shard;
//                                    any corrupt/truncated/missing shard
//                                    is reported and exits 2
//   store merge --store DIR --out FILE
//                                    stream every shard (fleet order) into
//                                    one sealed shard at FILE
//   serve --norm F --types F --store DIR (--socket PATH | --port N)
//         [--queue N] [--batch N] [--jobs N]
//                                    run the verification daemon: accept
//                                    classify/verify/allocate/status
//                                    requests over the socket, append
//                                    accepted incidents to live shards in
//                                    DIR (sealing every --batch records),
//                                    and drain gracefully on SIGTERM or
//                                    SIGINT (docs/SERVE.md)
//   --version                        print the configure-time git describe
//
// Shard corruption semantics (docs/STORE.md): a shard that fails its CRCs,
// is truncated, or self-contradicts is *never* trusted - campaign runs
// re-simulate the fleet, `store verify` exits 2, and the defect kind is
// named on stderr.
//
// Exit-code contract (stable; scripts and CI may rely on it):
//   0  success (verify/pipeline: norm fulfilled / safety case holds)
//   1  usage or parse error: unknown command, missing required option, or
//      a token that fails the checked grammar of tools/parse.h - the
//      diagnostic is one line on stderr naming the offending flag + value
//   2  the norm is NOT fulfilled (verify) / the safety case does not hold
//      (pipeline) - inputs were valid, the quantitative check failed
//   3  I/O error: an input file cannot be opened or read
//
// Every numeric option is validated before any file is read or any
// simulation starts: --hours finite and > 0, --confidence in (0, 1),
// --ethics in (0, 1], --seed a plain unsigned integer, --fleets in
// [1, 100000], --jobs in [1, 4096], --thresholds and --splitting finite,
// positive and strictly increasing, --splitting-trials in [1, 1e7].
// Signed input to unsigned flags is rejected (no stoull wraparound), as is
// trailing junk ("10h" never parses as 10).
//
// --jobs N selects the worker-thread count for the Monte-Carlo stages
// (default: the hardware concurrency). Outputs are bit-identical for
// every N: randomness is drawn from per-index RNG streams and results
// are merged in index order, so parallelism never changes the numbers.
//
// --metrics PATH arms the observability layer (src/obs) and, after the
// command completes, writes a machine-readable run manifest to PATH:
// wall time per traced phase (allocation, fleet_sim, incident_labelling,
// eq1_verification, ...), every counter and timer, the jobs/seed the run
// used and the build's git describe. The manifest structure is identical
// for every --jobs value (docs/OBSERVABILITY.md documents the schema);
// a phase summary table is printed to stderr through the report layer.
// A manifest that cannot be written is an I/O error (exit 3): perf
// evidence that silently fails to persist is worse than none.
//
// Evidence document format:
//   {"kind":"qrn.evidence","exposure_hours":H,
//    "events":[{"incident_type":"I1","events":N}, ...]}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "qrn/banding.h"
#include "report/table.h"
#include "qrn/qrn.h"
#include "qrn/serialize.h"
#include "safety_case/builder.h"
#include "sched/coordinator.h"
#include "sched/dag.h"
#include "sched/plan.h"
#include "sched/worker.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/sim.h"
#include "sim/splitting.h"
#include "stats/rng.h"
#include "store/aggregate.h"
#include "store/cache_key.h"
#include "store/campaign_store.h"
#include "store/format.h"
#include "store/shard.h"
#include "store/store.h"
#include "tools/parse.h"

namespace {

using namespace qrn;
using tools::ParseError;

/// A typo in --fleets must fail loudly instead of OOMing the machine with
/// per-fleet logs; 1e5 fleets is already far beyond any realistic campaign.
constexpr std::uint64_t kMaxFleets = 100000;
constexpr std::uint64_t kMaxJobs = 4096;

/// An input file could not be opened or read; main() maps this to exit
/// code 3 (distinct from parse errors so scripted campaigns can tell
/// "bad argv" from "missing artifact").
class IoError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Minimal argv cursor with --flag value parsing.
class Args {
public:
    Args(int argc, char** argv) : args_(argv + 1, argv + argc) {}

    [[nodiscard]] std::string command() const {
        return args_.empty() ? "" : args_.front();
    }

    /// The token right after the command when it is not an option
    /// ("store inspect"); empty otherwise.
    [[nodiscard]] std::string subcommand() const {
        if (args_.size() < 2 || args_[1].rfind("--", 0) == 0) return "";
        return args_[1];
    }

    /// The token after `flag`; nullopt when the flag is absent. A flag
    /// given as the last token is a ParseError, never a silent default.
    [[nodiscard]] std::optional<std::string> option(const std::string& flag) const {
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i] != flag) continue;
            if (i + 1 == args_.size()) {
                throw ParseError(flag, "", "a value after the flag");
            }
            return args_[i + 1];
        }
        return std::nullopt;
    }

    /// True when the boolean flag is present anywhere on the command line.
    [[nodiscard]] bool has(const std::string& flag) const {
        for (const auto& arg : args_) {
            if (arg == flag) return true;
        }
        return false;
    }

    [[nodiscard]] std::string require(const std::string& flag) const {
        const auto value = option(flag);
        if (!value) throw std::runtime_error("missing required option " + flag);
        return *value;
    }

private:
    std::vector<std::string> args_;
};

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    if (!f) throw IoError("cannot open " + path);
    std::stringstream buffer;
    buffer << f.rdbuf();
    if (f.bad()) throw IoError("read failed for " + path);
    return buffer.str();
}

/// Reads and parses a JSON artifact; parse diagnostics carry the file name.
json::Value load_json_file(const std::string& path) {
    const std::string text = read_file(path);
    try {
        return json::parse(text);
    } catch (const std::exception& error) {
        throw std::runtime_error(path + ": " + error.what());
    }
}

RiskNorm load_norm(const Args& args) {
    const std::string path = args.require("--norm");
    try {
        return risk_norm_from_json(load_json_file(path));
    } catch (const IoError&) {
        throw;
    } catch (const std::exception& error) {
        throw std::runtime_error(path + ": not a valid risk norm: " + error.what());
    }
}

IncidentTypeSet load_types(const Args& args) {
    const std::string path = args.require("--types");
    try {
        return incident_types_from_json(load_json_file(path));
    } catch (const IoError&) {
        throw;
    } catch (const std::exception& error) {
        throw std::runtime_error(path + ": not a valid incident-type catalog: " +
                                 error.what());
    }
}

using Solver = Allocation (*)(const AllocationProblem&);

/// Resolves --solver to its function up front so an unknown name is
/// diagnosed before any artifact file is read.
Solver solver_by_name(const std::string& name) {
    if (name == "proportional") {
        return [](const AllocationProblem& p) { return allocate_proportional(p); };
    }
    if (name == "inverse-cost") {
        return [](const AllocationProblem& p) { return allocate_inverse_cost(p); };
    }
    if (name == "water-filling") {
        return [](const AllocationProblem& p) { return allocate_water_filling(p); };
    }
    throw ParseError("--solver", name,
                     "one of 'proportional', 'inverse-cost', 'water-filling'");
}

/// Parses --jobs: a positive decimal integer; defaults to the hardware
/// concurrency when absent. Thin wrapper over the checked parser (main()
/// turns the throw into exit code 1).
unsigned parse_jobs(const Args& args) {
    const auto value = args.option("--jobs");
    if (!value) return qrn::exec::default_jobs();
    return static_cast<unsigned>(tools::parse_u64("--jobs", *value, 1, kMaxJobs));
}

sim::TacticalPolicy policy_by_name(const std::string& name) {
    if (auto policy = sim::TacticalPolicy::named(name)) return *policy;
    throw ParseError("--policy", name,
                     "one of 'cautious', 'nominal', 'performance'");
}

sim::Odd odd_by_name(const std::string& name) {
    if (auto odd = sim::Odd::named(name)) return *odd;
    throw ParseError("--odd", name, "one of 'urban', 'highway'");
}

std::vector<TypeEvidence> load_evidence(const Args& args) {
    const std::string path = args.require("--evidence");
    try {
        return evidence_from_json(load_json_file(path));
    } catch (const IoError&) {
        throw;
    } catch (const std::exception& error) {
        const std::string what = error.what();
        // load_json_file already prefixed the path on raw JSON errors.
        if (what.rfind(path, 0) == 0) throw;
        throw std::runtime_error(path + ": " + what);
    }
}

int cmd_norm_example() {
    std::cout << to_json(RiskNorm::paper_example()).dump(2) << '\n';
    return 0;
}

int cmd_types_example() {
    std::cout << to_json(IncidentTypeSet::paper_vru_example()).dump(2) << '\n';
    return 0;
}

int cmd_types_generate(const Args& args) {
    BandingConfig config;
    if (const auto list = args.option("--thresholds")) {
        config.thresholds = tools::parse_csv_list("--thresholds", *list);
        for (std::size_t i = 0; i < config.thresholds.size(); ++i) {
            if (config.thresholds[i] <= 0.0 ||
                (i > 0 && config.thresholds[i] <= config.thresholds[i - 1])) {
                throw ParseError("--thresholds", *list,
                                 "positive, strictly increasing thresholds");
            }
        }
    }
    const InjuryRiskModel model;
    std::cout << to_json(generate_complete_types(model, config)).dump(2) << '\n';
    return 0;
}

int cmd_allocate(const Args& args) {
    // Validate the cheap argv tokens before touching the filesystem so a
    // typo is diagnosed even when the artifact files are absent.
    EthicalConstraint ethics;
    if (const auto cap = args.option("--ethics")) {
        ethics.max_share =
            tools::parse_probability("--ethics", *cap, /*inclusive_one=*/true);
    }
    const Solver solve =
        solver_by_name(args.option("--solver").value_or("water-filling"));
    const auto norm = load_norm(args);
    const auto types = load_types(args);
    const obs::ScopedSpan span("allocation");
    const InjuryRiskModel model;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix, {}, ethics);
    const auto allocation = solve(problem);
    std::cout << to_json(allocation, types).dump(2) << '\n';
    const auto goals = SafetyGoalSet::derive(problem, allocation);
    std::cerr << "\nSafety goals:\n";
    for (const auto& goal : goals.all()) {
        std::cerr << "  " << goal.id << ": " << goal.text << '\n';
    }
    return 0;
}

int cmd_verify(const Args& args) {
    const double confidence = tools::parse_probability(
        "--confidence", args.option("--confidence").value_or("0.95"));
    const auto norm = load_norm(args);
    const auto types = load_types(args);
    const InjuryRiskModel model;
    std::optional<AllocationProblem> problem;
    std::optional<Allocation> allocation;
    {
        const obs::ScopedSpan span("allocation");
        const auto matrix =
            ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
        problem.emplace(norm, types, matrix);
        allocation.emplace(allocate_water_filling(*problem));
    }
    const auto evidence = load_evidence(args);
    const obs::ScopedSpan span("eq1_verification");
    const auto report =
        verify_against_evidence(*problem, *allocation, evidence, confidence);
    std::cout << to_json(report).dump(2) << '\n';
    return report.norm_fulfilled() ? 0 : 2;
}

int cmd_simulate(const Args& args) {
    sim::FleetConfig config;
    config.policy = policy_by_name(args.option("--policy").value_or("nominal"));
    config.odd = odd_by_name(args.option("--odd").value_or("urban"));
    if (const auto seed = args.option("--seed")) {
        config.seed = tools::parse_u64("--seed", *seed);
    }
    const double hours = tools::parse_positive("--hours", args.require("--hours"));
    const unsigned jobs = parse_jobs(args);
    sim::IncidentLog log;
    {
        const obs::ScopedSpan span("fleet_sim");
        log = sim::FleetSimulator(config).run(hours, jobs);
    }
    std::cerr << "encounters: " << log.encounters
              << ", incidents: " << log.incidents.size()
              << ", emergency brakings: " << log.emergency_brakings
              << ", induced: " << log.induced_count() << '\n';
    const auto types = IncidentTypeSet::paper_vru_example();
    std::vector<TypeEvidence> evidence;
    {
        const obs::ScopedSpan span("incident_labelling");
        evidence = log.evidence_for(types);
    }
    std::cout << evidence_to_json(evidence).dump(2) << '\n';
    return 0;
}

/// The campaign summary lines. Every campaign path ends in the same
/// aggregate, so in-memory, --store and --distributed runs print the same
/// text: the observable face of the resume-determinism guarantee.
void print_campaign_summary(const sim::CampaignAggregate& agg) {
    std::cerr << "fleets: " << agg.shard_count
              << ", total exposure: " << agg.total_exposure.hours() << " h"
              << ", pooled incident rate: " << agg.pooled_incident_rate().to_string()
              << ", per-fleet rate mean/stddev: " << agg.per_fleet_rates.mean()
              << " / " << agg.per_fleet_rates.stddev() << '\n';
    if (agg.shard_count >= 2) {
        const stats::HeterogeneityResult homogeneity = agg.heterogeneity();
        std::cerr << "fleet homogeneity: chi2 " << homogeneity.chi_squared << " on "
                  << homogeneity.degrees_of_freedom << " dof (p = "
                  << homogeneity.p_value << ")\n";
    }
}

/// `qrn sched worker`: one worker process of a distributed campaign,
/// attached (coordinator pipe protocol) or standalone (lease claim loop).
int cmd_sched(const Args& args) {
    if (args.subcommand() != "worker") {
        std::cerr << "usage: qrn sched worker --store DIR [--ttl-ms N] "
                     "[--owner NAME] [--attached]\n";
        return 1;
    }
    sched::WorkerOptions options;
    options.store_dir = args.require("--store");
    if (options.store_dir.empty()) {
        throw ParseError("--store", options.store_dir, "a directory path");
    }
    options.lease_ttl_ms = tools::parse_u64(
        "--ttl-ms", args.option("--ttl-ms").value_or("10000"), 1, 86'400'000);
    if (const auto owner = args.option("--owner")) options.owner = *owner;
    if (args.has("--attached")) {
        return sched::run_attached_worker(std::cin, std::cout, options);
    }
    return sched::run_standalone_worker(options);
}

/// Campaign in importance-splitting mode: instead of pooling N independent
/// fleets, run the clone-and-prune multilevel ladder (docs/RARE_EVENTS.md)
/// over the fleet severity model and report the tail frequency of the
/// final severity level. The stdout document is bit-identical for every
/// --jobs value - the CI smoke job diffs two runs byte-for-byte.
int cmd_campaign_splitting(const Args& args, const std::string& levels_text) {
    sim::SplittingConfig config;
    config.levels = tools::parse_csv_list("--splitting", levels_text);
    for (std::size_t i = 0; i < config.levels.size(); ++i) {
        if (config.levels[i] <= 0.0 ||
            (i > 0 && config.levels[i] <= config.levels[i - 1])) {
            throw ParseError("--splitting", levels_text,
                             "positive, strictly increasing severity levels");
        }
    }
    if (const auto trials = args.option("--splitting-trials")) {
        config.trials_per_level =
            tools::parse_u64("--splitting-trials", *trials, 1, 10'000'000);
    }
    config.confidence = tools::parse_probability(
        "--confidence", args.option("--confidence").value_or("0.95"));
    sim::FleetConfig fleet;
    fleet.policy = policy_by_name(args.option("--policy").value_or("nominal"));
    fleet.odd = odd_by_name(args.option("--odd").value_or("urban"));
    if (const auto seed = args.option("--seed")) {
        fleet.seed = tools::parse_u64("--seed", *seed);
    }
    config.seed = fleet.seed;
    const unsigned jobs = parse_jobs(args);
    // Splitting replaces the fleet/hours exposure plan and never touches
    // the shard cache or the coordinator; naming the conflicts keeps a
    // scripted campaign from silently running something other than what
    // its flags promised.
    for (const char* flag : {"--fleets", "--hours", "--store", "--resume", "--distributed",
                             "--workers", "--sched-ttl-ms", "--sched-max-nodes"}) {
        if (args.has(flag)) {
            throw ParseError(flag, "",
                             "no " + std::string(flag) +
                                 " in --splitting mode (levels and "
                                 "--splitting-trials set the effort)");
        }
    }

    sim::SplittingResult result;
    {
        const obs::ScopedSpan span("splitting_campaign");
        result = sim::run_splitting(sim::FleetSeverityModel(fleet), config, jobs);
    }

    report::Table table({"level", "trials", "survived", "eff n", "eff k",
                         "conditional", "lower", "upper"});
    for (std::size_t c = 1; c < 8; ++c) table.set_align(c, report::Align::Right);
    for (const auto& level : result.estimate.levels) {
        table.add_row({report::fixed(level.threshold, 2),
                       std::to_string(level.trials),
                       std::to_string(level.successes),
                       std::to_string(level.effective_trials),
                       std::to_string(level.effective_successes),
                       report::scientific(level.conditional, 3),
                       report::scientific(level.lower, 3),
                       report::scientific(level.upper, 3)});
    }
    const auto rate = result.rate_interval();
    std::cerr << table.render() << "splitting: " << result.total_trials
              << " trials over " << result.estimate.levels.size()
              << " level(s), " << result.simulated_hours() << " h simulated, "
              << result.fresh_episodes << " fresh / " << result.replayed_episodes
              << " replayed episode(s)\n"
              << "tail rate: " << report::scientific(rate.point, 6) << "/h  ["
              << report::scientific(rate.lower, 6) << ", "
              << report::scientific(rate.upper, 6) << "]/h at "
              << report::percent(result.estimate.confidence, 0)
              << " confidence\n";

    json::Array levels;
    for (const auto& level : result.estimate.levels) {
        levels.push_back(json::Value(json::Object{
            {"threshold", level.threshold},
            {"trials", static_cast<double>(level.trials)},
            {"successes", static_cast<double>(level.successes)},
            {"effective_trials", static_cast<double>(level.effective_trials)},
            {"effective_successes",
             static_cast<double>(level.effective_successes)},
            {"conditional", level.conditional},
            {"lower", level.lower},
            {"upper", level.upper},
        }));
    }
    std::cout << json::Value(json::Object{
                                 {"kind", "qrn.splitting"},
                                 {"confidence", result.estimate.confidence},
                                 {"hours_per_trial", result.hours_per_trial},
                                 {"simulated_hours", result.simulated_hours()},
                                 {"tail_probability",
                                  json::Value(json::Object{
                                      {"point", result.estimate.point},
                                      {"lower", result.estimate.lower},
                                      {"upper", result.estimate.upper},
                                  })},
                                 {"rate_per_hour",
                                  json::Value(json::Object{
                                      {"point", rate.point},
                                      {"lower", rate.lower},
                                      {"upper", rate.upper},
                                  })},
                                 {"levels", std::move(levels)},
                             })
                     .dump(2)
              << '\n';
    return 0;
}

/// `qrn campaign`: every run ends in one aggregate and one summary. In
/// memory the aggregate folds the simulated logs; with --store it streams
/// the fleets' sealed shards, which either run_campaign_with_store (local
/// threads, reusing matching shards) or the distributed coordinator
/// (docs/DISTRIBUTED.md) sealed. Both fold through sim::fold_fleets, which
/// is why stdout is byte-identical across --jobs, worker counts and
/// kill/resume cycles.
int cmd_campaign(const Args& args) {
    if (const auto levels = args.option("--splitting")) {
        return cmd_campaign_splitting(args, *levels);
    }
    sim::CampaignConfig config;
    const std::string policy_name = args.option("--policy").value_or("nominal");
    const std::string odd_name = args.option("--odd").value_or("urban");
    config.base.policy = policy_by_name(policy_name);
    config.base.odd = odd_by_name(odd_name);
    if (const auto seed = args.option("--seed")) {
        config.base.seed = tools::parse_u64("--seed", *seed);
    }
    config.fleets = tools::parse_u64("--fleets", args.require("--fleets"), 1,
                                     kMaxFleets);
    config.hours_per_fleet =
        tools::parse_positive("--hours", args.require("--hours"));
    config.jobs = parse_jobs(args);
    const auto store_dir = args.option("--store");
    if (store_dir && store_dir->empty()) {
        throw ParseError("--store", *store_dir, "a directory path");
    }
    const bool resume = args.has("--resume");
    if (resume && !store_dir) {
        throw ParseError("--resume", "", "--store DIR alongside --resume");
    }
    const bool distributed = args.has("--distributed");
    // The coordinator's flags configure nothing else: a local run that
    // accepted one would not be the run its command line asked for.
    for (const char* flag : {"--workers", "--sched-ttl-ms", "--sched-max-nodes"}) {
        if (!distributed && args.has(flag)) {
            throw ParseError(flag, args.option(flag).value_or(""),
                             std::string(flag) + " only alongside --distributed");
        }
    }
    sched::CoordinatorConfig coord;
    sched::DagBudget budget = sched::DagBudget::campaign_default();
    if (distributed) {
        if (!store_dir) {
            throw ParseError("--distributed", "",
                             "--store DIR alongside --distributed (the store "
                             "is the coordination substrate)");
        }
        coord.store_dir = *store_dir;
        coord.workers = static_cast<unsigned>(tools::parse_u64(
            "--workers", args.option("--workers").value_or("2"), 1, 256));
        coord.lease_ttl_ms = tools::parse_u64(
            "--sched-ttl-ms", args.option("--sched-ttl-ms").value_or("10000"), 1,
            86'400'000);
        if (const auto cap = args.option("--sched-max-nodes")) {
            budget.node_count_hard =
                tools::parse_u64("--sched-max-nodes", *cap, 1, kMaxFleets + 3);
        }
    }

    const auto types = IncidentTypeSet::paper_vru_example();
    sim::CampaignAggregate agg;
    if (!store_dir) {
        sim::CampaignResult result;
        {
            const obs::ScopedSpan span("fleet_sim");
            result = sim::run_campaign(config);
        }
        const obs::ScopedSpan span("incident_labelling");
        agg = result.aggregate(types);
    } else {
        // Opening a Store creates its directory, so a mistyped --resume
        // path is refused before that, as the read-only store commands do,
        // and a distributed campaign is compiled and checked against its
        // DAG budget before it: a rejected campaign leaves nothing behind.
        std::error_code ec;
        if (resume && !std::filesystem::is_directory(*store_dir, ec)) {
            throw IoError("cannot --resume: no store directory '" + *store_dir +
                          "' (run once with --store first)");
        }
        // The incident-type catalog is part of every cache key: evidence
        // computed against different types must never reuse each other's
        // shards.
        const std::string inputs_digest = sched::campaign_inputs_digest();
        sched::CampaignPlan plan;
        sched::Dag dag;
        std::optional<obs::ScopedSpan> compile_span;
        if (distributed) {
            compile_span.emplace("sched_compile");
            plan = sched::make_plan(policy_name, odd_name, config, inputs_digest);
            dag = sched::build_campaign_dag(plan);
            const sched::BudgetCheck check =
                sched::check_budget(sched::compute_metrics(dag), budget);
            if (!check.diagnostics.empty()) std::cerr << check.diagnostics;
            if (!check.passed) return 1;
        }
        store::Store st(*store_dir);
        if (resume && !st.manifest_found()) {
            throw IoError("cannot --resume: no store manifest in '" + *store_dir +
                          "' (run once with --store first)");
        }
        std::vector<store::ShardEntry> sealed;
        if (distributed) {
            // The "generate" node: only a campaign within budget writes its
            // plan, exactly once per store; a rerun must describe the same
            // campaign, or the shards would lie.
            if (const auto existing = sched::read_plan(*store_dir)) {
                if (!(*existing == plan)) {
                    throw sched::SchedError(
                        "store '" + *store_dir +
                        "' already holds the plan of a different campaign; "
                        "use a fresh --store directory (or matching flags) "
                        "to resume");
                }
            } else {
                sched::write_plan(*store_dir, plan);
            }
            compile_span.reset();

            sched::CoordinatorStats stats;
            {
                const obs::ScopedSpan span("sched_dispatch");
                stats = sched::run_coordinator(plan, dag, coord);
            }
            std::cerr << "sched: " << stats.nodes_total << " node(s): "
                      << stats.nodes_completed << " completed, "
                      << stats.nodes_reused << " reused; "
                      << stats.nodes_dispatched << " dispatch(es), "
                      << stats.leases_stolen << " steal(s), "
                      << stats.worker_failures << " worker failure(s)\n";

            // Crash injection for the resume tests: die after the fleet
            // nodes are sealed but before the aggregate node runs.
            if (const char* fault =
                    std::getenv("QRN_SCHED_FAULT_COORD_BEFORE_AGGREGATE");
                fault != nullptr && fault[0] == '1') {
                std::_Exit(137);
            }

            // The "verify" node: every plan node's shard must be listed
            // under its plan key. The coordinator recorded only shards it
            // verified, and recording deleted every other shard of those
            // fleets, so the listing is what the aggregate reads.
            const auto listed = store::Store(*store_dir).entries();
            for (const auto& node : plan.nodes) {
                const auto entry = std::ranges::lower_bound(
                    listed, node.fleet_index, {}, &store::ShardEntry::fleet_index);
                const bool found =
                    entry != listed.end() && entry->fleet_index == node.fleet_index;
                if (!found || entry->cache_key != node.key) {
                    std::cerr << "sched: verify: "
                              << sched::plan_node_id(node.fleet_index)
                              << (found ? " is listed under the wrong key\n"
                                        : " is missing from the store\n");
                    continue;
                }
                sealed.push_back(*entry);
            }
            if (sealed.size() != plan.nodes.size()) return 2;
            std::cerr << "sched: verify ok (" << plan.nodes.size() << " node(s))\n";
        } else {
            store::StoreCampaignStats run;
            {
                const obs::ScopedSpan span("fleet_sim");
                run = store::run_campaign_with_store(config, st, inputs_digest);
            }
            std::cerr << "store: " << run.fleets_reused << " shard(s) reused, "
                      << run.fleets_simulated << " simulated, "
                      << run.shards_invalid << " invalid (" << *store_dir << ")\n";
            sealed = std::move(run.entries);
        }
        std::vector<store::ShardRef> refs;
        refs.reserve(sealed.size());
        for (const auto& entry : sealed) {
            refs.push_back({entry.fleet_index, st.shard_path(entry)});
        }
        const obs::ScopedSpan span("incident_labelling");
        agg = store::aggregate_evidence(refs, types, config.jobs);
    }
    print_campaign_summary(agg);
    std::cout << evidence_to_json(agg.evidence).dump(2) << '\n';
    return 0;
}

int cmd_pipeline(const Args& args) {
    const double hours = tools::parse_positive(
        "--hours", args.option("--hours").value_or("20000"));
    const unsigned jobs = parse_jobs(args);
    RiskNorm norm(ConsequenceClassSet::paper_example(),
                  {
                      Frequency::per_hour(5e-1), Frequency::per_hour(2e-1),
                      Frequency::per_hour(5e-2), Frequency::per_hour(1e-2),
                      Frequency::per_hour(5e-3), Frequency::per_hour(3e-3),
                  },
                  "cli pipeline norm");
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    std::optional<AllocationProblem> problem;
    std::optional<Allocation> allocation;
    {
        const obs::ScopedSpan span("allocation");
        const auto matrix =
            ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
        problem.emplace(norm, types, matrix);
        allocation.emplace(allocate_water_filling(*problem));
    }
    const auto goals = SafetyGoalSet::derive(*problem, *allocation);

    sim::FleetConfig config;
    config.policy = sim::TacticalPolicy::cautious();
    config.seed = 2024;
    sim::IncidentLog log;
    {
        const obs::ScopedSpan span("fleet_sim");
        log = sim::FleetSimulator(config).run(hours, jobs);
    }
    std::vector<TypeEvidence> evidence;
    {
        const obs::ScopedSpan span("incident_labelling");
        evidence = log.evidence_for(types);
    }
    std::optional<VerificationReport> verification;
    {
        const obs::ScopedSpan span("eq1_verification");
        verification.emplace(
            verify_against_evidence(*problem, *allocation, evidence, 0.95));
    }

    const auto tree = ClassificationTree::paper_example();
    std::optional<MeceReport> mece;
    {
        const obs::ScopedSpan span("mece_certification");
        // Index-pure sampler: incident i is a function of stream(1, i)
        // alone, so the MECE scan can run on any number of threads.
        mece.emplace(tree.certify_mece(
            20000,
            [](std::size_t i) {
                stats::Rng rng = stats::Rng::stream(1, i);
                Incident incident;
                incident.second = actor_type_from_index(static_cast<std::size_t>(
                    rng.uniform_int(1, kActorTypeCount - 1)));
                if (rng.bernoulli(0.5)) {
                    incident.mechanism = IncidentMechanism::NearMiss;
                    incident.min_distance_m = rng.uniform(0.0, 5.0);
                }
                incident.relative_speed_kmh = rng.uniform(0.0, 150.0);
                return incident;
            },
            10, jobs));
    }

    const obs::ScopedSpan span("safety_case");
    safety_case::CaseInputs inputs;
    inputs.problem = &*problem;
    inputs.allocation = &*allocation;
    inputs.goals = &goals;
    inputs.mece_certificate = &*mece;
    inputs.verification = &*verification;
    const auto sc = safety_case::build_case(inputs);
    std::cout << (args.has("--markdown") ? sc.render_markdown() : sc.render());
    return sc.holds() ? 0 : 2;
}

int usage() {
    std::cerr << "usage: qrn <command> [options]\n"
              << "commands: norm-example | types-example | types-generate |\n"
              << "          allocate | verify | simulate | campaign | pipeline |\n"
              << "          store <inspect|verify|merge> | sched worker | serve |\n"
              << "          --version\n"
              << "global options: --jobs N, --metrics PATH (run manifest)\n"
              << "campaign caching: --store DIR (shard cache), --resume\n"
              << "campaign scale-out: --distributed --workers N "
                 "[--sched-ttl-ms N] [--sched-max-nodes N]\n"
              << "campaign rare events: --splitting L1,L2,... "
                 "[--splitting-trials N]\n"
              << "exit codes: 0 ok, 1 usage/parse error, 2 norm not fulfilled\n"
              << "            or store corruption, 3 I/O error\n"
              << "see the file header of src/tools/qrn_cli.cpp for options\n";
    return 1;
}

#ifndef QRN_GIT_DESCRIBE
#define QRN_GIT_DESCRIBE "unknown"
#endif

int cmd_version() {
    std::cout << "qrn " << QRN_GIT_DESCRIBE << '\n';
    return 0;
}

/// The --store DIR value: a non-empty path.
std::string store_dir_option(const Args& args) {
    const std::string dir = args.require("--store");
    if (dir.empty()) throw ParseError("--store", dir, "a directory path");
    return dir;
}

/// The --store DIR of a read-only store command. It must name an existing
/// directory (exit 3 otherwise): opening a Store would create a mistyped
/// path. The caller then insists on a store header - a store worth
/// inspecting, verifying or merging is one a campaign has written to.
std::string require_store_dir(const Args& args) {
    const std::string dir = store_dir_option(args);
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
        throw IoError("no store directory '" + dir + "'");
    }
    return dir;
}

int cmd_store_inspect(const Args& args) {
    const unsigned jobs = parse_jobs(args);
    const std::string dir = require_store_dir(args);
    const store::Store st(dir);
    if (!st.manifest_found()) throw IoError("no store manifest in '" + dir + "'");
    const auto entries = st.entries();
    // Records and exposure come from each shard's sealed footer, through
    // the same full scan `store verify` makes; a damaged shard fails here.
    const auto infos = exec::parallel_map<store::ShardInfo>(
        jobs, entries.size(),
        [&](std::size_t i) { return store::verify_shard(st.shard_path(entries[i])); });
    std::uint64_t records = 0;
    double hours = 0.0;
    for (const auto& info : infos) {
        records += info.records;
        hours += info.totals.exposure_hours;
    }
    std::cout << "store: " << dir << '\n'
              << "git describe: " << QRN_GIT_DESCRIBE << '\n'
              << "shards: " << entries.size() << ", records: " << records
              << ", exposure: " << hours << " h\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::cout << "  fleet " << e.fleet_index << "  key "
                  << store::key_hex(e.cache_key) << "  records " << infos[i].records
                  << "  exposure " << infos[i].totals.exposure_hours << " h  file "
                  << e.file << '\n';
    }
    for (const auto& name : st.stray_temp_files()) {
        std::cerr << "warning: stray temp file (interrupted write): " << name
                  << '\n';
    }
    return 0;
}

int cmd_store_verify(const Args& args) {
    const unsigned jobs = parse_jobs(args);
    const std::string dir = require_store_dir(args);
    const store::Store st(dir);
    if (!st.manifest_found()) throw IoError("no store manifest in '" + dir + "'");
    const auto entries = st.entries();
    /// One shard's verdict; default-constructed = ok (parallel_map slot).
    struct Outcome {
        bool ok = true;
        std::string message;
    };
    // Anything that stops a shard from being fully read and checksummed -
    // truncation, bit rot, a missing file, a header naming another fleet
    // or key than the file name does - fails verification; the store
    // either proves itself whole or exits 2.
    const auto outcomes = exec::parallel_map<Outcome>(
        jobs, entries.size(), [&](std::size_t i) {
            try {
                const auto info = store::verify_shard(st.shard_path(entries[i]));
                if (info.cache_key != entries[i].cache_key ||
                    info.fleet_index != entries[i].fleet_index) {
                    return Outcome{false,
                                   entries[i].file +
                                       ": shard header disagrees with its file name"};
                }
                return Outcome{};
            } catch (const std::exception& error) {
                return Outcome{false, entries[i].file + ": " + error.what()};
            }
        });
    std::size_t failed = 0;
    for (const auto& outcome : outcomes) {
        if (outcome.ok) continue;
        ++failed;
        std::cerr << "qrn: store verify: " << outcome.message << '\n';
    }
    for (const auto& name : st.stray_temp_files()) {
        std::cerr << "warning: stray temp file (interrupted write): " << name
                  << '\n';
    }
    std::cout << "verified " << (entries.size() - failed) << "/" << entries.size()
              << " shard(s) in " << dir << '\n';
    return failed == 0 ? 0 : 2;
}

int cmd_store_merge(const Args& args) {
    const std::string out_path = args.require("--out");
    if (out_path.empty()) throw ParseError("--out", out_path, "a file path");
    const std::string dir = require_store_dir(args);
    const store::Store st(dir);
    if (!st.manifest_found()) throw IoError("no store manifest in '" + dir + "'");
    const auto entries = st.entries();
    if (entries.empty()) {
        throw IoError("store '" + dir + "' holds no shards to merge");
    }
    // The merged shard's key digests the constituent keys in fleet order,
    // so merges of different inputs (or orders) never collide.
    store::KeyHasher hasher;
    hasher.mix_string("qrn.store.merge.v1");
    for (const auto& e : entries) hasher.mix_u64(e.cache_key);
    store::ShardWriter writer(out_path, hasher.digest(), 0);
    store::ShardTotals totals;
    std::uint64_t records = 0;
    for (const auto& e : entries) {
        store::ShardReader reader(st.shard_path(e));
        const auto info = reader.for_each_block([&](std::span<const Incident> block) {
            for (const Incident& incident : block) writer.append(incident);
        });
        totals.exposure_hours += info.totals.exposure_hours;
        totals.encounters += info.totals.encounters;
        totals.emergency_brakings += info.totals.emergency_brakings;
        totals.degraded_hours += info.totals.degraded_hours;
        totals.odd_exits += info.totals.odd_exits;
        totals.mrm_executions += info.totals.mrm_executions;
        totals.unmonitored_exits += info.totals.unmonitored_exits;
        records += info.records;
    }
    const store::SealReceipt receipt = writer.seal(totals);
    if (receipt.records != records) {
        std::cerr << "store merge: sealed " << receipt.records
                  << " record(s) but the source shards held " << records
                  << "\n";
        return 2;
    }
    std::cout << "merged " << entries.size() << " shard(s), " << receipt.records
              << " record(s), " << totals.exposure_hours << " h into " << out_path
              << '\n';
    return 0;
}

int cmd_store(const Args& args) {
    const std::string sub = args.subcommand();
    if (sub == "inspect") return cmd_store_inspect(args);
    if (sub == "verify") return cmd_store_verify(args);
    if (sub == "merge") return cmd_store_merge(args);
    std::cerr << "usage: qrn store <inspect|verify|merge> --store DIR "
                 "[--out FILE] [--jobs N]\n";
    return 1;
}

/// Captures the run's metrics into a manifest, writes it to `path`, and
/// prints the phase summary to stderr through the report layer. Throws
/// IoError (exit 3) when the manifest cannot be persisted.
void write_metrics(const Args& args, const std::string& command,
                   const std::string& path, std::uint64_t wall_ns) {
    obs::Manifest manifest = obs::capture_manifest();
    manifest.command = command;
    manifest.git_describe = QRN_GIT_DESCRIBE;
    manifest.jobs = parse_jobs(args);
    if (const auto seed = args.option("--seed")) {
        manifest.seed = tools::parse_u64("--seed", *seed);
    }
    manifest.wall_ns = wall_ns;
    if (!obs::write_manifest(manifest, path)) {
        throw IoError("cannot write metrics manifest " + path);
    }

    report::Table table({"phase", "wall ms", "share"});
    table.set_align(1, report::Align::Right);
    table.set_align(2, report::Align::Right);
    for (const auto& phase : manifest.phases) {
        const double ms = static_cast<double>(phase.wall_ns) / 1e6;
        const double share = wall_ns > 0 ? static_cast<double>(phase.wall_ns) /
                                               static_cast<double>(wall_ns)
                                         : 0.0;
        table.add_row({std::string(phase.depth * 2, ' ') + phase.name,
                       report::fixed(ms, 2), report::percent(share)});
    }
    table.add_separator();
    table.add_row({"total", report::fixed(static_cast<double>(wall_ns) / 1e6, 2),
                   report::percent(wall_ns > 0 ? 1.0 : 0.0)});
    std::cerr << '\n' << table.render() << "metrics manifest: " << path << '\n';
}

// ---- serve -------------------------------------------------------------

/// Drain flag set by SIGTERM/SIGINT; a volatile sig_atomic_t store is the
/// only async-signal-safe communication the handler is allowed.
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void handle_serve_signal(int) { g_serve_stop = 1; }

/// Rewrites the --metrics manifest in place while the daemon runs, so an
/// operator (or the CI smoke job) can watch live serve.* counters without
/// stopping it. No stderr table - the final write in main() prints that.
void write_serve_manifest_snapshot(const Args& args, const std::string& path,
                                   std::uint64_t wall_ns) {
    obs::Manifest manifest = obs::capture_manifest();
    manifest.command = "serve";
    manifest.git_describe = QRN_GIT_DESCRIBE;
    manifest.jobs = parse_jobs(args);
    manifest.wall_ns = wall_ns;
    if (!obs::write_manifest(manifest, path)) {
        throw IoError("cannot write metrics manifest " + path);
    }
}

int cmd_serve(const Args& args) {
    serve::ServerConfig server_config;
    const auto socket_path = args.option("--socket");
    const auto port = args.option("--port");
    if (static_cast<bool>(socket_path) == static_cast<bool>(port)) {
        throw ParseError("--socket", socket_path.value_or(""),
                         "exactly one of --socket PATH or --port N");
    }
    if (socket_path) {
        if (socket_path->empty()) {
            throw ParseError("--socket", *socket_path, "a socket path");
        }
        server_config.socket_path = *socket_path;
    } else {
        // Port 0 asks the kernel for an ephemeral port; the resolved one
        // is printed on the "listening" line below.
        server_config.port =
            static_cast<std::uint16_t>(tools::parse_u64("--port", *port, 0, 65535));
    }
    server_config.queue_capacity = static_cast<std::size_t>(tools::parse_u64(
        "--queue", args.option("--queue").value_or("64"), 1, 1u << 20));

    serve::ServiceConfig service_config;
    service_config.store_dir = store_dir_option(args);
    service_config.shard_roll = tools::parse_u64(
        "--batch", args.option("--batch").value_or("4096"), 1, 10'000'000);
    service_config.jobs = parse_jobs(args);
    auto norm = load_norm(args);
    auto types = load_types(args);

    auto service = std::make_unique<serve::Service>(
        std::move(norm), std::move(types), service_config);
    serve::Server server(std::move(service), server_config);

    g_serve_stop = 0;
    std::signal(SIGTERM, handle_serve_signal);
    std::signal(SIGINT, handle_serve_signal);
    try {
        server.start();
    } catch (const serve::SocketError& error) {
        throw IoError(error.what());
    }
    if (!server_config.socket_path.empty()) {
        std::cerr << "qrn serve: listening on unix socket "
                  << server_config.socket_path << '\n';
    } else {
        std::cerr << "qrn serve: listening on 127.0.0.1:" << server.port()
                  << '\n';
    }

    const auto metrics_path = args.option("--metrics");
    const std::uint64_t start_ns = obs::now_ns();
    std::uint64_t ticks = 0;
    while (g_serve_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (metrics_path && ++ticks % 50 == 0) {
            write_serve_manifest_snapshot(args, *metrics_path,
                                          obs::now_ns() - start_ns);
        }
    }
    std::cerr << "qrn serve: draining\n";
    server.drain();
    const auto status = server.service().status();
    std::cerr << "qrn serve: drained; sealed " << status.shards_sealed
              << " shard(s), " << status.records_sealed << " record(s), "
              << status.exposure_sealed_hours << " h exposure\n";
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    return 0;
}

int dispatch(const Args& args, const std::string& command) {
    if (command == "norm-example") return cmd_norm_example();
    if (command == "types-example") return cmd_types_example();
    if (command == "types-generate") return cmd_types_generate(args);
    if (command == "allocate") return cmd_allocate(args);
    if (command == "verify") return cmd_verify(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "pipeline") return cmd_pipeline(args);
    if (command == "store") return cmd_store(args);
    if (command == "sched") return cmd_sched(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "--version" || command == "version") return cmd_version();
    return usage();
}

}  // namespace

int main(int argc, char** argv) {
    const Args args(argc, argv);
    try {
        const std::string command = args.command();
        const auto metrics_path = args.option("--metrics");
        if (metrics_path && metrics_path->empty()) {
            throw ParseError("--metrics", *metrics_path, "a writable file path");
        }
        std::uint64_t start_ns = 0;
        if (metrics_path) {
            obs::set_enabled(true);
            start_ns = obs::now_ns();
        }
        const int code = dispatch(args, command);
        // A usage error (1) never ran the workload, so there is nothing to
        // persist; code 2 (norm not fulfilled) is still a completed,
        // measured run and gets its manifest.
        if (metrics_path && code != 1) {
            write_metrics(args, command, *metrics_path, obs::now_ns() - start_ns);
        }
        return code;
    } catch (const IoError& error) {
        std::cerr << "qrn: " << error.what() << '\n';
        return 3;
    } catch (const store::StoreError& error) {
        // Corrupt bytes are a failed integrity check (2); a file that is
        // simply absent or unwritable is an I/O failure (3).
        std::cerr << "qrn: " << error.what() << '\n';
        return error.is_corruption() ? 2 : 3;
    } catch (const ParseError& error) {
        std::cerr << "qrn: " << error.what() << '\n';
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "qrn: " << error.what() << '\n';
        return 1;
    }
}
