#include "qrn/verification.h"

#include <algorithm>
#include <stdexcept>

namespace qrn {

namespace {

constexpr double kTolerance = 1e-12;

ClassVerdict judge(double point, double upper, double limit) {
    if (point > limit * (1.0 + kTolerance)) return ClassVerdict::Violated;
    if (upper > limit * (1.0 + kTolerance)) return ClassVerdict::PointFulfilled;
    return ClassVerdict::Fulfilled;
}

}  // namespace

std::string_view to_string(ClassVerdict verdict) noexcept {
    switch (verdict) {
        case ClassVerdict::Fulfilled: return "FULFILLED";
        case ClassVerdict::PointFulfilled: return "POINT-ONLY";
        case ClassVerdict::Violated: return "VIOLATED";
    }
    return "unknown";
}

bool VerificationReport::norm_fulfilled() const noexcept {
    return std::all_of(classes.begin(), classes.end(), [](const ClassVerification& c) {
        return c.verdict == ClassVerdict::Fulfilled;
    });
}

bool VerificationReport::norm_point_fulfilled() const noexcept {
    return std::all_of(classes.begin(), classes.end(), [](const ClassVerification& c) {
        return c.verdict != ClassVerdict::Violated;
    });
}

VerificationReport verify_against_evidence(const AllocationProblem& problem,
                                           const Allocation& allocation,
                                           const std::vector<TypeEvidence>& evidence,
                                           double confidence) {
    const std::size_t n = problem.types().size();
    if (allocation.budgets.size() != n) {
        throw std::invalid_argument("verify_against_evidence: budget/type mismatch");
    }
    if (evidence.size() != n) {
        throw std::invalid_argument(
            "verify_against_evidence: exactly one evidence entry per incident type");
    }
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw std::invalid_argument("verify_against_evidence: confidence in (0, 1)");
    }

    // Match evidence to types by id.
    std::vector<const TypeEvidence*> by_type(n, nullptr);
    for (const auto& e : evidence) {
        const auto idx = problem.types().index_of(e.incident_type_id);
        if (!idx) {
            throw std::invalid_argument("verify_against_evidence: unknown incident type " +
                                        e.incident_type_id);
        }
        if (by_type[*idx] != nullptr) {
            throw std::invalid_argument("verify_against_evidence: duplicate evidence for " +
                                        e.incident_type_id);
        }
        by_type[*idx] = &e;
    }

    VerificationReport report;
    report.confidence = confidence;

    std::vector<double> point(n, 0.0), upper(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        const TypeEvidence& e = *by_type[k];
        if (e.exposure.hours() <= 0.0) {
            throw std::invalid_argument("verify_against_evidence: exposure must be > 0 (" +
                                        e.incident_type_id + ")");
        }
        const stats::RateObservation obs{e.events, e.exposure.hours()};
        point[k] = stats::rate_mle(obs);
        upper[k] = stats::rate_upper_bound(obs, confidence);

        GoalVerification g;
        g.incident_type_id = e.incident_type_id;
        g.budget = allocation.budgets[k];
        g.point_rate = Frequency::per_hour(point[k]);
        g.upper_rate = Frequency::per_hour(upper[k]);
        g.verdict = judge(point[k], upper[k], g.budget.per_hour_value());
        report.goals.push_back(std::move(g));
    }

    for (std::size_t j = 0; j < problem.norm().size(); ++j) {
        ClassVerification c;
        c.class_id = problem.norm().classes().at(j).id;
        c.limit = problem.norm().limit(j);
        double p = 0.0, u = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            const double frac = problem.matrix().fraction(j, k);
            p += frac * point[k];
            u += frac * upper[k];
        }
        c.point_usage = Frequency::per_hour(p);
        c.upper_usage = Frequency::per_hour(u);
        c.verdict = judge(p, u, c.limit.per_hour_value());
        report.classes.push_back(std::move(c));
    }
    return report;
}

ExposureHours exposure_to_demonstrate(Frequency budget, double confidence) {
    return ExposureHours(
        stats::exposure_needed_for_zero_events(budget.per_hour_value(), confidence));
}

}  // namespace qrn
