// Umbrella header for the QRN core library.
//
// Typical flow (see examples/quickstart.cpp):
//   1. Define a RiskNorm (consequence classes + acceptable frequencies).
//   2. Define an IncidentTypeSet (interactions within tolerance margins),
//      refining a MECE ClassificationTree.
//   3. Derive a ContributionMatrix (injury-risk model or empirical counts).
//   4. Allocate per-type frequency budgets (allocation.h solvers).
//   5. Derive the SafetyGoalSet; print the completeness argument.
//   6. Verify Eq. 1 against fleet evidence (verification.h).
#pragma once

#include "qrn/allocation.h"       // IWYU pragma: export
#include "qrn/banding.h"          // IWYU pragma: export
#include "qrn/classification.h"   // IWYU pragma: export
#include "qrn/contribution.h"     // IWYU pragma: export
#include "qrn/empirical.h"        // IWYU pragma: export
#include "qrn/frequency.h"        // IWYU pragma: export
#include "qrn/incident.h"         // IWYU pragma: export
#include "qrn/incident_type.h"    // IWYU pragma: export
#include "qrn/injury_risk.h"      // IWYU pragma: export
#include "qrn/risk_norm.h"        // IWYU pragma: export
#include "qrn/safety_goal.h"      // IWYU pragma: export
#include "qrn/serialize.h"        // IWYU pragma: export
#include "qrn/severity.h"         // IWYU pragma: export
#include "qrn/tolerance_margin.h" // IWYU pragma: export
#include "qrn/verification.h"     // IWYU pragma: export
