// Umbrella header: the full public API of the geopriv library.
//
// geopriv is a from-scratch C++17 implementation of
//   Gupte & Sundararajan, "Universally Optimal Privacy Mechanisms for
//   Minimax Agents", PODS 2010 (arXiv:1001.2767),
// including the geometric mechanism, minimax/Bayesian consumer models, the
// optimal-mechanism and optimal-interaction linear programs, the Theorem-2
// derivability characterization, and the Algorithm-1 multi-level release —
// together with the substrates they need (LP solver, exact rationals,
// database layer).  See README.md for a tour and DESIGN.md for the map.

#ifndef GEOPRIV_CORE_GEOPRIV_H_
#define GEOPRIV_CORE_GEOPRIV_H_

#include "core/accounting.h"       // IWYU pragma: export
#include "core/analysis.h"         // IWYU pragma: export
#include "core/baselines.h"        // IWYU pragma: export
#include "core/bayesian.h"         // IWYU pragma: export
#include "core/consumer.h"         // IWYU pragma: export
#include "core/derivability.h"     // IWYU pragma: export
#include "core/examples_catalog.h" // IWYU pragma: export
#include "core/geometric.h"        // IWYU pragma: export
#include "core/io.h"               // IWYU pragma: export
#include "core/loss.h"             // IWYU pragma: export
#include "core/mechanism.h"        // IWYU pragma: export
#include "core/multilevel.h"       // IWYU pragma: export
#include "core/oblivious.h"        // IWYU pragma: export
#include "core/optimal.h"          // IWYU pragma: export
#include "core/optimal_exact.h"    // IWYU pragma: export
#include "core/privacy.h"          // IWYU pragma: export
#include "db/database.h"           // IWYU pragma: export
#include "db/synthetic.h"          // IWYU pragma: export
#include "service/budget_ledger.h"   // IWYU pragma: export
#include "service/mechanism_cache.h" // IWYU pragma: export
#include "service/protocol.h"        // IWYU pragma: export
#include "service/query_pipeline.h"  // IWYU pragma: export
#include "service/server.h"          // IWYU pragma: export
#include "service/signature.h"       // IWYU pragma: export

#endif  // GEOPRIV_CORE_GEOPRIV_H_
