// Package powerflow implements a steady-state AC power-flow solver.
//
// It is the reproduction's substitute for Pandapower (§III-B of the paper):
// a Newton-Raphson solver over the bus/branch model of internal/powergrid,
// producing Pandapower-shaped results (vm_pu, va_degree, line p/q/i/loading).
// Like Pandapower it is a one-shot solver; internal/powersim re-runs it
// periodically (e.g. every 100 ms) with updated breaker states and load
// profiles to obtain the cyber range's discrete physical dynamics.
//
// Features beyond a toy solver, all exercised by the EPIC model:
//   - two-winding transformers with off-nominal taps,
//   - bus-bus coupler switches (fused via union-find),
//   - line/transformer switches opening branches,
//   - island detection with per-island slack election (an island containing a
//     generator keeps running — e.g. the EPIC micro-grid — while a sourceless
//     island is de-energised),
//   - optional generator reactive-power limit enforcement (PV→PQ switching),
//   - warm starts from a previous solution for the 100 ms loop.
//
// # Sparse engine and the per-topology cache
//
// Newton-Raphson runs on one linear-algebra path: CSR Ybus and Jacobian, and
// a sparse LU with a fill-reducing minimum-degree ordering (lu.go). The
// Jacobian assembly plan and the LU symbolic factorization are computed once
// per topology and bus-kind partition and replayed with fresh values on every
// NR iteration. Dense Gaussian elimination with partial pivoting (linalg.go)
// runs only as a fallback, when the statically-pivoted sparse factorization
// reports a singular pivot that partial pivoting might still survive; the
// differential tests also use it as their reference solve.
//
// A Solver (NewSolver) adds the warm-path topology cache the 100 ms loop
// relies on. The first Solve validates the network and builds the fused-node
// mapping, island assignment, branch admittances, CSR Ybus and the sparse
// symbolic state; consecutive Solves reuse all of it and only refresh the
// injections, voltage guesses and numeric values. The cache is keyed by a
// signature over everything structural or admittance-affecting:
//
//   - bus set (names, nominal voltages) and BaseMVA,
//   - line/transformer identity, electrical parameters, tap positions and
//     in-service flags,
//   - every switch (kind, endpoints, open/closed),
//   - generator and external-grid placement and generator in-service state
//     (they decide PV/slack bus kinds and island slack election).
//
// Any change there — a breaker trip, a line outage, a tap move, a generator
// dropping out — invalidates the cache and triggers a full rebuild on the
// next Solve. Load, static-generator and shunt values (including their
// in-service flags and load scalings) are deliberately NOT in the key: they
// only feed the per-solve power injections, which are recomputed every step,
// so the load-profile churn of the 100 ms loop always stays on the warm
// path. The package-level Solve is the cache-less one-shot form.
package powerflow
