// The Cho–Easwaran max-flow lower bound on OPT[I, m] (arXiv:1810.08342),
// generalized to release dates and fluctuating budgets.
//
// Fix a candidate flow bound F.  Any schedule with maximum flow <= F
// places each subjob v of a job released at r_j in the slot window
//
//   window(v) = [ r_j + depth(v),  r_j + F - height(v) + 1 ]
//
// while using at most c_t processors in slot t (c_t = m, or the
// BudgetTrace capacity on a degraded machine).  Dropping the precedence
// constraints WITHIN a window leaves a bipartite transportation problem
// — subjobs on one side, slots with capacities on the other.  With
// interval windows it needs no general max-flow solver: an
// earliest-deadline-first sweep over the slots (each slot serves up to
// c_t pending windows with the smallest `latest`) schedules every window
// iff any assignment does, in O(N log N) for N subjobs.  Every `latest`
// moves with F while the serving order does not, so one sweep at F = 0
// yields the maximum lateness L (largest serving slot - `latest`), the
// relaxation is feasible at F iff L - F <= 0, and the smallest feasible
// F* = L with OPT >= F*.  Certificates keep the method tag "max-flow":
// the bound is the max-flow value of that network, whatever algorithm
// decides it.
//
// The subsystem never asks anyone to trust the solver: infeasibility of
// F* - 1 is exported as a Hall-condition deficiency witness — the one
// slot interval T = [s, L] that ends at the first missed deadline L and
// starts after the last slot that emptied the queue or served a window
// closing after L, so demand(T) > capacity(T) — and packaged as an
// opt/dual_fitting Certificate whose verify() re-checks that inequality
// from the instance alone.
//
// On a single out-forest released alone the bound collapses to the
// Corollary 5.4 closed form (the depth profile is exactly the binding
// window family), which tests/opt_exactness_test.cc pins bit-for-bit.
#pragma once

#include <vector>

#include "job/instance.h"
#include "opt/dual_fitting.h"
#include "sim/faults.h"

namespace otsched {

/// Decides the window-assignment relaxation at `flow_bound`.  When the
/// relaxation is infeasible and `hall_witness` is non-null, fills it
/// with a 0/1 dual witness (one slot interval T with demand(T) >
/// capacity(T)); the witness is empty when some window is already empty
/// (flow_bound below a longest chain — no slot set is needed to prove
/// that).  `budget` degrades per-slot capacities;
/// nullptr means a healthy machine.
bool FlowRelaxationFeasible(const Instance& instance, int m, Time flow_bound,
                            const BudgetTrace* budget = nullptr,
                            std::vector<DualInterval>* hall_witness = nullptr);

/// The certified max-flow lower bound: the smallest F whose relaxation
/// is feasible (the EDF lateness at F = 0), packaged with the Hall
/// witness of one more sweep at F - 1.  The result
/// always passes Certificate::verify() (checked in-process before
/// returning) and dominates both DualFitCertificate and every
/// opt/lower_bounds component; opt/brute_force stays above it on small
/// instances.  value 0 is returned only for the empty instance.
Certificate MaxFlowCertificate(const Instance& instance, int m,
                               const BudgetTrace* budget = nullptr);

}  // namespace otsched
