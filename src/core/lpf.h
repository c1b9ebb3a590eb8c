// Longest Path First (Section 5.1) and single-job schedule machinery.
//
// LPF schedules one job on p processors by always running the ready
// subjobs of greatest height.  For an out-forest:
//   * on m processors LPF is optimal (Lemma 5.3 / Corollary 5.4);
//   * on m/alpha processors LPF is alpha-competitive against OPT on m;
//   * the schedule's shape obeys Lemma 5.2: after its LAST underfull slot
//     t* (excluding the final slot), every slot is fully packed; moreover
//     every non-leaf subjob run at t* has its unique ancestor chain
//    occupying slots t*-1, t*-2, ..., 1 — which forces t* <= max depth
//     <= OPT.  This yields the Figure 2 head/tail picture: an arbitrary
//     "head" of at most OPT slots followed by a fully-packed rectangular
//     "tail" of length at most (alpha - 1) * OPT.
//
// The JobSchedule produced here is the input that the Most-Children
// replayer (most_children.h) and Algorithm A (alg_a.h) consume.
#pragma once

#include <string>
#include <vector>

#include "dag/dag.h"
#include "dag/metrics.h"
#include "sim/engine.h"

namespace otsched {

/// An explicit schedule of ONE job (release 0) on a fixed processor
/// budget p: slot s (1-based) runs `slots[s-1]`.
struct JobSchedule {
  int p = 0;
  std::vector<std::vector<NodeId>> slots;
  std::vector<Time> slot_of;  // per node; kNoTime = never (impossible here)

  Time length() const { return static_cast<Time>(slots.size()); }

  int load(Time slot) const {
    if (slot < 1 || slot > length()) return 0;
    return static_cast<int>(slots[static_cast<std::size_t>(slot - 1)].size());
  }

  const std::vector<NodeId>& at(Time slot) const;

  /// Last slot with load < p, or kNoTime if every slot is full.
  Time last_underfull_slot() const;

  /// Total scheduled subjobs.
  std::int64_t total() const;
};

/// Builds the LPF schedule of `dag` on p >= 1 processors.  Works for any
/// DAG (heights are well-defined); the optimality guarantees hold for
/// out-forests.
JobSchedule BuildLpfSchedule(const Dag& dag, const DagMetrics& metrics,
                             int p);
JobSchedule BuildLpfSchedule(const Dag& dag, int p);

/// Verifies a JobSchedule as a one-job schedule (release 0) on p
/// processors with ValidateSchedule (sim/validator.h), then that
/// `slot_of` agrees with the slots.  Returns an empty string when valid,
/// else a description of the first violation.
std::string CheckJobSchedule(const Dag& dag, const JobSchedule& schedule);

/// Structural check of Lemma 5.2 on an out-forest LPF schedule: at the
/// last underfull slot t (with t < length), every subjob j run at t that
/// is not a leaf has its unique ancestor chain at slots t-1, ..., 1.
struct Lemma52Report {
  bool holds = true;
  Time last_underfull = kNoTime;
  std::string detail;  // first violation, if any
};
Lemma52Report CheckLemma52(const Dag& dag, const JobSchedule& schedule);

/// Head/tail split of Figure 2: head = first `head_len` slots, tail = the
/// rest.  For LPF[m/alpha] with head_len = OPT[m], the tail is fully
/// packed except possibly its final slot and has length <= (alpha-1)*OPT.
struct HeadTailShape {
  Time head_len = 0;
  Time tail_len = 0;
  /// Tail slots (absolute slot numbers) with load < p, excluding the final
  /// slot of the schedule.  Empty iff the Figure 2 rectangle property
  /// holds.
  std::vector<Time> underfull_tail_slots;
};
HeadTailShape AnalyzeHeadTail(const JobSchedule& schedule, Time head_len);

/// Global LPF as an online multi-job policy (clairvoyant baseline): each
/// slot runs the m ready subjobs of greatest height, breaking ties toward
/// older jobs.  Not from the paper; included to separate "LPF shaping"
/// from Algorithm A's window structure in the experiments.
class GlobalLpfScheduler : public Scheduler {
 public:
  GlobalLpfScheduler() = default;
  std::string name() const override { return "global-lpf"; }
  bool requires_clairvoyance() const override { return true; }
  void pick(const SchedulerView& view, std::vector<SubjobRef>& out) override;

 private:
  struct Entry {
    std::int32_t height;
    std::size_t age_rank;
    SubjobRef ref;
  };
  std::vector<Entry> pool_;
};

}  // namespace otsched
