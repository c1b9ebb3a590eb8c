// batched_stream: the Section 6 setting, live.
//
// Generates a batched instance (arrivals at integer multiples of OPT,
// certified OPT by construction), runs non-clairvoyant FIFO and the
// clairvoyant Algorithm A, and dumps both a summary table and a per-job
// flow CSV for downstream plotting.
//
//   $ ./batched_stream [m] [batches] [out.csv]
#include <cstdio>
#include <cstdlib>

#include "analysis/ratio.h"
#include "common/csv.h"
#include "common/table.h"
#include "core/alg_a_full.h"
#include "gen/certified.h"
#include "sched/fifo.h"

using namespace otsched;

int main(int argc, char** argv) {
  const int m = argc > 1 ? std::atoi(argv[1]) : 16;
  const int batches = argc > 2 ? std::atoi(argv[2]) : 12;
  const std::string csv_path =
      argc > 3 ? argv[3] : std::string("batched_stream_flows.csv");

  Rng rng(99);
  const Time delta = 8;
  CertifiedInstance cert = MakeSpacedSaturatedInstance(m, delta, batches, rng);
  std::printf(
      "batched stream: %d saturated batches, OPT = %lld exactly, m = %d\n"
      "(every batch carries m*OPT work: zero slack, the hard regime)\n\n",
      batches, static_cast<long long>(cert.opt), m);

  TextTable table({"policy", "max-flow", "ratio-vs-OPT", "mean-flow"});

  FifoScheduler fifo;
  const RatioMeasurement fifo_run =
      MeasureRatio(cert.instance, m, fifo, cert.opt);
  table.row(fifo_run.scheduler, fifo_run.max_flow, fifo_run.ratio,
            fifo_run.flow_stats.mean);

  AlgAScheduler::Options options;
  options.known_opt = 2 * cert.opt;  // releases are multiples of OPT = OPT'/2
  AlgAScheduler alg_a(options);
  const RatioMeasurement a_run =
      MeasureRatio(cert.instance, m, alg_a, cert.opt);
  table.row(a_run.scheduler, a_run.max_flow, a_run.ratio,
            a_run.flow_stats.mean);

  table.print();

  // Per-job flows for plotting.
  {
    FifoScheduler fifo2;
    const SimResult run = Simulate(cert.instance, m, fifo2);
    CsvWriter csv(csv_path, {"job", "release", "flow"});
    for (JobId i = 0; i < cert.instance.job_count(); ++i) {
      csv.row(static_cast<long long>(i),
              static_cast<long long>(cert.instance.job(i).release()),
              static_cast<long long>(
                  run.flows.flow[static_cast<std::size_t>(i)]));
    }
    std::printf("\nper-job FIFO flows written to %s\n", csv_path.c_str());
  }
  return 0;
}
