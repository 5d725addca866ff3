#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads. Each builds its system from generated inputs
// only, runs `scale` seconds' worth of measured work (wall seconds for
// the socket backend; a fixed amount of simulated work calibrated to
// take about that long for the simulator backends, so simulated results
// are exact for a seed), verifies every output, and returns end-to-end
// plus per-layer metrics. With an enabled tracer it also records spans
// around its calls into the library.

#include "harness.h"

namespace perfbench {

Result RunSocketYcsbB(const Args& args, double scale, Tracer* tracer);
Result RunFasterYcsbB(const Args& args, double scale, Tracer* tracer);
Result RunMigrateYcsbA(const Args& args, double scale, Tracer* tracer);
Result RunFleetCampaign(const Args& args, double scale, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
