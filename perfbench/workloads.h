// The four benchmark workloads. Each builds its inputs from the workload
// seed (timed as set-up), computes its oracle untimed, runs its timed
// passes, checks the answers and fills an Outcome. The constants that
// fix each workload's shape and offered load live in its source file.
#pragma once

#include "common.h"

namespace sparta::perfbench {

/// §5.1 latency mode: Sparta-high over the cw query grid, each query
/// alone on WorkersFor(len) virtual workers.
Outcome RunPaperCw(const RunOptions& opt);

/// Open-loop voice-query mix on cw, page cache shrunk to 8% of the
/// index, through serve::Server with the protected policy and the flight
/// recorder on.
Outcome RunServeCw(const RunOptions& opt);

/// serve::LiveServer: MaxScore queries while a seeded document stream
/// is ingested into cw with refreshes and background merges.
Outcome RunLiveIngest(const RunOptions& opt);

/// serve::Coordinator: BMW over cw in 4 shards on 4 nodes with 2
/// replicas, seeded stalls on one node, a 2 ms hedge.
Outcome RunClusterHedged(const RunOptions& opt);

}  // namespace sparta::perfbench
