/**
 * @file
 * Umbrella header: the whole agsim public API in one include.
 *
 * Fine-grained users should include the specific module headers; this
 * exists for quick experiments and downstream prototypes.
 */

#ifndef AGSIM_AGSIM_H
#define AGSIM_AGSIM_H

// Foundations
#include "common/config.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"

// Statistics
#include "stats/accumulator.h"
#include "stats/bootstrap.h"
#include "stats/histogram.h"
#include "stats/linear_fit.h"
#include "stats/percentile.h"
#include "stats/series.h"
#include "stats/table.h"

// Observability
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"

// Physical substrates
#include "clock/dpll.h"
#include "clock/droop_response.h"
#include "pdn/decomposition.h"
#include "pdn/didt.h"
#include "pdn/ir_drop.h"
#include "pdn/vrm.h"
#include "power/core_power_model.h"
#include "power/thermal_model.h"
#include "power/vf_curve.h"
#include "sensors/cpm.h"
#include "sensors/cpm_bank.h"
#include "sensors/telemetry.h"
#include "sensors/telemetry_csv.h"

// Platform
#include "chip/chip.h"
#include "chip/power_cap.h"
#include "system/server.h"
#include "system/simulation.h"

// Workloads and QoS
#include "qos/websearch.h"
#include "workload/generator.h"
#include "workload/library.h"
#include "workload/profile_io.h"
#include "workload/threaded_workload.h"

// Adaptive guardband scheduling (the paper's contribution)
#include "core/adaptive_mapping.h"
#include "core/ags.h"
#include "core/cluster_policy.h"
#include "core/demand_trace.h"
#include "core/freq_qos_model.h"
#include "core/guardband_report.h"
#include "core/mapping_loop.h"
#include "core/mips_predictor.h"
#include "core/placement.h"

#endif // AGSIM_AGSIM_H
