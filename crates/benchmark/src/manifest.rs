//! The frozen facts of the benchmark: workload names and shapes, slice
//! sizes, and the metric tables. `BENCHMARK.json` at the repository
//! root repeats the names, units, directions and bounds; a unit test
//! holds the two together.
//!
//! Slice sizes are fixed *work*, chosen once so that a slice takes
//! about one second at the commit that added the benchmark on a 2-core
//! host. They are never tuned at run time: a faster program finishes a
//! run sooner, it does not get more work.

use crate::stats::Better;

pub const WORKLOADS: [&str; 5] = [
    "sim_d3",
    "sim_mgdd",
    "sim_fqn",
    "serve_saturated",
    "serve_paced",
];

/// One slice is planned for each second of `--seconds`.
pub const MIN_SLICES: usize = 4;
/// `--smoke` runs this many slices, each a tenth of the frozen size.
pub const SMOKE_SLICES: usize = 4;
pub const SMOKE_DIVISOR: usize = 10;
/// Set-up is performed this many times from scratch (once under
/// `--smoke`); the median is reported and the last instance is the one
/// the timed phase continues.
pub const SETUP_REPEATS: usize = 3;

// ---- simulated workloads -------------------------------------------

pub const SIM_LEAVES: usize = 64;
pub const SIM_FANOUTS: [usize; 3] = [4, 4, 4];
pub const SIM_PERIOD_NS: u64 = 1_000_000_000;
/// A step offers one reading from each of `SIM_LEAVES / 8` leaves (an
/// eighth of a sampling period); its wall time is the sims' `ack_ms`.
pub const SIM_STEPS_PER_PERIOD: u64 = 8;

pub const D3_WINDOW: usize = 1024;
pub const D3_SAMPLE: usize = 128;
pub const D3_RADIUS: f64 = 0.01;
pub const D3_MIN_NEIGHBORS: f64 = 2.0;
pub const D3_PERIODS_PER_SLICE: usize = 1000;

pub const MGDD_WINDOW: usize = 1024;
pub const MGDD_SAMPLE: usize = 128;
pub const MGDD_RULE: (f64, f64, f64) = (0.08, 0.01, 3.0);
pub const MGDD_PERIODS_PER_SLICE: usize = 350;

pub const FQN_WINDOW: usize = 512;
pub const FQN_K: f64 = 4.0;
pub const FQN_PERIODS_PER_SLICE: usize = 150;

pub const SAMPLE_FRACTION: f64 = 0.5;
/// Detector seeds are fixed; only the inputs follow `--seed`.
pub const DETECTOR_SEED: u64 = 21;

// ---- served workloads ----------------------------------------------

/// Both serve workloads stream the same 256 leaf streams.
pub const SERVE_STREAMS: usize = 256;
pub const SERVE_WINDOW: usize = 256;
pub const SERVE_SAMPLE: usize = 32;
pub const SERVE_RADIUS: f64 = 0.02;
pub const SERVE_MIN_NEIGHBORS: f64 = 2.0;
pub const SERVE_CONNECTIONS: usize = 2;
pub const SERVE_PERIOD_NS: u64 = 1_000_000_000;
/// `snod serve`'s defaults, except `checkpoint_every` (default 64). The
/// benchmark must keep its files inside its checkout, here on ext4,
/// where one checkpoint (write + rename) costs about 0.8 ms of kernel
/// time that varies twofold from minute to minute: at 64 that is half
/// the daemon's CPU and ±15 % on every serve number (±2 % on tmpfs). At
/// 1024 the filesystem is a few percent and tenants checkpoint about
/// every one to two seconds, by count or by the 2 s interval.
pub const CHECKPOINT_EVERY: u64 = 1024;
pub const CHECKPOINT_INTERVAL_MS: u64 = 2_000;
pub const QUEUE_CAPACITY: usize = 256;

/// `serve_saturated`: 256 tenants × 1 leaf, closed loop, per-tenant
/// in-flight window counted on the `received` mark.
pub const SATURATED_WINDOW: u64 = 32;
pub const SATURATED_READINGS_PER_SLICE: u64 = 262_144;

/// `serve_paced`: 16 tenants × 16 leaves (`fanouts [4, 4]`), open loop.
pub const PACED_TENANT_LEAVES: usize = 16;
pub const PACED_FANOUTS: [usize; 2] = [4, 4];
pub const PACED_RATE_PER_S: u64 = 8_000;
pub const PACED_READINGS_PER_SLICE: u64 = 7_680;
/// A slice in which the generator ran later than this at p99 was
/// disturbed; a run with fewer than a quarter of its slices undisturbed
/// is invalid.
pub const GEN_LATE_LIMIT_MS: f64 = 1.0;
/// Tenants whose `Query` rows are compared with an in-process run.
pub const SAMPLED_TENANTS: usize = 8;

// ---- metrics ---------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is rejected.
    pub bound: f64,
    /// Per-layer only: the layer, and what the metric should move.
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        layer: "",
        moves: "",
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload on an untraced run.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("readings_per_s", "1/s", Higher, 0.20),
    e2e("ack_ms_p50", "ms", Lower, 0.25),
    e2e("cpu_us_per_reading", "us", Lower, 0.25),
    e2e("leaf_precision", "ratio", Higher, 0.15),
    e2e("leaf_recall", "ratio", Higher, 0.10),
    e2e("tx_bytes_per_reading", "B", Lower, 0.05),
    e2e("state_bytes_per_node", "B", Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Reported by every workload on a traced run; a layer that does no
/// work in a workload reports 0 on the result line and `null` in the
/// summary files.
pub const PER_LAYER: [MetricDef; 46] = [
    layer(
        "sketch",
        "sketch.chain_push_ns",
        "ns",
        Lower,
        "readings_per_s on sim_d3, sim_mgdd; none on sim_fqn",
    ),
    layer(
        "sketch",
        "sketch.variance_push_ns",
        "ns",
        Lower,
        "readings_per_s on sim_d3, sim_mgdd; none on sim_fqn",
    ),
    layer(
        "sketch",
        "sketch.sample_turnover",
        "ratio",
        Lower,
        "core.model_rebuilds_per_kreading, then readings_per_s on sim_d3, sim_mgdd",
    ),
    layer(
        "density",
        "density.build_us",
        "us",
        Lower,
        "readings_per_s and ack_ms_p99 on sim_d3, sim_mgdd",
    ),
    layer(
        "density",
        "density.query_ns",
        "ns",
        Lower,
        "readings_per_s on sim_d3, serve_*; none on sim_mgdd, sim_fqn",
    ),
    layer(
        "density",
        "density.kernels_per_query",
        "count",
        Lower,
        "density.query_ns",
    ),
    layer(
        "density",
        "density.batch_counts_us",
        "us",
        Lower,
        "readings_per_s on sim_mgdd only",
    ),
    layer(
        "outlier",
        "outlier.distance_check_ns",
        "ns",
        Lower,
        "readings_per_s on sim_d3, serve_*",
    ),
    layer(
        "outlier",
        "outlier.mdef_eval_us",
        "us",
        Lower,
        "readings_per_s on sim_mgdd",
    ),
    layer(
        "robust",
        "robust.qn_push_ns",
        "ns",
        Lower,
        "readings_per_s and state_bytes_per_node on sim_fqn only",
    ),
    layer(
        "robust",
        "robust.qn_query_us",
        "us",
        Lower,
        "readings_per_s on sim_fqn only",
    ),
    layer(
        "core",
        "core.leaf_step_ns",
        "ns",
        Lower,
        "readings_per_s on every sim_*, by at most core.leaf_share",
    ),
    layer(
        "core",
        "core.leader_msg_ns",
        "ns",
        Lower,
        "readings_per_s on every sim_*",
    ),
    layer(
        "core",
        "core.model_rebuilds_per_kreading",
        "count",
        Lower,
        "ack_ms_p99 on sim_d3, sim_mgdd",
    ),
    layer(
        "core",
        "core.escalations_per_kreading",
        "count",
        Lower,
        "tx_bytes_per_reading on sim_d3, sim_fqn",
    ),
    layer(
        "core",
        "core.leaf_share",
        "ratio",
        Lower,
        "caps what sketch+density+outlier+robust can buy on sim_*",
    ),
    layer(
        "simnet",
        "simnet.events_per_s",
        "1/s",
        Higher,
        "readings_per_s on sim_*, by at most simnet.dispatch_share",
    ),
    layer(
        "simnet",
        "simnet.par_events_per_s",
        "1/s",
        Higher,
        "none end to end today: the workloads run the sequential driver",
    ),
    layer(
        "simnet",
        "simnet.messages_per_reading",
        "count",
        Lower,
        "tx_bytes_per_reading and readings_per_s on sim_*",
    ),
    layer(
        "simnet",
        "simnet.dispatch_share",
        "ratio",
        Lower,
        "caps what simnet can buy on sim_*",
    ),
    layer(
        "engine",
        "engine.ingest_push_ns",
        "ns",
        Lower,
        "readings_per_s, cpu_us_per_reading on serve_*",
    ),
    layer(
        "engine",
        "engine.run_slice_us_per_reading",
        "us",
        Lower,
        "readings_per_s, cpu_us_per_reading on serve_*; ack_ms_p50 on serve_paced",
    ),
    layer(
        "engine",
        "engine.live_readings_per_s",
        "1/s",
        Higher,
        "the in-process reference serve.overhead_x divides by",
    ),
    layer(
        "persist",
        "persist.encode_us",
        "us",
        Lower,
        "ack_ms_p99 on serve_paced, readings_per_s on serve_saturated; none on sim_*",
    ),
    layer(
        "persist",
        "persist.write_file_us",
        "us",
        Lower,
        "ack_ms_p99 on serve_paced, readings_per_s on serve_saturated; none on sim_*",
    ),
    layer(
        "persist",
        "persist.restore_us",
        "us",
        Lower,
        "serve.recover_ms",
    ),
    layer(
        "persist",
        "persist.ckpt_bytes",
        "B",
        Lower,
        "state_bytes_per_node on serve_*",
    ),
    layer(
        "serve",
        "serve.wire_encode_ns",
        "ns",
        Lower,
        "cpu_us_per_reading on serve_* (acks)",
    ),
    layer(
        "serve",
        "serve.wire_decode_ns",
        "ns",
        Lower,
        "readings_per_s on serve_saturated",
    ),
    layer(
        "serve",
        "serve.wire_bytes_per_reading",
        "B",
        Lower,
        "tx_bytes_per_reading on serve_*",
    ),
    layer(
        "serve",
        "serve.acks_per_reading",
        "count",
        Lower,
        "cpu_us_per_reading on serve_*",
    ),
    layer(
        "serve",
        "serve.shed",
        "count",
        Lower,
        "failed readings; 0 at the seed",
    ),
    layer(
        "serve",
        "serve.duplicates",
        "count",
        Lower,
        "0 on a clean run",
    ),
    layer(
        "serve",
        "serve.checkpoints",
        "count",
        Lower,
        "serve.durable_ms_*, cpu_us_per_reading on serve_*",
    ),
    layer(
        "serve",
        "serve.threads",
        "count",
        Lower,
        "readings_per_s on serve_saturated (wake-ups on 2 cores)",
    ),
    layer(
        "serve",
        "serve.gen_late_ms_p99",
        "ms",
        Lower,
        "validity of serve_paced: above 1 ms the run is invalid",
    ),
    layer(
        "serve",
        "serve.durable_ms_p50",
        "ms",
        Lower,
        "checkpoint cadence, not speed",
    ),
    layer(
        "serve",
        "serve.durable_ms_p99",
        "ms",
        Lower,
        "checkpoint cadence, not speed",
    ),
    layer(
        "serve",
        "serve.recover_ms",
        "ms",
        Lower,
        "time to first ack on every tenant after kill -9",
    ),
    layer(
        "serve",
        "serve.shadow_us_per_reading",
        "us",
        Lower,
        "the CPU per reading the public stages explain",
    ),
    layer(
        "serve",
        "serve.overhead_x",
        "ratio",
        Lower,
        "readings_per_s on serve_saturated (ROADMAP item 2)",
    ),
    layer(
        "serve",
        "serve.unattributed_share",
        "ratio",
        Lower,
        "readings_per_s on serve_saturated, ack_ms_* on serve_paced",
    ),
    layer(
        "run",
        "sim.unattributed_share",
        "ratio",
        Lower,
        "below 0.10 the layer metrics explain the sim wall clock",
    ),
    layer(
        "run",
        "trace.overhead_share",
        "ratio",
        Lower,
        "what tracing costs; end-to-end metrics are measured with it off",
    ),
    layer(
        "run",
        "run.failed_share",
        "ratio",
        Lower,
        "failed, shed or never-acked readings / offered; 0 at the seed",
    ),
    layer(
        "run",
        "run.ack_ms_p99",
        "ms",
        Lower,
        "the tail of ack_ms; on serve_paced it is the host's sleep jitter as much as the daemon",
    ),
];

/// One line on why each workload exists.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "sim_d3" => "D3 on 85 simulated nodes: sketch + 1-d KDE build/range query + distance rule do most of the work; robust, persist, serve do none",
        "sim_mgdd" => "MGDD on the same topology with 2-d data: batched MDEF counting, replica rebuilds and downward broadcasts use the density layer differently from sim_d3",
        "sim_fqn" => "FQN on the same topology and protocol: Q_n push/query dominate, density and outlier idle; the control for changes aimed at the KDE path",
        "serve_saturated" => "closed loop, 256 one-leaf tenants in an out-of-process daemon: thread wake-ups, wire, queues and per-tenant checkpoints dominate, detector math is a minority",
        "serve_paced" => "open loop at 8000 readings/s into 16 sixteen-leaf tenants: same serve/engine/persist layers unsaturated, so latency cost of a throughput change shows",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_the_manifest() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS);
        for w in doc.get("workloads").unwrap().as_arr() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(w.get("why").and_then(Json::as_str), Some(why(name)));
            assert!(why(name).len() <= 200 && !why(name).is_empty());
        }
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(names(e2e), END_TO_END.map(|m| m.name));
        for (j, m) in e2e.as_arr().iter().zip(END_TO_END) {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap();
        assert_eq!(names(layers), PER_LAYER.map(|m| m.name));
        for (j, m) in layers.as_arr().iter().zip(PER_LAYER) {
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(j.as_obj().len(), 3, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is end-to-end");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        all.extend(WORKLOADS);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(all.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
