//! Subcommand implementations for the `snod` binary.

use std::io::{BufRead, BufReader, Write};

use snod_core::pipeline::{leaf_position, CheckpointPlan, OutlierPipeline};
use snod_core::{
    BackendKind, CentralizedBackend, D3Backend, D3Config, DetectorBackend, EstimatorConfig,
    FqnBackend, FqnConfig, MgddBackend, MgddConfig, MmdewBackend, MmdewNodeConfig, SensorEstimator,
    UpdateStrategy,
};
use snod_data::{per_dimension_stats, DataStream, GaussianMixtureStream, SensorStreams};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::ReadingTrace;

use crate::args::{DetectArgs, SimulateArgs, StatsArgs};
use crate::csv::for_each_reading;

/// A boxed error with a user-facing message.
pub type CliError = Box<dyn std::error::Error>;

/// Writes the process-wide metrics snapshot as JSON to `path` (no-op
/// when no path was requested). With the `obs` feature off the snapshot
/// is empty but still valid JSON, so scripts can rely on the file.
fn write_metrics(path: &Option<String>) -> Result<(), CliError> {
    if let Some(p) = path {
        std::fs::write(p, snod_obs::snapshot().to_json())
            .map_err(|e| format!("cannot write {p}: {e}"))?;
    }
    Ok(())
}

fn open_input(path: &Option<String>) -> Result<Box<dyn BufRead>, CliError> {
    match path {
        Some(p) => {
            let f = std::fs::File::open(p).map_err(|e| format!("cannot open {p}: {e}"))?;
            Ok(Box::new(BufReader::new(f)))
        }
        None => Ok(Box::new(BufReader::new(std::io::stdin()))),
    }
}

/// `snod detect`: stream verdicts; returns `(readings, outliers)`.
pub fn detect(args: &DetectArgs, out: &mut dyn Write) -> Result<(u64, u64), CliError> {
    let reader = open_input(&args.input)?;
    let sample = args.sample.unwrap_or_else(|| (args.window / 20).max(1));
    let warmup = args.warmup.unwrap_or(args.window as u64);
    let mdef_rule = match args.mdef {
        Some((r, ar, k)) => {
            Some(MdefConfig::new(r, ar, k).ok_or("invalid --mdef: need 0 < ar <= r and k > 0")?)
        }
        None => None,
    };
    let dist_rule = DistanceOutlierConfig::new(args.neighbors, args.radius);
    let normalise = |v: &mut Vec<f64>| {
        if let (Some(min), Some(max)) = (args.min, args.max) {
            for c in v.iter_mut() {
                *c = ((*c - min) / (max - min)).clamp(0.0, 1.0);
            }
        }
    };

    let mut estimator: Option<SensorEstimator> = None;
    let mut outliers = 0u64;
    let mut io_error: Option<std::io::Error> = None;
    let readings = for_each_reading(reader, |i, mut v| {
        normalise(&mut v);
        let est = estimator.get_or_insert_with(|| {
            SensorEstimator::new(
                EstimatorConfig::builder()
                    .window(args.window)
                    .sample_size(sample)
                    .dimensions(v.len())
                    .seed(0x5D0D)
                    .build()
                    .expect("validated by arg parsing"),
            )
        });
        if i >= warmup {
            let flagged = match &mdef_rule {
                Some(rule) => est
                    .evaluate_mdef(&v, rule)
                    .map(|e| e.is_outlier)
                    .unwrap_or(false),
                None => est
                    .is_distance_outlier_scaled(&v, &dist_rule)
                    .unwrap_or(false),
            };
            if flagged {
                outliers += 1;
                let coords: Vec<String> = v.iter().map(|c| format!("{c}")).collect();
                if let Err(e) = writeln!(out, "{i},{}", coords.join(",")) {
                    io_error = Some(e);
                }
            }
        }
        // The CSV check fixes the dimensionality, so only a non-finite
        // reading fails here; it is dropped, as the detectors drop it.
        let _ = est.observe(&v);
        Ok(())
    })?;
    if let Some(e) = io_error {
        return Err(e.into());
    }
    write_metrics(&args.metrics_out)?;
    Ok((readings, outliers))
}

/// `snod stats`: Figure-5-style per-dimension statistics table.
pub fn stats(args: &StatsArgs, out: &mut dyn Write) -> Result<u64, CliError> {
    let reader = open_input(&args.input)?;
    let mut points: Vec<Vec<f64>> = Vec::new();
    let n = for_each_reading(reader, |_, v| {
        points.push(v);
        Ok(())
    })?;
    match per_dimension_stats(&points) {
        None => writeln!(out, "no data")?,
        Some(stats) => {
            writeln!(
                out,
                "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "dim", "min", "max", "mean", "median", "stddev", "skew"
            )?;
            for (j, s) in stats.iter().enumerate() {
                writeln!(
                    out,
                    "{:<6} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                    j, s.min, s.max, s.mean, s.median, s.std_dev, s.skew
                )?;
            }
        }
    }
    Ok(n)
}

/// The `snod simulate` reading source: either a replayed trace or the
/// synthetic generator closure, optionally recording what it hands out.
struct SimSource<F> {
    replay: Option<ReadingTrace>,
    synth: F,
    record: Option<ReadingTrace>,
}

impl<F> snod_simnet::StreamSource for SimSource<F>
where
    F: FnMut(snod_simnet::NodeId, u64) -> Option<Vec<f64>>,
{
    fn next(&mut self, node: snod_simnet::NodeId, seq: u64) -> Option<Vec<f64>> {
        let value = match &mut self.replay {
            Some(trace) => trace.next(node, seq),
            None => (self.synth)(node, seq),
        }?;
        if let Some(trace) = &mut self.record {
            trace.record(node, seq, &value);
        }
        Some(value)
    }
}

/// `snod simulate`: run a distributed algorithm over a synthetic
/// hierarchy and report detections plus network cost.
pub fn simulate(args: &SimulateArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let window = 2_000usize;
    let est = EstimatorConfig::builder()
        .window(window)
        .sample_size(window / 20)
        .seed(0x51D)
        .build()
        .expect("valid configuration");
    let rule = DistanceOutlierConfig::new(window as f64 * 0.0045, 0.01);
    let sample_fraction = args.fraction;
    let mgdd = MgddBackend {
        cfg: MgddConfig {
            estimator: est,
            rule: MdefConfig::new(0.08, 0.01, 3.0).expect("valid rule"),
            sample_fraction,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        },
        broadcast_levels: vec![],
    };
    // FQN's sorted-buffer Q_n query is O(window) per reading, so the
    // robust window is deliberately smaller than the KDE one.
    let fqn = FqnConfig {
        dimensions: 1,
        window: 256,
        k_scale: 4.0,
        warmup: 64,
        sample_fraction,
        seed: 0x51D,
    };
    let mmdew = MmdewNodeConfig {
        sample_fraction,
        ..MmdewNodeConfig::default()
    };
    let d3 = D3Config {
        estimator: est,
        rule,
        sample_fraction,
    };
    let centralized = CentralizedBackend {
        rule,
        window_per_leaf: window,
    };
    match args.algorithm {
        BackendKind::D3 => simulate_with(D3Backend(d3), args, out),
        BackendKind::Mgdd => simulate_with(mgdd, args, out),
        BackendKind::Fqn => simulate_with(FqnBackend(fqn), args, out),
        BackendKind::Mmdew => simulate_with(MmdewBackend(mmdew), args, out),
        BackendKind::Centralized => simulate_with(centralized, args, out),
    }
}

/// [`simulate`] over one detector recipe.
fn simulate_with<B: DetectorBackend>(
    backend: B,
    args: &SimulateArgs,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    // Quad-ish hierarchy: fan-out 4 until a single root remains.
    let mut fanouts = Vec::new();
    let mut n = args.leaves;
    while n > 1 {
        fanouts.push(4usize);
        n = n.div_ceil(4);
    }
    let sim = snod_simnet::SimConfig::default().with_drop_probability(args.loss);
    // A reading lands every period, so "snapshot after K readings per
    // leaf" translates to the instant of the K-th reading wave. Any cut
    // point yields a bit-identical resume; this one is just meaningful
    // to a human reading `--checkpoint-at`.
    let ckpt = CheckpointPlan {
        resume_from: args.resume_from.clone().map(Into::into),
        checkpoint_out: args.checkpoint_out.clone().map(Into::into),
        checkpoint_at_ns: args
            .checkpoint_at
            .map(|k| k.saturating_mul(sim.reading_period_ns)),
    };
    let pipeline = OutlierPipeline::balanced(args.leaves, &fanouts, sim, backend)
        .map_err(|e| format!("pipeline setup failed: {e}"))?;
    let mut streams = SensorStreams::generate(args.leaves, |i| {
        GaussianMixtureStream::new(1, 77 + i as u64)
    });
    // The network persists everything *inside* the simulation, but the
    // stream generators live outside it, so a resumed run is asked for
    // reading `seq` on a freshly seeded stream. Fast-forwarding to the
    // requested position keeps resumed values identical to the ones the
    // original run saw (each leaf's seqs arrive in increasing order).
    let mut consumed = vec![0u64; args.leaves];
    let synth_topo = pipeline.topology().clone();
    let mut source = SimSource {
        replay: match &args.replay {
            Some(p) => Some(
                ReadingTrace::read_file(std::path::Path::new(p))
                    .map_err(|e| format!("cannot replay {p}: {e}"))?,
            ),
            None => None,
        },
        synth: move |node: snod_simnet::NodeId, seq: u64| {
            let leaf = leaf_position(&synth_topo, node)?;
            let mut v = None;
            while consumed[leaf] <= seq {
                v = Some(streams.next_for(leaf));
                consumed[leaf] += 1;
            }
            v
        },
        record: args.record.as_ref().map(|_| ReadingTrace::new()),
    };
    let report = pipeline
        .run_checkpointed(&mut source, args.readings, &ckpt)
        .map_err(|e| format!("simulation failed: {e}"))?;
    if let (Some(p), Some(trace)) = (&args.record, source.record.take()) {
        trace
            .write_file(std::path::Path::new(p))
            .map_err(|e| format!("cannot write {p}: {e}"))?;
        writeln!(out, "trace recorded to {p}")?;
    }
    if let Some(p) = &args.replay {
        writeln!(out, "replayed trace {p}")?;
    }
    if let Some(p) = &args.checkpoint_out {
        writeln!(out, "checkpoint written to {p}")?;
    }
    if let Some(p) = &args.resume_from {
        writeln!(out, "resumed from {p}")?;
    }

    writeln!(
        out,
        "{} over {} leaves ({} nodes), {} readings/leaf, f={}, loss={}",
        args.algorithm,
        args.leaves,
        pipeline.topology().node_count(),
        args.readings,
        args.fraction,
        args.loss
    )?;
    for (level, dets) in &report.detections_by_level {
        writeln!(out, "  level {level}: {} detections", dets.len())?;
    }
    let s = &report.stats;
    writeln!(
        out,
        "  network: {} messages ({:.2}/s), {} bytes, {} dropped, {:.4} J",
        s.messages,
        s.messages_per_second(),
        s.bytes,
        s.dropped,
        s.total_joules()
    )?;
    write_metrics(&args.metrics_out)?;
    Ok(())
}

/// `snod serve`: run the multi-tenant ingestion daemon until killed.
pub fn serve_daemon(args: &crate::args::ServeArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let cfg = snod_serve::ServeConfig {
        addr: args.addr.clone(),
        metrics_addr: args.metrics_addr.clone(),
        checkpoint_dir: args.checkpoint_dir.as_ref().map(std::path::PathBuf::from),
        queue_capacity: args.queue,
        tenant: snod_serve::TenantSpec {
            leaves: args.leaves,
            fanouts: args.fanouts.clone(),
            window: args.window,
            sample_size: args.sample.unwrap_or_else(|| (args.window / 8).max(1)),
            radius: args.radius,
            min_neighbors: args.neighbors,
            detector: args.detector,
            ..snod_serve::TenantSpec::default()
        },
        ..snod_serve::ServeConfig::default()
    };
    let server = snod_serve::serve(cfg).map_err(|e| format!("cannot start daemon: {e}"))?;
    writeln!(out, "listening on {}", server.addr())?;
    if let Some(m) = server.metrics_addr() {
        writeln!(out, "metrics on http://{m}/metrics (also /healthz, /escalations)")?;
    }
    if let Some(d) = &args.checkpoint_dir {
        writeln!(out, "checkpointing tenants to {d}")?;
    }
    out.flush()?;
    // Serve until the process is killed; tenants checkpoint on their own
    // cadence, so even a SIGKILL loses at most the un-checkpointed tail
    // — which at-least-once clients replay.
    loop {
        std::thread::park();
    }
}

/// `snod client`: stream a recorded trace into a daemon, wait for the
/// stream to complete, and print the detections.
pub fn serve_client(args: &crate::args::ClientArgs, out: &mut dyn Write) -> Result<(), CliError> {
    use std::time::Duration;

    // The daemon would reject this anyway; fail before dialing so a
    // typo doesn't sit in the redial loop.
    if !snod_serve::valid_tenant_name(&args.tenant) {
        return Err(format!(
            "invalid tenant name {:?} (1-64 chars from [A-Za-z0-9_-])",
            args.tenant
        )
        .into());
    }
    let trace = ReadingTrace::read_file(std::path::Path::new(&args.replay))
        .map_err(|e| format!("cannot replay {}: {e}", args.replay))?;
    let mut totals: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    let rows: Vec<(u32, u64, Vec<f64>)> = trace
        .rows()
        .map(|(node, seq, value)| (node.0, seq, value.to_vec()))
        .collect();
    for (node, seq, _) in &rows {
        let t = totals.entry(*node).or_insert(0);
        *t = (*t).max(seq + 1);
    }
    if rows.is_empty() {
        return Err(format!("trace {} holds no readings", args.replay).into());
    }

    let mut client = snod_serve::ServeClient::new(snod_serve::ClientConfig {
        subscribe: args.follow,
        ..snod_serve::ClientConfig::new(args.addr.clone())
    });
    let h = client.open(args.tenant.clone());
    let mut printed = 0usize;
    for (i, (node, seq, value)) in rows.iter().enumerate() {
        client.send(h, *node, *seq, value.clone());
        if i % 64 == 0 {
            client.pump(Duration::from_millis(1));
            if args.follow {
                printed = print_escalations(&client, h, printed, out)?;
            }
        }
    }
    client.finish(h, totals.into_iter().collect());
    let deadline = std::time::Instant::now() + Duration::from_secs(600);
    while !client.wait_finished(h, Duration::from_millis(200)) {
        if args.follow {
            printed = print_escalations(&client, h, printed, out)?;
        }
        if std::time::Instant::now() >= deadline {
            return Err("daemon did not complete the stream within 10 minutes".into());
        }
    }
    if args.follow {
        print_escalations(&client, h, printed, out)?;
    }

    let detections = client
        .query(h, Duration::from_secs(30))
        .ok_or("daemon did not answer the detection query")?;
    let mut by_level: std::collections::BTreeMap<u8, usize> = std::collections::BTreeMap::new();
    for (node, time_ns, level, value) in &detections {
        *by_level.entry(*level).or_insert(0) += 1;
        let coords: Vec<String> = value.iter().map(|c| format!("{c}")).collect();
        writeln!(out, "{node},{time_ns},{level},{}", coords.join(","))?;
    }
    eprintln!(
        "tenant {}: {} readings streamed, {} detections{}",
        args.tenant,
        rows.len(),
        detections.len(),
        if client.reconnects() > 0 {
            format!(" ({} reconnects)", client.reconnects())
        } else {
            String::new()
        }
    );
    for (level, n) in by_level {
        eprintln!("  level {level}: {n} detections");
    }
    Ok(())
}

fn print_escalations(
    client: &snod_serve::ServeClient,
    h: u32,
    printed: usize,
    out: &mut dyn Write,
) -> Result<usize, CliError> {
    let all = client.escalations(h);
    for (node, time_ns, level, value) in &all[printed..] {
        let coords: Vec<String> = value.iter().map(|c| format!("{c}")).collect();
        writeln!(out, "escalation: node {node} t={time_ns} level {level} [{}]", coords.join(","))?;
    }
    Ok(all.len())
}

/// `snod demo`: self-contained synthetic run.
pub fn demo(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "demo: (45, 0.01)-outliers over the paper's synthetic workload\n"
    )?;
    let mut stream = GaussianMixtureStream::new(1, 2_024);
    let mut est = SensorEstimator::new(
        EstimatorConfig::builder()
            .window(5_000)
            .sample_size(250)
            .seed(1)
            .build()
            .expect("valid"),
    );
    let rule = DistanceOutlierConfig::new(45.0, 0.01);
    let mut flagged = 0;
    for i in 0..15_000u64 {
        let v = stream.next_reading();
        if i >= 5_000 && est.is_distance_outlier_scaled(&v, &rule).unwrap_or(false) {
            flagged += 1;
            if flagged <= 10 {
                writeln!(out, "reading {i}: {:.4} flagged", v[0])?;
            }
        }
        est.observe(&v).expect("1-d");
    }
    writeln!(
        out,
        "\n{flagged} outliers in 10,000 scored readings; estimator used {} bytes",
        est.memory_bytes(2)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::DetectArgs;

    fn synthetic_csv(n: usize) -> String {
        let mut s = String::from("# synthetic\n");
        for i in 0..n {
            if i % 300 == 299 {
                s.push_str("0.95\n");
            } else {
                s.push_str(&format!("{}\n", 0.45 + 0.002 * ((i % 25) as f64)));
            }
        }
        s
    }

    #[test]
    fn detect_flags_injected_values() {
        let csv = synthetic_csv(3_000);
        let path = std::env::temp_dir().join("snod_cli_detect_test.csv");
        std::fs::write(&path, csv).unwrap();
        let args = DetectArgs {
            window: 800,
            sample: Some(80),
            radius: 0.02,
            neighbors: 10.0,
            warmup: Some(800),
            input: Some(path.to_string_lossy().into_owned()),
            ..DetectArgs::default()
        };
        let mut out = Vec::new();
        let (readings, outliers) = detect(&args, &mut out).unwrap();
        assert_eq!(readings, 3_000);
        assert!(outliers >= 5, "only {outliers} flagged");
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().all(|l| l.contains("0.95")), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn normalisation_maps_into_unit_interval() {
        let path = std::env::temp_dir().join("snod_cli_norm_test.csv");
        std::fs::write(&path, "-10\n0\n30\n").unwrap();
        let args = DetectArgs {
            window: 10,
            min: Some(-10.0),
            max: Some(30.0),
            input: Some(path.to_string_lossy().into_owned()),
            ..DetectArgs::default()
        };
        let mut out = Vec::new();
        let (readings, _) = detect(&args, &mut out).unwrap();
        assert_eq!(readings, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_prints_per_dimension_rows() {
        let path = std::env::temp_dir().join("snod_cli_stats_test.csv");
        std::fs::write(&path, "0.1,0.9\n0.2,0.8\n0.3,0.7\n").unwrap();
        let args = StatsArgs {
            input: Some(path.to_string_lossy().into_owned()),
        };
        let mut out = Vec::new();
        let n = stats(&args, &mut out).unwrap();
        assert_eq!(n, 3);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("0.2000"), "{text}"); // dim-0 mean
        assert!(text.contains("0.8000"), "{text}"); // dim-1 mean
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_writes_metrics_snapshot() {
        let path = std::env::temp_dir().join("snod_cli_metrics_test.json");
        let args = crate::args::SimulateArgs {
            leaves: 4,
            readings: 200,
            algorithm: BackendKind::D3,
            fraction: 0.5,
            loss: 0.0,
            metrics_out: Some(path.to_string_lossy().into_owned()),
            ..crate::args::SimulateArgs::default()
        };
        let mut out = Vec::new();
        simulate(&args, &mut out).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'), "{text}");
        if snod_obs::enabled() {
            assert!(text.contains("simnet.sends"), "{text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_checkpoint_resume_is_bit_identical() {
        for algorithm in [
            BackendKind::D3,
            BackendKind::Mmdew,
            BackendKind::Fqn,
            BackendKind::Centralized,
        ] {
            simulate_checkpoint_resume_case(algorithm);
        }
    }

    fn simulate_checkpoint_resume_case(algorithm: BackendKind) {
        let ck = std::env::temp_dir().join(format!("snod_cli_ckpt_test_{algorithm}.snod"));
        let base = crate::args::SimulateArgs {
            leaves: 4,
            readings: 300,
            algorithm,
            fraction: 0.5,
            loss: 0.05,
            ..crate::args::SimulateArgs::default()
        };
        // One uninterrupted run that also snapshots at reading 150.
        let snap = crate::args::SimulateArgs {
            checkpoint_out: Some(ck.to_string_lossy().into_owned()),
            checkpoint_at: Some(150),
            ..base.clone()
        };
        let mut full = Vec::new();
        simulate(&snap, &mut full).unwrap();
        // A second process would rebuild the pipeline and resume.
        let resume = crate::args::SimulateArgs {
            resume_from: Some(ck.to_string_lossy().into_owned()),
            ..base.clone()
        };
        let mut resumed = Vec::new();
        simulate(&resume, &mut resumed).unwrap();
        let strip = |buf: &[u8]| -> Vec<String> {
            String::from_utf8(buf.to_vec())
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("checkpoint written") && !l.starts_with("resumed from"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(strip(&full), strip(&resumed), "{algorithm}: resume diverged");
        std::fs::remove_file(&ck).ok();
    }

    #[test]
    fn simulate_record_then_replay_is_identical() {
        let trace = std::env::temp_dir().join("snod_cli_trace_test.csv");
        for algorithm in BackendKind::ALL {
            let base = crate::args::SimulateArgs {
                leaves: 4,
                readings: 400,
                algorithm,
                fraction: 0.5,
                loss: 0.05,
                ..crate::args::SimulateArgs::default()
            };
            // Record the synthetic streams.
            let record = crate::args::SimulateArgs {
                record: Some(trace.to_string_lossy().into_owned()),
                ..base.clone()
            };
            let mut recorded = Vec::new();
            simulate(&record, &mut recorded).unwrap();
            // Replay the same trace instead of the synthetic streams.
            let replay = crate::args::SimulateArgs {
                replay: Some(trace.to_string_lossy().into_owned()),
                ..base.clone()
            };
            let mut replayed = Vec::new();
            simulate(&replay, &mut replayed).unwrap();
            let strip = |buf: &[u8]| -> Vec<String> {
                String::from_utf8(buf.to_vec())
                    .unwrap()
                    .lines()
                    .filter(|l| !l.starts_with("trace recorded") && !l.starts_with("replayed trace"))
                    .map(str::to_owned)
                    .collect()
            };
            assert_eq!(
                strip(&recorded),
                strip(&replayed),
                "{algorithm}: replay diverged from the recording run"
            );
            assert!(strip(&recorded).iter().any(|l| l.contains("network:")));
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn simulate_replay_of_missing_trace_is_reported() {
        let args = crate::args::SimulateArgs {
            leaves: 4,
            readings: 100,
            algorithm: BackendKind::D3,
            fraction: 0.5,
            loss: 0.0,
            replay: Some("/nonexistent/definitely.trace".into()),
            ..crate::args::SimulateArgs::default()
        };
        let mut out = Vec::new();
        assert!(simulate(&args, &mut out).is_err());
    }

    #[test]
    fn demo_runs() {
        let mut out = Vec::new();
        demo(&mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("outliers"));
    }

    #[test]
    fn missing_file_is_reported() {
        let args = StatsArgs {
            input: Some("/nonexistent/definitely.csv".into()),
        };
        let mut out = Vec::new();
        assert!(stats(&args, &mut out).is_err());
    }
}
