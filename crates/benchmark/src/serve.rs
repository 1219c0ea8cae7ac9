//! The two served workloads. The daemon runs in a child process of its
//! own; this process is the load generator and the checker.
//!
//! * `serve_saturated` — closed loop: 256 one-leaf tenants, 2
//!   connections, 32 readings in flight per tenant on the `received`
//!   mark, a fixed number of readings cut into slices by ack count.
//! * `serve_paced` — open loop: the same 256 leaf streams grouped as 16
//!   sixteen-leaf tenants, one reading due every 125 µs round-robin,
//!   each timed from the instant it was due.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use snod_core::D3Backend;
use snod_engine::{IngestBuffer, NodeId};
use snod_persist::{ByteWriter, Persist};
use snod_serve::wire::{encode_frame, FrameDecoder, Msg};

use crate::daemon::{Counters, DaemonProc, Shape};
use crate::inputs::{ReadingTable, Stream};
use crate::json::Json;
use crate::loadgen::{Conn, DueTable, GenLog, Layout};
use crate::manifest as m;
use crate::oracle::{self, Row, Schedule};
use crate::procfs;
use crate::report::Outcome;
use crate::shadow;
use crate::stats::{interpolate, percentile, slice_crossings, Better, Summary};
use crate::trace::{Counter, Span, Tracer, SAMPLE_EVERY};
use crate::RunArgs;

pub use crate::daemon::daemon_main;

struct Plan {
    shape: Shape,
    layout: Layout,
    open_loop: bool,
    /// Readings per stream in one slice.
    per_stream: u64,
    /// Closed-loop window per stream (warm-up, and the saturated run):
    /// a tenant's streams together stay below the daemon's queue.
    window: u64,
}

impl Plan {
    fn of(workload: &str, divisor: usize) -> Self {
        let shrink = |per_slice: u64| (per_slice / m::SERVE_STREAMS as u64 / divisor as u64).max(1);
        match workload {
            "serve_saturated" => Self {
                shape: Shape::Thin,
                layout: Layout {
                    tenants: m::SERVE_STREAMS,
                    leaves: 1,
                },
                open_loop: false,
                per_stream: shrink(m::SATURATED_READINGS_PER_SLICE),
                window: m::SATURATED_WINDOW,
            },
            "serve_paced" => Self {
                shape: Shape::Fat,
                layout: Layout {
                    tenants: m::SERVE_STREAMS / m::PACED_TENANT_LEAVES,
                    leaves: m::PACED_TENANT_LEAVES,
                },
                open_loop: true,
                per_stream: shrink(m::PACED_READINGS_PER_SLICE),
                window: (m::QUEUE_CAPACITY / 2 / m::PACED_TENANT_LEAVES) as u64,
            },
            other => unreachable!("{other} is not a served workload"),
        }
    }

    fn per_slice(&self) -> u64 {
        self.per_stream * m::SERVE_STREAMS as u64
    }

    fn nodes(&self) -> usize {
        let spec = self.shape.spec();
        self.layout.tenants
            * spec
                .topology()
                .expect("manifest topology is valid")
                .node_count()
    }
}

/// The daemon's checkpoint directory; removed when the run lets go of
/// it, whichever way the run ends.
struct CheckpointDir(PathBuf);

impl CheckpointDir {
    fn create(args: &RunArgs) -> Result<Self, String> {
        let dir = args
            .out_dir
            .join(format!("checkpoints_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for CheckpointDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A daemon with every tenant open and warm.
struct Warm {
    table: ReadingTable,
    daemon: DaemonProc,
    conns: Vec<Conn>,
    log: GenLog,
    dir: CheckpointDir,
}

/// Runs `f` on every connection, each on a thread of its own.
fn on_each<T: Send>(conns: &mut [Conn], f: impl Fn(&mut Conn) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns.iter_mut().map(|c| scope.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

fn merged(logs: Vec<GenLog>) -> GenLog {
    let mut all = GenLog::default();
    for log in logs {
        all.merge(log);
    }
    all
}

/// One instance of set-up: inputs, an empty checkpoint directory, the
/// daemon child, both connections, every Hello, and a warm-up of
/// `SERVE_WINDOW` readings per stream. Returns the seconds it took.
fn set_up(
    plan: &Plan,
    args: &RunArgs,
    per_stream_total: usize,
    epoch: Instant,
) -> Result<(Warm, f64), String> {
    let t0 = Instant::now();
    let table = ReadingTable::generate(
        Stream::Mixture1d,
        args.seed,
        m::SERVE_STREAMS,
        per_stream_total,
    );
    let dir = CheckpointDir::create(args)?;
    let daemon = DaemonProc::spawn(&dir.0, plan.shape)?;
    let mut conns = Vec::new();
    for c in 0..m::SERVE_CONNECTIONS {
        conns.push(Conn::open(daemon.addr, plan.layout, c)?);
    }
    let log = merged(on_each(&mut conns, |c| {
        c.closed_loop(&table, m::SERVE_WINDOW as u64, plan.window, epoch)
    }));
    if let Some(e) = log.errors.first() {
        return Err(format!("warm-up: {e}"));
    }
    Ok((
        Warm {
            table,
            daemon,
            conns,
            log,
            dir,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

/// Samples the daemon's CPU time (and thread count) while a phase runs.
fn sample_daemon<T>(
    pid: u32,
    epoch: Instant,
    phase: impl FnOnce() -> T,
) -> (T, Vec<(u64, f64)>, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut cpu = Vec::new();
            let mut threads = 0;
            loop {
                let done = stop.load(Ordering::Acquire);
                if let Some(s) = procfs::cpu_seconds(pid) {
                    cpu.push((epoch.elapsed().as_nanos() as u64, s));
                }
                if cpu.len() % 16 == 1 {
                    threads = threads.max(procfs::threads(pid).unwrap_or(0));
                }
                if done {
                    return (cpu, threads);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let out = phase();
        stop.store(true, Ordering::Release);
        let (cpu, threads) = sampler.join().expect("sampler thread");
        (out, cpu, threads)
    })
}

/// Per-slice values of the timed phase, cut by ack count.
struct Sliced {
    rps: Vec<f64>,
    ack_p50: Vec<f64>,
    ack_p99: Vec<f64>,
    durable_p50: Vec<f64>,
    durable_p99: Vec<f64>,
    late_p99: Vec<f64>,
    cpu_us: Vec<f64>,
}

fn slice_up(
    log: &mut GenLog,
    cpu: &[(u64, f64)],
    start_ns: u64,
    per_slice: u64,
    slices: usize,
) -> Option<Sliced> {
    let ends = slice_crossings(&log.acked, per_slice, slices)?;
    log.received_ms.sort_unstable_by_key(|s| s.0);
    log.durable_ms.sort_unstable_by_key(|s| s.0);
    log.late_ms.sort_unstable_by_key(|s| s.0);
    let mut out = Sliced {
        rps: Vec::new(),
        ack_p50: Vec::new(),
        ack_p99: Vec::new(),
        durable_p50: Vec::new(),
        durable_p99: Vec::new(),
        late_p99: Vec::new(),
        cpu_us: Vec::new(),
    };
    let within = |samples: &[(u64, f32)], from: u64, to: u64| -> Vec<f64> {
        let lo = samples.partition_point(|s| s.0 <= from);
        let hi = samples.partition_point(|s| s.0 <= to);
        let mut v: Vec<f64> = samples[lo..hi].iter().map(|s| f64::from(s.1)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let mut from = start_ns;
    for &to in &ends {
        out.rps
            .push(per_slice as f64 * 1e9 / (to - from).max(1) as f64);
        let acks = within(&log.received_ms, from, to);
        out.ack_p50.push(percentile(&acks, 0.50));
        out.ack_p99.push(percentile(&acks, 0.99));
        let durables = within(&log.durable_ms, from, to);
        out.durable_p50.push(percentile(&durables, 0.50));
        out.durable_p99.push(percentile(&durables, 0.99));
        out.late_p99
            .push(percentile(&within(&log.late_ms, from, to), 0.99));
        let spent = interpolate(cpu, to) - interpolate(cpu, from);
        out.cpu_us.push(spent * 1e6 / per_slice as f64);
        from = to;
    }
    Some(out)
}

fn phase_counts(log: &GenLog, shed: u64) -> Json {
    Json::obj([
        ("sent", Json::Num(log.sent as f64)),
        ("received_acked", Json::Num(log.received as f64)),
        ("durable_acked", Json::Num(log.durable as f64)),
        ("shed", Json::Num(shed as f64)),
        (
            "failed",
            Json::Num(log.sent.saturating_sub(log.received) as f64),
        ),
    ])
}

/// The in-process reference: one tenant's readings through
/// `LiveRuntime::run`. Returns its detection rows and the seconds taken.
fn reference_rows(plan: &Plan, table: &ReadingTable, tenant: usize, total: u64) -> (Vec<Row>, f64) {
    let mut rt = plan
        .shape
        .spec()
        .build_runtime()
        .expect("manifest tenant spec is valid");
    let first = tenant * plan.layout.leaves;
    let mut source =
        |node: NodeId, seq: u64| Some(table.value(first + node.index(), seq as usize).to_vec());
    let t0 = Instant::now();
    rt.run(&mut source, total);
    let secs = t0.elapsed().as_secs_f64();
    let rows = crate::sim::rows_of::<D3Backend>(rt.engines());
    (rows, secs)
}

fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum()
}

/// What the timed phase and the drain left behind.
struct Served<'a> {
    plan: &'a Plan,
    table: &'a ReadingTable,
    /// Readings per stream, warm-up included.
    total: u64,
    timed: GenLog,
    sliced: Option<Sliced>,
    /// Best-quartile per-slice p99 lateness of the open-loop sender.
    late: Option<Summary>,
    threads: usize,
    /// Checkpoint files the daemon wrote during the timed phase.
    checkpoints: u64,
    end: Counters,
}

pub fn run(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    let plan = Plan::of(workload, args.divisor);
    let mut o = Outcome::new(workload, args.traced);
    let total = m::SERVE_WINDOW as u64 + args.slices as u64 * plan.per_stream;
    let epoch = Instant::now();
    o.note("slice_readings", Json::Num(plan.per_slice() as f64));

    let mut setups = Vec::new();
    let mut warm = None;
    for _ in 0..args.setups {
        if let Some(Warm { daemon, .. }) = warm.take() {
            daemon.kill();
        }
        let (w, secs) = set_up(&plan, args, total as usize, epoch)?;
        setups.push(secs);
        warm = Some(w);
    }
    // `dir` is bound first so that it is dropped last: the daemon is
    // gone before its checkpoint directory is.
    let Warm {
        dir,
        table,
        mut daemon,
        mut conns,
        log: setup_log,
    } = warm.expect("set-up ran");
    let pid = daemon.pid();

    // ---- timed phase ----
    let before = daemon.counters()?;
    let start_ns = epoch.elapsed().as_nanos() as u64 + 20_000_000;
    let due = DueTable {
        start_ns,
        interval_ns: 1_000_000_000 / m::PACED_RATE_PER_S,
        first_seq: m::SERVE_WINDOW as u64,
        until_seq: total,
        streams: m::SERVE_STREAMS,
    };
    let (logs, cpu, threads) = sample_daemon(pid, epoch, || {
        on_each(&mut conns, |c| {
            if plan.open_loop {
                c.open_loop(&table, due, epoch)
            } else {
                // Both connections start together, at the slices' origin.
                while (epoch.elapsed().as_nanos() as u64) < start_ns {
                    std::hint::spin_loop();
                }
                c.closed_loop(&table, total, plan.window, epoch)
            }
        })
    });
    let mut timed = merged(logs);
    let after = daemon.counters()?;
    for e in &timed.errors {
        o.problem(format!("timed phase: {e}"));
    }
    let sliced = slice_up(&mut timed, &cpu, start_ns, plan.per_slice(), args.slices);
    o.check(sliced.is_some(), || {
        format!(
            "only {} of {} readings were acknowledged",
            timed.received, timed.sent
        )
    });
    let timed_s = timed
        .acked
        .last()
        .map_or(0.0, |e| (e.0.saturating_sub(start_ns)) as f64 / 1e9);
    let timed_cpu = cpu.last().map_or(0.0, |l| l.1) - cpu.first().map_or(0.0, |f| f.1);
    let cores = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
    o.note("daemon_utilisation", Json::num(timed_cpu / timed_s / cores));
    let late = match &sliced {
        Some(s) if plan.open_loop => Some(check_lateness(&mut o, args, &timed, s)),
        _ => None,
    };

    // ---- drain: Finish, FinishOk, Query ----
    o.attempted = table.readings() as u64;
    o.failed = (setup_log.sent - setup_log.received) + (timed.sent - timed.received);
    let mut rows_by_tenant: Vec<Vec<Row>> = Vec::new();
    let mut drain = GenLog::default();
    if o.failed == 0 {
        for result in on_each(&mut conns, |c| c.finish_and_query(total)) {
            match result {
                Ok((rows, log)) => {
                    rows_by_tenant.extend(rows);
                    drain.merge(log);
                }
                Err(e) => o.problem(format!("drain: {e}")),
            }
        }
    } else {
        o.problem(format!(
            "{} readings were shed or never acknowledged",
            o.failed
        ));
    }
    let end = daemon.counters()?;
    o.note(
        "phases",
        Json::obj([
            ("setup", phase_counts(&setup_log, before.shed)),
            ("timed", phase_counts(&timed, after.shed - before.shed)),
            ("drain", phase_counts(&drain, end.shed - after.shed)),
        ]),
    );
    o.check(end.shed == 0, || {
        format!("the daemon shed {} readings", end.shed)
    });
    o.check(end.duplicates == 0, || {
        format!(
            "the daemon saw {} duplicates on a clean run",
            end.duplicates
        )
    });
    o.check(end.worker_restarts == 0, || {
        format!("{} tenant workers crashed", end.worker_restarts)
    });
    o.check(rows_by_tenant.len() == plan.layout.tenants, || {
        "not every tenant reached FinishOk".to_string()
    });
    let score = check_outputs(&mut o, &plan, &table, &rows_by_tenant, total);
    let peak_rss = procfs::peak_rss_mib(pid).unwrap_or(f64::NAN);

    if args.traced {
        let served = Served {
            plan: &plan,
            table: &table,
            total,
            timed,
            sliced,
            late,
            threads,
            checkpoints: after.checkpoints - before.checkpoints,
            end,
        };
        per_layer(&mut o, args, &served, &dir.0, daemon)?;
        return Ok(o.finish());
    }

    daemon.shutdown()?;
    if let Some(s) = &sliced {
        o.set("readings_per_s", Summary::of_slices(&s.rps, Better::Higher));
        o.set("ack_ms_p50", Summary::of_slices(&s.ack_p50, Better::Lower));
        o.set(
            "cpu_us_per_reading",
            Summary::of_slices(&s.cpu_us, Better::Lower),
        );
    }
    o.set_exact("leaf_precision", score.precision());
    o.set_exact("leaf_recall", score.recall());
    let bytes_out = (setup_log.bytes_out + timed.bytes_out) as f64;
    o.set_exact("tx_bytes_per_reading", bytes_out / table.readings() as f64);
    o.set_exact(
        "state_bytes_per_node",
        checkpoint_bytes(&dir.0) as f64 / plan.nodes() as f64,
    );
    o.set_exact("peak_rss_mb", peak_rss);
    o.set("setup_s", Summary::of_median(&setups));
    Ok(o.finish())
}

/// Generator honesty: how late sends left, over the whole phase (a
/// note) and per slice (the value, held against the limit).
fn check_lateness(o: &mut Outcome, args: &RunArgs, timed: &GenLog, sliced: &Sliced) -> Summary {
    let late = Summary::of_slices(&sliced.late_p99, Better::Lower);
    let mut all: Vec<f64> = timed.late_ms.iter().map(|l| f64::from(l.1)).collect();
    all.sort_by(f64::total_cmp);
    let at = |p| Json::num(percentile(&all, p));
    o.note(
        "gen_late_ms",
        Json::obj([
            ("p50", at(0.5)),
            ("p90", at(0.9)),
            ("p99", at(0.99)),
            ("max", at(1.0)),
        ]),
    );
    // Held against the limit at full size only: a smoke run checks
    // outputs, and runs beside other smoke runs in the test.
    o.check(
        args.divisor > 1 || late.value <= m::GEN_LATE_LIMIT_MS,
        || {
            format!(
                "generator ran {:.3} ms late at p99 even in its best slices: the run is invalid",
                late.value
            )
        },
    );
    late
}

/// Every tenant's rows against the labels, and eight tenants' rows
/// against the in-process reference.
fn check_outputs(
    o: &mut Outcome,
    plan: &Plan,
    table: &ReadingTable,
    rows_by_tenant: &[Vec<Row>],
    total: u64,
) -> oracle::Score {
    let schedule = Schedule {
        leaves: plan.layout.leaves,
        period_ns: m::SERVE_PERIOD_NS,
    };
    let leaf_index = |n: u32| ((n as usize) < plan.layout.leaves).then_some(n as usize);
    let mut score = oracle::Score::default();
    let mut all_rows: Vec<Row> = Vec::new();
    for (t, rows) in rows_by_tenant.iter().enumerate() {
        let first = t * plan.layout.leaves;
        score.add(oracle::score_leaf_rows(
            rows,
            leaf_index,
            schedule,
            table,
            first,
            total as usize,
        ));
        // Node ids repeat across tenants: fold the tenant into the digest.
        all_rows.extend(
            rows.iter()
                .map(|r| (r.0 + (t as u32) * 1000, r.1, r.2, r.3.clone())),
        );
    }
    o.check(score.unmatched == 0, || {
        format!("{} leaf detections name no reading", score.unmatched)
    });
    if !rows_by_tenant.is_empty() {
        // The daemon is idle by now, so the checks share the two cores.
        let sampled: Vec<usize> = (0..m::SAMPLED_TENANTS)
            .map(|i| i * plan.layout.tenants / m::SAMPLED_TENANTS)
            .collect();
        let differing: Vec<usize> = std::thread::scope(|scope| {
            let halves: Vec<_> = sampled
                .chunks(m::SAMPLED_TENANTS / 2)
                .map(|half| {
                    scope.spawn(move || {
                        half.iter()
                            .copied()
                            .filter(|&t| {
                                rows_by_tenant[t] != reference_rows(plan, table, t, total).0
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread"))
                .collect()
        });
        o.check(differing.is_empty(), || {
            format!("tenants {differing:?}: served rows differ from the in-process run")
        });
    }
    o.note(
        "output_digest",
        Json::str(format!("{:016x}", oracle::digest_rows(&all_rows))),
    );
    o.note(
        "input_digest",
        Json::str(format!("{:016x}", table.digest())),
    );
    o.note("detections", Json::Num(all_rows.len() as f64));
    score
}

/// The traced run's tail: recovery after `kill -9`, the generator's and
/// the daemon's counters, the shadow leaf and the stage timings.
fn per_layer(
    o: &mut Outcome,
    args: &RunArgs,
    served: &Served<'_>,
    dir: &Path,
    daemon: DaemonProc,
) -> Result<(), String> {
    let Served {
        plan,
        table,
        total,
        timed,
        sliced,
        late,
        threads,
        checkpoints,
        end,
    } = served;
    let (plan, table, total) = (*plan, *table, *total);
    let mut tracer = Tracer::new();

    // kill -9, respawn on the same checkpoints, first ack on every tenant.
    daemon.kill();
    let t0 = Instant::now();
    let revived = DaemonProc::spawn(dir, plan.shape)?;
    let mut recovered = true;
    for c in 0..m::SERVE_CONNECTIONS {
        recovered &= Conn::open(revived.addr, plan.layout, c)?.resumed_at(total);
    }
    o.set_exact("serve.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    o.check(recovered, || {
        "a tenant did not resume from its checkpoint after kill -9".to_string()
    });
    revived.shutdown()?;

    let timed_readings = timed.received as f64;
    let checkpoints_per_reading = *checkpoints as f64 / timed_readings;
    let acks_per_reading = timed.ack_frames as f64 / timed_readings;
    o.set_exact(
        "serve.wire_bytes_per_reading",
        (timed.bytes_out + timed.bytes_in) as f64 / timed_readings,
    );
    o.set_exact("serve.acks_per_reading", acks_per_reading);
    o.set_exact("serve.shed", end.shed as f64);
    o.set_exact("serve.duplicates", end.duplicates as f64);
    o.set_exact("serve.checkpoints", *checkpoints as f64);
    o.set_exact("serve.threads", *threads as f64);
    if let Some(late) = late {
        o.set("serve.gen_late_ms_p99", *late);
    }
    o.set_exact("run.failed_share", o.failed as f64 / o.attempted as f64);

    let d3 = plan
        .shape
        .spec()
        .d3_config()
        .expect("manifest tenant spec is valid");
    shadow::d3_leaf(table, 0, &d3.estimator, &d3.rule, &mut tracer).report(o);
    let stages = Stages::measure(plan, table, dir, total as usize);
    stages.report(o);
    let live_rps =
        plan.layout.leaves as f64 * total as f64 / reference_rows(plan, table, 0, total).1;
    o.set_exact("engine.live_readings_per_s", live_rps);

    if let Some(s) = sliced {
        o.set(
            "run.ack_ms_p99",
            Summary::of_slices(&s.ack_p99, Better::Lower),
        );
        // A slice in which no checkpoint landed has no durable ack.
        let landed = |v: &[f64]| {
            v.iter()
                .copied()
                .filter(|x| x.is_finite())
                .collect::<Vec<_>>()
        };
        let (p50, p99) = (landed(&s.durable_p50), landed(&s.durable_p99));
        if !p50.is_empty() {
            o.set(
                "serve.durable_ms_p50",
                Summary::of_slices(&p50, Better::Lower),
            );
            o.set(
                "serve.durable_ms_p99",
                Summary::of_slices(&p99, Better::Lower),
            );
        }
        let served_rps = Summary::of_slices(&s.rps, Better::Higher).value;
        let cpu_us = Summary::of_slices(&s.cpu_us, Better::Lower).value;
        let shadow_us = (stages.decode.mean_ns() + stages.ingest_push.mean_ns()) / 1e3
            + stages.run_slice_us_per_reading
            + (stages.encode.mean_ns() + stages.write_file.mean_ns()) / 1e3
                * checkpoints_per_reading
            + stages.ack_encode.mean_ns() / 1e3 * acks_per_reading;
        o.set_exact("serve.shadow_us_per_reading", shadow_us);
        o.set_exact("serve.overhead_x", live_rps / served_rps);
        o.set_exact("serve.unattributed_share", 1.0 - shadow_us / cpu_us);
        o.note("readings_per_s", Json::num(served_rps));
        o.note("cpu_us_per_reading", Json::num(cpu_us));
    }

    // The generator's logs, as spans: one reading in 64.
    for (name, samples) in [
        ("serve.send_to_received", &timed.received_ms),
        ("serve.send_to_durable", &timed.durable_ms),
    ] {
        for (i, &(t, ms)) in samples.iter().enumerate().step_by(SAMPLE_EVERY as usize) {
            let start_ns = t.saturating_sub((f64::from(ms) * 1e6) as u64);
            tracer.push(Span {
                name,
                request: i as u64,
                start_ns,
                end_ns: t,
                parent: None,
            });
        }
    }
    crate::write_trace(args, &o.workload, &tracer);
    Ok(())
}

/// The daemon's per-reading stages, each timed through the public
/// function the daemon calls, on one tenant's readings.
struct Stages {
    /// `FrameDecoder` on `Reading` frames (the daemon's side of a send).
    decode: Counter,
    /// `encode_frame` of an `Ack` carrying one row per leaf.
    ack_encode: Counter,
    ingest_push: Counter,
    run_slice_us_per_reading: f64,
    /// `LiveRuntime::checkpoint` + the ingest buffer, as the worker
    /// composes a tenant checkpoint.
    encode: Counter,
    write_file: Counter,
    restore: Counter,
    ckpt_bytes: f64,
}

impl Stages {
    fn measure(plan: &Plan, table: &ReadingTable, dir: &Path, total: usize) -> Self {
        let leaves = plan.layout.leaves;
        let mut s = Stages {
            decode: Counter::default(),
            ack_encode: Counter::default(),
            ingest_push: Counter::default(),
            run_slice_us_per_reading: 0.0,
            encode: Counter::default(),
            write_file: Counter::default(),
            restore: Counter::default(),
            ckpt_bytes: 0.0,
        };
        // Wire: tenant 0's readings, wave by wave, as one byte stream.
        let mut bytes = Vec::new();
        for seq in 0..total {
            for node in 0..leaves {
                let value = table.value(node, seq).to_vec();
                bytes.extend(encode_frame(&Msg::Reading {
                    handle: 0,
                    node: node as u32,
                    seq: seq as u64,
                    value,
                }));
            }
        }
        let mut dec = FrameDecoder::new();
        let t0 = Instant::now();
        let mut frames = 0u64;
        for chunk in bytes.chunks(16 * 1024) {
            dec.feed(chunk);
            while let Ok(Some(msg)) = dec.next_frame() {
                std::hint::black_box(msg);
                frames += 1;
            }
        }
        s.decode = Counter {
            calls: frames,
            total_ns: t0.elapsed().as_nanos() as u64,
        };
        let ack = Msg::Ack {
            handle: 0,
            acks: (0..leaves as u32).map(|n| (n, 100, 64)).collect(),
        };
        let t0 = Instant::now();
        for _ in 0..frames {
            std::hint::black_box(encode_frame(std::hint::black_box(&ack)));
        }
        s.ack_encode = Counter {
            calls: frames,
            total_ns: t0.elapsed().as_nanos() as u64,
        };

        // Engine and persist: the worker's loop, wave by wave.
        let spec = plan.shape.spec();
        let mut rt = spec.build_runtime().expect("manifest tenant spec is valid");
        let nodes: Vec<NodeId> = rt.topology().leaves().to_vec();
        let mut buf = IngestBuffer::new(&nodes);
        let path = dir.join("shadow.ckpt");
        let mut slice_ns = 0u64;
        let mut since_ckpt = 0u64;
        for seq in 0..total {
            for (i, &node) in nodes.iter().enumerate() {
                let value = table.value(i, seq).to_vec();
                let t0 = Instant::now();
                buf.push(node, seq as u64, value);
                s.ingest_push.add(t0.elapsed().as_nanos() as u64);
            }
            let stop = (seq as u64 + 1) * m::SERVE_PERIOD_NS - 1;
            let t0 = Instant::now();
            rt.run_slice(&mut buf, u64::MAX, stop);
            slice_ns += t0.elapsed().as_nanos() as u64;
            since_ckpt += leaves as u64;
            if since_ckpt >= m::CHECKPOINT_EVERY || seq + 1 == total {
                since_ckpt = 0;
                let t0 = Instant::now();
                let mut w = ByteWriter::new();
                buf.save(&mut w);
                rt.checkpoint().save(&mut w);
                let payload = w.into_bytes();
                s.encode.add(t0.elapsed().as_nanos() as u64);
                s.ckpt_bytes = payload.len() as f64;
                let t0 = Instant::now();
                let _ = snod_persist::write_checkpoint_file(&path, &payload);
                s.write_file.add(t0.elapsed().as_nanos() as u64);
            }
        }
        s.run_slice_us_per_reading = slice_ns as f64 / 1e3 / (total * leaves) as f64;
        for _ in 0..16 {
            let t0 = Instant::now();
            if let Ok(payload) = snod_persist::read_checkpoint_file(&path) {
                let mut r = snod_persist::ByteReader::new(&payload);
                let restored = IngestBuffer::load(&mut r).and_then(|_| Vec::<u8>::load(&mut r));
                if let Ok(rt_bytes) = restored {
                    let _ = rt.restore(&rt_bytes);
                }
            }
            s.restore.add(t0.elapsed().as_nanos() as u64);
        }
        let _ = std::fs::remove_file(&path);
        s
    }

    fn report(&self, o: &mut Outcome) {
        o.set_exact("serve.wire_decode_ns", self.decode.mean_ns());
        o.set_exact("serve.wire_encode_ns", self.ack_encode.mean_ns());
        o.set_exact("engine.ingest_push_ns", self.ingest_push.mean_ns());
        o.set_exact(
            "engine.run_slice_us_per_reading",
            self.run_slice_us_per_reading,
        );
        o.set_exact("persist.encode_us", self.encode.mean_ns() / 1e3);
        o.set_exact("persist.write_file_us", self.write_file.mean_ns() / 1e3);
        o.set_exact("persist.restore_us", self.restore.mean_ns() / 1e3);
        o.set_exact("persist.ckpt_bytes", self.ckpt_bytes);
    }
}
