//! The three simulated workloads: one backend each on
//! `Hierarchy::balanced(64, &[4, 4, 4])` under the sequential `Network`
//! driver, timed in fixed-work slices through `Network::run_until`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snod_core::{
    build_backend_network, D3Backend, D3Config, D3Node, DetectorBackend, EstimatorConfig,
    FqnBackend, FqnConfig, MgddBackend, MgddConfig, UpdateStrategy,
};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{
    DetectorEngine, EngineCtx, FaultPlan, Hierarchy, NetStats, Network, NodeId, SimConfig,
    StreamSource, Wire,
};

use crate::inputs::{ReadingTable, Stream};
use crate::json::Json;
use crate::manifest as m;
use crate::oracle::{self, Row, Schedule};
use crate::procfs;
use crate::report::Outcome;
use crate::shadow;
use crate::stats::{percentile, Better, Summary};
use crate::trace::{Counter, Span, Tracer, SAMPLE_EVERY};
use crate::RunArgs;

struct Shape {
    stream: Stream,
    window: usize,
    periods_per_slice: usize,
    /// D3-shaped protocols: leaders only re-check what a child flagged.
    containment: bool,
}

fn estimator(window: usize, sample: usize, dims: usize) -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(window)
        .sample_size(sample)
        .dimensions(dims)
        .seed(m::DETECTOR_SEED)
        .build()
        .expect("manifest estimator is valid")
}

pub fn d3_config() -> D3Config {
    D3Config {
        estimator: estimator(m::D3_WINDOW, m::D3_SAMPLE, 1),
        rule: DistanceOutlierConfig::new(m::D3_MIN_NEIGHBORS, m::D3_RADIUS),
        sample_fraction: m::SAMPLE_FRACTION,
    }
}

pub fn mgdd_config() -> MgddConfig {
    let (r, ar, k) = m::MGDD_RULE;
    MgddConfig {
        estimator: estimator(m::MGDD_WINDOW, m::MGDD_SAMPLE, 2),
        rule: MdefConfig::new(r, ar, k).expect("manifest MDEF rule is valid"),
        sample_fraction: m::SAMPLE_FRACTION,
        updates: UpdateStrategy::EveryAcceptance,
        staleness_bound_ns: None,
    }
}

pub fn fqn_config() -> FqnConfig {
    FqnConfig {
        dimensions: 1,
        window: m::FQN_WINDOW,
        k_scale: m::FQN_K,
        warmup: 64,
        sample_fraction: m::SAMPLE_FRACTION,
        seed: m::DETECTOR_SEED,
    }
}

pub fn run(workload: &str, args: &RunArgs) -> Outcome {
    let topo = topology();
    match workload {
        "sim_d3" => {
            let shape = Shape {
                stream: Stream::Mixture1d,
                window: m::D3_WINDOW,
                periods_per_slice: m::D3_PERIODS_PER_SLICE,
                containment: true,
            };
            let cfg = d3_config();
            let layers = |t: &ReadingTable, _: f64, tr: &mut Tracer, o: &mut Outcome| {
                shadow::d3_leaf(t, 0, &cfg.estimator, &cfg.rule, tr).report(o);
            };
            let layers = Layers {
                rebuilds: Some(|e: &D3Node| e.estimator().epochs()),
                shadow: layers,
            };
            run_backend(workload, &D3Backend(cfg), &shape, args, layers)
        }
        "sim_mgdd" => {
            let shape = Shape {
                stream: Stream::Correlated2d,
                window: m::MGDD_WINDOW,
                periods_per_slice: m::MGDD_PERIODS_PER_SLICE,
                containment: false,
            };
            let cfg = mgdd_config();
            let top = topo.level_count() as u8;
            let backend = MgddBackend {
                cfg,
                broadcast_levels: vec![top],
            };
            let layers = |t: &ReadingTable, deltas: f64, tr: &mut Tracer, o: &mut Outcome| {
                let leaf = shadow::mgdd_leaf(t, &cfg, deltas, tr);
                leaf.report(o);
                o.set_exact(
                    "core.model_rebuilds_per_kreading",
                    leaf.builds_per_kreading(t.per_leaf),
                );
            };
            // MGDD scores against replicas whose rebuild count the node does
            // not expose; the shadow leaf reports its own replica's.
            let layers = Layers {
                rebuilds: None,
                shadow: layers,
            };
            run_backend(workload, &backend, &shape, args, layers)
        }
        "sim_fqn" => {
            let shape = Shape {
                stream: Stream::SkewedEngine,
                window: m::FQN_WINDOW,
                periods_per_slice: m::FQN_PERIODS_PER_SLICE,
                containment: true,
            };
            let cfg = fqn_config();
            let layers = |t: &ReadingTable, _: f64, tr: &mut Tracer, o: &mut Outcome| {
                shadow::fqn_leaf(t, 0, &cfg, tr).report(o);
            };
            let layers = Layers {
                rebuilds: None,
                shadow: layers,
            };
            run_backend(workload, &FqnBackend(cfg), &shape, args, layers)
        }
        other => unreachable!("{other} is not a simulated workload"),
    }
}

fn topology() -> Hierarchy {
    Hierarchy::balanced(m::SIM_LEAVES, &m::SIM_FANOUTS).expect("manifest topology is valid")
}

/// Hands the table to the program reading by reading, counting them.
struct Source<'a> {
    table: &'a ReadingTable,
    consumed: u64,
}

impl StreamSource for Source<'_> {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        if seq as usize >= self.table.per_leaf {
            return None;
        }
        self.consumed += 1;
        Some(self.table.value(node.index(), seq as usize).to_vec())
    }
}

const STEP_NS: u64 = m::SIM_PERIOD_NS / m::SIM_STEPS_PER_PERIOD;

/// Stream time at which every event of steps `0..steps` is processed.
fn stop_after(steps: u64) -> u64 {
    steps * STEP_NS - 1
}

/// One instance of set-up: inputs, network, warm-up of `window` readings
/// per leaf. Returns the seconds it took.
fn set_up<P, A>(
    shape: &Shape,
    seed: u64,
    per_leaf: usize,
    build: &mut impl FnMut(Hierarchy) -> Network<P, A>,
) -> (ReadingTable, Network<P, A>, f64)
where
    P: Wire + Send,
    A: DetectorEngine<P> + Send,
{
    let t0 = Instant::now();
    let table = ReadingTable::generate(shape.stream, seed, m::SIM_LEAVES, per_leaf);
    let mut net = build(topology());
    let mut src = Source {
        table: &table,
        consumed: 0,
    };
    let warm_steps = shape.window as u64 * m::SIM_STEPS_PER_PERIOD;
    net.run_until(&mut src, per_leaf as u64, stop_after(warm_steps));
    assert_eq!(
        src.consumed,
        (shape.window * m::SIM_LEAVES) as u64,
        "warm-up consumed every reading"
    );
    (table, net, t0.elapsed().as_secs_f64())
}

#[derive(Default)]
struct Slices {
    rps: Vec<f64>,
    ack_p50: Vec<f64>,
    ack_p99: Vec<f64>,
    cpu_us: Vec<f64>,
    wall_s: Vec<f64>,
    readings: Vec<u64>,
}

/// What the traced run hangs on the slice loop; the untraced run hangs
/// nothing.
trait StepHook {
    fn before_slice(&mut self, _slice: usize) {}
    fn before_step(&mut self, _step: u64) {}
    fn after_step(&mut self, _start: Instant, _end: Instant) {}
}

struct NoHook;

impl StepHook for NoHook {}

/// The timed phase: `slices` slices of `periods` sampling periods each,
/// stepped an eighth of a period at a time.
fn timed_phase<P, A>(
    net: &mut Network<P, A>,
    src: &mut Source<'_>,
    first_step: u64,
    slices: usize,
    periods: usize,
    hook: &mut impl StepHook,
) -> Slices
where
    P: Wire + Send,
    A: DetectorEngine<P> + Send,
{
    let pid = std::process::id();
    let per_leaf = src.table.per_leaf as u64;
    let steps = periods as u64 * m::SIM_STEPS_PER_PERIOD;
    let mut out = Slices::default();
    let mut lat = Vec::with_capacity(steps as usize);
    let mut step = first_step;
    for s in 0..slices {
        hook.before_slice(s);
        lat.clear();
        let consumed0 = src.consumed;
        let cpu0 = procfs::cpu_seconds(pid).unwrap_or(f64::NAN);
        let t0 = Instant::now();
        for _ in 0..steps {
            step += 1;
            hook.before_step(step);
            let ts = Instant::now();
            net.run_until(src, per_leaf, stop_after(step));
            let te = Instant::now();
            lat.push((te - ts).as_secs_f64() * 1e3);
            hook.after_step(ts, te);
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds(pid).unwrap_or(f64::NAN) - cpu0;
        let readings = src.consumed - consumed0;
        lat.sort_by(f64::total_cmp);
        out.rps.push(readings as f64 / wall);
        out.ack_p50.push(percentile(&lat, 0.50));
        out.ack_p99.push(percentile(&lat, 0.99));
        out.cpu_us.push(cpu * 1e6 / readings as f64);
        out.wall_s.push(wall);
        out.readings.push(readings);
    }
    out
}

/// Every engine's detections as wire-shaped rows, in node order.
pub fn rows_of<'a, B: DetectorBackend>(
    engines: impl Iterator<Item = (NodeId, &'a B::Engine)>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (node, engine) in engines {
        for d in B::detections(engine) {
            rows.push((node.0, d.time_ns, d.level, d.value.clone()));
        }
    }
    rows
}

/// The output checks shared by the traced and untraced runs; returns
/// the label score.
fn check_outputs(
    o: &mut Outcome,
    shape: &Shape,
    topo: &Hierarchy,
    table: &ReadingTable,
    rows: &[Row],
    consumed: u64,
) -> oracle::Score {
    o.attempted = table.readings() as u64;
    o.failed = o.attempted.saturating_sub(consumed);
    o.check(consumed == o.attempted, || {
        format!(
            "consumed {consumed} of {} offered readings",
            table.readings()
        )
    });
    let schedule = Schedule {
        leaves: m::SIM_LEAVES,
        period_ns: m::SIM_PERIOD_NS,
    };
    let leaf_index = |n: u32| ((n as usize) < m::SIM_LEAVES).then_some(n as usize);
    let score = oracle::score_leaf_rows(rows, leaf_index, schedule, table, 0, table.per_leaf);
    o.check(score.unmatched == 0, || {
        format!("{} leaf detections name no reading", score.unmatched)
    });
    if shape.containment {
        let bad = oracle::containment_violations(rows, |n| {
            topo.children(NodeId(n)).iter().map(|c| c.0).collect()
        });
        o.check(bad == 0, || {
            format!("{bad} leader detections no child flagged (Theorem 3)")
        });
    }
    o.note(
        "output_digest",
        Json::str(format!("{:016x}", oracle::digest_rows(rows))),
    );
    o.note(
        "input_digest",
        Json::str(format!("{:016x}", table.digest())),
    );
    o.note("detections", Json::Num(rows.len() as f64));
    o.note(
        "leaf_score",
        Json::obj([
            ("true_pos", Json::Num(score.true_pos as f64)),
            ("false_pos", Json::Num(score.false_pos as f64)),
            ("false_neg", Json::Num(score.false_neg as f64)),
        ]),
    );
    score
}

/// What only the traced run needs from a workload: how to read an
/// engine's full-model rebuild count (engines that expose one), and the
/// workload's shadow leaf.
struct Layers<E, F> {
    rebuilds: Option<fn(&E) -> u64>,
    shadow: F,
}

fn run_backend<B, F>(
    workload: &str,
    backend: &B,
    shape: &Shape,
    args: &RunArgs,
    layers: Layers<B::Engine, F>,
) -> Outcome
where
    B: DetectorBackend,
    F: FnOnce(&ReadingTable, f64, &mut Tracer, &mut Outcome),
{
    let periods = (shape.periods_per_slice / args.divisor).max(1);
    let per_leaf = shape.window + args.slices * periods;
    let first_step = shape.window as u64 * m::SIM_STEPS_PER_PERIOD;
    let mut o = Outcome::new(workload, args.traced);
    o.note(
        "slice_readings",
        Json::Num((periods * m::SIM_LEAVES) as f64),
    );
    if args.traced {
        traced_run(&mut o, backend, shape, args, periods, layers);
        return o.finish();
    }

    let mut build = |topo| {
        build_backend_network(backend, topo, SimConfig::default(), FaultPlan::none())
            .expect("manifest recipe is valid")
    };
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..args.setups {
        drop(last.take());
        let (table, net, secs) = set_up(shape, args.seed, per_leaf, &mut build);
        setups.push(secs);
        last = Some((table, net));
    }
    let (table, mut net) = last.expect("set-up ran");
    let mut src = Source {
        table: &table,
        consumed: (shape.window * m::SIM_LEAVES) as u64,
    };
    let slices = timed_phase(
        &mut net,
        &mut src,
        first_step,
        args.slices,
        periods,
        &mut NoHook,
    );
    net.run(&mut src, per_leaf as u64);

    let rows = rows_of::<B>(net.apps());
    let consumed = src.consumed;
    let score = check_outputs(&mut o, shape, net.topology(), &table, &rows, consumed);
    o.set(
        "readings_per_s",
        Summary::of_slices(&slices.rps, Better::Higher),
    );
    o.set(
        "ack_ms_p50",
        Summary::of_slices(&slices.ack_p50, Better::Lower),
    );
    o.set(
        "cpu_us_per_reading",
        Summary::of_slices(&slices.cpu_us, Better::Lower),
    );
    o.set_exact("leaf_precision", score.precision());
    o.set_exact("leaf_recall", score.recall());
    o.set_exact(
        "tx_bytes_per_reading",
        net.stats().bytes as f64 / consumed as f64,
    );
    let nodes = net.topology().node_count();
    o.set_exact(
        "state_bytes_per_node",
        net.checkpoint().len() as f64 / nodes as f64,
    );
    o.set_exact(
        "peak_rss_mb",
        procfs::peak_rss_mib(std::process::id()).unwrap_or(f64::NAN),
    );
    o.set("setup_s", Summary::of_median(&setups));
    o.finish()
}

// ---- traced run ------------------------------------------------------

/// Switches shared by the slice loop and the engine wrappers.
struct TraceCtl {
    /// Off on every other slice, so one run gives the tracing overhead.
    on: AtomicBool,
    /// Span index of the sampled step in progress (`usize::MAX`: none).
    parent: AtomicUsize,
    tracer: Mutex<Tracer>,
}

/// Traces the even slices; one step in [`SAMPLE_EVERY`] gets a
/// `simnet.run_until` span that the engine callbacks inside it hang
/// their own spans on.
struct TraceHook<'a> {
    ctl: &'a TraceCtl,
}

impl StepHook for TraceHook<'_> {
    fn before_slice(&mut self, slice: usize) {
        self.ctl
            .on
            .store(slice.is_multiple_of(2), Ordering::Relaxed);
    }

    fn before_step(&mut self, step: u64) {
        if step.is_multiple_of(SAMPLE_EVERY) && self.ctl.on.load(Ordering::Relaxed) {
            let mut tr = self.ctl.tracer.lock().expect("tracer lock");
            let now = tr.now_ns();
            let span = Span {
                name: "simnet.run_until",
                request: step,
                start_ns: now,
                end_ns: now,
                parent: None,
            };
            self.ctl.parent.store(tr.push(span), Ordering::Relaxed);
        }
    }

    fn after_step(&mut self, start: Instant, end: Instant) {
        let open = self.ctl.parent.swap(usize::MAX, Ordering::Relaxed);
        if open != usize::MAX {
            let mut tr = self.ctl.tracer.lock().expect("tracer lock");
            let (start_ns, end_ns) = (tr.at(start), tr.at(end));
            tr.spans[open].start_ns = start_ns;
            tr.spans[open].end_ns = end_ns;
        }
    }
}

/// Times every callback of the wrapped engine from outside it: the
/// benchmark's span boundary between simnet (caller) and core (callee).
struct Timed<E> {
    inner: E,
    leaf: bool,
    ctl: Arc<TraceCtl>,
    ingest: Counter,
    message: Counter,
}

impl<E> Timed<E> {
    fn record(&mut self, name: &'static str, t0: Instant, is_ingest: bool) {
        let t1 = Instant::now();
        let counter = if is_ingest {
            &mut self.ingest
        } else {
            &mut self.message
        };
        counter.add((t1 - t0).as_nanos() as u64);
        let parent = self.ctl.parent.load(Ordering::Relaxed);
        if parent != usize::MAX {
            let mut tr = self.ctl.tracer.lock().expect("tracer lock");
            let (start_ns, end_ns) = (tr.at(t0), tr.at(t1));
            let request = tr.spans[parent].request;
            tr.push(Span {
                name,
                request,
                start_ns,
                end_ns,
                parent: Some(parent),
            });
        }
    }
}

impl<P: Wire, E: DetectorEngine<P>> DetectorEngine<P> for Timed<E> {
    fn ingest(&mut self, ctx: &mut EngineCtx<'_, P>, value: &[f64]) {
        if !self.ctl.on.load(Ordering::Relaxed) {
            return self.inner.ingest(ctx, value);
        }
        let t0 = Instant::now();
        self.inner.ingest(ctx, value);
        self.record("core.leaf_step", t0, true);
    }

    fn on_message(&mut self, ctx: &mut EngineCtx<'_, P>, from: NodeId, payload: P) {
        if !self.ctl.on.load(Ordering::Relaxed) {
            return self.inner.on_message(ctx, from, payload);
        }
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, payload);
        let name = if self.leaf {
            "core.leaf_msg"
        } else {
            "core.leader_msg"
        };
        self.record(name, t0, false);
    }
}

/// A benchmark-defined engine that only relays: it reproduces the real
/// run's message counts per tier (upward forwarding ratios, and the
/// root's downward broadcasts relayed tier by tier) with no detector
/// behind them, so its wall time is what dispatch alone costs.
struct Relay {
    up: Ratio,
    broadcast: Ratio,
}

#[derive(Clone)]
struct RelayMsg {
    down: bool,
    value: Vec<f64>,
}

impl Wire for RelayMsg {
    fn size_bytes(&self) -> usize {
        self.value.len() * 2 + 1
    }
}

/// Fires `num` times in every `den` ticks, evenly spread.
#[derive(Clone, Copy, Default)]
struct Ratio {
    num: u64,
    den: u64,
    acc: u64,
}

impl Ratio {
    fn tick(&mut self) -> bool {
        self.acc += self.num;
        let fire = self.den > 0 && self.acc >= self.den;
        if fire {
            self.acc -= self.den;
        }
        fire
    }
}

impl DetectorEngine<RelayMsg> for Relay {
    fn ingest(&mut self, ctx: &mut EngineCtx<'_, RelayMsg>, value: &[f64]) {
        if self.up.tick() {
            ctx.send_parent(RelayMsg {
                down: false,
                value: value.to_vec(),
            });
        }
    }

    fn on_message(&mut self, ctx: &mut EngineCtx<'_, RelayMsg>, _from: NodeId, msg: RelayMsg) {
        if msg.down {
            ctx.send_children(msg);
            return;
        }
        if self.broadcast.tick() {
            ctx.send_children(RelayMsg {
                down: true,
                value: msg.value.clone(),
            });
        }
        if self.up.tick() {
            ctx.send_parent(msg);
        }
    }
}

/// Per-tier relay ratios that reproduce `stats` (of a run over
/// `readings` readings) on `topo`.
fn relay_plan(topo: &Hierarchy, stats: &NetStats, readings: u64) -> Vec<(Ratio, Ratio)> {
    let tiers = topo.level_count();
    let sent = &stats.messages_per_level;
    let root_children = topo.children(topo.root()).len() as u64;
    let broadcasts = sent[tiers - 1] / root_children.max(1);
    let mut plan = Vec::with_capacity(tiers);
    let mut arriving = readings;
    for (tier, &sent_here) in sent.iter().enumerate() {
        // Downward relays this tier performed: one copy per child of
        // each of its nodes, per broadcast.
        let fanned: u64 = topo
            .level(tier + 1)
            .iter()
            .map(|&n| topo.children(n).len() as u64)
            .sum();
        let down = if tier + 1 == tiers || tier == 0 {
            0
        } else {
            broadcasts * fanned
        };
        let up = if tier + 1 == tiers {
            0
        } else {
            sent_here.saturating_sub(down)
        };
        let broadcast = if tier + 1 == tiers { broadcasts } else { 0 };
        plan.push((
            Ratio {
                num: up,
                den: arriving,
                acc: 0,
            },
            Ratio {
                num: broadcast,
                den: arriving,
                acc: 0,
            },
        ));
        arriving = up;
    }
    plan
}

const PARALLEL_RELAY_PERIODS: usize = 256;

/// Runs the relay-only network over `periods` periods in four slices on
/// `workers` threads; returns `(best events/s, best readings/s, messages
/// per reading)`.
fn relay_run(
    table: &ReadingTable,
    plan: &[(Ratio, Ratio)],
    workers: usize,
    periods: usize,
) -> (f64, f64, f64) {
    let sim = SimConfig::default().with_worker_threads(workers);
    let mut net = Network::new(topology(), sim, |node, topo| {
        let (up, broadcast) = plan[topo.level_of(node) as usize - 1];
        Relay { up, broadcast }
    });
    let mut src = Source { table, consumed: 0 };
    let per_leaf = periods.min(table.per_leaf) as u64;
    let mut best_events = 0.0f64;
    let mut best_readings = 0.0f64;
    for slice in 1..=4u64 {
        let (c0, m0) = (src.consumed, net.stats().messages);
        let t0 = Instant::now();
        net.run_until(
            &mut src,
            per_leaf,
            stop_after(per_leaf * m::SIM_STEPS_PER_PERIOD * slice / 4),
        );
        let wall = t0.elapsed().as_secs_f64();
        let readings = (src.consumed - c0) as f64;
        let events = readings + (net.stats().messages - m0) as f64;
        best_events = best_events.max(events / wall);
        best_readings = best_readings.max(readings / wall);
    }
    (
        best_events,
        best_readings,
        net.stats().messages as f64 / src.consumed as f64,
    )
}

fn traced_run<B, F>(
    o: &mut Outcome,
    backend: &B,
    shape: &Shape,
    args: &RunArgs,
    periods: usize,
    layers: Layers<B::Engine, F>,
) where
    B: DetectorBackend,
    F: FnOnce(&ReadingTable, f64, &mut Tracer, &mut Outcome),
{
    let per_leaf = shape.window + args.slices * periods;
    let first_step = shape.window as u64 * m::SIM_STEPS_PER_PERIOD;
    backend.validate().expect("manifest recipe is valid");
    let ctl = Arc::new(TraceCtl {
        on: AtomicBool::new(false),
        parent: AtomicUsize::new(usize::MAX),
        tracer: Mutex::new(Tracer::new()),
    });
    let mut build = |topo| {
        Network::new(topo, SimConfig::default(), |node, topo| Timed {
            inner: backend.make_engine(node, topo),
            leaf: topo.level_of(node) == 1,
            ctl: Arc::clone(&ctl),
            ingest: Counter::default(),
            message: Counter::default(),
        })
    };
    let (table, mut net, _) = set_up(shape, args.seed, per_leaf, &mut build);
    let count_rebuilds = |net: &Network<B::Payload, Timed<B::Engine>>| {
        layers
            .rebuilds
            .map(|of| net.apps().map(|(_, a)| of(&a.inner)).sum::<u64>())
    };
    let rebuilds_before = count_rebuilds(&net);
    let mut src = Source {
        table: &table,
        consumed: (shape.window * m::SIM_LEAVES) as u64,
    };

    let mut hook = TraceHook { ctl: &ctl };
    let slices = timed_phase(
        &mut net,
        &mut src,
        first_step,
        args.slices,
        periods,
        &mut hook,
    );
    ctl.on.store(false, Ordering::Relaxed);
    net.run(&mut src, per_leaf as u64);

    let rows = rows_of::<B>(net.apps().map(|(n, a)| (n, &a.inner)));
    let consumed = src.consumed;
    check_outputs(o, shape, net.topology(), &table, &rows, consumed);

    // Traced slices are the even ones.
    let pick = |v: &[f64], parity: usize| -> Vec<f64> {
        v.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, x)| *x)
            .collect()
    };
    let traced_rps = Summary::of_slices(&pick(&slices.rps, 0), Better::Higher);
    let untraced_rps = Summary::of_slices(&pick(&slices.rps, 1), Better::Higher);
    if untraced_rps.n > 0 {
        o.set_exact(
            "trace.overhead_share",
            1.0 - traced_rps.value / untraced_rps.value,
        );
    }
    let traced_wall_ns: f64 = pick(&slices.wall_s, 0).iter().sum::<f64>() * 1e9;
    let traced_readings: f64 = slices.readings.iter().step_by(2).sum::<u64>() as f64;

    let mut leaf_ingest = Counter::default();
    let mut leaf_msg = Counter::default();
    let mut leader_msg = Counter::default();
    for (_, app) in net.apps() {
        leaf_ingest.calls += app.ingest.calls;
        leaf_ingest.total_ns += app.ingest.total_ns;
        let side = if app.leaf {
            &mut leaf_msg
        } else {
            &mut leader_msg
        };
        side.calls += app.message.calls;
        side.total_ns += app.message.total_ns;
    }
    let timer_ns = ctl.tracer.lock().expect("tracer lock").timer_ns;
    let own = |c: &Counter| c.total_ns.saturating_sub(c.calls * timer_ns) as f64;
    let leaf_ns = own(&leaf_ingest) + own(&leaf_msg);
    let leader_ns = own(&leader_msg);
    o.set_exact(
        "core.leaf_step_ns",
        own(&leaf_ingest) / leaf_ingest.calls as f64,
    );
    if leader_msg.calls > 0 {
        o.set_exact("core.leader_msg_ns", leader_ns / leader_msg.calls as f64);
    }
    o.set_exact("core.leaf_share", leaf_ns / traced_wall_ns);

    let timed_readings = (consumed - (shape.window * m::SIM_LEAVES) as u64) as f64;
    let rebuilds_after = count_rebuilds(&net);
    if let (Some(a), Some(b)) = (rebuilds_before, rebuilds_after) {
        o.set_exact(
            "core.model_rebuilds_per_kreading",
            (b - a) as f64 * 1e3 / timed_readings,
        );
    }
    if shape.containment {
        let escalated = rows.iter().filter(|r| r.2 == 1).count() as f64;
        o.set_exact(
            "core.escalations_per_kreading",
            escalated * 1e3 / consumed as f64,
        );
    }

    let stats = net.stats().clone();
    o.set_exact(
        "simnet.messages_per_reading",
        stats.messages as f64 / consumed as f64,
    );
    let plan = relay_plan(net.topology(), &stats, consumed);
    let top = stats.messages_per_level.len() - 1;
    let broadcasts = stats.messages_per_level[top]
        / net.topology().children(net.topology().root()).len().max(1) as u64;
    let deltas_per_reading = broadcasts as f64 * m::SIM_LEAVES as f64 / consumed as f64;
    let (events_per_s, relay_rps, relay_mpr) = relay_run(&table, &plan, 1, (per_leaf / 2).max(4));
    // Staggered readings leave the parallel driver one event per batch:
    // it hands every event to a worker and back, so a short run suffices.
    let (par_events_per_s, _, _) =
        relay_run(&table, &plan, 2, PARALLEL_RELAY_PERIODS.min(per_leaf));
    o.set_exact("simnet.events_per_s", events_per_s);
    o.set_exact("simnet.par_events_per_s", par_events_per_s);
    o.set_exact(
        "simnet.dispatch_share",
        untraced_rps.value.min(traced_rps.value) / relay_rps,
    );
    o.note("relay_messages_per_reading", Json::num(relay_mpr));
    let dispatch_ns = traced_readings * 1e9 / relay_rps;
    o.set_exact(
        "sim.unattributed_share",
        1.0 - (leaf_ns + leader_ns + dispatch_ns) / traced_wall_ns,
    );
    o.set_exact("run.failed_share", o.failed as f64 / o.attempted as f64);
    o.set(
        "run.ack_ms_p99",
        Summary::of_slices(&slices.ack_p99, Better::Lower),
    );
    o.note("readings_per_s_traced", Json::num(traced_rps.value));
    o.note("readings_per_s_untraced", Json::num(untraced_rps.value));

    drop(net);
    let ctl = Arc::into_inner(ctl).expect("engines dropped with the network");
    let mut tracer = ctl.tracer.into_inner().expect("tracer lock");
    (layers.shadow)(&table, deltas_per_reading, &mut tracer, o);
    crate::write_trace(args, &o.workload, &tracer);
}
