//! Hand-rolled argument parsing for the `snod` binary.

use std::fmt;

use snod_core::BackendKind;

/// Which subcommand to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Stream outlier detection over CSV input.
    Detect(DetectArgs),
    /// Per-dimension dataset statistics.
    Stats(StatsArgs),
    /// Distributed simulation over a synthetic hierarchy.
    Simulate(SimulateArgs),
    /// Long-lived multi-tenant ingestion daemon.
    Serve(ServeArgs),
    /// Stream a recorded trace into a running daemon.
    Client(ClientArgs),
    /// Self-contained synthetic demo.
    Demo,
    /// Print usage.
    Help,
}

/// Arguments of `snod serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Ingestion listener address.
    pub addr: String,
    /// Metrics/health HTTP listener address (off when absent).
    pub metrics_addr: Option<String>,
    /// Per-tenant checkpoint directory (durability off when absent).
    pub checkpoint_dir: Option<String>,
    /// Leaf sensors per tenant.
    pub leaves: usize,
    /// Hierarchy fan-outs above the leaves, comma-separated.
    pub fanouts: Vec<usize>,
    /// Sliding window `|W|` per node.
    pub window: usize,
    /// Chain-sample size `|R|`.
    pub sample: Option<usize>,
    /// Distance rule radius `r`.
    pub radius: f64,
    /// Distance rule neighbor threshold `t`.
    pub neighbors: f64,
    /// Bounded per-tenant queue capacity.
    pub queue: usize,
    /// Detector backend every tenant runs: d3, mmdew or fqn.
    pub detector: BackendKind,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7433".into(),
            metrics_addr: None,
            checkpoint_dir: None,
            leaves: 1,
            fanouts: Vec::new(),
            window: 256,
            sample: None,
            radius: 0.02,
            neighbors: 10.0,
            queue: 256,
            detector: BackendKind::D3,
        }
    }
}

/// Arguments of `snod client`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Daemon address.
    pub addr: String,
    /// Tenant name to stream as.
    pub tenant: String,
    /// Recorded reading trace (CSV, from `snod simulate --record`).
    pub replay: String,
    /// Subscribe to live escalation frames and print them as they
    /// arrive.
    pub follow: bool,
}

/// Arguments of `snod simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Leaf sensor count.
    pub leaves: usize,
    /// Readings per leaf.
    pub readings: u64,
    /// Detector backend (`--detector` and `--algorithm` are
    /// interchangeable spellings).
    pub algorithm: BackendKind,
    /// Sample-propagation fraction `f`.
    pub fraction: f64,
    /// Message-loss probability.
    pub loss: f64,
    /// Write a JSON metrics snapshot here after the run.
    pub metrics_out: Option<String>,
    /// Write a checkpoint of the run to this file.
    pub checkpoint_out: Option<String>,
    /// With `checkpoint_out`: snapshot after this many readings per
    /// leaf instead of at the end, then continue to completion.
    pub checkpoint_at: Option<u64>,
    /// Restore this checkpoint before the run; the remaining readings
    /// replay bit-identically to the run the snapshot was taken from.
    pub resume_from: Option<String>,
    /// Which runtime drives the engines: "sim" (event-driven simulator)
    /// or "live" (the streaming runtime; same loop, no restart policies).
    pub driver: String,
    /// Write the reading trace the run ingested to this CSV file.
    pub record: Option<String>,
    /// Replay a recorded reading trace from this file instead of the
    /// synthetic streams.
    pub replay: Option<String>,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        Self {
            leaves: 16,
            readings: 6_000,
            algorithm: BackendKind::D3,
            fraction: 0.5,
            loss: 0.0,
            metrics_out: None,
            checkpoint_out: None,
            checkpoint_at: None,
            resume_from: None,
            driver: "sim".into(),
            record: None,
            replay: None,
        }
    }
}

/// Arguments of `snod detect`.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectArgs {
    /// Sliding-window length `|W|`.
    pub window: usize,
    /// Kernel sample size `|R|` (default `|W|/20`).
    pub sample: Option<usize>,
    /// Distance rule radius `r`.
    pub radius: f64,
    /// Distance rule threshold `t`.
    pub neighbors: f64,
    /// MDEF rule `(r, αr, k_σ)` — switches the detector when present.
    pub mdef: Option<(f64, f64, f64)>,
    /// Readings to skip before verdicts (default: `|W|`).
    pub warmup: Option<u64>,
    /// Per-coordinate normalisation bounds, applied as
    /// `(x − min)/(max − min)`.
    pub min: Option<f64>,
    /// See [`Self::min`].
    pub max: Option<f64>,
    /// Write a JSON metrics snapshot here after the run.
    pub metrics_out: Option<String>,
    /// Input path; stdin when `None`.
    pub input: Option<String>,
}

impl Default for DetectArgs {
    fn default() -> Self {
        Self {
            window: 10_000,
            sample: None,
            radius: 0.01,
            neighbors: 45.0,
            mdef: None,
            warmup: None,
            min: None,
            max: None,
            metrics_out: None,
            input: None,
        }
    }
}

/// Arguments of `snod stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsArgs {
    /// Input path; stdin when `None`.
    pub input: Option<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Usage text printed by `snod help` and on errors.
pub const USAGE: &str = "\
snod — online outlier detection in sensor data (VLDB'06 reproduction)

USAGE:
  snod detect [OPTIONS] [FILE]    flag outliers in a CSV stream
  snod stats  [FILE]              per-dimension dataset statistics
  snod simulate [OPTIONS]         distributed run over a synthetic hierarchy
  snod serve [OPTIONS]            multi-tenant TCP ingestion daemon
  snod client [OPTIONS]           stream a recorded trace into a daemon
  snod demo                       synthetic end-to-end demo
  snod help                       this text

A leading flag is shorthand for simulate: `snod --detector mmdew` runs
`snod simulate --detector mmdew`.

SIMULATE OPTIONS:
  --leaves N        leaf sensors                  (default 16)
  --readings N      readings per leaf             (default 6000)
  --detector A      d3 | mgdd | mmdew | fqn | centralized  (default d3;
                    --algorithm is an alias)
  --fraction F      sample-propagation fraction f (default 0.5)
  --loss P          message-loss probability      (default 0)
  --metrics-out F   write a JSON metrics snapshot to F after the run
  --checkpoint-out F  write a checkpoint of the run to F
  --checkpoint-at K   with --checkpoint-out: snapshot after K readings
                      per leaf, then continue to completion
  --resume-from F   restore checkpoint F before running; the remaining
                    readings replay bit-identically to the original run
  --driver D        sim | live (default sim): the event-driven simulator
                    or the streaming live runtime (the same event loop);
                    fed the same trace, both produce identical results
  --record F        write the ingested reading trace to F (CSV)
  --replay F        feed readings from trace F instead of the synthetic
                    streams (works under either driver)

SERVE OPTIONS:
  --addr A          ingestion listener             (default 127.0.0.1:7433)
  --metrics-addr A  also serve /metrics /healthz /escalations over HTTP
  --checkpoint-dir D  per-tenant checkpoints in D: tenants survive a
                    daemon kill and acks carry a durable mark
  --leaves N        leaf sensors per tenant        (default 1)
  --fanouts L       hierarchy fan-outs above the leaves, e.g. 2,2
  --window N        sliding window |W| per node    (default 256)
  --sample N        chain-sample |R|               (default 32)
  --radius R        (D,r) rule: neighborhood radius    (default 0.02)
  --neighbors T     (D,r) rule: neighbor threshold     (default 10)
  --queue N         bounded per-tenant queue; a full queue sheds
                    readings, which clients retransmit (default 256)
  --detector A      backend every tenant runs: d3 | mmdew | fqn
                    (default d3)

CLIENT OPTIONS:
  --addr A          daemon address                 (default 127.0.0.1:7433)
  --tenant NAME     tenant to stream as            (required)
  --replay F        recorded trace CSV to stream   (required; see
                    `snod simulate --record`)
  --follow          print escalations live as the daemon pushes them

DETECT OPTIONS:
  --window N        sliding window |W|            (default 10000)
  --sample N        kernel sample |R|             (default |W|/20)
  --radius R        (D,r) rule: neighborhood radius   (default 0.01)
  --neighbors T     (D,r) rule: neighbor threshold    (default 45)
  --mdef r,ar,k     use the MDEF rule instead (sampling radius,
                    counting radius, k_sigma)
  --warmup N        readings before verdicts      (default |W|)
  --min X --max Y   normalise coordinates to [0,1] on the fly
  --metrics-out F   write a JSON metrics snapshot to F after the run

Input: one reading per line, comma-separated coordinates. Output: one
line per outlier, `index,coords…`. Reads stdin when FILE is omitted.";

fn parse_value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, ArgError> {
    let raw = v.ok_or_else(|| ArgError(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| ArgError(format!("invalid value for {flag}: {raw}")))
}

fn parse_simulate<I: Iterator<Item = String>>(mut it: I) -> Result<Command, ArgError> {
    let mut s = SimulateArgs::default();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--leaves" => s.leaves = parse_value(&a, it.next())?,
            "--readings" => s.readings = parse_value(&a, it.next())?,
            "--algorithm" | "--detector" => s.algorithm = parse_value(&a, it.next())?,
            "--fraction" => s.fraction = parse_value(&a, it.next())?,
            "--loss" => s.loss = parse_value(&a, it.next())?,
            "--metrics-out" => s.metrics_out = Some(parse_value(&a, it.next())?),
            "--checkpoint-out" => s.checkpoint_out = Some(parse_value(&a, it.next())?),
            "--checkpoint-at" => s.checkpoint_at = Some(parse_value(&a, it.next())?),
            "--resume-from" => s.resume_from = Some(parse_value(&a, it.next())?),
            "--driver" => s.driver = parse_value(&a, it.next())?,
            "--record" => s.record = Some(parse_value(&a, it.next())?),
            "--replay" => s.replay = Some(parse_value(&a, it.next())?),
            other => return Err(ArgError(format!("unknown flag for simulate: {other}"))),
        }
    }
    if s.leaves == 0 {
        return Err(ArgError("--leaves must be positive".into()));
    }
    if s.checkpoint_at.is_some() && s.checkpoint_out.is_none() {
        return Err(ArgError("--checkpoint-at needs --checkpoint-out".into()));
    }
    if !(0.0..=1.0).contains(&s.fraction) || !(0.0..=1.0).contains(&s.loss) {
        return Err(ArgError("--fraction and --loss must lie in [0, 1]".into()));
    }
    if !["sim", "live"].contains(&s.driver.as_str()) {
        return Err(ArgError(format!(
            "unknown driver {:?} (sim | live)",
            s.driver
        )));
    }
    if s.driver == "live" && (s.checkpoint_out.is_some() || s.resume_from.is_some()) {
        return Err(ArgError(
            "checkpoint/resume flags run under the simulator driver only".into(),
        ));
    }
    Ok(Command::Simulate(s))
}

fn parse_serve<I: Iterator<Item = String>>(mut it: I) -> Result<Command, ArgError> {
    let mut s = ServeArgs::default();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => s.addr = parse_value(&a, it.next())?,
            "--metrics-addr" => s.metrics_addr = Some(parse_value(&a, it.next())?),
            "--checkpoint-dir" => s.checkpoint_dir = Some(parse_value(&a, it.next())?),
            "--leaves" => s.leaves = parse_value(&a, it.next())?,
            "--fanouts" => {
                let raw: String = parse_value(&a, it.next())?;
                let parsed: Result<Vec<usize>, _> =
                    raw.split(',').map(|p| p.trim().parse()).collect();
                s.fanouts = parsed.map_err(|_| ArgError(format!("invalid --fanouts: {raw}")))?;
            }
            "--window" => s.window = parse_value(&a, it.next())?,
            "--sample" => s.sample = Some(parse_value(&a, it.next())?),
            "--radius" => s.radius = parse_value(&a, it.next())?,
            "--neighbors" => s.neighbors = parse_value(&a, it.next())?,
            "--queue" => s.queue = parse_value(&a, it.next())?,
            "--detector" => s.detector = parse_value(&a, it.next())?,
            other => return Err(ArgError(format!("unknown flag for serve: {other}"))),
        }
    }
    if s.leaves == 0 {
        return Err(ArgError("--leaves must be positive".into()));
    }
    if s.window == 0 {
        return Err(ArgError("--window must be positive".into()));
    }
    if s.queue == 0 {
        return Err(ArgError("--queue must be positive".into()));
    }
    if matches!(s.detector, BackendKind::Mgdd | BackendKind::Centralized) {
        return Err(ArgError(format!("serve tenants cannot run {}", s.detector)));
    }
    Ok(Command::Serve(s))
}

/// Parses a full argument vector (without the program name).
///
/// A leading flag (`snod --detector mmdew`) is shorthand for
/// `snod simulate` with those flags.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ArgError> {
    let mut it = args.into_iter();
    let cmd = it.next().unwrap_or_else(|| "help".into());
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "demo" => Ok(Command::Demo),
        "simulate" => parse_simulate(it),
        "serve" => parse_serve(it),
        "client" => {
            let mut addr = "127.0.0.1:7433".to_string();
            let mut tenant: Option<String> = None;
            let mut replay: Option<String> = None;
            let mut follow = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => addr = parse_value(&a, it.next())?,
                    "--tenant" => tenant = Some(parse_value(&a, it.next())?),
                    "--replay" => replay = Some(parse_value(&a, it.next())?),
                    "--follow" => follow = true,
                    other => return Err(ArgError(format!("unknown flag for client: {other}"))),
                }
            }
            let tenant = tenant.ok_or_else(|| ArgError("client needs --tenant".into()))?;
            let replay = replay.ok_or_else(|| ArgError("client needs --replay".into()))?;
            Ok(Command::Client(ClientArgs {
                addr,
                tenant,
                replay,
                follow,
            }))
        }
        "stats" => {
            let mut s = StatsArgs::default();
            for a in it {
                if a.starts_with("--") {
                    return Err(ArgError(format!("unknown flag for stats: {a}")));
                }
                if s.input.is_some() {
                    return Err(ArgError("stats takes at most one input file".into()));
                }
                s.input = Some(a);
            }
            Ok(Command::Stats(s))
        }
        "detect" => {
            let mut d = DetectArgs::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--window" => d.window = parse_value(&a, it.next())?,
                    "--sample" => d.sample = Some(parse_value(&a, it.next())?),
                    "--radius" => d.radius = parse_value(&a, it.next())?,
                    "--neighbors" => d.neighbors = parse_value(&a, it.next())?,
                    "--warmup" => d.warmup = Some(parse_value(&a, it.next())?),
                    "--min" => d.min = Some(parse_value(&a, it.next())?),
                    "--max" => d.max = Some(parse_value(&a, it.next())?),
                    "--metrics-out" => d.metrics_out = Some(parse_value(&a, it.next())?),
                    "--mdef" => {
                        let raw: String = parse_value(&a, it.next())?;
                        let parts: Vec<&str> = raw.split(',').collect();
                        if parts.len() != 3 {
                            return Err(ArgError("--mdef expects r,ar,k".into()));
                        }
                        let nums: Result<Vec<f64>, _> =
                            parts.iter().map(|p| p.trim().parse()).collect();
                        let nums = nums.map_err(|_| ArgError(format!("invalid --mdef: {raw}")))?;
                        d.mdef = Some((nums[0], nums[1], nums[2]));
                    }
                    flag if flag.starts_with("--") => {
                        return Err(ArgError(format!("unknown flag: {flag}")));
                    }
                    _ => {
                        if d.input.is_some() {
                            return Err(ArgError("detect takes at most one input file".into()));
                        }
                        d.input = Some(a);
                    }
                }
            }
            if d.window == 0 {
                return Err(ArgError("--window must be positive".into()));
            }
            if let (Some(min), Some(max)) = (d.min, d.max) {
                if max <= min {
                    return Err(ArgError("--max must exceed --min".into()));
                }
            }
            if d.min.is_some() != d.max.is_some() {
                return Err(ArgError("--min and --max must be given together".into()));
            }
            Ok(Command::Detect(d))
        }
        _ if cmd.starts_with("--") => parse_simulate(std::iter::once(cmd).chain(it)),
        other => Err(ArgError(format!(
            "unknown command: {other} (try `snod help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(args.iter().map(|s| s.to_string())).expect("parse ok")
    }

    #[test]
    fn defaults_and_file() {
        let Command::Detect(d) = parse_ok(&["detect", "data.csv"]) else {
            panic!("wrong command");
        };
        assert_eq!(d.window, 10_000);
        assert_eq!(d.input.as_deref(), Some("data.csv"));
        assert!(d.mdef.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let Command::Detect(d) = parse_ok(&[
            "detect",
            "--window",
            "500",
            "--sample",
            "50",
            "--radius",
            "0.02",
            "--neighbors",
            "10",
            "--warmup",
            "600",
            "--min",
            "-10",
            "--max",
            "40",
            "in.csv",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(d.window, 500);
        assert_eq!(d.sample, Some(50));
        assert_eq!(d.radius, 0.02);
        assert_eq!(d.neighbors, 10.0);
        assert_eq!(d.warmup, Some(600));
        assert_eq!((d.min, d.max), (Some(-10.0), Some(40.0)));
    }

    #[test]
    fn mdef_triple_parses() {
        let Command::Detect(d) = parse_ok(&["detect", "--mdef", "0.08,0.01,3"]) else {
            panic!("wrong command");
        };
        assert_eq!(d.mdef, Some((0.08, 0.01, 3.0)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(["detect".into(), "--window".into()]).is_err());
        assert!(parse(["detect".into(), "--mdef".into(), "1,2".into()]).is_err());
        assert!(parse(["detect".into(), "--min".into(), "0".into()]).is_err());
        assert!(parse(["frobnicate".into()]).is_err());
        assert!(parse(["detect".into(), "a".into(), "b".into()]).is_err());
    }

    #[test]
    fn metrics_out_parses_on_both_commands() {
        let Command::Simulate(s) = parse_ok(&["simulate", "--metrics-out", "m.json"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.metrics_out.as_deref(), Some("m.json"));
        let Command::Detect(d) = parse_ok(&["detect", "--metrics-out", "d.json"]) else {
            panic!("wrong command");
        };
        assert_eq!(d.metrics_out.as_deref(), Some("d.json"));
        assert!(parse(["simulate".into(), "--metrics-out".into()]).is_err());
    }

    #[test]
    fn simulate_flags_parse_and_validate() {
        let Command::Simulate(s) = parse_ok(&[
            "simulate",
            "--leaves",
            "32",
            "--readings",
            "100",
            "--algorithm",
            "mgdd",
            "--fraction",
            "0.25",
            "--loss",
            "0.1",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(s.leaves, 32);
        assert_eq!(s.algorithm, BackendKind::Mgdd);
        assert_eq!(s.loss, 0.1);
        assert!(parse(["simulate".into(), "--algorithm".into(), "nope".into()]).is_err());
        assert!(parse(["simulate".into(), "--loss".into(), "1.5".into()]).is_err());
        assert!(parse(["simulate".into(), "--leaves".into(), "0".into()]).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let Command::Simulate(s) = parse_ok(&[
            "simulate",
            "--checkpoint-out",
            "ck.snod",
            "--checkpoint-at",
            "300",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(s.checkpoint_out.as_deref(), Some("ck.snod"));
        assert_eq!(s.checkpoint_at, Some(300));
        let Command::Simulate(s) = parse_ok(&["simulate", "--resume-from", "ck.snod"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.resume_from.as_deref(), Some("ck.snod"));
        // --checkpoint-at without --checkpoint-out is meaningless.
        assert!(parse(["simulate".into(), "--checkpoint-at".into(), "5".into()]).is_err());
        // The centralized baseline checkpoints like every other detector.
        assert!(parse([
            "simulate".into(),
            "--algorithm".into(),
            "centralized".into(),
            "--checkpoint-out".into(),
            "ck".into(),
        ])
        .is_ok());
    }

    #[test]
    fn driver_and_trace_flags_parse_and_validate() {
        let Command::Simulate(s) = parse_ok(&[
            "simulate",
            "--driver",
            "live",
            "--record",
            "trace.csv",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(s.driver, "live");
        assert_eq!(s.record.as_deref(), Some("trace.csv"));
        let Command::Simulate(s) = parse_ok(&["simulate", "--replay", "trace.csv"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.driver, "sim");
        assert_eq!(s.replay.as_deref(), Some("trace.csv"));
        // Unknown driver and live+checkpoint are rejected; live+centralized
        // runs like every other detector.
        assert!(parse(["simulate".into(), "--driver".into(), "warp".into()]).is_err());
        assert!(parse([
            "simulate".into(),
            "--driver".into(),
            "live".into(),
            "--algorithm".into(),
            "centralized".into(),
        ])
        .is_ok());
        assert!(parse([
            "simulate".into(),
            "--driver".into(),
            "live".into(),
            "--checkpoint-out".into(),
            "ck".into(),
        ])
        .is_err());
    }

    #[test]
    fn serve_and_client_flags_parse_and_validate() {
        let Command::Serve(s) = parse_ok(&[
            "serve",
            "--addr",
            "127.0.0.1:9000",
            "--metrics-addr",
            "127.0.0.1:9001",
            "--checkpoint-dir",
            "/tmp/ck",
            "--leaves",
            "4",
            "--fanouts",
            "2,2",
            "--queue",
            "64",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(s.addr, "127.0.0.1:9000");
        assert_eq!(s.metrics_addr.as_deref(), Some("127.0.0.1:9001"));
        assert_eq!(s.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!((s.leaves, s.fanouts.clone(), s.queue), (4, vec![2, 2], 64));
        assert!(parse(["serve".into(), "--leaves".into(), "0".into()]).is_err());
        assert!(parse(["serve".into(), "--queue".into(), "0".into()]).is_err());
        assert!(parse(["serve".into(), "--fanouts".into(), "2,x".into()]).is_err());

        let Command::Client(c) = parse_ok(&[
            "client",
            "--tenant",
            "plant-7",
            "--replay",
            "trace.csv",
            "--follow",
        ]) else {
            panic!("wrong command");
        };
        assert_eq!(c.tenant, "plant-7");
        assert_eq!(c.replay, "trace.csv");
        assert!(c.follow);
        assert_eq!(c.addr, "127.0.0.1:7433");
        // Both --tenant and --replay are mandatory.
        assert!(parse(["client".into(), "--replay".into(), "t.csv".into()]).is_err());
        assert!(parse(["client".into(), "--tenant".into(), "t".into()]).is_err());
    }

    #[test]
    fn detector_flag_selects_backends() {
        for kind in BackendKind::ALL {
            let Command::Simulate(s) = parse_ok(&["simulate", "--detector", kind.as_str()]) else {
                panic!("wrong command");
            };
            assert_eq!(s.algorithm, kind);
        }
        // --algorithm stays an alias for the same field.
        let Command::Simulate(s) = parse_ok(&["simulate", "--algorithm", "fqn"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.algorithm, BackendKind::Fqn);
        assert!(parse(["simulate".into(), "--detector".into(), "kde".into()]).is_err());
    }

    #[test]
    fn leading_flags_default_to_simulate() {
        let Command::Simulate(s) = parse_ok(&["--detector", "mmdew", "--readings", "500"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.algorithm, BackendKind::Mmdew);
        assert_eq!(s.readings, 500);
        // Unknown flags still error rather than silently simulating.
        assert!(parse(["--frobnicate".into()]).is_err());
    }

    #[test]
    fn serve_detector_parses_and_validates() {
        let Command::Serve(s) = parse_ok(&["serve", "--detector", "fqn"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.detector, BackendKind::Fqn);
        let Command::Serve(s) = parse_ok(&["serve"]) else {
            panic!("wrong command");
        };
        assert_eq!(s.detector, BackendKind::D3);
        for bad in ["mgdd", "centralized", "kde"] {
            assert!(parse(["serve".into(), "--detector".into(), bad.into()]).is_err());
        }
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_ok(&["help"]), Command::Help);
        assert_eq!(parse_ok(&["--help"]), Command::Help);
        assert_eq!(parse(std::iter::empty::<String>()).unwrap(), Command::Help);
    }
}
