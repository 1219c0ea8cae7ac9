//! The daemon as its own process. The child side is this binary
//! re-executed as `snod-benchmark daemon …`: it starts
//! `snod_serve::serve` with the CLI defaults and obeys one-word commands
//! on standard input. The parent side spawns it, reads its address,
//! asks it for counters, and stops or kills it.
//!
//! Running the program under test in a process of its own is what makes
//! `cpu_us_per_reading`, `peak_rss_mb` and `serve.threads` the daemon's
//! and not the load generator's — and what lets `serve.recover_ms` be a
//! real `kill -9`.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

use snod_core::BackendKind;
use snod_serve::{serve, ServeConfig, TenantSpec};

use crate::manifest as m;

/// The two tenant shapes the serve workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One leaf, one node.
    Thin,
    /// Sixteen leaves under `fanouts [4, 4]`: 21 nodes.
    Fat,
}

impl Shape {
    fn as_str(self) -> &'static str {
        match self {
            Shape::Thin => "thin",
            Shape::Fat => "fat",
        }
    }

    pub fn spec(self) -> TenantSpec {
        let (leaves, fanouts) = match self {
            Shape::Thin => (1, Vec::new()),
            Shape::Fat => (m::PACED_TENANT_LEAVES, m::PACED_FANOUTS.to_vec()),
        };
        TenantSpec {
            leaves,
            fanouts,
            window: m::SERVE_WINDOW,
            sample_size: m::SERVE_SAMPLE,
            radius: m::SERVE_RADIUS,
            min_neighbors: m::SERVE_MIN_NEIGHBORS,
            sample_fraction: m::SAMPLE_FRACTION,
            seed: m::DETECTOR_SEED,
            reading_period_ns: m::SERVE_PERIOD_NS,
            detector: BackendKind::D3,
            ..TenantSpec::default()
        }
    }
}

/// Child side: `daemon --dir <checkpoint dir> --shape thin|fat`.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut dir = None;
    let mut shape = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next().map(String::as_str)) {
            ("--dir", Some(d)) => dir = Some(PathBuf::from(d)),
            ("--shape", Some("thin")) => shape = Some(Shape::Thin),
            ("--shape", Some("fat")) => shape = Some(Shape::Fat),
            _ => return Err(format!("daemon: bad argument {flag}")),
        }
    }
    let cfg = ServeConfig {
        checkpoint_dir: Some(dir.ok_or("daemon: --dir is required")?),
        checkpoint_every: m::CHECKPOINT_EVERY,
        checkpoint_interval: Duration::from_millis(m::CHECKPOINT_INTERVAL_MS),
        queue_capacity: m::QUEUE_CAPACITY,
        tenant: shape.ok_or("daemon: --shape is required")?.spec(),
        ..ServeConfig::default()
    };
    let server = serve(cfg).map_err(|e| format!("daemon: {e}"))?;
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    say(format!("ADDR {}", server.addr()))?;
    for line in std::io::stdin().lock().lines() {
        match line.map_err(|e| e.to_string())?.trim() {
            "stats" => {
                let s = server.stats();
                say(format!(
                    "STATS {} {} {} {}",
                    s.shed, s.duplicates, s.checkpoints, s.worker_restarts
                ))?;
            }
            "shutdown" => {
                server.shutdown();
                return say("BYE".into());
            }
            other => return Err(format!("daemon: unknown command {other:?}")),
        }
    }
    // Standard input closed: the parent is gone. Dropping the handle
    // aborts without a drain, like the kill the parent would have sent.
    Ok(())
}

/// The counters the parent reads back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub shed: u64,
    pub duplicates: u64,
    pub checkpoints: u64,
    pub worker_restarts: u64,
}

/// Parent side: a running daemon child.
pub struct DaemonProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl DaemonProc {
    pub fn spawn(dir: &Path, shape: Shape) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--dir")
            .arg(dir)
            .args(["--shape", shape.as_str()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let addr = read.and_then(|_| {
            line.trim()
                .strip_prefix("ADDR ")
                .and_then(|a| a.parse().ok())
                .ok_or(format!("daemon did not report an address: {line:?}"))
        });
        match addr {
            Ok(addr) => Ok(Self {
                child,
                stdin,
                stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn ask(&mut self, command: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon already stopped")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Ok(line.trim().to_string())
    }

    pub fn counters(&mut self) -> Result<Counters, String> {
        let line = self.ask("stats")?;
        let nums: Vec<u64> = line
            .strip_prefix("STATS ")
            .map(|rest| rest.split(' ').filter_map(|n| n.parse().ok()).collect())
            .unwrap_or_default();
        match nums[..] {
            [shed, duplicates, checkpoints, worker_restarts] => Ok(Counters {
                shed,
                duplicates,
                checkpoints,
                worker_restarts,
            }),
            _ => Err(format!("daemon answered {line:?} to stats")),
        }
    }

    /// Graceful stop: drain, final checkpoints, exit; waits for the child.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = self.ask("shutdown")?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if bye == "BYE" && status.success() {
            Ok(())
        } else {
            Err(format!("daemon shutdown: said {bye:?}, exit {status}"))
        }
    }

    /// `kill -9`, then reaps the child.
    pub fn kill(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// No daemon outlives its handle, whatever path the parent leaves by.
impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.stop_now();
    }
}
