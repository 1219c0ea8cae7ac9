//! Crash-safety proofs: a daemon killed mid-ingest (`hard_abort`, the
//! in-process `kill -9` — no drain, no final checkpoint) restarts and
//! resumes every tenant from its last on-disk checkpoint; the
//! at-least-once client replays from the durable mark; sequence dedup
//! absorbs the overlap so the final escalations equal the in-process
//! reference with no duplicates. Plus: a single tenant worker crash is
//! supervised back to life without disturbing the stream.

mod common;

use std::time::{Duration, Instant};

use snod_serve::{serve, ClientConfig, ServeClient, ServeConfig, ServerHandle};

/// Binds the daemon to `addr`, retrying while the OS releases the port
/// the killed daemon held.
fn serve_on(addr: &str, cfg: &ServeConfig) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match serve(ServeConfig {
            addr: addr.to_string(),
            ..cfg.clone()
        }) {
            Ok(s) => return s,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("could not rebind {addr}: {e}");
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

#[test]
fn kill_dash_nine_mid_ingest_resumes_all_tenants_from_checkpoints() {
    let spec = common::spec(2, &[2]);
    let per_leaf = 96u64;
    let tenant_seeds = [101u64, 202, 303];
    let dir = common::temp_dir("restart");

    let cfg = ServeConfig {
        tenant: spec.clone(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 16,
        checkpoint_interval: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = serve(cfg.clone()).expect("daemon starts");
    let addr = server.addr().to_string();

    let mut client = ServeClient::new(ClientConfig {
        resend_interval: Duration::from_millis(100),
        ..ClientConfig::new(addr.clone())
    });
    let mut handles = Vec::new();
    let mut all_rows = Vec::new();
    let mut references = Vec::new();
    for &seed in &tenant_seeds {
        let rows = common::synth_rows(&spec, per_leaf, seed);
        references.push(common::reference_detections(&spec, &rows, per_leaf));
        handles.push(client.open(format!("t{seed}")));
        all_rows.push(rows);
    }

    // Phase 1: ~60% of every stream, with a sprinkle of deliberate
    // double-sends so the dedup path provably fires.
    let cut = (all_rows[0].len() * 3) / 5;
    for (i, rows) in all_rows.iter().enumerate() {
        for (node, seq, value) in &rows[..cut] {
            client.send(handles[i], *node, *seq, value.clone());
            if seq % 10 == 0 {
                client.send(handles[i], *node, *seq, value.clone());
            }
        }
    }
    // Let every tenant land at least one checkpoint covering progress.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().checkpoints < tenant_seeds.len() as u64 {
        assert!(Instant::now() < deadline, "tenants never checkpointed");
        client.pump(Duration::from_millis(50));
    }
    let dups_before_kill = server.stats().duplicates;
    assert!(dups_before_kill > 0, "deliberate double-sends must dedup");

    // Phase 2: kill -9. No drain, no final checkpoint — the disk holds
    // only what the periodic checkpoints managed to write.
    server.hard_abort();

    // Phase 3: restart on the same address and directory; finish every
    // stream through the same client, which redials and replays from
    // the durable mark.
    let server = serve_on(&addr, &cfg);
    for (i, rows) in all_rows.iter().enumerate() {
        for (node, seq, value) in &rows[cut..] {
            client.send(handles[i], *node, *seq, value.clone());
            if seq % 10 == 0 {
                // Same deliberate double-sends as phase 1, so the *new*
                // daemon's dedup counter provably moves too.
                client.send(handles[i], *node, *seq, value.clone());
            }
            if seq % 16 == 0 {
                client.pump(Duration::from_millis(1));
            }
        }
        client.finish(handles[i], common::totals(&spec, per_leaf));
    }
    for (i, &h) in handles.iter().enumerate() {
        assert!(
            client.wait_finished(h, Duration::from_secs(120)),
            "tenant {i} completes after restart"
        );
        assert_eq!(
            client.resumed(h),
            Some(true),
            "tenant {i} must resume from its checkpoint, not start fresh"
        );
    }
    for (i, &h) in handles.iter().enumerate() {
        let got = client
            .query(h, Duration::from_secs(30))
            .expect("detections");
        assert_eq!(
            got, references[i],
            "tenant {i}: escalations after kill -9 + resume differ from reference (duplicate or lost escalations)"
        );
    }
    // Replay-from-durable necessarily overlaps the restored buffer.
    assert!(
        server.stats().duplicates > 0,
        "post-restart replay should be absorbed by seq dedup"
    );
    assert!(client.reconnects() >= 1, "client must have redialed");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_tenant_worker_is_respawned_from_checkpoint() {
    let spec = common::spec(1, &[]);
    let per_leaf = 128u64;
    let rows = common::synth_rows(&spec, per_leaf, 77);
    let want = common::reference_detections(&spec, &rows, per_leaf);
    let dir = common::temp_dir("crash");

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 16,
        checkpoint_interval: Duration::from_millis(200),
        allow_crash_frames: true,
        ..ServeConfig::default()
    })
    .expect("daemon starts");

    let mut client = ServeClient::new(ClientConfig {
        resend_interval: Duration::from_millis(100),
        ..ClientConfig::new(server.addr().to_string())
    });
    let h = client.open("fragile");
    let mid = rows.len() / 2;
    for (node, seq, value) in &rows[..mid] {
        client.send(h, *node, *seq, value.clone());
        if seq % 16 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    // Wait for a checkpoint, then panic the worker thread.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().checkpoints == 0 {
        assert!(Instant::now() < deadline, "tenant never checkpointed");
        client.pump(Duration::from_millis(50));
    }
    client.inject_crash(h);

    for (node, seq, value) in &rows[mid..] {
        client.send(h, *node, *seq, value.clone());
        if seq % 16 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    client.finish(h, common::totals(&spec, per_leaf));
    assert!(
        client.wait_finished(h, Duration::from_secs(120)),
        "stream completes across the worker crash"
    );
    let got = client
        .query(h, Duration::from_secs(30))
        .expect("detections");
    assert_eq!(
        got, want,
        "escalations across a worker crash differ from reference"
    );
    assert!(
        server.stats().worker_restarts >= 1,
        "supervisor must have respawned the worker"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_and_checkpoints() {
    let spec = common::spec(1, &[]);
    let rows = common::synth_rows(&spec, 64, 9);
    let dir = common::temp_dir("drain");

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        checkpoint_dir: Some(dir.clone()),
        // Interval checkpoints effectively off: only the shutdown drain
        // writes the file.
        checkpoint_every: 0,
        checkpoint_interval: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();

    let mut client = ServeClient::new(ClientConfig::new(addr.clone()));
    let h = client.open("drainee");
    for (node, seq, value) in &rows {
        client.send(h, *node, *seq, value.clone());
    }
    // Shut down while readings may still be queued: the drain must
    // process them and write a final checkpoint.
    client.pump(Duration::from_millis(100));
    server.shutdown();
    let ckpt = dir.join("drainee.ckpt");
    assert!(ckpt.exists(), "graceful shutdown must leave a checkpoint");

    // A fresh daemon restores it and reports the tenant as resumed with
    // all buffered progress intact.
    let server = serve_on(
        &addr,
        &ServeConfig {
            tenant: spec.clone(),
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let mut client2 = ServeClient::new(ClientConfig::new(addr));
    let h2 = client2.open("drainee");
    client2.pump(Duration::from_millis(200));
    assert_eq!(client2.resumed(h2), Some(true));
    client2.finish(h2, common::totals(&spec, 64));
    assert!(client2.wait_finished(h2, Duration::from_secs(60)));
    let got = client2
        .query(h2, Duration::from_secs(10))
        .expect("detections");
    let want = common::reference_detections(&spec, &rows, 64);
    assert_eq!(got, want, "drained state must carry the full stream");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
