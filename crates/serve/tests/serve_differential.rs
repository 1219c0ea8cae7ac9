//! The tentpole proof: a stream served over TCP — through a hostile
//! fault proxy injecting disconnects, splits, duplicates, reorders and
//! corruption — produces escalations *identical* to the same trace run
//! through an in-process `Network`.

mod common;

use std::time::Duration;

use snod_serve::{serve, ClientConfig, FaultProxy, ServeClient, ServeConfig, SocketFaultPlan};

#[test]
fn clean_served_stream_matches_in_process_run() {
    let spec = common::spec(4, &[2, 2]);
    let rows = common::synth_rows(&spec, 96, 5);
    let want = common::reference_detections(&spec, &rows, 96);
    assert!(!want.is_empty(), "trace must produce detections");

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("clean");
    for (node, seq, value) in &rows {
        client.send(h, *node, *seq, value.clone());
        if seq % 32 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    client.finish(h, common::totals(&spec, 96));
    assert!(client.wait_finished(h, Duration::from_secs(30)), "stream completes");
    let got = client.query(h, Duration::from_secs(10)).expect("detections");
    assert_eq!(got, want);
    server.shutdown();
}

/// Regression: a clean run (no fault proxy, no reconnects, no
/// shedding) must count **zero** server-side duplicates. The client
/// used to re-send every in-flight row on a fixed 300 ms cadence —
/// faster than a loaded server acked — booking ~1.3 spurious
/// duplicates per reading on a run where nothing was ever lost.
#[test]
fn clean_run_counts_zero_duplicates() {
    let spec = common::spec(4, &[2, 2]);
    let rows = common::synth_rows(&spec, 96, 5);

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("clean-dups");
    for (node, seq, value) in &rows {
        client.send(h, *node, *seq, value.clone());
        if seq % 16 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    client.finish(h, common::totals(&spec, 96));
    assert!(client.wait_finished(h, Duration::from_secs(30)), "stream completes");

    let stats = server.stats();
    assert_eq!(client.reconnects(), 0, "run must be clean");
    assert_eq!(stats.shed, 0, "run must be clean");
    assert_eq!(
        stats.duplicates, 0,
        "clean run must not re-send in-flight rows"
    );
    server.shutdown();
}

#[test]
fn faulted_served_stream_matches_in_process_run_across_seeds() {
    for seed in [11u64, 29, 47] {
        let spec = common::spec(4, &[2, 2]);
        let rows = common::synth_rows(&spec, 96, seed);
        let want = common::reference_detections(&spec, &rows, 96);
        assert!(!want.is_empty(), "seed {seed}: trace must produce detections");

        let dir = common::temp_dir(&format!("diff-{seed}"));
        let server = serve(ServeConfig {
            tenant: spec.clone(),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 32,
            queue_capacity: 64,
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let proxy =
            FaultProxy::spawn(server.addr(), SocketFaultPlan::severe(seed)).expect("proxy starts");

        let mut client = ServeClient::new(ClientConfig::new(proxy.addr().to_string()));
        let h = client.open(format!("diff-{seed}"));
        for (node, seq, value) in &rows {
            client.send(h, *node, *seq, value.clone());
            if seq % 16 == 0 {
                client.pump(Duration::from_millis(1));
            }
        }
        client.finish(h, common::totals(&spec, 96));
        assert!(
            client.wait_finished(h, Duration::from_secs(120)),
            "seed {seed}: stream completes despite faults"
        );
        let got = client
            .query(h, Duration::from_secs(30))
            .expect("detections reply");
        assert_eq!(got, want, "seed {seed}: served != in-process");

        let stats = server.stats();
        assert!(stats.frames > 0);
        server.shutdown();
        drop(proxy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn duplicates_and_out_of_order_delivery_are_absorbed() {
    // No proxy — the client itself misbehaves: every reading sent
    // twice, each leaf's stream in reverse order. Sequence dedup and
    // the ingest buffer's reordering must still produce the reference
    // result.
    let spec = common::spec(2, &[2]);
    let rows = common::synth_rows(&spec, 64, 3);
    let want = common::reference_detections(&spec, &rows, 64);

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        queue_capacity: 1024,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("chaos");
    for (node, seq, value) in rows.iter().rev() {
        client.send(h, *node, *seq, value.clone());
        client.send(h, *node, *seq, value.clone());
        if seq % 16 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    client.finish(h, common::totals(&spec, 64));
    assert!(client.wait_finished(h, Duration::from_secs(60)));
    let got = client.query(h, Duration::from_secs(10)).expect("detections");
    assert_eq!(got, want);
    assert!(server.stats().duplicates > 0, "dedup must have fired");
    server.shutdown();
}

#[test]
fn load_shedding_sheds_without_losing_the_stream() {
    // A queue of 4 against a burst of hundreds of readings: the daemon
    // must shed (bounded memory) yet still converge to the reference
    // result via client retransmission.
    let spec = common::spec(1, &[]);
    let rows = common::synth_rows(&spec, 256, 13);
    let want = common::reference_detections(&spec, &rows, 256);

    let server = serve(ServeConfig {
        tenant: spec.clone(),
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("burst");
    for (node, seq, value) in &rows {
        client.send(h, *node, *seq, value.clone());
    }
    client.finish(h, common::totals(&spec, 256));
    assert!(client.wait_finished(h, Duration::from_secs(120)));
    let got = client.query(h, Duration::from_secs(10)).expect("detections");
    assert_eq!(got, want);
    server.shutdown();
}
