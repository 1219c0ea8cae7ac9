//! Non-default detector tenants served over TCP must match the same
//! trace run through an in-process `Network` — the serve-layer leg
//! of the cross-backend conformance story.

mod common;

use std::time::Duration;

use snod_core::BackendKind;
use snod_serve::{serve, ClientConfig, ServeClient, ServeConfig, TenantSpec};

fn serve_and_query(
    spec: &TenantSpec,
    rows: &[(u32, u64, Vec<f64>)],
    per_leaf: u64,
    tag: &str,
) -> Vec<common::DetRow> {
    let server = serve(ServeConfig {
        tenant: spec.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open(tag);
    for (node, seq, value) in rows {
        client.send(h, *node, *seq, value.clone());
        if seq % 32 == 0 {
            client.pump(Duration::from_millis(1));
        }
    }
    client.finish(h, common::totals(spec, per_leaf));
    assert!(
        client.wait_finished(h, Duration::from_secs(60)),
        "{tag}: stream completes"
    );
    let got = client
        .query(h, Duration::from_secs(10))
        .expect("detections");
    server.shutdown();
    got
}

#[test]
fn fqn_tenant_matches_in_process_run() {
    let spec = TenantSpec {
        detector: BackendKind::Fqn,
        ..common::spec(4, &[2, 2])
    };
    let rows = common::synth_rows(&spec, 96, 5);
    let want = common::reference_detections(&spec, &rows, 96);
    assert!(!want.is_empty(), "trace must produce FQN detections");

    let got = serve_and_query(&spec, &rows, 96, "fqn");
    assert_eq!(got, want, "served FQN != in-process FQN");
}

#[test]
fn mmdew_tenant_matches_in_process_run() {
    let spec = TenantSpec {
        detector: BackendKind::Mmdew,
        ..common::spec(4, &[2, 2])
    };
    let rows = common::shifted_rows(&spec, 160, 80, 9);
    let want = common::reference_detections(&spec, &rows, 160);
    assert!(!want.is_empty(), "shifted trace must raise MMDEW alarms");

    let got = serve_and_query(&spec, &rows, 160, "mmdew");
    assert_eq!(got, want, "served MMDEW != in-process MMDEW");
}

#[test]
fn detector_kinds_give_different_verdicts_on_the_same_trace() {
    // Sanity that the daemon really swaps engines: on a shifted trace
    // the MMDEW tenant alarms while the level-shift is invisible to the
    // FQN tenant's in-window robust scale at these settings, and vice
    // versa isolated spikes excite FQN but not MMDEW.
    let base = common::spec(2, &[2]);
    let shifted = {
        let spec = TenantSpec {
            detector: BackendKind::Mmdew,
            ..base.clone()
        };
        let rows = common::shifted_rows(&spec, 160, 80, 9);
        serve_and_query(&spec, &rows, 160, "mmdew-vs")
    };
    assert!(!shifted.is_empty(), "MMDEW must flag the mean shift");

    let spiky = {
        let spec = TenantSpec {
            detector: BackendKind::Fqn,
            ..base.clone()
        };
        let rows = common::synth_rows(&spec, 96, 5);
        serve_and_query(&spec, &rows, 96, "fqn-vs")
    };
    assert!(!spiky.is_empty(), "FQN must flag the injected spikes");
}
