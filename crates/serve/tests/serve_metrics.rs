//! The scrape endpoint and daemon health gauges, plus the slow-loris
//! frame deadline.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use snod_serve::wire::WIRE_MAGIC;
use snod_serve::{serve, ClientConfig, ServeClient, ServeConfig};

/// One-shot HTTP GET against the metrics listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("dial metrics");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn scrape_endpoints_report_daemon_health() {
    let spec = common::spec(1, &[]);
    let rows = common::synth_rows(&spec, 64, 21);
    let server = serve(ServeConfig {
        tenant: spec.clone(),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let maddr = server.metrics_addr().expect("metrics listener bound");

    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("scraped");
    for (node, seq, value) in &rows {
        client.send(h, *node, *seq, value.clone());
    }
    client.finish(h, common::totals(&spec, 64));
    assert!(client.wait_finished(h, Duration::from_secs(60)));
    // Give the supervisor sweep a cycle to refresh the gauges.
    std::thread::sleep(Duration::from_millis(250));

    let (status, body) = http_get(maddr, "/healthz");
    assert!(status.contains("200"), "healthz: {status}");
    assert!(body.contains("\"status\":\"ok\""), "healthz body: {body}");
    assert!(body.contains("\"tenants\":1"), "healthz body: {body}");

    let (status, body) = http_get(maddr, "/escalations");
    assert!(status.contains("200"), "escalations: {status}");
    assert!(
        body.starts_with('[') && body.ends_with(']'),
        "escalations body: {body}"
    );
    if !common::reference_detections(&spec, &rows, 64).is_empty() {
        assert!(
            body.contains("\"tenant\":\"scraped\""),
            "escalations must name the tenant: {body}"
        );
    }

    let (status, body) = http_get(maddr, "/metrics");
    assert!(status.contains("200"), "metrics: {status}");
    if snod_obs::enabled() {
        // The issue's required daemon-health gauges, by name. The obs
        // registry is process-global, so only presence is asserted.
        for gauge in [
            "serve.queue.depth",
            "serve.shed.count",
            "serve.reconnects",
            "serve.checkpoint.age_ms",
        ] {
            assert!(body.contains(gauge), "metrics missing {gauge}: {body}");
        }
    } else {
        assert!(body.contains("{"), "metrics body should be JSON: {body}");
    }

    let (status, _) = http_get(maddr, "/nope");
    assert!(status.contains("404"), "unknown path: {status}");

    server.shutdown();
}

#[test]
fn slow_loris_connections_are_dropped_at_the_frame_deadline() {
    let server = serve(ServeConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("daemon starts");

    // Trickle half a header and then stall: the daemon must cut us off
    // rather than hold the partial frame forever.
    let mut stream = TcpStream::connect(server.addr()).expect("dial");
    stream.write_all(&WIRE_MAGIC).expect("send magic");
    stream.write_all(&[0x01]).expect("send a dribble");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.stats().slow_loris_drops >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "slow-loris never dropped");
        std::thread::sleep(Duration::from_millis(50));
    }
    // The socket is actually dead: reads reach EOF once the daemon
    // closes its side.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = [0u8; 16];
    // EOF, an error frame or an RST are all acceptable forms of "dead".
    let _ = stream.read(&mut buf);

    // Idle-but-complete connections are NOT slow-loris: a Ping/Pong
    // conn sitting idle past the deadline stays up.
    let mut client = ServeClient::new(ClientConfig::new(server.addr().to_string()));
    let h = client.open("idle");
    client.pump(Duration::from_millis(500));
    client.send(h, 0, 0, vec![0.5]);
    client.pump(Duration::from_millis(200));
    assert_eq!(client.reconnects(), 0, "idle conn must not be culled");

    server.shutdown();
}
