//! Corruption suite: systematically mutated golden checkpoint files
//! must produce typed [`PersistError`]s — never a panic, never a
//! half-restored network. Table-driven: each row names a mutation of
//! the committed golden bytes and the error class it must map to.

use sensor_outliers::core::{
    build_backend_network, CentralizedBackend, CentralizedNode, CentralizedPayload, D3Backend,
    D3Config, D3Node, D3Payload, DetectorBackend, EstimatorConfig, FqnBackend, FqnConfig, FqnNode,
    FqnPayload, MmdewBackend, MmdewNode, MmdewNodeConfig, MmdewPayload,
};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::persist::{
    crc32, decode_checkpoint, PersistError, FORMAT_VERSION, HEADER_LEN,
};
use sensor_outliers::simnet::{FaultPlan, Hierarchy, Network, NodeId, SimConfig};

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    std::fs::read(path).expect("golden checkpoint exists (tests/golden_checkpoints.rs regenerates)")
}

fn golden_bytes() -> Vec<u8> {
    golden("d3.ckpt")
}

/// Patches the header checksum to match the (mutated) payload, so a
/// payload mutation is *not* caught by the CRC and must be caught by
/// the structural validation behind it.
fn fix_crc(bytes: &mut [u8]) {
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
}

/// The error class a mutation must land in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    BadMagic,
    UnsupportedVersion,
    BadChecksum,
    Truncated,
    /// Any typed decode error: deep-payload mutations may legitimately
    /// surface as `Corrupt`, `Truncated` or a checksum-sound structural
    /// rejection depending on which field the flip lands in.
    AnyTyped,
}

fn classify(err: &PersistError) -> Expect {
    match err {
        PersistError::BadMagic => Expect::BadMagic,
        PersistError::UnsupportedVersion { .. } => Expect::UnsupportedVersion,
        PersistError::BadChecksum { .. } => Expect::BadChecksum,
        PersistError::Truncated { .. } => Expect::Truncated,
        PersistError::Io(_) | PersistError::Corrupt(_) => Expect::AnyTyped,
    }
}

fn mutations() -> Vec<(&'static str, Vec<u8>, Expect)> {
    mutations_of(golden_bytes())
}

fn mutations_of(golden: Vec<u8>) -> Vec<(&'static str, Vec<u8>, Expect)> {
    let n = golden.len();
    // -- Truncations ---------------------------------------------------
    let mut rows: Vec<(&'static str, Vec<u8>, Expect)> = vec![
        ("empty file", Vec::new(), Expect::BadMagic),
        ("half the magic", golden[..4].to_vec(), Expect::BadMagic),
        ("magic only", golden[..8].to_vec(), Expect::Truncated),
        (
            "header cut short",
            golden[..HEADER_LEN - 1].to_vec(),
            Expect::Truncated,
        ),
        (
            "header only, payload gone",
            golden[..HEADER_LEN].to_vec(),
            Expect::Truncated,
        ),
        (
            "payload cut mid-way",
            golden[..n / 2].to_vec(),
            Expect::Truncated,
        ),
        (
            "last byte missing",
            golden[..n - 1].to_vec(),
            Expect::Truncated,
        ),
    ];

    // -- Header field corruption --------------------------------------
    let mut b = golden.clone();
    b[0] ^= 0xFF;
    rows.push(("first magic byte flipped", b, Expect::BadMagic));

    let mut b = golden.clone();
    b[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    rows.push(("future format version", b, Expect::UnsupportedVersion));

    let mut b = golden.clone();
    b[8..12].copy_from_slice(&0u32.to_le_bytes());
    rows.push(("version zero", b, Expect::UnsupportedVersion));

    let mut b = golden.clone();
    b[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    rows.push(("length field past the end", b, Expect::Truncated));

    let mut b = golden.clone();
    let short = (n - HEADER_LEN - 10) as u64;
    b[12..20].copy_from_slice(&short.to_le_bytes());
    rows.push(("length field shorter than payload", b, Expect::AnyTyped));

    let mut b = golden.clone();
    b[20] ^= 0x01;
    rows.push(("checksum field flipped", b, Expect::BadChecksum));

    // -- Payload corruption, CRC catching it --------------------------
    for (label, offset) in [
        ("payload byte 0 flipped", HEADER_LEN),
        ("payload mid flipped", HEADER_LEN + (n - HEADER_LEN) / 2),
        ("payload last byte flipped", n - 1),
    ] {
        let mut b = golden.clone();
        b[offset] ^= 0x10;
        rows.push((label, b, Expect::BadChecksum));
    }

    // -- Payload corruption with a *recomputed* CRC: the decoder's
    //    structural validation is the only line of defense ------------
    for (label, offset) in [
        ("crc-patched flip near start", HEADER_LEN + 3),
        ("crc-patched flip at 1/4", HEADER_LEN + (n - HEADER_LEN) / 4),
        ("crc-patched flip mid", HEADER_LEN + (n - HEADER_LEN) / 2),
        (
            "crc-patched flip at 3/4",
            HEADER_LEN + 3 * (n - HEADER_LEN) / 4,
        ),
    ] {
        let mut b = golden.clone();
        b[offset] ^= 0x80;
        fix_crc(&mut b);
        rows.push((label, b, Expect::AnyTyped));
    }

    // Trailing garbage after a valid payload.
    let mut b = golden.clone();
    b.push(0xAB);
    rows.push(("trailing garbage", b, Expect::AnyTyped));

    rows
}

fn build<B: DetectorBackend>(backend: &B) -> Network<B::Payload, B::Engine> {
    let topo = Hierarchy::balanced(4, &[2, 2]).unwrap();
    build_backend_network(backend, topo, SimConfig::default(), FaultPlan::none()).unwrap()
}

fn net() -> Network<D3Payload, D3Node> {
    let cfg = D3Config {
        estimator: EstimatorConfig::builder()
            .window(300)
            .sample_size(50)
            .seed(21)
            .build()
            .unwrap(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    };
    build(&D3Backend(cfg))
}

fn fqn_net() -> Network<FqnPayload, FqnNode> {
    let cfg = FqnConfig {
        dimensions: 1,
        window: 128,
        k_scale: 4.0,
        warmup: 32,
        sample_fraction: 0.5,
        seed: 21,
    };
    build(&FqnBackend(cfg))
}

fn mmdew_net() -> Network<MmdewPayload, MmdewNode> {
    let mut cfg = MmdewNodeConfig::default();
    cfg.detector.seed = 21;
    build(&MmdewBackend(cfg))
}

fn centralized_net() -> Network<CentralizedPayload, CentralizedNode> {
    build(&CentralizedBackend {
        rule: DistanceOutlierConfig::new(8.0, 0.05),
        window_per_leaf: 50,
    })
}

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    Some(vec![0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0)])
}

/// Runs the full mutation table over one golden, restoring each
/// mutant via `restore` (a fresh network per attempt).
fn run_gauntlet(tag: &str, golden: Vec<u8>, restore: impl Fn(&[u8]) -> Result<(), PersistError>) {
    for (label, bytes, expect) in mutations_of(golden) {
        // Envelope-level decode.
        let enveloped = decode_checkpoint(&bytes);
        // Full restore into a real network: must error, never panic.
        let restored = restore(&bytes);
        let err = match (enveloped, restored) {
            (Err(e), Err(_)) => e,
            (env, res) => match res {
                Err(e) => e,
                Ok(()) => {
                    assert!(
                        label.starts_with("crc-patched") && env.is_ok(),
                        "{tag}/{label}: decoded cleanly yet should have failed"
                    );
                    continue;
                }
            },
        };
        let got = classify(&err);
        assert!(
            expect == Expect::AnyTyped || got == expect,
            "{tag}/{label}: expected {expect:?}, got {got:?} ({err})"
        );
    }
}

// Deep-payload CRC-patched mutations may pass the envelope but must
// still fail the restore (or, for a lucky flip in dead padding, restore
// cleanly — the only mutation class where that is acceptable, because
// the envelope is honest). `run_gauntlet` encodes that contract.

#[test]
fn every_mutation_yields_a_typed_error_no_panic() {
    run_gauntlet("d3", golden_bytes(), |b| net().restore(b));
}

#[test]
fn fqn_golden_survives_the_same_gauntlet() {
    run_gauntlet("fqn", golden("fqn.ckpt"), |b| fqn_net().restore(b));
}

#[test]
fn mmdew_golden_survives_the_same_gauntlet() {
    run_gauntlet("mmdew", golden("mmdew.ckpt"), |b| mmdew_net().restore(b));
}

#[test]
fn centralized_golden_survives_the_same_gauntlet() {
    run_gauntlet("centralized", golden("centralized.ckpt"), |b| {
        centralized_net().restore(b)
    });
}

#[test]
fn a_failed_restore_leaves_the_network_fully_functional() {
    // Run every corrupted restore against ONE network, then prove the
    // survivor still produces the pristine trace: restore is
    // decode-all-then-commit, so a failure must not partially apply.
    let mut victim = net();
    for (label, bytes, _) in mutations() {
        if net().restore(&bytes).is_ok() {
            continue; // the rare benign crc-patched flip
        }
        assert!(victim.restore(&bytes).is_err(), "{label} restored twice?");
    }
    victim.run(&mut source, 200);

    let mut reference = net();
    reference.run(&mut source, 200);
    assert_eq!(reference.stats(), victim.stats());
}

#[test]
fn restore_of_a_valid_golden_still_works_after_the_gauntlet() {
    // Sanity: the suite above is testing corruption, not a broken
    // decoder — the untouched golden restores fine.
    let golden = golden_bytes();
    assert!(decode_checkpoint(&golden).is_ok());
    net().restore(&golden).unwrap();
}
