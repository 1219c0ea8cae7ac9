//! Property test: MDEF evaluations served from an [`IncrementalReplica`]'s
//! cell-count memo have the same bits as a plain evaluation of the
//! replica's current model.
//!
//! The memo is derived state. It must be cleared by every change to the
//! model (an in-place push, a rebuilding push, a full replace) and must
//! never reach a checkpoint, so a `save`/`load` round trip starts it
//! empty. A twin replica that sees the same operations but never uses
//! the memo must therefore write the same checkpoint bytes after every
//! step.

use proptest::prelude::*;

use snod_core::{IncrementalReplica, RebuildPolicy};
use snod_outlier::{MdefConfig, MdefDetector, MdefEvaluation};
use snod_persist::Persist;

const SIGMA: f64 = 0.1;
const WINDOW: f64 = 512.0;

fn bits(e: &MdefEvaluation) -> (u64, u64, u64, u64, bool) {
    (
        e.count.to_bits(),
        e.avg_count.to_bits(),
        e.mdef.to_bits(),
        e.sigma_mdef.to_bits(),
        e.is_outlier,
    )
}

/// A point of `dims` coordinates from the op's random numbers, with
/// every coordinate in `lo + span·[0, 1)`.
fn point(dims: usize, xs: [f64; 2], lo: f64, span: f64) -> Vec<f64> {
    xs[..dims].iter().map(|x| lo + span * x).collect()
}

/// Evaluates every probe through the memo and plainly, and checks the
/// twin's checkpoint bytes.
fn check(
    memoized: &mut IncrementalReplica,
    plain: &mut IncrementalReplica,
    det: &MdefDetector,
    probes: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    for q in probes {
        let Ok((model, memo)) = memoized.model_with_memo() else {
            prop_assert!(plain.model().is_err());
            continue;
        };
        let got = det.evaluate_memoized(model, q, memo).unwrap();
        let want = det.evaluate(memoized.model().unwrap(), q).unwrap();
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "memoized {:?} != plain {:?} at {:?}",
            got,
            want,
            q
        );
        let twin = det.evaluate(plain.model().unwrap(), q).unwrap();
        prop_assert_eq!(bits(&twin), bits(&want));
    }
    prop_assert!(
        memoized.to_bytes() == plain.to_bytes(),
        "memo leaked into the checkpoint"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memoized_mdef_matches_plain_after_every_step(
        dims in 1usize..3,
        cap in 8usize..40,
        rebuild_every in 2u64..12,
        ops in prop::collection::vec((0u32..10, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 20..80),
    ) {
        let policy = RebuildPolicy { rebuild_every, sigma_tolerance: 0.2 };
        let det = MdefDetector::new(MdefConfig::new(0.08, 0.01, 3.0).unwrap());
        let mut memoized = IncrementalReplica::new(cap, policy);
        let mut plain = IncrementalReplica::new(cap, policy);
        let fixed: Vec<Vec<f64>> = [[0.5, 0.5], [0.42, 0.58], [0.61, 0.37], [0.01, 0.99]]
            .iter()
            .map(|q| q[..dims].to_vec())
            .collect();
        for (kind, x, y, z) in ops {
            let sigmas = vec![SIGMA; dims];
            match kind {
                // In-place pushes (a rebuild only when the budget is spent).
                0..=4 => {
                    let v = point(dims, [x, y], 0.25, 0.5);
                    memoized.push(v.clone(), sigmas.clone(), WINDOW);
                    plain.push(v, sigmas, WINDOW);
                }
                // σ drifts past tolerance: the push drops the model.
                5 => {
                    let drifted = vec![SIGMA * (1.5 + z); dims];
                    let v = point(dims, [x, y], 0.25, 0.5);
                    memoized.push(v.clone(), drifted.clone(), WINDOW);
                    plain.push(v, drifted, WINDOW);
                }
                6 => {
                    let sample: Vec<Vec<f64>> = (0..cap)
                        .map(|i| {
                            let t = i as f64 * 0.618_034;
                            point(dims, [(x + t).fract(), (y + 0.5 * t).fract()], 0.3, 0.4)
                        })
                        .collect();
                    memoized.replace(sample.clone(), sigmas.clone(), WINDOW);
                    plain.replace(sample, sigmas, WINDOW);
                }
                7 => {
                    prop_assert_eq!(memoized.model().is_ok(), plain.model().is_ok());
                }
                8 => {
                    memoized = IncrementalReplica::from_bytes(&memoized.to_bytes()).unwrap();
                    plain = IncrementalReplica::from_bytes(&plain.to_bytes()).unwrap();
                }
                _ => {
                    let q = point(dims, [x, y], -0.1, 1.2);
                    check(&mut memoized, &mut plain, &det, &[q.clone(), q])?;
                }
            }
            let mut probes = fixed.clone();
            probes.push(point(dims, [z, x], 0.2, 0.6));
            check(&mut memoized, &mut plain, &det, &probes)?;
        }
    }
}
