//! A `ChainSampler` saved at any point of any stream loads, and the
//! restored sampler continues exactly as the original: the position
//! checks `load` runs reject no state `push` can reach.

use proptest::prelude::*;
use snod_persist::Persist;
use snod_sketch::ChainSampler;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_state_saved_mid_stream_always_loads(
        values in prop::collection::vec(0u64..1_000, 1..600),
        window in 1usize..80,
        sample_size in 1usize..24,
        seed in 0u64..1_000,
        cut in 0.0f64..1.0,
    ) {
        let mut sampler = ChainSampler::new(window, sample_size, seed).unwrap();
        let at = (cut * values.len() as f64) as usize;
        for &v in &values[..at] {
            sampler.push(v);
        }
        let restored = ChainSampler::<u64>::from_bytes(&sampler.to_bytes());
        prop_assert!(restored.is_ok(), "saved at {} of {}: {:?}", at, values.len(), restored.err());
        let mut restored = restored.unwrap();
        for &v in &values[at..] {
            prop_assert_eq!(sampler.push(v), restored.push(v));
        }
        prop_assert_eq!(sampler.to_bytes(), restored.to_bytes());
    }
}
