//! Sensor noise model.
//!
//! Photon shot noise is signal-dependent (variance proportional to signal);
//! read noise is additive Gaussian. Both act in linear light, before gamma
//! encoding — which is why dark regions of a capture look noisier after
//! encoding, a behaviour the decoder's threshold must tolerate.
//!
//! The uniform draws come from a SplitMix64 stream. Its draw `n` is a
//! pure function of the key and `n`, so a pixel's two draws are addressed
//! by its index (draws `first + 2i` and `first + 2i + 1` of the call), and
//! a row band jumps straight to its first draw. That lets the noise run
//! band-parallel and still reproduce, bit for bit, the realisation of one
//! sequential stream seeded like `StdRng::seed_from_u64(seed)`.

/// SplitMix64's state increment; the seed is also masked with it.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function of a state.
#[inline]
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform `f64` in `[0, 1)` from 64 random bits (the top 53).
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic per-camera noise source.
#[derive(Debug)]
pub struct NoiseSource {
    /// Stream key: the state before draw 0.
    key: u64,
    /// Index of the next unused draw.
    next_draw: u64,
    /// Read noise σ (linear light units).
    pub read_sigma: f64,
    /// Shot noise scale `k`: variance = `k · light`.
    pub shot_scale: f64,
}

impl NoiseSource {
    /// Creates a seeded noise source.
    pub fn new(seed: u64, read_sigma: f64, shot_scale: f64) -> Self {
        assert!(read_sigma >= 0.0 && shot_scale >= 0.0, "noise must be >= 0");
        Self {
            key: seed ^ GOLDEN,
            next_draw: 0,
            read_sigma,
            shot_scale,
        }
    }

    /// Reserves the draws for `samples` pixels and returns their noise,
    /// which [`NoiseBlock::apply`] adds to any band of those pixels. A
    /// noiseless source reserves nothing.
    pub(crate) fn block(&mut self, samples: usize) -> NoiseBlock {
        let enabled = self.read_sigma != 0.0 || self.shot_scale != 0.0;
        let first = self.next_draw;
        if enabled {
            self.next_draw = first.wrapping_add(2 * samples as u64);
        }
        NoiseBlock {
            key: self.key,
            first,
            read: self.read_sigma,
            shot: self.shot_scale,
            enabled,
        }
    }
}

/// The noise of one [`NoiseSource`] call over a run of samples, addressable
/// by sample index so that bands of the run can be noised independently.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoiseBlock {
    key: u64,
    first: u64,
    read: f64,
    shot: f64,
    enabled: bool,
}

impl NoiseBlock {
    /// Noises samples `offset..offset + samples.len()` of the run in place
    /// (Box–Muller over the pixel's two draws, one branch kept), clamping
    /// to non-negative light, then maps each result through `then`. A
    /// noiseless block only applies `then`.
    pub(crate) fn apply(&self, offset: usize, samples: &mut [f32], then: impl Fn(f32) -> f32) {
        if !self.enabled {
            for v in samples {
                *v = then(*v);
            }
            return;
        }
        let (read, shot) = (self.read, self.shot);
        let first = self.first.wrapping_add(2 * offset as u64);
        let mut state = self.key.wrapping_add(first.wrapping_mul(GOLDEN));
        for v in samples {
            state = state.wrapping_add(GOLDEN);
            let u1 = unit(mix(state)).max(1e-300);
            state = state.wrapping_add(GOLDEN);
            let u2 = unit(mix(state));
            let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let l = (*v as f64).max(0.0);
            let sigma = (read * read + shot * l).sqrt();
            let noisy = l + sigma * gaussian;
            *v = then(noisy.max(0.0) as f32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_frame::plane::band_rows;
    use inframe_frame::{ParallelEngine, Plane};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The sequential noise loop the counter-addressed stream replaces:
    /// one `StdRng` drawn in pixel order.
    struct Oracle {
        rng: StdRng,
        read: f64,
        shot: f64,
    }

    impl Oracle {
        fn gaussian(&mut self) -> f64 {
            let u1: f64 = self.rng.random::<f64>().max(1e-300);
            let u2: f64 = self.rng.random::<f64>();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }

        fn apply(&mut self, light: &mut Plane<f32>) {
            if self.read == 0.0 && self.shot == 0.0 {
                return;
            }
            let (read, shot) = (self.read, self.shot);
            for v in light.samples_mut() {
                let l = (*v as f64).max(0.0);
                let sigma = (read * read + shot * l).sqrt();
                let noisy = l + sigma * self.gaussian();
                *v = noisy.max(0.0) as f32;
            }
        }
    }

    /// Noises a plane the way `Camera::capture` does: one block for the
    /// whole plane, applied in row bands on `engine`.
    fn noise_plane(source: &mut NoiseSource, engine: &ParallelEngine, light: &mut Plane<f32>) {
        let block = source.block(light.len());
        let width = light.width();
        engine.for_each_band(light, |rows, band| {
            block.apply(rows.start * width, band, |v| v)
        });
    }

    /// Light from below zero to above one, varying per call.
    fn test_light(width: usize, height: usize, call: usize) -> Plane<f32> {
        Plane::from_fn(width, height, |x, y| {
            ((x * 7 + y * 13 + call * 5) % 23) as f32 / 18.0 - 0.1
        })
    }

    fn same_bits(a: &Plane<f32>, b: &Plane<f32>) -> bool {
        a.samples()
            .iter()
            .zip(b.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Property: over random plane sizes, call counts, σ (either may
        /// be zero) and partitions into 1–5 row bands, noise applied band
        /// by band, last band first, is bit-identical to the sequential
        /// `StdRng` loop: each band jumps to its own draws.
        #[test]
        fn banded_noise_matches_the_sequential_stream(
            seed in any::<u64>(),
            width in 1usize..40,
            height in 1usize..40,
            calls in 1usize..4,
            read in 0.0f64..0.05,
            read_off in any::<bool>(),
            shot in 0.0f64..0.002,
            shot_off in any::<bool>(),
            bands in 1usize..6,
        ) {
            let read = if read_off { 0.0 } else { read };
            let shot = if shot_off { 0.0 } else { shot };
            let mut source = NoiseSource::new(seed, read, shot);
            let mut oracle = Oracle { rng: StdRng::seed_from_u64(seed), read, shot };
            for call in 0..calls {
                let (mut got, mut want) = (test_light(width, height, call), test_light(width, height, call));
                let block = source.block(got.len());
                let samples = got.samples_mut();
                for rows in band_rows(height, bands).collect::<Vec<_>>().into_iter().rev() {
                    let band = &mut samples[rows.start * width..rows.end * width];
                    block.apply(rows.start * width, band, |v| v);
                }
                oracle.apply(&mut want);
                prop_assert!(same_bits(&got, &want), "call {} differs in {} bands", call, bands);
            }
        }
    }

    /// The engine path `Camera::capture` takes, at a size where every one
    /// of up to five bands (33 rows of 2048 samples) reaches the engine's
    /// spawn grain of 64 Ki elements, so worker threads really run the
    /// jump-ahead.
    #[test]
    fn spawned_bands_match_the_sequential_stream() {
        for workers in 1..=5 {
            let engine = ParallelEngine::new(workers);
            let mut source = NoiseSource::new(77, 0.02, 0.001);
            let mut oracle = Oracle {
                rng: StdRng::seed_from_u64(77),
                read: 0.02,
                shot: 0.001,
            };
            for call in 0..2 {
                let (mut got, mut want) =
                    (test_light(2048, 161, call), test_light(2048, 161, call));
                noise_plane(&mut source, &engine, &mut got);
                oracle.apply(&mut want);
                assert!(
                    same_bits(&got, &want),
                    "call {call} differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut src = NoiseSource::new(1, 0.0, 0.0);
        let mut p = Plane::filled(8, 8, 0.5);
        let orig = p.clone();
        noise_plane(&mut src, &ParallelEngine::sequential(), &mut p);
        assert_eq!(p, orig);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = NoiseSource::new(42, 0.01, 0.0);
        let mut b = NoiseSource::new(42, 0.01, 0.0);
        let mut pa = Plane::filled(16, 16, 0.5);
        let mut pb = Plane::filled(16, 16, 0.5);
        noise_plane(&mut a, &ParallelEngine::sequential(), &mut pa);
        noise_plane(&mut b, &ParallelEngine::sequential(), &mut pb);
        assert_eq!(pa, pb);
    }

    #[test]
    fn read_noise_statistics_match_sigma() {
        let mut src = NoiseSource::new(7, 0.02, 0.0);
        let mut p = Plane::filled(128, 128, 0.5);
        noise_plane(&mut src, &ParallelEngine::sequential(), &mut p);
        let mean = p.mean();
        let std = p.variance().sqrt();
        assert!((mean - 0.5).abs() < 0.002, "mean {mean}");
        assert!((std - 0.02).abs() < 0.002, "std {std}");
    }

    #[test]
    fn shot_noise_grows_with_signal() {
        let mut src = NoiseSource::new(9, 0.0, 0.01);
        let mut dark = Plane::filled(128, 128, 0.05);
        let mut bright = Plane::filled(128, 128, 0.8);
        noise_plane(&mut src, &ParallelEngine::sequential(), &mut dark);
        let mut src2 = NoiseSource::new(9, 0.0, 0.01);
        noise_plane(&mut src2, &ParallelEngine::sequential(), &mut bright);
        assert!(bright.variance() > dark.variance() * 4.0);
    }

    #[test]
    fn light_never_goes_negative() {
        let mut src = NoiseSource::new(3, 0.5, 0.0); // absurdly noisy
        let mut p = Plane::filled(64, 64, 0.01);
        noise_plane(&mut src, &ParallelEngine::sequential(), &mut p);
        assert!(p.min_sample() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "noise must be >= 0")]
    fn negative_sigma_rejected() {
        let _ = NoiseSource::new(0, -0.1, 0.0);
    }
}
