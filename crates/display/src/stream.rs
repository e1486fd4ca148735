//! Streaming presentation of frames on a simulated panel.
//!
//! [`DisplayStream`] consumes code-value frames (what the InFrame sender
//! produces) and yields one [`FrameEmission`] per refresh interval,
//! threading the pixel response state from frame to frame. Memory stays
//! bounded: only the current attained plane is retained, and emission
//! planes come from a frame pool the stream owns, so a dropped emission
//! hands its buffers to the next frame.

use std::sync::Arc;

use crate::config::DisplayConfig;
use crate::emission::FrameEmission;
use inframe_frame::{FramePool, ParallelEngine, Plane, PooledPlane};

/// Presents a sequence of frames on a [`DisplayConfig`]-described panel.
#[derive(Debug)]
pub struct DisplayStream {
    config: DisplayConfig,
    engine: Arc<ParallelEngine>,
    /// Emission planes, shaped by the first presented frame.
    pool: Option<FramePool>,
    /// Current pixel light level (start state for the next frame).
    attained: Option<PooledPlane>,
    /// Index of the next frame to present.
    frame_index: u64,
}

impl DisplayStream {
    /// Creates a stream for the given panel, presenting on
    /// [`ParallelEngine::from_env`] workers. The panel starts dark
    /// (all-zero light), as after power-on.
    pub fn new(config: DisplayConfig) -> Self {
        Self::with_engine(config, Arc::new(ParallelEngine::from_env()))
    }

    /// [`DisplayStream::new`] presenting on an explicit engine. The
    /// emissions are bit-identical at every worker count.
    pub fn with_engine(config: DisplayConfig, engine: Arc<ParallelEngine>) -> Self {
        config.validate();
        Self {
            config,
            engine,
            pool: None,
            attained: None,
            frame_index: 0,
        }
    }

    /// The panel configuration.
    pub fn config(&self) -> &DisplayConfig {
        &self.config
    }

    /// Absolute start time of the next refresh interval.
    pub fn next_frame_time(&self) -> f64 {
        self.frame_index as f64 * self.config.frame_duration()
    }

    /// Presents one frame of code values (0–255) and returns its emission.
    ///
    /// One band-parallel pass converts codes to the LC target and, from
    /// the target and the previous frame's attained level (which moves
    /// into the emission's `initial`), the level this frame attains.
    ///
    /// # Panics
    /// Panics if the frame shape differs from previously presented frames.
    pub fn present(&mut self, code_frame: &Plane<f32>) -> FrameEmission {
        let (width, height) = code_frame.shape();
        let t_start = self.next_frame_time();
        let pool = self
            .pool
            .get_or_insert_with(|| FramePool::new(width, height));
        let initial = match self.attained.take() {
            Some(prev) => {
                assert_eq!(
                    prev.shape(),
                    code_frame.shape(),
                    "frame shape changed mid-stream"
                );
                prev
            }
            // Power-on: dark panel.
            None => pool.checkout(),
        };
        let mut emission = FrameEmission {
            t_start,
            duration: self.config.frame_duration(),
            tau: self.config.response_tau_s(),
            strobe: self.config.strobe_window(),
            target: pool.checkout_for_overwrite(),
            initial,
        };
        let mut attained = pool.checkout_for_overwrite();
        let decay = emission.lc_decay(emission.duration);
        let config = &self.config;
        let initial = &emission.initial;
        self.engine.for_each_band_pair(
            &mut emission.target,
            &mut attained,
            |rows, target, next| {
                let span = rows.start * width..rows.end * width;
                let codes = &code_frame.samples()[span.clone()];
                let initial = &initial.samples()[span];
                // Frames are mostly runs of equal codes, and a chessboard
                // row alternates between two of them, while equal bits
                // convert to equal light. So the last two codes seen, most
                // recent first, are kept with their light, and a run costs
                // one transfer-function evaluation. The memo is only a
                // cache (it starts with code 0's true light), so
                // restarting it per band changes no output.
                let zero = (0f32.to_bits(), config.code_to_light(0.0));
                let mut memo = [zero, zero];
                for (((t, a), &c), &i) in target.iter_mut().zip(next).zip(codes).zip(initial) {
                    let bits = c.to_bits();
                    let light = if memo[0].0 == bits {
                        memo[0].1
                    } else if memo[1].0 == bits {
                        memo.swap(0, 1);
                        memo[0].1
                    } else {
                        let light = config.code_to_light(c);
                        memo = [(bits, light), memo[0]];
                        light
                    };
                    *t = light;
                    *a = FrameEmission::lc(light, i, decay) as f32;
                }
            },
        );
        self.attained = Some(attained);
        self.frame_index += 1;
        emission
    }

    /// Presents a whole sequence, returning all emissions (convenience for
    /// tests and short analyses; long pipelines should present one frame at
    /// a time).
    pub fn present_all(&mut self, frames: &[Plane<f32>]) -> Vec<FrameEmission> {
        frames.iter().map(|f| self.present(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_starts_dark() {
        let mut s = DisplayStream::new(DisplayConfig::eizo_fg2421());
        let e = s.present(&Plane::filled(4, 4, 255.0));
        assert_eq!(e.initial.get(0, 0), 0.0);
        assert!(e.target.get(0, 0) > 0.9);
        assert_eq!(e.t_start, 0.0);
    }

    #[test]
    fn state_threads_between_frames() {
        let mut s = DisplayStream::new(DisplayConfig::eizo_fg2421());
        let e1 = s.present(&Plane::filled(2, 2, 255.0));
        let e2 = s.present(&Plane::filled(2, 2, 0.0));
        assert_eq!(e2.initial, e1.attained());
        assert!((e2.t_start - 1.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_panel_emits_exact_targets() {
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        let e = s.present(&Plane::filled(2, 2, 127.0));
        let expect = DisplayConfig::ideal_120hz().code_to_light(127.0);
        assert_eq!(e.sample(0.0).get(0, 0), expect);
        assert_eq!(e.average(0.0, e.duration).get(0, 0), expect);
    }

    #[test]
    fn response_attenuates_alternation() {
        // ±δ alternation on a slow panel never reaches its targets, so the
        // captured amplitude shrinks — a real-world effect the camera model
        // inherits from here.
        let slow = DisplayConfig {
            response_tau_ms: 6.0,
            ..DisplayConfig::eizo_fg2421_no_strobe()
        };
        let mut s = DisplayStream::new(slow);
        let hi = Plane::filled(1, 1, 147.0);
        let lo = Plane::filled(1, 1, 107.0);
        // Warm up with several alternations, then measure swing.
        let mut last_hi = 0.0;
        let mut last_lo = 0.0;
        for i in 0..20 {
            let e = if i % 2 == 0 {
                s.present(&hi)
            } else {
                s.present(&lo)
            };
            let end = e.sample_pixel(0, 0, e.duration);
            if i % 2 == 0 {
                last_hi = end;
            } else {
                last_lo = end;
            }
        }
        let swing = last_hi - last_lo;
        let ideal_swing = DisplayConfig::eizo_fg2421().code_to_light(147.0)
            - DisplayConfig::eizo_fg2421().code_to_light(107.0);
        assert!(swing > 0.0);
        assert!(
            swing < ideal_swing as f64 as f32,
            "slow panel must attenuate: {swing} vs {ideal_swing}"
        );
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_panics() {
        let mut s = DisplayStream::new(DisplayConfig::default());
        s.present(&Plane::filled(4, 4, 0.0));
        s.present(&Plane::filled(3, 3, 0.0));
    }

    /// A frame mixing long runs of equal codes with per-pixel texture,
    /// large enough that each of up to five bands of the present pass
    /// (two planes of 1024 samples a row) reaches the engine's spawn grain
    /// of 64 Ki elements.
    fn textured(i: usize) -> Plane<f32> {
        Plane::from_fn(1024, 161, |x, y| {
            if y < 60 {
                127.0
                    + if (x + i).is_multiple_of(2) {
                        20.0
                    } else {
                        -20.0
                    }
            } else {
                ((x * 31 + y * 17 + i * 13) % 256) as f32 * 0.75
            }
        })
    }

    #[test]
    fn present_is_bit_identical_on_any_worker_count() {
        let run = |engine: ParallelEngine| {
            let mut s = DisplayStream::with_engine(DisplayConfig::eizo_fg2421(), Arc::new(engine));
            (0..5).map(|i| s.present(&textured(i))).collect::<Vec<_>>()
        };
        let want = run(ParallelEngine::sequential());
        for workers in [2usize, 3, 5] {
            let got = run(ParallelEngine::new(workers));
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.target.samples(), w.target.samples(), "{workers} workers");
                assert_eq!(
                    g.initial.samples(),
                    w.initial.samples(),
                    "{workers} workers"
                );
            }
        }
    }

    /// The transfer memo against an oracle that converts every pixel:
    /// rows cycling through three codes (V, V + P, V − P) in runs of 4,
    /// rows alternating two codes, rows of random codes and a flat row,
    /// at a size where two workers really split the bands.
    #[test]
    fn present_matches_the_transfer_function_on_every_pixel() {
        let (v, p) = (127.0f32, 20.0f32);
        let mut hash = 0x2545_F491_4F6C_DD1Du64;
        let frames: Vec<Plane<f32>> = (0..3)
            .map(|i| {
                Plane::from_fn(1024, 161, |x, y| match y % 4 {
                    0 => [v, v + p, v - p][(x / 4 + i) % 3],
                    1 => [v + p, v - p][(x / 4 + y + i) % 2],
                    2 => {
                        hash ^= hash << 13;
                        hash ^= hash >> 7;
                        hash ^= hash << 17;
                        (hash % 2560) as f32 / 10.0
                    }
                    _ => v,
                })
            })
            .collect();
        let config = DisplayConfig::eizo_fg2421();
        for workers in [1usize, 2] {
            let mut s = DisplayStream::with_engine(config, Arc::new(ParallelEngine::new(workers)));
            let mut attained = vec![0.0f32; 1024 * 161];
            for frame in &frames {
                let e = s.present(frame);
                let decay = e.lc_decay(e.duration);
                for (k, (&code, a)) in frame.samples().iter().zip(&mut attained).enumerate() {
                    let target = config.code_to_light(code);
                    assert_eq!(e.initial.samples()[k].to_bits(), a.to_bits(), "initial {k}");
                    assert_eq!(
                        e.target.samples()[k].to_bits(),
                        target.to_bits(),
                        "target {k}"
                    );
                    *a = FrameEmission::lc(target, *a, decay) as f32;
                }
            }
            let last = s.attained.as_ref().expect("a frame was presented");
            let same = last.samples().iter().zip(&attained);
            assert!(same.into_iter().all(|(g, w)| g.to_bits() == w.to_bits()));
        }
    }

    #[test]
    fn present_all_matches_sequential() {
        let frames: Vec<Plane<f32>> = (0..4)
            .map(|i| Plane::filled(2, 2, (i * 60) as f32))
            .collect();
        let mut a = DisplayStream::new(DisplayConfig::default());
        let all = a.present_all(&frames);
        let mut b = DisplayStream::new(DisplayConfig::default());
        for (i, f) in frames.iter().enumerate() {
            let e = b.present(f);
            assert_eq!(e, all[i]);
        }
    }
}
