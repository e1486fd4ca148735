//! Frame multiplexing: the complementary-frame schedule of Figure 2.
//!
//! A 30 FPS video frame is duplicated four times at 120 Hz; data cycles of
//! τ displayed frames run on their own cadence, each frame alternating
//! `V + P` / `V − P`. Within a cycle the per-Block amplitude follows the
//! smoothing envelope: constant for stable bits, ramping over the second
//! half of the cycle when the bit flips at the next cycle boundary.

use crate::config::{InFrameConfig, KernelBackend};
use crate::dataframe::DataFrame;
use crate::layout::DataLayout;
use crate::parallel::ParallelEngine;
use crate::pattern;
use crate::pattern::ChessLut;
use inframe_dsp::envelope::Envelope;
use inframe_frame::Plane;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Sign of the perturbation in a displayed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameSign {
    /// `V + P`.
    Plus,
    /// `V − P`.
    Minus,
}

/// Schedule metadata of one displayed frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSlot {
    /// Global displayed-frame index.
    pub display_index: u64,
    /// Video frame index (`display_index / 4`).
    pub video_index: u64,
    /// Data cycle index (`display_index / τ`).
    pub cycle_index: u64,
    /// Position within the cycle, `0 .. τ`.
    pub k: u32,
    /// Complementary-pair index within the cycle (`k / 2`).
    pub pair: u32,
    /// Whether this frame adds or subtracts the perturbation.
    pub sign: FrameSign,
    /// Start time of the frame on the display, seconds.
    pub t_start: f64,
}

/// Computes the slot for displayed frame `f` under config `c`.
pub fn slot(c: &InFrameConfig, f: u64) -> FrameSlot {
    let tau = c.tau as u64;
    let k = (f % tau) as u32;
    FrameSlot {
        display_index: f,
        video_index: f / InFrameConfig::DUPLICATES_PER_VIDEO_FRAME as u64,
        cycle_index: f / tau,
        k,
        pair: k / 2,
        sign: if k.is_multiple_of(2) {
            FrameSign::Plus
        } else {
            FrameSign::Minus
        },
        t_start: f as f64 / c.refresh_hz,
    }
}

/// Core of the multiplexer: renders the displayed frame for a slot given
/// the video frame and the current/next data frames.
///
/// The per-Block envelope amplitudes of the current `(cycle, pair)` are
/// sampled once and reused by every frame of the pair; each frame is then
/// written straight into the caller's plane in one pass. On the reference
/// backend the plus frame also saves the pair's `P⁻` into one long-lived
/// plane, so the minus frame costs a subtraction per pixel — no per-frame
/// buffer clones anywhere on this path.
pub struct Multiplexer {
    config: InFrameConfig,
    layout: DataLayout,
    envelope: Envelope,
    engine: Arc<ParallelEngine>,
    /// Which `(cycle_index, pair, scale_epoch)` `amps` (and, on the
    /// quantized backend, `steps`) hold.
    amps_key: Option<(u64, u32, u64)>,
    /// Reused per-Block envelope amplitude buffer (row-major).
    amps: Vec<f32>,
    /// Per-Block amplitude scales (row-major; empty ⇒ all 1.0). Spatial
    /// sub-channels back individual regions off from the global δ here.
    scales: Vec<f32>,
    /// Bumped whenever `scales` changes, invalidating the amplitudes.
    scale_epoch: u64,
    /// `P⁻` of each chessboard pixel, saved by a reference plus frame for
    /// the minus frame of its pair.
    minus_offsets: Plane<f32>,
    /// Which `(video_index, cycle_index, pair, scale_epoch)`
    /// `minus_offsets` holds.
    minus_key: Option<(u64, u64, u32, u64)>,
    /// Reused quantized amplitude steps (row-major, Quantized backend).
    steps: Vec<u16>,
    /// Chessboard delta LUT cache (Quantized backend).
    lut: ChessLut,
}

impl Multiplexer {
    /// Creates a multiplexer that renders inline on the calling thread.
    pub fn new(config: InFrameConfig) -> Self {
        Self::with_engine(config, Arc::new(ParallelEngine::sequential()))
    }

    /// Creates a multiplexer that renders on `engine`'s band workers.
    /// Output is bit-identical to [`Multiplexer::new`] for any worker
    /// count.
    pub fn with_engine(config: InFrameConfig, engine: Arc<ParallelEngine>) -> Self {
        config.validate();
        Self {
            layout: DataLayout::from_config(&config),
            envelope: Envelope::new(config.pairs_per_cycle(), config.envelope),
            engine,
            amps_key: None,
            amps: Vec::new(),
            scales: Vec::new(),
            scale_epoch: 0,
            minus_offsets: Plane::filled(config.display_w, config.display_h, 0.0),
            minus_key: None,
            steps: Vec::new(),
            lut: ChessLut::new(config.delta, config.complementation),
            config,
        }
    }

    /// The resolved layout.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &InFrameConfig {
        &self.config
    }

    /// The render engine.
    pub fn engine(&self) -> &Arc<ParallelEngine> {
        &self.engine
    }

    /// Renders displayed frame `slot` by multiplexing `video` with the
    /// current data frame `cur` (and `next`, for transition shaping).
    pub fn render(
        &mut self,
        s: &FrameSlot,
        video: &Plane<f32>,
        cur: &DataFrame,
        next: &DataFrame,
    ) -> Plane<f32> {
        let mut out = Plane::filled(video.width(), video.height(), 0.0);
        self.render_into(s, video, cur, next, &mut out);
        out
    }

    /// Allocation-free form of [`Multiplexer::render`]: writes the
    /// displayed frame into `out` (typically a
    /// [`inframe_frame::pool::FramePool`] checkout).
    ///
    /// # Panics
    /// Panics if `out` or `video` is not display-shaped.
    pub fn render_into(
        &mut self,
        s: &FrameSlot,
        video: &Plane<f32>,
        cur: &DataFrame,
        next: &DataFrame,
        out: &mut Plane<f32>,
    ) {
        let resampled = self.ensure_amps(s, cur, next);
        match self.config.kernel {
            KernelBackend::Reference => {
                let key = (s.video_index, s.cycle_index, s.pair, self.scale_epoch);
                // A minus frame whose plus frame was not rendered first
                // renders it into `out` anyway, to save the offsets.
                if s.sign == FrameSign::Plus || self.minus_key != Some(key) {
                    pattern::render_plus_reference(
                        &self.layout,
                        video,
                        self.config.delta,
                        self.config.complementation,
                        &self.amps,
                        &self.engine,
                        out,
                        &mut self.minus_offsets,
                    );
                    self.minus_key = Some(key);
                }
                if s.sign == FrameSign::Minus {
                    pattern::render_minus_reference(
                        &self.layout,
                        video,
                        &self.amps,
                        &self.minus_offsets,
                        &self.engine,
                        out,
                    );
                }
            }
            KernelBackend::Quantized => {
                if resampled {
                    self.quantize_steps();
                }
                pattern::render_frame_lut(
                    &self.layout,
                    video,
                    s.sign == FrameSign::Plus,
                    &self.steps,
                    &self.lut,
                    &self.engine,
                    out,
                );
            }
        }
    }

    /// Sets per-Block amplitude scales (row-major over the Block grid),
    /// multiplied into the envelope amplitude of every Block. Scales are
    /// clamped to `[0, 1]`: spatial sub-channels may back a region off
    /// from the global δ but never exceed the HVS-assessed ceiling. The
    /// sampled amplitudes are invalidated; the scale buffer is reused, so
    /// steady-state scale updates allocate nothing after the first call.
    ///
    /// # Panics
    /// Panics unless `scales` has one entry per Block.
    pub fn set_block_amp_scales(&mut self, scales: &[f32]) {
        assert_eq!(
            scales.len(),
            self.layout.num_blocks(),
            "one amplitude scale per Block"
        );
        self.scales.clear();
        self.scales.extend(scales.iter().map(|s| s.clamp(0.0, 1.0)));
        self.scale_epoch += 1;
    }

    /// Clears per-Block amplitude scales (back to uniform full δ).
    pub fn clear_block_amp_scales(&mut self) {
        if !self.scales.is_empty() {
            self.scales.clear();
            self.scale_epoch += 1;
        }
    }

    /// Re-points the multiplexer at a new (δ, τ) operating point:
    /// rebuilds the smoothing envelope and the chessboard LUT and
    /// invalidates the sampled amplitudes. Must only be called at a
    /// cycle boundary (`k == 0`) — mid-cycle the envelope phase would
    /// jump visibly. No-op when the operating point is unchanged.
    pub fn set_modulation(&mut self, delta: f32, tau: u32) {
        if self.config.delta == delta && self.config.tau == tau {
            return;
        }
        self.config.delta = delta;
        self.config.tau = tau;
        self.config.validate();
        self.envelope = Envelope::new(self.config.pairs_per_cycle(), self.config.envelope);
        self.lut = ChessLut::new(delta, self.config.complementation);
        self.amps_key = None;
        self.scale_epoch += 1;
    }

    /// The maximum per-pair envelope amplitude step across a cycle — feeds
    /// the phantom-array term of the HVS assessment.
    pub fn max_envelope_step(&self) -> f64 {
        let pairs = self.config.pairs_per_cycle() as usize;
        // Worst case: a 0→1 flip sampled at each pair of the cycle.
        let mut max_step = 0.0f64;
        let mut prev = self.envelope.amplitude(0, false, true);
        for k in 1..pairs as u32 {
            let a = self.envelope.amplitude(k, false, true);
            max_step = max_step.max((a - prev).abs());
            prev = a;
        }
        // Plus the boundary step into the next cycle (amplitude 1.0).
        max_step.max((1.0 - prev).abs())
    }

    /// Ensures `amps` holds the per-Block envelope amplitudes for `s`'s
    /// pair, resampling only at pair boundaries (one envelope evaluation
    /// per Block, ≈1500 at paper scale). Returns whether it resampled.
    fn ensure_amps(&mut self, s: &FrameSlot, cur: &DataFrame, next: &DataFrame) -> bool {
        let key = (s.cycle_index, s.pair, self.scale_epoch);
        if self.amps_key == Some(key) {
            return false;
        }
        let env = &self.envelope;
        let pair = s.pair;
        let scales = &self.scales;
        let bxs = self.layout.blocks_x;
        pattern::sample_amplitudes(
            &self.layout,
            |bx, by| {
                let scale = if scales.is_empty() {
                    1.0
                } else {
                    scales[by * bxs + bx]
                };
                env.amplitude(pair, cur.bit(bx, by), next.bit(bx, by)) as f32 * scale
            },
            &mut self.amps,
        );
        self.amps_key = Some(key);
        true
    }

    /// Quantized backend: requantizes `amps` into `steps` and makes sure
    /// the LUT has a table for each referenced step. The table build is
    /// amortized across the multiplexer's lifetime, so steady-state pair
    /// turnover costs neither per-pixel math nor heap allocations.
    fn quantize_steps(&mut self) {
        self.steps.clear();
        self.steps
            .extend(self.amps.iter().map(|&a| ChessLut::amp_step(a)));
        for i in 0..self.steps.len() {
            self.lut.ensure_step(self.steps[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodingMode;

    fn cfg() -> InFrameConfig {
        // Code-symmetric pairs make the arithmetic in these tests exact.
        InFrameConfig {
            complementation: crate::pattern::Complementation::Code,
            ..InFrameConfig::small_test()
        }
    }

    fn frames(c: &InFrameConfig, seed: u64) -> (DataFrame, DataFrame) {
        let layout = DataLayout::from_config(c);
        let mk = |s: u64| {
            let payload: Vec<bool> = (0..layout.payload_bits_parity())
                .map(|i| {
                    (i as u64)
                        .wrapping_mul(2654435761)
                        .wrapping_add(s)
                        .is_multiple_of(3)
                })
                .collect();
            DataFrame::encode(&layout, &payload, CodingMode::Parity)
        };
        (mk(seed), mk(seed + 1))
    }

    #[test]
    fn slot_schedule_matches_figure2() {
        let c = cfg(); // tau = 12
        let s0 = slot(&c, 0);
        assert_eq!(s0.video_index, 0);
        assert_eq!(s0.cycle_index, 0);
        assert_eq!(s0.sign, FrameSign::Plus);
        let s1 = slot(&c, 1);
        assert_eq!(s1.sign, FrameSign::Minus);
        assert_eq!(s1.pair, 0);
        // Video frame advances every 4 displayed frames.
        assert_eq!(slot(&c, 4).video_index, 1);
        // Cycle advances every tau displayed frames.
        assert_eq!(slot(&c, 12).cycle_index, 1);
        assert_eq!(slot(&c, 12).k, 0);
        // Timing.
        assert!((slot(&c, 6).t_start - 0.05).abs() < 1e-12);
    }

    #[test]
    fn complementary_pair_cancels() {
        let c = cfg();
        let mut m = Multiplexer::new(c);
        let (cur, next) = frames(&c, 1);
        let video = Plane::filled(c.display_w, c.display_h, 127.0);
        let plus = m.render(&slot(&c, 0), &video, &cur, &next);
        let minus = m.render(&slot(&c, 1), &video, &cur, &next);
        for (x, y, v) in video.iter_xy() {
            let avg = (plus.get(x, y) + minus.get(x, y)) / 2.0;
            assert!((avg - v).abs() < 1e-4);
        }
    }

    #[test]
    fn stable_bits_have_full_amplitude_through_cycle() {
        let c = cfg();
        let mut m = Multiplexer::new(c);
        let layout = *m.layout();
        let (cur, _) = frames(&c, 3);
        let video = Plane::filled(c.display_w, c.display_h, 127.0);
        // Same data frame as cur and next: no transitions anywhere.
        for f in 0..c.tau as u64 {
            let s = slot(&c, f);
            let out = m.render(&s, &video, &cur, &cur);
            // Find a 1-block and check its amplitude is full δ.
            let (bx, by) = (0..layout.blocks_y)
                .flat_map(|by| (0..layout.blocks_x).map(move |bx| (bx, by)))
                .find(|&(bx, by)| cur.bit(bx, by))
                .expect("a 1 block exists");
            let rect = layout.block_rect(bx, by);
            // Pixel (1,0) is odd → perturbed.
            let v = out.get(rect.x + layout.pixel_size, rect.y);
            let expect = match s.sign {
                FrameSign::Plus => 147.0,
                FrameSign::Minus => 107.0,
            };
            assert!((v - expect).abs() < 1e-3, "frame {f}: {v} vs {expect}");
        }
    }

    #[test]
    fn transitions_ramp_in_second_half_of_cycle() {
        let c = cfg(); // tau = 12 → 6 pairs
        let mut m = Multiplexer::new(c);
        let layout = *m.layout();
        let video = Plane::filled(c.display_w, c.display_h, 127.0);
        // cur all-ones is not encodable via parity; construct via encode of
        // all-true payload (parity bits follow automatically).
        let all1: Vec<bool> = vec![true; layout.payload_bits_parity()];
        let cur = DataFrame::encode(&layout, &all1, CodingMode::Parity);
        let zero = DataFrame::zero(&layout);
        // Pick a block that is 1 in cur (payload slot, since parity of
        // 1,1,1 is 1, actually all blocks are 1 here).
        let rect = layout.block_rect(0, 0);
        let probe = |out: &Plane<f32>| (out.get(rect.x + layout.pixel_size, rect.y) - 127.0).abs();
        // First half of cycle: full amplitude.
        let early = m.render(&slot(&c, 0), &video, &cur, &zero);
        assert!((probe(&early) - 20.0).abs() < 1e-3);
        // Last pair: nearly faded out.
        let late = m.render(&slot(&c, (c.tau - 2) as u64), &video, &cur, &zero);
        assert!(probe(&late) < 1.0, "late amplitude {}", probe(&late));
        // Monotone decay across pairs.
        let mut prev = f32::INFINITY;
        for pair in 0..c.pairs_per_cycle() {
            let out = m.render(&slot(&c, (pair * 2) as u64), &video, &cur, &zero);
            let a = probe(&out);
            assert!(a <= prev + 1e-4, "pair {pair}");
            prev = a;
        }
    }

    #[test]
    fn envelope_step_is_bounded_for_srrc() {
        let c = cfg();
        let m = Multiplexer::new(c);
        let step = m.max_envelope_step();
        assert!(step > 0.0 && step < 1.0, "step {step}");
        // Compare with a stair envelope: abrupt single step of 1.0.
        let mut c2 = c;
        c2.envelope = inframe_dsp::envelope::TransitionShape::Stair { steps: 1 };
        let m2 = Multiplexer::new(c2);
        assert!(m2.max_envelope_step() >= step);
    }

    #[test]
    fn quantized_backend_matches_reference_render() {
        // Same slots, same data, both complementation modes: the LUT
        // backend must agree with the reference within the amplitude-step
        // snap plus half a Q8.7 LSB.
        for mode in [
            crate::pattern::Complementation::Code,
            crate::pattern::Complementation::Luminance,
        ] {
            let reference = InFrameConfig {
                complementation: mode,
                kernel: KernelBackend::Reference,
                ..InFrameConfig::small_test()
            };
            let quantized = InFrameConfig {
                kernel: KernelBackend::Quantized,
                ..reference
            };
            let mut mr = Multiplexer::new(reference);
            let mut mq = Multiplexer::new(quantized);
            let (cur, next) = frames(&reference, 17);
            let video = Plane::from_fn(reference.display_w, reference.display_h, |x, y| {
                ((x * 11 + y * 3) % 256) as f32
            });
            let tol = reference.delta / (2.0 * crate::pattern::LUT_AMP_STEPS as f32)
                + inframe_frame::qplane::LSB / 2.0
                + 1e-5;
            for f in 0..reference.tau as u64 {
                let s = slot(&reference, f);
                let r = mr.render(&s, &video, &cur, &next);
                let q = mq.render(&s, &video, &cur, &next);
                for (x, y, rv) in r.iter_xy() {
                    assert!(
                        (q.get(x, y) - rv).abs() <= tol,
                        "{mode:?} frame {f} ({x},{y}): {} vs {rv}",
                        q.get(x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_pair_cancels_exactly_in_code_mode() {
        let c = InFrameConfig {
            kernel: KernelBackend::Quantized,
            ..cfg()
        };
        let mut m = Multiplexer::new(c);
        let (cur, next) = frames(&c, 5);
        let video = Plane::from_fn(c.display_w, c.display_h, |x, y| ((x + 2 * y) % 256) as f32);
        let plus = m.render(&slot(&c, 0), &video, &cur, &next);
        let minus = m.render(&slot(&c, 1), &video, &cur, &next);
        for (x, y, v) in video.iter_xy() {
            // Code-symmetric LUT entries are shared between the signs, so
            // the pair averages back to V bit-exactly.
            assert_eq!((plus.get(x, y) + minus.get(x, y)) / 2.0, v, "({x},{y})");
        }
    }

    #[test]
    fn block_amp_scales_shape_both_backends() {
        for kernel in [KernelBackend::Reference, KernelBackend::Quantized] {
            let c = InFrameConfig { kernel, ..cfg() };
            let mut m = Multiplexer::new(c);
            let layout = *m.layout();
            let all1: Vec<bool> = vec![true; layout.payload_bits_parity()];
            let cur = DataFrame::encode(&layout, &all1, CodingMode::Parity);
            let video = Plane::filled(c.display_w, c.display_h, 127.0);
            let s = slot(&c, 0);
            // Baseline render at full amplitude, then scale block (0,0)
            // to half: the cache must invalidate and the perturbation at
            // that block must halve while an unscaled block keeps full δ.
            let full = m.render(&s, &video, &cur, &cur);
            let mut scales = vec![1.0f32; layout.num_blocks()];
            scales[0] = 0.5;
            m.set_block_amp_scales(&scales);
            let scaled = m.render(&s, &video, &cur, &cur);
            let probe = |out: &Plane<f32>, bx: usize, by: usize| {
                let r = layout.block_rect(bx, by);
                (out.get(r.x + layout.pixel_size, r.y) - 127.0).abs()
            };
            assert!((probe(&full, 0, 0) - c.delta).abs() < 0.1, "{kernel:?}");
            assert!(
                (probe(&scaled, 0, 0) - c.delta * 0.5).abs() < 0.1,
                "{kernel:?}: scaled block at {}",
                probe(&scaled, 0, 0)
            );
            assert!(
                (probe(&scaled, 1, 1) - c.delta).abs() < 0.1,
                "{kernel:?}: unscaled block keeps full amplitude"
            );
            // Clearing restores the uniform render bit-exactly.
            m.clear_block_amp_scales();
            let restored = m.render(&s, &video, &cur, &cur);
            for (x, y, v) in full.iter_xy() {
                assert_eq!(restored.get(x, y), v, "{kernel:?} ({x},{y})");
            }
        }
    }

    #[test]
    fn minus_frame_is_the_same_without_its_plus_frame_first() {
        let c = InFrameConfig {
            kernel: KernelBackend::Reference,
            ..InFrameConfig::small_test()
        };
        let (cur, next) = frames(&c, 5);
        let video = Plane::from_fn(c.display_w, c.display_h, |x, y| ((x * 7 + y) % 256) as f32);
        let bits = |p: &Plane<f32>| p.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut in_order = Multiplexer::new(c);
        in_order.render(&slot(&c, 2), &video, &cur, &next);
        let expected = bits(&in_order.render(&slot(&c, 3), &video, &cur, &next));
        // Alone, and after another pair's plus frame saved its offsets.
        let mut alone = Multiplexer::new(c);
        assert_eq!(
            bits(&alone.render(&slot(&c, 3), &video, &cur, &next)),
            expected
        );
        let mut after_other = Multiplexer::new(c);
        after_other.render(&slot(&c, 0), &video, &cur, &next);
        assert_eq!(
            bits(&after_other.render(&slot(&c, 3), &video, &cur, &next)),
            expected
        );
    }

    #[test]
    fn cache_is_consistent_across_signs() {
        let c = cfg();
        let mut m = Multiplexer::new(c);
        let (cur, next) = frames(&c, 9);
        let video = Plane::from_fn(c.display_w, c.display_h, |x, y| ((x * y) % 200) as f32);
        let plus = m.render(&slot(&c, 2), &video, &cur, &next);
        let minus = m.render(&slot(&c, 3), &video, &cur, &next);
        // plus + minus = 2 video exactly (same perturbation used).
        for (x, y, v) in video.iter_xy() {
            assert!((plus.get(x, y) + minus.get(x, y) - 2.0 * v).abs() < 1e-4);
        }
    }
}
