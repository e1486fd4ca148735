//! Synthetic clip generators.
//!
//! Substitutes for the paper's test inputs (§4): pure gray RGB(127,127,127),
//! pure "dark gray" RGB(180,180,180), and a sun-rising clip. The sunrise is
//! procedural: a rising sun disc over a luminance-graded sky with a textured
//! horizon band and slow lateral pan — giving the controlled spatial
//! texture and motion that degrade GOB availability in Figure 7.

use crate::source::{FrameRate, VideoSource};
use inframe_frame::{draw, Plane};

/// Reshapes `out` to `w × h` if needed (procedural sources synthesize
/// into the caller's buffer; the realloc happens at most once).
fn ensure_shape(out: &mut Plane<f32>, w: usize, h: usize) {
    if out.shape() != (w, h) {
        *out = Plane::filled(w, h, 0.0);
    }
}

/// A tiny deterministic value-noise field used for textures; seeded and
/// dependency-free. Internal helper exposed for the stats tests.
mod inframe_code_shim {
    /// 2-D value noise: hash lattice points, bilinear-interpolate between
    /// them. Deterministic for a given seed.
    #[derive(Debug, Clone, Copy)]
    pub struct ValueNoise {
        seed: u64,
    }

    impl ValueNoise {
        /// Creates a noise field with the given seed.
        pub fn new(seed: u64) -> Self {
            Self { seed }
        }

        fn hash(&self, ix: i64, iy: i64) -> f32 {
            let mut h = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((ix as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add((iy as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
            h ^= h >> 31;
            h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            h ^= h >> 32;
            (h & 0xFFFF) as f32 / 65535.0
        }

        /// Noise value in `[0, 1]` at continuous position `(x, y)`.
        pub fn at(&self, x: f32, y: f32) -> f32 {
            let ix = x.floor() as i64;
            let iy = y.floor() as i64;
            let fx = x - ix as f32;
            let fy = y - iy as f32;
            // Smoothstep fade for C1 continuity.
            let ux = fx * fx * (3.0 - 2.0 * fx);
            let uy = fy * fy * (3.0 - 2.0 * fy);
            let v00 = self.hash(ix, iy);
            let v10 = self.hash(ix + 1, iy);
            let v01 = self.hash(ix, iy + 1);
            let v11 = self.hash(ix + 1, iy + 1);
            let top = v00 + ux * (v10 - v00);
            let bot = v01 + ux * (v11 - v01);
            top + uy * (bot - top)
        }

        /// Fractal (3-octave) noise in `[0, 1]`, weighted toward low
        /// frequencies the way natural video content is (camera optics and
        /// compression leave little energy at the finest scales).
        pub fn fbm(&self, x: f32, y: f32) -> f32 {
            let a = self.at(x, y);
            let b = self.at(x * 2.0 + 17.0, y * 2.0 + 17.0);
            let c = self.at(x * 4.0 + 41.0, y * 4.0 + 41.0);
            (a * 0.62 + b * 0.3 + c * 0.08).clamp(0.0, 1.0)
        }
    }
}

pub use inframe_code_shim::ValueNoise as Noise;

/// An endless solid-color source — the paper's "pure gray" /
/// "pure dark gray" videos.
#[derive(Debug, Clone)]
pub struct SolidClip {
    width: usize,
    height: usize,
    level: f32,
    rate: FrameRate,
}

impl SolidClip {
    /// Creates a solid clip at the given gray level.
    pub fn new(width: usize, height: usize, level: f32, rate: FrameRate) -> Self {
        Self {
            width,
            height,
            level,
            rate,
        }
    }

    /// The paper's "pure gray" input, RGB (127,127,127).
    pub fn paper_gray(width: usize, height: usize) -> Self {
        Self::new(width, height, 127.0, FrameRate::VIDEO_30)
    }
}

impl VideoSource for SolidClip {
    fn width(&self) -> usize {
        self.width
    }
    fn height(&self) -> usize {
        self.height
    }
    fn frame_rate(&self) -> FrameRate {
        self.rate
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        Some(Plane::filled(self.width, self.height, self.level))
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        ensure_shape(out, self.width, self.height);
        out.samples_mut().fill(self.level);
        true
    }
}

/// Vertical bars scrolling horizontally — a high-texture, high-motion
/// stress input for ablation experiments.
#[derive(Debug, Clone)]
pub struct MovingBarsClip {
    width: usize,
    height: usize,
    bar_width: usize,
    speed_px_per_frame: f64,
    lo: f32,
    hi: f32,
    rate: FrameRate,
    t: u64,
}

impl MovingBarsClip {
    /// Creates a moving-bars clip. `bar_width` is the width of one bar in
    /// pixels; bars alternate between `lo` and `hi` code values and shift
    /// by `speed_px_per_frame` each frame.
    pub fn new(
        width: usize,
        height: usize,
        bar_width: usize,
        speed_px_per_frame: f64,
        lo: f32,
        hi: f32,
        rate: FrameRate,
    ) -> Self {
        assert!(bar_width > 0, "bar width must be nonzero");
        Self {
            width,
            height,
            bar_width,
            speed_px_per_frame,
            lo,
            hi,
            rate,
            t: 0,
        }
    }
}

impl VideoSource for MovingBarsClip {
    fn width(&self) -> usize {
        self.width
    }
    fn height(&self) -> usize {
        self.height
    }
    fn frame_rate(&self) -> FrameRate {
        self.rate
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        let mut frame = Plane::filled(self.width, self.height, 0.0);
        self.next_frame_into(&mut frame);
        Some(frame)
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        ensure_shape(out, self.width, self.height);
        let offset = (self.t as f64 * self.speed_px_per_frame) as usize;
        let bw = self.bar_width;
        let (lo, hi) = (self.lo, self.hi);
        // Bars are constant down each column: synthesize the top row once
        // and replicate it, instead of a per-pixel division over the whole
        // frame (the row copies are ~100× cheaper at 4K).
        let w = self.width;
        let samples = out.samples_mut();
        for (x, v) in samples[..w].iter_mut().enumerate() {
            *v = if ((x + offset) / bw).is_multiple_of(2) {
                lo
            } else {
                hi
            };
        }
        let (first, rest) = samples.split_at_mut(w);
        for row in rest.chunks_exact_mut(w) {
            row.copy_from_slice(first);
        }
        self.t += 1;
        true
    }
}

/// The procedural sun-rising clip: sky gradient brightening over time, a
/// sun disc climbing from the horizon, a textured landscape band below the
/// horizon, and a slow lateral pan.
///
/// Stands in for the paper's "normal sun-rising video clip". Texture and
/// motion are the properties that matter for Figure 7; both are present and
/// deterministic per seed.
#[derive(Debug, Clone)]
pub struct SunriseClip {
    width: usize,
    height: usize,
    rate: FrameRate,
    duration_frames: usize,
    noise: Noise,
    t: usize,
}

impl SunriseClip {
    /// Creates a sunrise clip of `duration_frames` frames.
    pub fn new(width: usize, height: usize, duration_frames: usize, seed: u64) -> Self {
        assert!(duration_frames >= 2, "clip needs at least two frames");
        Self {
            width,
            height,
            rate: FrameRate::VIDEO_30,
            duration_frames,
            noise: Noise::new(seed),
            t: 0,
        }
    }

    /// The horizon height used by the clip (fraction of frame height from
    /// the top).
    pub const HORIZON: f32 = 0.62;

    fn render(&self, t_norm: f32, pan: f32) -> Plane<f32> {
        let w = self.width;
        let h = self.height;
        let horizon_y = (h as f32 * Self::HORIZON) as usize;
        // Sun rises from below the horizon to ~35% height as t goes 0→1.
        let sun_x = w as f32 * (0.35 + 0.1 * t_norm) + pan;
        let sun_y = h as f32 * (Self::HORIZON + 0.1) - h as f32 * (0.35 * t_norm);
        let sun_r = (h as f32 * 0.06).max(3.0);
        // Sky brightens with dawn: top stays darker, horizon glows.
        let dawn = 0.25 + 0.55 * t_norm;
        let mut frame = Plane::from_fn(w, h, |x, y| {
            let xf = x as f32 + pan;
            let yf = y as f32;
            if y < horizon_y {
                // Sky: vertical gradient plus glow around the sun.
                let depth = yf / horizon_y as f32; // 0 top, 1 at horizon
                let base = (40.0 + 150.0 * depth) * dawn;
                let dx = xf - sun_x;
                let dy = yf - sun_y;
                let dist = (dx * dx + dy * dy).sqrt();
                let glow = 60.0 * (-dist / (w as f32 * 0.18)).exp() * (0.3 + 0.7 * t_norm);
                (base + glow).clamp(0.0, 255.0)
            } else {
                // Landscape: textured band, dim at first light and
                // brightening as the sun climbs.
                let tex = self.noise.fbm(xf * 0.05, yf * 0.05);
                let shade = 38.0 + 52.0 * tex;
                (shade * (0.75 + 0.45 * t_norm)).clamp(0.0, 255.0)
            }
        });
        // The sun disc itself (clipped to the sky region by geometry).
        if sun_y < horizon_y as f32 + sun_r {
            draw::filled_disc(
                &mut frame,
                sun_x as f64,
                sun_y as f64,
                sun_r as f64,
                (200.0 + 55.0 * t_norm).min(255.0),
            );
        }
        frame
    }
}

impl VideoSource for SunriseClip {
    fn width(&self) -> usize {
        self.width
    }
    fn height(&self) -> usize {
        self.height
    }
    fn frame_rate(&self) -> FrameRate {
        self.rate
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        if self.t >= self.duration_frames {
            return None;
        }
        let t_norm = self.t as f32 / (self.duration_frames - 1) as f32;
        // Slow pan: ~0.4 px/frame, enough for measurable motion.
        let pan = self.t as f32 * 0.4;
        let frame = self.render(t_norm, pan);
        self.t += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn solid_clip_is_flat_and_endless() {
        let mut c = SolidClip::paper_gray(16, 9);
        for _ in 0..10 {
            let f = c.next_frame().unwrap();
            assert_eq!(f.min_sample(), 127.0);
            assert_eq!(f.max_sample(), 127.0);
        }
    }

    #[test]
    fn paper_gray_level_matches_section4() {
        let mut g = SolidClip::paper_gray(4, 4);
        assert_eq!(g.next_frame().unwrap().get(0, 0), 127.0);
    }

    #[test]
    fn moving_bars_shift_over_time() {
        let mut c = MovingBarsClip::new(32, 8, 4, 4.0, 0.0, 255.0, FrameRate::VIDEO_30);
        let f0 = c.next_frame().unwrap();
        let f1 = c.next_frame().unwrap();
        // Shifting by exactly one bar width flips every pixel.
        assert_ne!(f0, f1);
        assert_eq!(f0.get(0, 0), f1.get(4, 0));
    }

    #[test]
    fn sunrise_is_deterministic_per_seed() {
        let mut a = SunriseClip::new(64, 36, 10, 7);
        let mut b = SunriseClip::new(64, 36, 10, 7);
        let mut c = SunriseClip::new(64, 36, 10, 8);
        let fa = a.next_frame().unwrap();
        let fb = b.next_frame().unwrap();
        let fc = c.next_frame().unwrap();
        assert_eq!(fa, fb);
        assert_ne!(fa, fc);
    }

    #[test]
    fn sunrise_brightens_over_time() {
        let mut c = SunriseClip::new(64, 36, 30, 1);
        let frames = c.take_frames(30);
        let first_mean = frames.first().unwrap().mean();
        let last_mean = frames.last().unwrap().mean();
        assert!(
            last_mean > first_mean + 10.0,
            "dawn must brighten: {first_mean} -> {last_mean}"
        );
    }

    #[test]
    fn sunrise_has_more_texture_than_solid() {
        let mut sun = SunriseClip::new(64, 36, 4, 1);
        let mut gray = SolidClip::paper_gray(64, 36);
        let fs = sun.next_frame().unwrap();
        let fg = gray.next_frame().unwrap();
        assert!(stats::texture_energy(&fs) > stats::texture_energy(&fg) + 0.2);
    }

    #[test]
    fn sunrise_has_motion() {
        let mut c = SunriseClip::new(64, 36, 10, 1);
        let f0 = c.next_frame().unwrap();
        let f1 = c.next_frame().unwrap();
        assert!(stats::motion_energy(&f0, &f1).unwrap() > 0.0);
    }

    #[test]
    fn noise_is_smooth_and_bounded() {
        let n = Noise::new(5);
        let mut prev = n.at(0.0, 0.0);
        for i in 1..100 {
            let v = n.at(i as f32 * 0.01, 0.0);
            assert!((0.0..=1.0).contains(&v));
            assert!((v - prev).abs() < 0.1, "noise must be locally smooth");
            prev = v;
        }
    }
}
