//! Closed-form light emission for one refresh interval.
//!
//! During refresh interval `[0, Δ)` every pixel's **liquid crystal** state
//! relaxes exponentially from its initial level `A₀` toward the frame's
//! target `T`:
//!
//! ```text
//! LC(t) = T + (A₀ − T) · e^(−t/τ)
//! ```
//!
//! The **emitted light** is the LC state gated by the backlight: constant
//! backlight emits `LC(t)` at all times; a strobed backlight emits
//! `LC(t)/duty` inside the strobe window and nothing outside, so the mean
//! luminance matches the constant panel. With τ = 0 (ideal panel) the LC
//! jumps to `T` instantly.
//!
//! Point values and time-averages over any sub-interval have closed
//! forms. Everything in them except `T` and `A₀` depends only on the time
//! window, so [`FrameEmission::window`] evaluates the window's terms (the
//! lit span, the two exponentials, the strobe boost) once into an
//! [`EmissionWindow`], and each pixel then costs a few multiply-adds. A
//! window that misses the strobe yields `None`: it emits nothing. The
//! camera's exposure integration walks whole rows through one
//! `EmissionWindow` per (emission, exposure window), which is what keeps
//! it exact and fast; [`FrameEmission::attained`] likewise computes its
//! decay factor `e^(−Δ/τ)` once per frame.

use inframe_frame::arith::zip_map;
use inframe_frame::Plane;

/// The emitted light of one displayed frame over its refresh interval.
///
/// Light values are normalized linear units (1.0 = panel peak mean
/// luminance; strobed panels exceed 1.0 inside the strobe).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameEmission {
    /// Steady-state LC target per pixel.
    pub target: Plane<f32>,
    /// LC level per pixel at the start of the interval.
    pub initial: Plane<f32>,
    /// Refresh interval length in seconds.
    pub duration: f64,
    /// LC response time constant in seconds (0 = instant).
    pub tau: f64,
    /// Absolute start time of this interval in seconds.
    pub t_start: f64,
    /// Strobe window `(on, off)` within `[0, duration]`, or `None` for a
    /// constant backlight.
    pub strobe: Option<(f64, f64)>,
}

/// The per-window terms of [`FrameEmission`]'s closed-form mean light over
/// an in-interval window `[t0, t1]`, lit over `[a, b]` (the window clipped
/// to the strobe).
///
/// Built by [`FrameEmission::window`]; [`EmissionWindow::average`] is the
/// only place the mean-light formula is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmissionWindow {
    /// Lit span `b − a`.
    lit: f64,
    /// LC response time constant τ (≤ 0 = instant).
    tau: f64,
    /// `e^(−a/τ) − e^(−b/τ)` (unused when τ ≤ 0).
    decay: f64,
    /// Backlight gain inside the strobe (1 for constant backlight).
    boost: f64,
    /// Window length `t1 − t0`.
    span: f64,
}

impl EmissionWindow {
    /// Mean emitted light over the window of a pixel with LC `target` and
    /// `initial` levels.
    #[inline]
    pub fn average(&self, target: f32, initial: f32) -> f32 {
        let tv = target as f64;
        let integral = if self.tau <= 0.0 {
            tv * self.lit
        } else {
            tv * self.lit + (initial as f64 - tv) * self.tau * self.decay
        };
        (integral * self.boost / self.span) as f32
    }
}

impl FrameEmission {
    /// Backlight gain inside the strobe (1 for constant backlight).
    fn strobe_boost(&self) -> f64 {
        match self.strobe {
            None => 1.0,
            Some((on, off)) => self.duration / (off - on).max(1e-12),
        }
    }

    /// LC decay factor `e^(−t/τ)` at in-interval time `t`, or `None` for
    /// an instant panel (the LC sits at its target).
    fn lc_decay(&self, t: f64) -> Option<f64> {
        (self.tau > 0.0).then(|| (-t.max(0.0) / self.tau).exp())
    }

    /// LC state of a pixel with levels `target`, `initial` under the
    /// decay factor from [`FrameEmission::lc_decay`].
    #[inline]
    fn lc(target: f32, initial: f32, decay: Option<f64>) -> f64 {
        let tv = target as f64;
        match decay {
            None => tv,
            Some(k) => tv + (initial as f64 - tv) * k,
        }
    }

    /// LC state of one pixel at in-interval time `t`.
    fn lc_pixel(&self, x: usize, y: usize, t: f64) -> f64 {
        Self::lc(
            self.target.get(x, y),
            self.initial.get(x, y),
            self.lc_decay(t),
        )
    }

    /// Point-samples the emitted light of one pixel at in-interval time
    /// `t ∈ [0, duration]`.
    pub fn sample_pixel(&self, x: usize, y: usize, t: f64) -> f32 {
        debug_assert!(
            t >= -1e-12 && t <= self.duration + 1e-9,
            "t={t} outside interval"
        );
        match self.strobe {
            None => self.lc_pixel(x, y, t) as f32,
            Some((on, off)) => {
                if t >= on && t <= off {
                    (self.lc_pixel(x, y, t) * self.strobe_boost()) as f32
                } else {
                    0.0
                }
            }
        }
    }

    /// Point-samples the emitted light plane at in-interval time `t`.
    pub fn sample(&self, t: f64) -> Plane<f32> {
        Plane::from_fn(self.target.width(), self.target.height(), |x, y| {
            self.sample_pixel(x, y, t)
        })
    }

    /// The closed-form terms of the mean emitted light over the
    /// in-interval window `[t0, t1]`, or `None` when the window misses the
    /// strobe (the mean is 0 for every pixel).
    ///
    /// # Panics
    /// Panics unless `0 ≤ t0 < t1 ≤ duration` (within numeric slack).
    pub fn window(&self, t0: f64, t1: f64) -> Option<EmissionWindow> {
        assert!(
            t0 >= -1e-12 && t1 <= self.duration + 1e-9 && t1 > t0,
            "bad averaging window [{t0}, {t1}] within 0..{}",
            self.duration
        );
        let (a, b) = match self.strobe {
            None => (t0, t1),
            Some((on, off)) => (t0.max(on), t1.min(off)),
        };
        if b <= a {
            return None;
        }
        let decay = if self.tau <= 0.0 {
            0.0
        } else {
            (-a / self.tau).exp() - (-b / self.tau).exp()
        };
        Some(EmissionWindow {
            lit: b - a,
            tau: self.tau,
            decay,
            boost: self.strobe_boost(),
            span: t1 - t0,
        })
    }

    /// Mean emitted light of one pixel over `[t0, t1]` — the exact
    /// exposure integral divided by the window length.
    ///
    /// # Panics
    /// Panics unless `0 ≤ t0 < t1 ≤ duration` (within numeric slack).
    pub fn average_pixel(&self, x: usize, y: usize, t0: f64, t1: f64) -> f32 {
        self.window(t0, t1).map_or(0.0, |w| {
            w.average(self.target.get(x, y), self.initial.get(x, y))
        })
    }

    /// Mean emitted light plane over `[t0, t1]`.
    pub fn average(&self, t0: f64, t1: f64) -> Plane<f32> {
        match self.window(t0, t1) {
            None => Plane::filled(self.target.width(), self.target.height(), 0.0),
            Some(w) => zip_map(&self.target, &self.initial, |t, i| w.average(t, i))
                .expect("target and initial planes share a shape"),
        }
    }

    /// LC level attained at the end of the interval — the next interval's
    /// `initial`. (LC keeps transitioning regardless of the backlight.)
    pub fn attained(&self) -> Plane<f32> {
        let decay = self.lc_decay(self.duration);
        zip_map(&self.target, &self.initial, |t, i| {
            Self::lc(t, i, decay) as f32
        })
        .expect("target and initial planes share a shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emission(tau: f64) -> FrameEmission {
        FrameEmission {
            target: Plane::filled(2, 2, 1.0),
            initial: Plane::filled(2, 2, 0.0),
            duration: 1.0 / 120.0,
            tau,
            t_start: 0.0,
            strobe: None,
        }
    }

    fn strobed(tau: f64, duty: f64) -> FrameEmission {
        let duration = 1.0 / 120.0;
        FrameEmission {
            strobe: Some((duration * (1.0 - duty), duration)),
            ..emission(tau)
        }
    }

    #[test]
    fn instant_panel_is_at_target_immediately() {
        let e = emission(0.0);
        assert_eq!(e.sample(0.0).get(0, 0), 1.0);
        assert_eq!(e.average(0.0, e.duration).get(0, 0), 1.0);
        assert_eq!(e.attained().get(0, 0), 1.0);
    }

    #[test]
    fn exponential_approach_monotone() {
        let e = emission(0.002);
        let a = e.sample_pixel(0, 0, 0.0);
        let b = e.sample_pixel(0, 0, 0.002);
        let c = e.sample_pixel(0, 0, 0.006);
        assert_eq!(a, 0.0);
        assert!(b > a && c > b);
        // After one tau: 1 − e^{−1} ≈ 0.632.
        assert!((b - 0.632).abs() < 0.01);
    }

    #[test]
    fn average_lies_between_endpoint_samples() {
        let e = emission(0.003);
        let avg = e.average_pixel(0, 0, 0.0, e.duration);
        let start = e.sample_pixel(0, 0, 0.0);
        let end = e.sample_pixel(0, 0, e.duration);
        assert!(avg > start && avg < end);
    }

    #[test]
    fn average_matches_numeric_integral() {
        let e = emission(0.004);
        let (t0, t1) = (0.001, 0.007);
        let analytic = e.average_pixel(0, 0, t0, t1);
        let steps = 20_000;
        let mut acc = 0.0f64;
        for i in 0..steps {
            let t = t0 + (t1 - t0) * (i as f64 + 0.5) / steps as f64;
            acc += e.sample_pixel(0, 0, t) as f64;
        }
        let numeric = acc / steps as f64;
        assert!(
            (analytic as f64 - numeric).abs() < 1e-5,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn strobed_average_matches_numeric_integral() {
        let e = strobed(0.002, 0.2);
        let (t0, t1) = (0.0, e.duration);
        let analytic = e.average_pixel(0, 0, t0, t1);
        let steps = 200_000;
        let mut acc = 0.0f64;
        for i in 0..steps {
            let t = t0 + (t1 - t0) * (i as f64 + 0.5) / steps as f64;
            acc += e.sample_pixel(0, 0, t) as f64;
        }
        let numeric = acc / steps as f64;
        assert!(
            (analytic as f64 - numeric).abs() < 1e-3,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn strobe_emits_only_in_window() {
        let e = strobed(0.0, 0.25);
        let on_at = e.duration * 0.9;
        let off_at = e.duration * 0.5;
        assert!(e.sample_pixel(0, 0, on_at) > 0.0);
        assert_eq!(e.sample_pixel(0, 0, off_at), 0.0);
    }

    #[test]
    fn strobe_boost_preserves_mean_luminance() {
        // Ideal LC: mean over the whole interval must equal the target.
        let e = strobed(0.0, 0.25);
        let mean = e.average_pixel(0, 0, 0.0, e.duration);
        assert!((mean - 1.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn strobe_shows_settled_lc_state() {
        // With τ = 2 ms and the strobe in the last 15% of an 8.33 ms
        // frame, the strobe sees ≥ 96% of the transition completed.
        let e = strobed(0.002, 0.15);
        let (on, _) = e.strobe.unwrap();
        let lc_at_strobe = e.lc_pixel(0, 0, on);
        assert!(lc_at_strobe > 0.96, "LC at strobe start {lc_at_strobe}");
    }

    #[test]
    fn window_missing_strobe_is_dark() {
        let e = strobed(0.0, 0.15);
        let avg = e.average_pixel(0, 0, 0.0, e.duration * 0.5);
        assert_eq!(avg, 0.0);
    }

    #[test]
    fn attained_continues_next_frame() {
        let e1 = emission(0.002);
        let attained = e1.attained();
        let e2 = FrameEmission {
            target: Plane::filled(2, 2, 0.0),
            initial: attained.clone(),
            duration: e1.duration,
            tau: e1.tau,
            t_start: e1.duration,
            strobe: None,
        };
        assert_eq!(e2.sample(0.0), attained);
        assert!(e2.sample_pixel(0, 0, e2.duration) < attained.get(0, 0));
    }

    #[test]
    fn attained_ignores_strobe_gating() {
        // The LC transitions whether or not the backlight is lit.
        let constant = emission(0.002).attained();
        let strobe = strobed(0.002, 0.2).attained();
        assert_eq!(constant, strobe);
    }

    #[test]
    #[should_panic(expected = "bad averaging window")]
    fn average_outside_interval_panics() {
        let e = emission(0.002);
        let _ = e.average(0.0, 1.0);
    }

    #[test]
    fn mixed_plane_values() {
        let e = FrameEmission {
            target: Plane::from_vec(2, 1, vec![1.0f32, 0.2]).unwrap(),
            initial: Plane::from_vec(2, 1, vec![0.0f32, 0.8]).unwrap(),
            duration: 0.01,
            tau: 0.002,
            t_start: 0.0,
            strobe: None,
        };
        let mid = e.sample(0.002);
        assert!((mid.get(0, 0) - 0.632).abs() < 0.01);
        assert!((mid.get(1, 0) - (0.2 + 0.6 * (-1.0f32).exp())).abs() < 0.01);
    }
}
