//! The capture pipeline: exposure integration, rolling shutter, optics,
//! noise and encoding.
//!
//! Every stage runs in row bands on the camera's [`ParallelEngine`] and
//! gives the same bits at any worker count: the rolling-shutter bands
//! write disjoint sensor rows, the separable blur and the noise work per
//! row, and the noise stream is addressed by pixel index.

use std::sync::Arc;

use crate::config::{CameraConfig, Shutter};
use crate::gamma;
use crate::geometry::CaptureGeometry;
use crate::noise::NoiseSource;
use inframe_display::FrameEmission;
use inframe_frame::filter::{
    convolve_cols_replicate_into, convolve_rows_replicate_into, gaussian_kernel,
};
use inframe_frame::resample::{downsample_area_into, AreaTaps};
use inframe_frame::{ParallelEngine, Plane};

/// Errors raised during capture.
#[derive(Debug, Clone, PartialEq)]
pub enum CaptureError {
    /// The provided emissions do not cover the needed exposure window.
    WindowNotCovered {
        /// Window required by the frame being captured (seconds).
        needed: (f64, f64),
        /// Window covered by the supplied emissions (seconds).
        available: (f64, f64),
    },
    /// No emissions were provided.
    NoEmissions,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::WindowNotCovered { needed, available } => write!(
                f,
                "exposure window [{:.6}, {:.6}] not covered by emissions [{:.6}, {:.6}]",
                needed.0, needed.1, available.0, available.1
            ),
            CaptureError::NoEmissions => write!(f, "no emissions supplied"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// One captured frame: 8-bit-scale luma code values plus timing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedFrame {
    /// Captured luma, code values 0–255 (already quantized to integers,
    /// stored as f32 for downstream math).
    pub plane: Plane<f32>,
    /// Display-time at which this frame's first row began exposing.
    pub t_start: f64,
    /// Zero-based capture index.
    pub index: u64,
}

/// A stateful camera: owns its clock, geometry and noise generator.
#[derive(Debug)]
pub struct Camera {
    config: CameraConfig,
    geometry: CaptureGeometry,
    noise: NoiseSource,
    frame_index: u64,
    engine: Arc<ParallelEngine>,
    /// The optics blur's Gaussian taps (empty without blur).
    psf: Vec<f32>,
    /// Fronto area-average tap tables for the last display shape seen.
    fronto_taps: Option<FrontoTaps>,
    /// Integrated light on the sensor after the blur's horizontal pass
    /// (without blur, just the integrated light), kept across captures.
    sensor: Vec<f32>,
    /// One set of band buffers per worker.
    band_scratch: Vec<BandScratch>,
}

/// A worker's buffers for one rolling-shutter band at a time.
#[derive(Debug, Default)]
struct BandScratch {
    /// The band's display rows, integrated over its exposure.
    display: Vec<f32>,
    /// The band's sensor rows, before the blur.
    sensor: Vec<f32>,
}

/// The fronto display→sensor area-average taps of every rolling-shutter
/// band. They depend only on the display and sensor shapes, so a camera
/// builds them on its first capture and reuses them after.
#[derive(Debug)]
struct FrontoTaps {
    /// Display `(width, height)` the tables were built for.
    display: (usize, usize),
    /// Display columns → sensor columns.
    columns: AreaTaps,
    /// Per band: the band's display rows → its sensor rows.
    rows: Vec<AreaTaps>,
}

impl Camera {
    /// Creates a camera with the given configuration, geometry and noise
    /// seed, capturing on [`ParallelEngine::from_env`] workers.
    pub fn new(config: CameraConfig, geometry: CaptureGeometry, seed: u64) -> Self {
        Self::with_engine(config, geometry, seed, Arc::new(ParallelEngine::from_env()))
    }

    /// [`Camera::new`] capturing on an explicit engine. Captures are
    /// bit-identical at every worker count.
    pub fn with_engine(
        config: CameraConfig,
        geometry: CaptureGeometry,
        seed: u64,
        engine: Arc<ParallelEngine>,
    ) -> Self {
        config.validate();
        let noise = NoiseSource::new(seed, config.read_noise_sigma, config.shot_noise_scale);
        let sigma = config.psf_sigma_px as f32;
        let psf = if sigma > 0.0 {
            gaussian_kernel(sigma)
        } else {
            Vec::new()
        };
        Self {
            config,
            geometry,
            noise,
            frame_index: 0,
            band_scratch: (0..engine.workers())
                .map(|_| BandScratch::default())
                .collect(),
            engine,
            psf,
            fronto_taps: None,
            sensor: Vec::new(),
        }
    }

    /// The camera configuration.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// The capture geometry.
    pub fn geometry(&self) -> &CaptureGeometry {
        &self.geometry
    }

    /// Index of the next frame to be captured.
    pub fn next_index(&self) -> u64 {
        self.frame_index
    }

    /// Display-time window the next capture needs emissions for.
    pub fn required_window(&self) -> (f64, f64) {
        self.config.frame_window(self.frame_index)
    }

    /// Advances the camera clock without producing a frame (dropped frame).
    pub fn skip_frame(&mut self) {
        self.frame_index += 1;
    }

    /// Captures the next frame from the supplied display emissions, which
    /// must be contiguous refresh intervals in time order covering
    /// [`Camera::required_window`].
    ///
    /// # Errors
    /// Returns [`CaptureError::WindowNotCovered`] if coverage is
    /// insufficient (including a gap or reordering in the slice),
    /// [`CaptureError::NoEmissions`] for an empty slice. A failed capture
    /// does not advance the frame index.
    pub fn capture(&mut self, emissions: &[FrameEmission]) -> Result<CapturedFrame, CaptureError> {
        if emissions.is_empty() {
            return Err(CaptureError::NoEmissions);
        }
        let needed = self.required_window();
        // Only a back-to-back run of intervals lights the window without a
        // dark gap; `avail` is the leading run's span.
        let run = 1 + emissions
            .windows(2)
            .take_while(|p| (p[1].t_start - (p[0].t_start + p[0].duration)).abs() <= 1e-9)
            .count();
        let last = &emissions[run - 1];
        let avail = (emissions[0].t_start, last.t_start + last.duration);
        if run < emissions.len() || needed.0 < avail.0 - 1e-9 || needed.1 > avail.1 + 1e-9 {
            return Err(CaptureError::WindowNotCovered {
                needed,
                available: avail,
            });
        }

        let (display_w, display_h) = emissions[0].target.shape();
        let sensor_w = self.config.width;
        let sensor_h = self.config.height;
        let t_frame = self.config.frame_start(self.frame_index);
        let bands = match self.config.shutter {
            Shutter::Global => 1,
            Shutter::Rolling { .. } => self.config.shutter_bands.min(sensor_h),
        };
        // Band `b` covers sensor rows `sensor_row(b)..sensor_row(b + 1)`:
        // at least one row each, since `bands ≤ sensor_h`.
        let sensor_row = |b: usize| b * sensor_h / bands;
        // Display rows feeding sensor rows `rows` (fronto mapping; the
        // projective path integrates the full display height because rows
        // mix under perspective).
        let display_rows = |rows: &std::ops::Range<usize>| {
            let dy0 = rows.start * display_h / sensor_h;
            dy0..(rows.end * display_h / sensor_h).max(dy0 + 1)
        };
        // Only fronto captures have tap tables; geometry is fixed per camera.
        if self.geometry.is_fronto()
            && self
                .fronto_taps
                .as_ref()
                .is_none_or(|t| t.display != (display_w, display_h))
        {
            self.fronto_taps = Some(FrontoTaps {
                display: (display_w, display_h),
                columns: AreaTaps::new(display_w, sensor_w),
                rows: (0..bands)
                    .map(|b| {
                        let sensor = sensor_row(b)..sensor_row(b + 1);
                        AreaTaps::new(display_rows(&sensor).len(), sensor.len())
                    })
                    .collect(),
            });
        }

        // 1. Exposure integration per rolling-shutter band, in display
        //    space, then geometric projection to sensor space and the
        //    optics blur's horizontal pass, in linear light. Bands write
        //    disjoint sensor rows, one chunk of bands per worker.
        let pixels = sensor_w * sensor_h;
        self.sensor.resize(pixels, 0.0);
        let (config, geometry, taps, psf) =
            (&self.config, &self.geometry, &self.fronto_taps, &self.psf);
        self.engine.for_each_item_rows(
            bands,
            sensor_row,
            sensor_w,
            &mut self.sensor,
            &mut self.band_scratch,
            |chunk, out, scratch| {
                let first_row = sensor_row(chunk.start);
                for b in chunk {
                    let sensor = sensor_row(b)..sensor_row(b + 1);
                    let out = &mut out[(sensor.start - first_row) * sensor_w..]
                        [..sensor.len() * sensor_w];
                    // Without blur the band lands in `out` directly.
                    let light = if psf.is_empty() {
                        &mut *out
                    } else {
                        scratch.sensor.resize(out.len(), 0.0);
                        &mut scratch.sensor[..]
                    };
                    let (t0, t1) = band_exposure(config, t_frame, b, bands);
                    match taps {
                        Some(taps) => {
                            let display = display_rows(&sensor);
                            let acc = &mut scratch.display;
                            integrate_rows_into(emissions, display.start, display.end, t0, t1, acc);
                            downsample_area_into(acc, &taps.columns, &taps.rows[b], light);
                        }
                        None => {
                            let display = integrate_display_rows(emissions, 0, display_h, t0, t1);
                            let projected = geometry.project(&display, sensor_w, sensor.len());
                            light.copy_from_slice(projected.samples());
                        }
                    }
                    if !psf.is_empty() {
                        convolve_rows_replicate_into(&scratch.sensor, sensor_w, psf, out);
                    }
                }
            },
        );

        // 2. The blur's vertical pass, 3. sensor noise in linear light, and
        //    4. gain, gamma encoding and 8-bit quantization (an exact
        //    threshold table instead of a per-pixel `powf`), one row band
        //    at a time.
        let mut code = Plane::filled(sensor_w, sensor_h, 0.0);
        let noise = self.noise.block(pixels);
        let gain = self.config.gain as f32;
        let gamma = gamma::table();
        let encode = |l: f32| gamma.encode((l * gain).clamp(0.0, 1.0));
        let (sensor, psf) = (&self.sensor, &self.psf);
        self.engine.for_each_band(&mut code, |rows, out| {
            if psf.is_empty() {
                out.copy_from_slice(&sensor[rows.start * sensor_w..rows.end * sensor_w]);
            } else {
                convolve_cols_replicate_into(sensor, sensor_w, psf, rows.clone(), out);
            }
            noise.apply(rows.start * sensor_w, out, encode);
        });

        // 5. In-camera processing (denoise/sharpen), then re-quantize.
        if !self.config.isp.is_passthrough() {
            code = self.config.isp.process(&code);
            code.map_in_place(|c| c.round().clamp(0.0, 255.0));
        }

        let frame = CapturedFrame {
            plane: code,
            t_start: t_frame,
            index: self.frame_index,
        };
        self.frame_index += 1;
        Ok(frame)
    }
}

/// Exposure interval of band `b` of `bands` for the frame starting at
/// `t_frame`.
fn band_exposure(config: &CameraConfig, t_frame: f64, b: usize, bands: usize) -> (f64, f64) {
    let offset = match config.shutter {
        Shutter::Global => 0.0,
        Shutter::Rolling { readout_s } => {
            // Band centre's position in the readout sweep.
            readout_s * (b as f64 + 0.5) / bands as f64
        }
    };
    let t0 = t_frame + offset;
    (t0, t0 + config.exposure_s)
}

/// Mean emitted light of display rows `[y0, y1)` over the window
/// `[t0, t1]`, combining the piecewise-exponential emissions in closed
/// form.
///
/// Each emission overlapping the window contributes its
/// [`FrameEmission::window`] terms, evaluated once, to every sample of
/// the rows; one whose strobe misses the window would add `+0.0` to
/// every sample and is skipped.
///
/// # Panics
/// Panics if the emissions do not cover the window (checked by callers),
/// differ in shape, or the row range is empty/out of bounds.
pub fn integrate_display_rows(
    emissions: &[FrameEmission],
    y0: usize,
    y1: usize,
    t0: f64,
    t1: f64,
) -> Plane<f32> {
    let mut acc = Vec::new();
    integrate_rows_into(emissions, y0, y1, t0, t1, &mut acc);
    let w = emissions[0].target.width();
    Plane::from_vec(w, y1 - y0, acc).expect("nonempty row range")
}

/// [`integrate_display_rows`] into a reused buffer, which it resizes to
/// the rows' sample count.
fn integrate_rows_into(
    emissions: &[FrameEmission],
    y0: usize,
    y1: usize,
    t0: f64,
    t1: f64,
    acc: &mut Vec<f32>,
) {
    assert!(y1 > y0, "empty row range");
    let (w, h) = emissions[0].target.shape();
    assert!(y1 <= h, "row range out of bounds");
    assert!(t1 > t0, "empty time window");
    let rows = y0 * w..y1 * w;
    acc.clear();
    acc.resize(rows.len(), 0.0);
    let total = t1 - t0;
    let mut covered = 0.0f64;
    for e in emissions {
        assert!(
            e.target.shape() == (w, h) && e.initial.shape() == (w, h),
            "emission shape differs from the first emission"
        );
        let s = t0.max(e.t_start);
        let t = t1.min(e.t_start + e.duration);
        if t - s <= 1e-12 {
            continue;
        }
        covered += t - s;
        let Some(window) = e.window(s - e.t_start, t - e.t_start) else {
            continue;
        };
        let weight = ((t - s) / total) as f32;
        let target = &e.target.samples()[rows.clone()];
        let initial = &e.initial.samples()[rows.clone()];
        for ((a, &tv), &iv) in acc.iter_mut().zip(target).zip(initial) {
            *a += weight * window.average(tv, iv);
        }
    }
    assert!(
        (covered - total).abs() < total * 1e-6 + 1e-9,
        "emissions cover only {covered:.6}s of a {total:.6}s window"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use inframe_display::{DisplayConfig, DisplayStream};

    /// Presents `frames` on an ideal 120 Hz panel and returns emissions.
    fn emit(frames: &[Plane<f32>]) -> Vec<FrameEmission> {
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        s.present_all(frames)
    }

    fn ideal_camera(w: usize, h: usize) -> Camera {
        Camera::new(
            CameraConfig::ideal(w, h, 30.0, 1.0 / 120.0),
            CaptureGeometry::Fronto,
            1,
        )
    }

    #[test]
    fn capture_of_static_gray_is_uniform() {
        let frames = vec![Plane::filled(64, 36, 127.0); 8];
        let em = emit(&frames);
        let mut cam = ideal_camera(32, 18);
        let cap = cam.capture(&em).unwrap();
        assert_eq!(cap.plane.shape(), (32, 18));
        assert_eq!(cap.index, 0);
        // Ideal camera with sRGB encode inverts the display's sRGB decode:
        // code values round-trip to ~127.
        let mean = cap.plane.mean();
        assert!((mean - 127.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn exposure_across_complementary_pair_cancels_pattern() {
        // V+D then V−D with a checkerboard D: a camera exposing across the
        // full pair in linear light sees ~V only. (Gamma makes the
        // cancellation approximate — about a code value at δ=20 — which is
        // itself a real InFrame effect.)
        let v = 127.0f32;
        let d = 20.0f32;
        let plus = Plane::from_fn(64, 36, |x, y| if (x + y) % 2 == 1 { v + d } else { v });
        let minus = Plane::from_fn(64, 36, |x, y| if (x + y) % 2 == 1 { v - d } else { v });
        let seq: Vec<Plane<f32>> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    plus.clone()
                } else {
                    minus.clone()
                }
            })
            .collect();
        let em = emit(&seq);
        // Exposure = exactly one pair (1/60 s).
        let mut cam = Camera::new(
            CameraConfig::ideal(64, 36, 30.0, 1.0 / 60.0),
            CaptureGeometry::Fronto,
            1,
        );
        let cap = cam.capture(&em).unwrap();
        // Pattern variance across pixels stays tiny.
        let std = cap.plane.variance().sqrt();
        assert!(std < 1.5, "residual pattern std {std}");
    }

    #[test]
    fn short_exposure_resolves_single_frame() {
        let v = 127.0f32;
        let d = 20.0f32;
        let plus = Plane::from_fn(16, 16, |x, y| if (x + y) % 2 == 1 { v + d } else { v });
        let minus = Plane::from_fn(16, 16, |x, y| if (x + y) % 2 == 1 { v - d } else { v });
        let seq: Vec<Plane<f32>> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    plus.clone()
                } else {
                    minus.clone()
                }
            })
            .collect();
        let em = emit(&seq);
        let mut cam = ideal_camera(16, 16);
        let cap = cam.capture(&em).unwrap();
        // Exposure = one display frame: full chessboard contrast visible.
        let std = cap.plane.variance().sqrt();
        assert!(std > 5.0, "chessboard must be visible, std {std}");
    }

    #[test]
    fn window_not_covered_is_reported() {
        let frames = vec![Plane::filled(8, 8, 100.0); 2];
        let em = emit(&frames); // covers 1/60 s
        let mut cam = Camera::new(
            CameraConfig::ideal(8, 8, 30.0, 1.0 / 30.0),
            CaptureGeometry::Fronto,
            1,
        );
        match cam.capture(&em) {
            Err(CaptureError::WindowNotCovered { .. }) => {}
            other => panic!("expected WindowNotCovered, got {other:?}"),
        }
    }

    #[test]
    fn gap_in_emissions_is_reported_without_advancing() {
        // A dropped refresh in the middle of the slice leaves 1/120 s of
        // the 1/30 s exposure dark: the first start and last end alone
        // would claim full coverage.
        let frames = vec![Plane::filled(8, 8, 100.0); 4];
        let mut em = emit(&frames);
        em.remove(1);
        let mut cam = Camera::new(
            CameraConfig::ideal(8, 8, 30.0, 1.0 / 30.0),
            CaptureGeometry::Fronto,
            1,
        );
        match cam.capture(&em) {
            Err(CaptureError::WindowNotCovered { available, .. }) => {
                assert!((available.1 - 1.0 / 120.0).abs() < 1e-12, "{available:?}");
            }
            other => panic!("expected WindowNotCovered, got {other:?}"),
        }
        assert_eq!(cam.next_index(), 0);
        // Out of order is a gap too.
        em.insert(1, emit(&frames).remove(1));
        em.swap(1, 2);
        assert!(matches!(
            cam.capture(&em),
            Err(CaptureError::WindowNotCovered { .. })
        ));
        em.swap(1, 2);
        assert!(cam.capture(&em).is_ok());
        assert_eq!(cam.next_index(), 1);
    }

    #[test]
    fn empty_emissions_rejected() {
        let mut cam = ideal_camera(8, 8);
        assert_eq!(cam.capture(&[]), Err(CaptureError::NoEmissions));
    }

    #[test]
    fn clock_advances_and_skip_works() {
        let frames = vec![Plane::filled(8, 8, 100.0); 8];
        let em = emit(&frames);
        let mut cam = ideal_camera(8, 8);
        let c0 = cam.capture(&em).unwrap();
        cam.skip_frame();
        assert_eq!(cam.next_index(), 2);
        assert_eq!(c0.t_start, 0.0);
        let (t0, _) = cam.required_window();
        assert!((t0 - 2.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn rolling_shutter_bands_see_different_times() {
        // Display switches from black to white mid-way; a rolling-shutter
        // camera capturing across the switch shows a gradient down the
        // frame (top rows exposed earlier = darker).
        let mut frames = vec![Plane::filled(32, 32, 0.0); 3];
        frames.extend(vec![Plane::filled(32, 32, 255.0); 3]);
        let em = emit(&frames);
        let cfg = CameraConfig {
            width: 32,
            height: 32,
            fps: 30.0,
            exposure_s: 1.0 / 120.0,
            shutter: Shutter::Rolling { readout_s: 0.020 },
            phase_s: 0.0,
            clock_skew: 0.0,
            read_noise_sigma: 0.0,
            shot_noise_scale: 0.0,
            psf_sigma_px: 0.0,
            gain: 1.0,
            shutter_bands: 8,
            isp: crate::isp::IspConfig::off(),
        };
        let mut cam = Camera::new(cfg, CaptureGeometry::Fronto, 1);
        let cap = cam.capture(&em).unwrap();
        let top = cap.plane.get(16, 1);
        let bottom = cap.plane.get(16, 30);
        assert!(
            bottom > top + 50.0,
            "rolling shutter gradient: top {top} bottom {bottom}"
        );
    }

    #[test]
    fn noise_changes_output_but_is_seeded() {
        let frames = vec![Plane::filled(16, 16, 127.0); 8];
        let em = emit(&frames);
        let mut cfg = CameraConfig::ideal(16, 16, 30.0, 1.0 / 120.0);
        cfg.read_noise_sigma = 0.01;
        let mut cam_a = Camera::new(cfg, CaptureGeometry::Fronto, 5);
        let mut cam_b = Camera::new(cfg, CaptureGeometry::Fronto, 5);
        let mut cam_c = Camera::new(cfg, CaptureGeometry::Fronto, 6);
        let a = cam_a.capture(&em).unwrap();
        let b = cam_b.capture(&em).unwrap();
        let c = cam_c.capture(&em).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.plane.variance() > 0.0);
    }

    #[test]
    fn integrate_rows_respects_weights() {
        // Two ideal emissions: light 0.2 then 0.8. Integrating across both
        // halves equally gives 0.5.
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        // code values chosen so linear light is easy: use direct targets.
        let e1 = s.present(&Plane::filled(4, 4, 119.0));
        let e2 = s.present(&Plane::filled(4, 4, 235.0));
        let l1 = e1.target.get(0, 0) as f64;
        let l2 = e2.target.get(0, 0) as f64;
        let span = e1.duration + e2.duration;
        let avg = integrate_display_rows(&[e1, e2], 0, 4, 0.0, span);
        assert!((avg.get(0, 0) as f64 - (l1 + l2) / 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "cover only")]
    fn uncovered_integration_panics() {
        let mut s = DisplayStream::new(DisplayConfig::ideal_120hz());
        let e = s.present(&Plane::filled(4, 4, 100.0));
        let _ = integrate_display_rows(&[e], 0, 4, 0.0, 1.0);
    }
}
