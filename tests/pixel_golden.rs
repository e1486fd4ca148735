//! Golden digests of the display → camera pixel physics, pinned per
//! configuration at Quick size.
//!
//! `pump_golden.rs` hashes decoded outcomes, which cannot see a changed
//! pixel that still decodes the same way. These tests hash the f32 bits
//! of every `FrameEmission` `target` and `initial` plane, of a few
//! emission averages, and of every `CapturedFrame.plane`, so any change
//! to the panel or camera arithmetic shows up as a digest mismatch.
//! Captured planes are quantized to whole code values, so each capture
//! also hashes the f32 stages it is built from: the exposure integral,
//! its projection onto the sensor and the optics blur. Each
//! case covers one branch of the model: strobed vs constant backlight,
//! τ > 0 vs τ = 0, rolling vs global shutter, fronto vs projective
//! geometry, and a pass-through vs processing ISP.
//!
//! Quick size splits 112 sensor rows into 12 bands of 9 or 10 rows, so
//! its band resamples never have the paper's exact 3:2 shape. One more
//! test captures at paper geometry, whose bands do, at several worker
//! counts and every SIMD level.

use std::sync::Arc;

use inframe::camera::capture::integrate_display_rows;
use inframe::camera::{Camera, CameraConfig, CaptureGeometry, IspConfig};
use inframe::display::{DisplayConfig, DisplayStream, FrameEmission};
use inframe::frame::filter::gaussian_blur;
use inframe::frame::simd::{self, SimdLevel};
use inframe::frame::{ParallelEngine, Plane};
use inframe::sim::Scale;

const DISPLAY_W: usize = 240;
const DISPLAY_H: usize = 168;
const SENSOR_W: usize = 160;
const SENSOR_H: usize = 112;
const CAPTURES: u64 = 3;

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn plane(&mut self, p: &Plane<f32>) {
        self.bytes(&(p.width() as u64).to_le_bytes());
        self.bytes(&(p.height() as u64).to_le_bytes());
        for v in p.samples() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Code frame `i`: a flat ±20 chessboard band (long runs of equal codes),
/// a fractional ramp that drifts per frame, and a pseudo-random texture.
fn code_frame(i: usize) -> Plane<f32> {
    sized_code_frame(DISPLAY_W, DISPLAY_H, i)
}

/// [`code_frame`] at any display size.
fn sized_code_frame(w: usize, h: usize, i: usize) -> Plane<f32> {
    Plane::from_fn(w, h, |x, y| {
        let sign = if (x / 4 + y / 4 + i).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        if y < h / 3 {
            127.0 + sign * 20.0
        } else if y < 2 * h / 3 {
            (x as f32 * 1.0625 + i as f32 * 3.5) % 256.0
        } else {
            ((x * 31 + y * 17 + i * 13) % 256) as f32 * 0.75 + 10.0
        }
    })
}

/// The Quick-size Lumia-like rolling-shutter camera.
fn lumia() -> CameraConfig {
    CameraConfig {
        width: SENSOR_W,
        height: SENSOR_H,
        shutter_bands: 12,
        ..CameraConfig::lumia_1020()
    }
}

/// Presents frames and captures `CAPTURES` frames the way the capture pump
/// does, hashing every emission and captured plane.
fn digest(display: DisplayConfig, camera: CameraConfig, geometry: CaptureGeometry) -> u64 {
    let mut h = Fnv::new();
    let mut stream = DisplayStream::new(display);
    let exposure = camera.exposure_s;
    let mut cam = Camera::new(camera, geometry, 17);
    let mut window: Vec<FrameEmission> = Vec::new();
    let mut i = 0;
    while cam.next_index() < CAPTURES {
        let e = stream.present(&code_frame(i));
        i += 1;
        h.plane(&e.target);
        h.plane(&e.initial);
        if i <= 3 {
            h.plane(&e.average(0.0, e.duration));
            h.plane(&e.average(e.duration * 0.25, e.duration * 0.95));
        }
        let end = e.t_start + e.duration;
        window.push(e);
        while cam.required_window().1 <= end && cam.next_index() < CAPTURES {
            let need_start = cam.required_window().0;
            window.retain(|e| e.t_start + e.duration > need_start + 1e-12);
            let cap = cam.capture(&window).expect("window is covered");
            h.bytes(&cap.index.to_le_bytes());
            h.plane(&cap.plane);
            // Captures are 8-bit; hash the f32 linear-light stages too, so
            // a change below one code value still shows.
            let light =
                integrate_display_rows(&window, 0, DISPLAY_H, need_start, need_start + exposure);
            let sensor = geometry.project(&light, SENSOR_W, SENSOR_H);
            h.plane(&light);
            h.plane(&sensor);
            h.plane(&gaussian_blur(&sensor, 0.7));
        }
    }
    h.0
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{label}: digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn strobed_panel_rolling_shutter_digest() {
    let got = digest(
        DisplayConfig::eizo_fg2421(),
        lumia(),
        CaptureGeometry::Fronto,
    );
    check("strobed + rolling", got, 0xe9c5d3a83f38b2e4);
}

#[test]
fn constant_backlight_slow_panel_digest() {
    let got = digest(
        DisplayConfig::eizo_fg2421_no_strobe(),
        lumia(),
        CaptureGeometry::Fronto,
    );
    check("no strobe", got, 0xe332f021db502e73);
}

#[test]
fn ideal_panel_global_shutter_digest() {
    let got = digest(
        DisplayConfig::ideal_120hz(),
        CameraConfig::ideal(SENSOR_W, SENSOR_H, 30.0, 1.0 / 60.0),
        CaptureGeometry::Fronto,
    );
    check("ideal + global", got, 0x3c35b20cda6fbaf9);
}

#[test]
fn handheld_projective_capture_digest() {
    let got = digest(
        DisplayConfig::eizo_fg2421(),
        lumia(),
        CaptureGeometry::handheld(DISPLAY_W, DISPLAY_H, SENSOR_W, SENSOR_H, 0.05),
    );
    check("handheld", got, 0x93dd31293345eb72);
}

#[test]
fn processing_isp_digest() {
    let got = digest(
        DisplayConfig::eizo_fg2421(),
        CameraConfig {
            isp: IspConfig::phone_default(),
            phase_s: 0.003,
            ..lumia()
        },
        CaptureGeometry::Fronto,
    );
    check("phone ISP", got, 0xd9974726c2c187c0);
}

/// One capture at paper geometry: the strobed 1920×1080 panel seen by the
/// 24-band Lumia at 1280×720 (rolling shutter, blur and noise on). Each
/// band resamples 1920×45 display samples to 1280×30 sensor samples, the
/// exact 3:2 shape. The digest covers the captured codes, the whole
/// window's integrated light and its fronto projection, and was recorded
/// before the capture back end had its AVX2 and two-tap paths. It must
/// hold at 1 and 2 workers and at every SIMD level this machine runs.
#[test]
fn paper_geometry_capture_digest() {
    let scale = Scale::Paper;
    let (config, geometry) = (scale.camera(), scale.geometry());
    let inframe = scale.inframe();
    let (display_w, display_h) = (inframe.display_w, inframe.display_h);
    let new_camera =
        |workers| Camera::with_engine(config, geometry, 17, Arc::new(ParallelEngine::new(workers)));
    let mut stream = DisplayStream::new(scale.display());
    let mut window: Vec<FrameEmission> = Vec::new();
    let need = new_camera(1).required_window();
    for i in 0.. {
        let e = stream.present(&sized_code_frame(display_w, display_h, i));
        let end = e.t_start + e.duration;
        window.push(e);
        if need.1 <= end {
            break;
        }
    }
    window.retain(|e| e.t_start + e.duration > need.0 + 1e-12);
    let light = integrate_display_rows(&window, 0, display_h, need.0, need.1);
    for level in SimdLevel::supported() {
        simd::force_level(Some(level));
        for workers in [1, 2] {
            let cap = new_camera(workers)
                .capture(&window)
                .expect("window is covered");
            let mut h = Fnv::new();
            h.plane(&cap.plane);
            h.plane(&light);
            h.plane(&geometry.project(&light, config.width, config.height));
            let label = format!("paper geometry, {} at {workers} worker(s)", level.name());
            check(&label, h.0, 0xf277_8b32_b13c_54f3);
        }
    }
    simd::force_level(None);
}
