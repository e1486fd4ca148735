//! System configuration.

use crate::pattern::Complementation;
use inframe_dsp::envelope::TransitionShape;

/// GOB-level channel coding (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodingMode {
    /// The paper's prototype: within every m×m GOB the last Block is the
    /// XOR parity of the others.
    Parity,
    /// "Common error correction code such as RS code": data bits are packed
    /// into bytes and protected by RS(n, k) across the whole data frame,
    /// with undecodable Blocks treated as erasures. `parity_bytes` is
    /// `n − k` per ≤255-byte codeword.
    ReedSolomon {
        /// Parity bytes per codeword.
        parity_bytes: usize,
    },
}

/// Which kernel implementations the pipeline's hot stages run on.
///
/// Both backends implement the same pipeline; [`KernelBackend::Reference`]
/// is the scalar f32/f64 oracle, [`KernelBackend::Quantized`] routes the
/// render and demux inner loops through the Q8.7 fixed-point layer
/// (`inframe_frame::qplane`, `QIntegral`, the chessboard LUT). Decoded
/// bits are identical across backends on the test corpus; raw block
/// scores agree within 1 LSB of Q8.7 (1/128 code value) — enforced by
/// `tests/kernel_equivalence.rs`.
///
/// The quantized backend's hot loops additionally dispatch to explicit
/// SSE2/AVX2 paths via [`inframe_frame::simd`]; the `INFRAME_SIMD`
/// environment variable (`off`/`sse2`/`avx2`) caps the level for
/// testing, and every level decodes bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Scalar f32/f64 kernels — the bit-exact oracle.
    Reference,
    /// i16 Q8.7 fixed-point kernels: O(1) sliding-window blur,
    /// integral-image demodulation, LUT-based chessboard render.
    Quantized,
}

impl KernelBackend {
    /// Parses an `INFRAME_KERNEL` value. Accepts `quantized`/`quant`/`q`
    /// and `reference`/`ref`/`f32` (case-insensitive); anything else —
    /// including `None` — selects [`KernelBackend::Reference`].
    pub fn parse(value: Option<&str>) -> Self {
        match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            Some("quantized" | "quant" | "q") => Self::Quantized,
            _ => Self::Reference,
        }
    }

    /// Backend from the `INFRAME_KERNEL` environment variable (default
    /// [`KernelBackend::Reference`]). Config constructors call this, so
    /// `INFRAME_KERNEL=quantized cargo test` runs the whole corpus on the
    /// fixed-point path.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("INFRAME_KERNEL").ok().as_deref())
    }
}

/// Full InFrame configuration: geometry, amplitude, timing, detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFrameConfig {
    /// Display frame width in pixels.
    pub display_w: usize,
    /// Display frame height in pixels.
    pub display_h: usize,
    /// Display refresh rate in Hz; the video runs at a quarter of this.
    pub refresh_hz: f64,
    /// Super-Pixel side `p` in display pixels (paper: 4 at 1920×1080).
    pub pixel_size: usize,
    /// Block side `s` in super-Pixels (one Block carries one bit).
    pub block_size: usize,
    /// Blocks per data-frame row (paper: 50).
    pub blocks_x: usize,
    /// Blocks per data-frame column (paper: 30).
    pub blocks_y: usize,
    /// GOB side `m` in Blocks (paper: 2).
    pub gob_size: usize,
    /// Chessboard amplitude δ in code values (paper sweeps 20–50).
    pub delta: f32,
    /// Data-frame cycle τ in *displayed frames* (paper sweeps 10–14; the
    /// data rate is `refresh_hz / τ` data frames per second).
    pub tau: u32,
    /// Amplitude envelope shape for bit transitions.
    pub envelope: TransitionShape,
    /// Complementary-pair balancing rule. [`Complementation::Luminance`]
    /// (the default) zeroes the gamma-convexity ripple; the paper's
    /// original code-symmetric rule is available for ablation.
    pub complementation: Complementation,
    /// Detection threshold `T` on the normalized block noise score.
    pub threshold: f32,
    /// Dead-zone half-width around `T`: blocks scoring within
    /// `T ± margin` are declared undecodable (their GOB becomes
    /// unavailable).
    pub margin: f32,
    /// Channel coding mode.
    pub coding: CodingMode,
    /// Kernel backend for the render/demux hot paths. Defaults to the
    /// `INFRAME_KERNEL` environment variable (see
    /// [`KernelBackend::from_env`]).
    pub kernel: KernelBackend,
}

impl InFrameConfig {
    /// The paper's experimental setup (§4): 1920×1080 at 120 Hz, p = 4,
    /// 36×36-pixel Blocks in a 50×30 grid (15×25 GOBs of 2×2), δ = 20,
    /// τ = 12.
    pub fn paper() -> Self {
        Self {
            display_w: 1920,
            display_h: 1080,
            refresh_hz: 120.0,
            pixel_size: 4,
            block_size: 9,
            blocks_x: 50,
            blocks_y: 30,
            gob_size: 2,
            delta: 20.0,
            tau: 12,
            envelope: TransitionShape::SrrCosine,
            complementation: Complementation::Luminance,
            threshold: 2.0,
            margin: 1.0,
            coding: CodingMode::Parity,
            kernel: KernelBackend::from_env(),
        }
    }

    /// A small configuration for unit tests and quick demos: 192×144
    /// display, 12×12-pixel Blocks in a 16×12 grid.
    pub fn small_test() -> Self {
        Self {
            display_w: 192,
            display_h: 144,
            refresh_hz: 120.0,
            pixel_size: 3,
            block_size: 4,
            blocks_x: 16,
            blocks_y: 12,
            gob_size: 2,
            delta: 20.0,
            tau: 12,
            envelope: TransitionShape::SrrCosine,
            complementation: Complementation::Luminance,
            threshold: 2.0,
            margin: 1.0,
            coding: CodingMode::Parity,
            kernel: KernelBackend::from_env(),
        }
    }

    /// Block side length in display pixels (`p · s`).
    pub fn block_px(&self) -> usize {
        self.pixel_size * self.block_size
    }

    /// Displayed frames per video frame (refresh / 30 in the paper; fixed
    /// at 4 here as in Figure 2).
    pub const DUPLICATES_PER_VIDEO_FRAME: usize = 4;

    /// Data frames per second: `refresh_hz / τ`.
    pub fn data_frame_rate(&self) -> f64 {
        self.refresh_hz / self.tau as f64
    }

    /// Complementary pairs per data-frame cycle (`τ / 2`).
    pub fn pairs_per_cycle(&self) -> u32 {
        self.tau / 2
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics if the data grid does not fit on the display, τ is not an
    /// even value ≥ 2, the GOB size does not divide the block grid, δ is
    /// out of range, or the threshold/margin are inconsistent.
    pub fn validate(&self) {
        assert!(
            self.display_w > 0 && self.display_h > 0,
            "display must be nonempty"
        );
        assert!(self.refresh_hz > 0.0, "refresh rate must be positive");
        assert!(self.pixel_size >= 1, "pixel size must be >= 1");
        assert!(self.block_size >= 2, "block must be at least 2 Pixels");
        assert!(
            self.blocks_x * self.block_px() <= self.display_w,
            "data grid wider than display"
        );
        assert!(
            self.blocks_y * self.block_px() <= self.display_h,
            "data grid taller than display"
        );
        assert!(self.gob_size >= 2, "GOB must be at least 2x2");
        assert!(
            self.blocks_x.is_multiple_of(self.gob_size)
                && self.blocks_y.is_multiple_of(self.gob_size),
            "GOB size must divide the block grid"
        );
        assert!(
            self.tau >= 2 && self.tau.is_multiple_of(2),
            "tau must be even and >= 2"
        );
        assert!(
            self.delta > 0.0 && self.delta <= 127.0,
            "delta must be in (0, 127]"
        );
        assert!(self.threshold > 0.0, "threshold must be positive");
        assert!(
            self.margin >= 0.0 && self.margin < self.threshold,
            "margin must be in [0, threshold)"
        );
        if let CodingMode::ReedSolomon { parity_bytes } = self.coding {
            assert!(parity_bytes >= 2, "RS needs at least 2 parity bytes");
        }
    }
}

impl Default for InFrameConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section4() {
        let c = InFrameConfig::paper();
        c.validate();
        assert_eq!(c.block_px(), 36);
        assert_eq!(c.blocks_x * c.blocks_y, 1500);
        // 15*25 GOBs.
        assert_eq!(
            (c.blocks_x / c.gob_size) * (c.blocks_y / c.gob_size),
            25 * 15
        );
        // Data grid fits 1920x1080 with a margin.
        assert!(c.blocks_x * c.block_px() <= 1920);
        assert_eq!(c.blocks_y * c.block_px(), 1080);
    }

    #[test]
    fn data_frame_rate_reproduces_paper_throughput_math() {
        // Gray δ=20 τ=10: 1125 payload bits × 12 Hz = 13.5 kbps raw, which
        // after the paper's 95.2% availability and 1.5% error rate lands at
        // the reported ~12.6 kbps.
        let mut c = InFrameConfig::paper();
        c.tau = 10;
        let gobs = (c.blocks_x / c.gob_size) * (c.blocks_y / c.gob_size);
        let payload_bits = gobs * (c.gob_size * c.gob_size - 1);
        assert_eq!(payload_bits, 1125);
        let raw_kbps = payload_bits as f64 * c.data_frame_rate() / 1000.0;
        assert!((raw_kbps - 13.5).abs() < 1e-9);
        let effective = raw_kbps * 0.952 * (1.0 - 0.015);
        assert!((effective - 12.66).abs() < 0.05);
    }

    #[test]
    fn small_config_validates() {
        InFrameConfig::small_test().validate();
    }

    #[test]
    #[should_panic(expected = "tau must be even")]
    fn odd_tau_rejected() {
        let mut c = InFrameConfig::small_test();
        c.tau = 11;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "wider than display")]
    fn oversized_grid_rejected() {
        let mut c = InFrameConfig::small_test();
        c.blocks_x = 1000;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "GOB size must divide")]
    fn misaligned_gob_rejected() {
        let mut c = InFrameConfig::small_test();
        c.blocks_x = 15; // not divisible by 2
        c.validate();
    }

    #[test]
    fn kernel_backend_parses_env_values() {
        for v in ["quantized", "quant", "q", " Quantized ", "QUANT"] {
            assert_eq!(KernelBackend::parse(Some(v)), KernelBackend::Quantized);
        }
        for v in ["reference", "ref", "f32", "", "garbage"] {
            assert_eq!(KernelBackend::parse(Some(v)), KernelBackend::Reference);
        }
        assert_eq!(KernelBackend::parse(None), KernelBackend::Reference);
    }

    #[test]
    fn pairs_per_cycle_is_half_tau() {
        let mut c = InFrameConfig::paper();
        for tau in [10u32, 12, 14] {
            c.tau = tau;
            assert_eq!(c.pairs_per_cycle(), tau / 2);
        }
    }
}
