//! The [`VideoSource`] trait and stream adapters.
//!
//! A video source yields luma frames (`Plane<f32>`, code values 0–255) at a
//! declared frame rate. The InFrame sender consumes a 30 FPS source and
//! emits 120 Hz multiplexed frames by duplicating each video frame four
//! times (paper Figure 2); [`RateConverter`] implements exactly that
//! duplication.

use inframe_frame::Plane;

/// A frame rate in frames per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRate(pub f64);

impl FrameRate {
    /// The paper's video rate (30 FPS).
    pub const VIDEO_30: FrameRate = FrameRate(30.0);
    /// The paper's display refresh (120 Hz).
    pub const DISPLAY_120: FrameRate = FrameRate(120.0);

    /// Seconds per frame.
    pub fn frame_duration(&self) -> f64 {
        1.0 / self.0
    }
}

/// Copies `src` into `out`, reallocating only on a shape change.
fn copy_plane_into(src: &Plane<f32>, out: &mut Plane<f32>) {
    if out.shape() == src.shape() {
        out.samples_mut().copy_from_slice(src.samples());
    } else {
        *out = src.clone();
    }
}

/// A pull-based stream of luma frames.
///
/// Implementations must yield frames of a constant size; `next_frame`
/// returns `None` at end of stream (infinite procedural sources never end).
pub trait VideoSource {
    /// Frame width in pixels.
    fn width(&self) -> usize;
    /// Frame height in pixels.
    fn height(&self) -> usize;
    /// Nominal frame rate.
    fn frame_rate(&self) -> FrameRate;
    /// Produces the next frame, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<Plane<f32>>;

    /// Writes the next frame into `out` (resizing it on first use),
    /// returning `false` at end of stream.
    ///
    /// This is the allocation-free twin of [`VideoSource::next_frame`]:
    /// the sender holds one video plane for the life of the stream and
    /// refills it in place at each video boundary, so steady-state
    /// playback never churns full-frame buffers through the allocator
    /// (at 4K a frame is ~33 MB — large enough that repeated
    /// alloc/free round-trips through `mmap` and cost hundreds of
    /// milliseconds on some hosts). The default forwards to
    /// `next_frame` and copies; procedural sources override it to
    /// synthesize directly into `out`.
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        match self.next_frame() {
            Some(f) => {
                // The frame was freshly allocated anyway — move it in
                // rather than paying a copy on top.
                *out = f;
                true
            }
            None => false,
        }
    }

    /// Collects up to `n` frames into a vector (fewer if the stream ends).
    fn take_frames(&mut self, n: usize) -> Vec<Plane<f32>>
    where
        Self: Sized,
    {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next_frame() {
                Some(f) => out.push(f),
                None => break,
            }
        }
        out
    }
}

impl<T: VideoSource + ?Sized> VideoSource for Box<T> {
    fn width(&self) -> usize {
        (**self).width()
    }
    fn height(&self) -> usize {
        (**self).height()
    }
    fn frame_rate(&self) -> FrameRate {
        (**self).frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        (**self).next_frame()
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        (**self).next_frame_into(out)
    }
}

/// Replays a fixed list of frames once.
#[derive(Debug, Clone)]
pub struct FrameList {
    frames: Vec<Plane<f32>>,
    rate: FrameRate,
    pos: usize,
}

impl FrameList {
    /// Builds a source from frames (all must share a shape).
    ///
    /// # Panics
    /// Panics if `frames` is empty or shapes differ.
    pub fn new(frames: Vec<Plane<f32>>, rate: FrameRate) -> Self {
        assert!(!frames.is_empty(), "frame list must be nonempty");
        let shape = frames[0].shape();
        assert!(
            frames.iter().all(|f| f.shape() == shape),
            "all frames must share one shape"
        );
        Self {
            frames,
            rate,
            pos: 0,
        }
    }

    /// Number of frames remaining.
    pub fn remaining(&self) -> usize {
        self.frames.len() - self.pos
    }
}

impl VideoSource for FrameList {
    fn width(&self) -> usize {
        self.frames[0].width()
    }
    fn height(&self) -> usize {
        self.frames[0].height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.rate
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        let f = self.frames.get(self.pos).cloned();
        if f.is_some() {
            self.pos += 1;
        }
        f
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        match self.frames.get(self.pos) {
            Some(f) => {
                copy_plane_into(f, out);
                self.pos += 1;
                true
            }
            None => false,
        }
    }
}

/// Duplicates each source frame an integral number of times, converting a
/// 30 FPS stream into the 120 Hz display cadence of Figure 2.
#[derive(Debug)]
pub struct RateConverter<S> {
    inner: S,
    factor: usize,
    pending: Option<(Plane<f32>, usize)>,
}

impl<S: VideoSource> RateConverter<S> {
    /// Wraps `inner`, duplicating each frame `factor` times.
    ///
    /// # Panics
    /// Panics when `factor == 0`.
    pub fn new(inner: S, factor: usize) -> Self {
        assert!(factor > 0, "duplication factor must be nonzero");
        Self {
            inner,
            factor,
            pending: None,
        }
    }

    /// The paper's 30→120 conversion (factor 4).
    pub fn x4(inner: S) -> Self {
        Self::new(inner, 4)
    }
}

impl<S: VideoSource> VideoSource for RateConverter<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn height(&self) -> usize {
        self.inner.height()
    }
    fn frame_rate(&self) -> FrameRate {
        FrameRate(self.inner.frame_rate().0 * self.factor as f64)
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        if let Some((frame, left)) = self.pending.take() {
            if left > 1 {
                self.pending = Some((frame.clone(), left - 1));
            }
            return Some(frame);
        }
        let frame = self.inner.next_frame()?;
        if self.factor > 1 {
            self.pending = Some((frame.clone(), self.factor - 1));
        }
        Some(frame)
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        if let Some((frame, left)) = &mut self.pending {
            copy_plane_into(frame, out);
            if *left > 1 {
                *left -= 1;
            } else {
                self.pending = None;
            }
            return true;
        }
        if !self.inner.next_frame_into(out) {
            return false;
        }
        if self.factor > 1 {
            self.pending = Some((out.clone(), self.factor - 1));
        }
        true
    }
}

/// Loops an inner finite source forever (rewinding at end of stream).
#[derive(Debug, Clone)]
pub struct Looped {
    frames: Vec<Plane<f32>>,
    rate: FrameRate,
    pos: usize,
}

impl Looped {
    /// Materializes `inner` fully and loops it.
    ///
    /// # Panics
    /// Panics if `inner` yields no frames.
    pub fn from_source(mut inner: impl VideoSource) -> Self {
        let mut frames = Vec::new();
        while let Some(f) = inner.next_frame() {
            frames.push(f);
            assert!(
                frames.len() < 1_000_000,
                "refusing to materialize an endless source"
            );
        }
        assert!(!frames.is_empty(), "source yielded no frames");
        Self {
            rate: inner.frame_rate(),
            frames,
            pos: 0,
        }
    }
}

impl VideoSource for Looped {
    fn width(&self) -> usize {
        self.frames[0].width()
    }
    fn height(&self) -> usize {
        self.frames[0].height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.rate
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        let f = self.frames[self.pos].clone();
        self.pos = (self.pos + 1) % self.frames.len();
        Some(f)
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        copy_plane_into(&self.frames[self.pos], out);
        self.pos = (self.pos + 1) % self.frames.len();
        true
    }
}

/// Truncates an inner source to at most `n` frames.
#[derive(Debug)]
pub struct Limited<S> {
    inner: S,
    left: usize,
}

impl<S: VideoSource> Limited<S> {
    /// Wraps `inner`, yielding at most `n` frames.
    pub fn new(inner: S, n: usize) -> Self {
        Self { inner, left: n }
    }
}

impl<S: VideoSource> VideoSource for Limited<S> {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn height(&self) -> usize {
        self.inner.height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.inner.frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.inner.next_frame()
    }
    fn next_frame_into(&mut self, out: &mut Plane<f32>) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        self.inner.next_frame_into(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Plane<f32>> {
        (0..n).map(|i| Plane::filled(4, 3, i as f32)).collect()
    }

    #[test]
    fn frame_list_yields_in_order_then_ends() {
        let mut s = FrameList::new(frames(3), FrameRate::VIDEO_30);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_frame().unwrap().get(0, 0), 0.0);
        assert_eq!(s.next_frame().unwrap().get(0, 0), 1.0);
        assert_eq!(s.next_frame().unwrap().get(0, 0), 2.0);
        assert!(s.next_frame().is_none());
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn mixed_shapes_rejected() {
        let a = Plane::filled(4, 3, 0.0);
        let b = Plane::filled(3, 4, 0.0);
        let _ = FrameList::new(vec![a, b], FrameRate::VIDEO_30);
    }

    #[test]
    fn rate_converter_duplicates_four_times() {
        let src = FrameList::new(frames(2), FrameRate::VIDEO_30);
        let mut conv = RateConverter::x4(src);
        assert_eq!(conv.frame_rate().0, 120.0);
        let out = conv.take_frames(100);
        assert_eq!(out.len(), 8);
        for i in 0..4 {
            assert_eq!(out[i].get(0, 0), 0.0);
            assert_eq!(out[4 + i].get(0, 0), 1.0);
        }
    }

    #[test]
    fn rate_converter_factor_one_is_passthrough() {
        let src = FrameList::new(frames(3), FrameRate::VIDEO_30);
        let mut conv = RateConverter::new(src, 1);
        assert_eq!(conv.take_frames(10).len(), 3);
    }

    #[test]
    fn looped_source_wraps_around() {
        let src = FrameList::new(frames(2), FrameRate::VIDEO_30);
        let mut looped = Looped::from_source(src);
        let out = looped.take_frames(5);
        let vals: Vec<f32> = out.iter().map(|f| f.get(0, 0)).collect();
        assert_eq!(vals, vec![0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn limited_truncates() {
        let src = FrameList::new(frames(10), FrameRate::VIDEO_30);
        let mut lim = Limited::new(src, 4);
        assert_eq!(lim.take_frames(100).len(), 4);
        assert!(lim.next_frame().is_none());
    }

    #[test]
    fn frame_rate_duration() {
        assert!((FrameRate::DISPLAY_120.frame_duration() - 1.0 / 120.0).abs() < 1e-12);
    }
}
