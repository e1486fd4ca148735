//! Clip transforms: editing operations over [`VideoSource`]s.
//!
//! Real playback paths do more than decode frames: they concatenate clips
//! (scene cuts) and letterbox to the display aspect. Each transform here wraps a source and is itself a source, so
//! experiment inputs compose: a scene-cut stress clip is
//! `Concat(solid, bars)`, a "TV with black bars" is `Letterbox(sunrise)`.
//!
//! Scene cuts matter to InFrame specifically: the video frame `V` changes
//! abruptly, but since both frames of a complementary pair use the *same*
//! `V`, cuts do not corrupt in-flight data cycles — an invariant the
//! integration tests check with these transforms.

use crate::source::{FrameRate, VideoSource};
use inframe_frame::Plane;

/// Plays `first` to completion, then `second` (a hard scene cut).
#[derive(Debug)]
pub struct Concat<A, B> {
    first: A,
    second: B,
    in_second: bool,
}

impl<A: VideoSource, B: VideoSource> Concat<A, B> {
    /// Concatenates two sources.
    ///
    /// # Panics
    /// Panics if the sources disagree in shape or frame rate.
    pub fn new(first: A, second: B) -> Self {
        assert_eq!(
            (first.width(), first.height()),
            (second.width(), second.height()),
            "concatenated clips must share a shape"
        );
        assert!(
            (first.frame_rate().0 - second.frame_rate().0).abs() < 1e-9,
            "concatenated clips must share a frame rate"
        );
        Self {
            first,
            second,
            in_second: false,
        }
    }
}

impl<A: VideoSource, B: VideoSource> VideoSource for Concat<A, B> {
    fn width(&self) -> usize {
        self.first.width()
    }
    fn height(&self) -> usize {
        self.first.height()
    }
    fn frame_rate(&self) -> FrameRate {
        self.first.frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        if !self.in_second {
            if let Some(f) = self.first.next_frame() {
                return Some(f);
            }
            self.in_second = true;
        }
        self.second.next_frame()
    }
}

/// Letterboxes a source into a larger canvas with black bars.
#[derive(Debug)]
pub struct Letterbox<S> {
    inner: S,
    canvas_w: usize,
    canvas_h: usize,
    bar_level: f32,
}

impl<S: VideoSource> Letterbox<S> {
    /// Centers `inner` in a `canvas_w × canvas_h` frame filled with
    /// `bar_level`.
    ///
    /// # Panics
    /// Panics if the canvas is smaller than the clip.
    pub fn new(inner: S, canvas_w: usize, canvas_h: usize, bar_level: f32) -> Self {
        assert!(
            canvas_w >= inner.width() && canvas_h >= inner.height(),
            "canvas must contain the clip"
        );
        Self {
            inner,
            canvas_w,
            canvas_h,
            bar_level,
        }
    }
}

impl<S: VideoSource> VideoSource for Letterbox<S> {
    fn width(&self) -> usize {
        self.canvas_w
    }
    fn height(&self) -> usize {
        self.canvas_h
    }
    fn frame_rate(&self) -> FrameRate {
        self.inner.frame_rate()
    }
    fn next_frame(&mut self) -> Option<Plane<f32>> {
        let frame = self.inner.next_frame()?;
        let mut canvas = Plane::filled(self.canvas_w, self.canvas_h, self.bar_level);
        let x = (self.canvas_w - frame.width()) / 2;
        let y = (self.canvas_h - frame.height()) / 2;
        canvas.blit(&frame, x, y).expect("canvas contains the clip");
        Some(canvas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FrameList, Limited, VideoSource};
    use crate::synth::SolidClip;

    fn solid(level: f32, frames: usize) -> Limited<SolidClip> {
        Limited::new(SolidClip::new(8, 6, level, FrameRate::VIDEO_30), frames)
    }

    #[test]
    fn concat_plays_both_clips_in_order() {
        let mut c = Concat::new(solid(10.0, 2), solid(200.0, 3));
        let frames = c.take_frames(100);
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0].get(0, 0), 10.0);
        assert_eq!(frames[1].get(0, 0), 10.0);
        assert_eq!(frames[2].get(0, 0), 200.0);
        assert_eq!(frames[4].get(0, 0), 200.0);
    }

    #[test]
    fn letterbox_centers_and_fills_bars() {
        let mut l = Letterbox::new(solid(200.0, 1), 12, 10, 0.0);
        assert_eq!((l.width(), l.height()), (12, 10));
        let f = l.next_frame().unwrap();
        assert_eq!(f.get(0, 0), 0.0); // bar
        assert_eq!(f.get(6, 5), 200.0); // clip centre
        assert_eq!(f.get(2, 2), 200.0); // clip corner (8x6 at (2,2))
        assert_eq!(f.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn concat_rejects_mismatched_shapes() {
        let a = Limited::new(SolidClip::new(8, 6, 0.0, FrameRate::VIDEO_30), 1);
        let b = Limited::new(SolidClip::new(6, 8, 0.0, FrameRate::VIDEO_30), 1);
        let _ = Concat::new(a, b);
    }

    #[test]
    fn transforms_compose() {
        let cut = Concat::new(solid(50.0, 2), solid(150.0, 2));
        let mut boxed = Letterbox::new(cut, 16, 12, 0.0);
        let frames = boxed.take_frames(10);
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].get(8, 6), 50.0); // the clip area
        assert_eq!(frames[0].get(0, 0), 0.0); // the bars
        let list = FrameList::new(frames, FrameRate::VIDEO_30);
        assert_eq!(list.remaining(), 4);
    }
}
