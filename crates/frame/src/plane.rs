//! Two-dimensional sample buffers.
//!
//! A [`Plane`] is the fundamental storage type of the reproduction: a dense,
//! row-major 2-D array of scalar samples. Video frames, data frames,
//! emitted-light fields and captured sensor images are all planes (or small
//! stacks of planes).

use crate::FrameError;

/// Sample types that can live inside a [`Plane`].
///
/// The trait is deliberately tiny: just what the image code needs, so new
/// sample types (e.g. `i16` residuals) can opt in cheaply.
pub trait Sample: Copy + Clone + PartialEq + PartialOrd + Default + 'static {
    /// Lossy conversion to `f32` (used by metrics and filters).
    fn to_f32(self) -> f32;
    /// Lossy conversion from `f32`, clamping to the representable range.
    fn from_f32(v: f32) -> Self;
}

impl Sample for u8 {
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v.round().clamp(0.0, 255.0) as u8
    }
}

impl Sample for f32 {
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
}

impl Sample for i16 {
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v.round().clamp(i16::MIN as f32, i16::MAX as f32) as i16
    }
}

impl Sample for f64 {
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn from_f32(v: f32) -> Self {
        v as f64
    }
}

/// A dense, row-major 2-D buffer of samples.
///
/// Indexing is `(x, y)` with `x` the column (0 at the left) and `y` the row
/// (0 at the top), matching the paper's screen-space convention.
///
/// ```
/// use inframe_frame::Plane;
/// let mut p = Plane::<f32>::filled(4, 3, 127.0);
/// p.put(2, 1, 140.0);
/// assert_eq!(p.get(2, 1), 140.0);
/// assert_eq!(p.width(), 4);
/// assert_eq!(p.height(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<T: Sample> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Sample> Plane<T> {
    /// Creates a plane filled with `T::default()` (zero for all built-in
    /// sample types).
    ///
    /// # Errors
    /// Returns [`FrameError::EmptyDimensions`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, FrameError> {
        if width == 0 || height == 0 {
            return Err(FrameError::EmptyDimensions { width, height });
        }
        Ok(Self {
            width,
            height,
            data: vec![T::default(); width * height],
        })
    }

    /// Creates a plane filled with a constant value.
    ///
    /// # Panics
    /// Panics if either dimension is zero; use [`Plane::new`] for the
    /// fallible path. The infallible constructor keeps generator code terse.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// Returns [`FrameError::BufferSizeMismatch`] if `data.len() != width *
    /// height`, or [`FrameError::EmptyDimensions`] for zero dimensions.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, FrameError> {
        if width == 0 || height == 0 {
            return Err(FrameError::EmptyDimensions { width, height });
        }
        if data.len() != width * height {
            return Err(FrameError::BufferSizeMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Builds a plane by evaluating `f(x, y)` at every sample position.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Plane width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair, handy for shape checks.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: planes cannot be constructed empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads the sample at `(x, y)`.
    ///
    /// # Panics
    /// Panics (in debug and release) if the coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(
            x < self.width && y < self.height,
            "plane index out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Reads the sample at the clamped coordinate — out-of-range coordinates
    /// are clamped to the border (replicate padding), the convention used by
    /// all spatial filters in this workspace.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Writes the sample at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn put(&mut self, x: usize, y: usize, v: T) {
        assert!(
            x < self.width && y < self.height,
            "plane index out of bounds"
        );
        self.data[y * self.width + x] = v;
    }

    /// Immutable view of a row.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        assert!(y < self.height, "row index out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable view of a row.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(y < self.height, "row index out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The raw row-major sample buffer.
    #[inline]
    pub fn samples(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the raw row-major sample buffer.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Applies `f` to every sample in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new plane with `f` applied to every sample.
    pub fn map<U: Sample>(&self, mut f: impl FnMut(T) -> U) -> Plane<U> {
        Plane {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Converts sample type via [`Sample::to_f32`] / [`Sample::from_f32`].
    pub fn convert<U: Sample>(&self) -> Plane<U> {
        self.map(|v| U::from_f32(v.to_f32()))
    }

    /// Copies a rectangular region into a new plane.
    ///
    /// # Errors
    /// Returns [`FrameError::RegionOutOfBounds`] if the region does not fit.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Result<Plane<T>, FrameError> {
        if w == 0 || h == 0 {
            return Err(FrameError::EmptyDimensions {
                width: w,
                height: h,
            });
        }
        if x + w > self.width || y + h > self.height {
            return Err(FrameError::RegionOutOfBounds {
                x,
                y,
                width: w,
                height: h,
                plane: self.shape(),
            });
        }
        let mut out = Vec::with_capacity(w * h);
        for yy in y..y + h {
            out.extend_from_slice(&self.data[yy * self.width + x..yy * self.width + x + w]);
        }
        Plane::from_vec(w, h, out)
    }

    /// Blits `src` into this plane with its top-left corner at `(x, y)`.
    ///
    /// # Errors
    /// Returns [`FrameError::RegionOutOfBounds`] if `src` does not fit.
    pub fn blit(&mut self, src: &Plane<T>, x: usize, y: usize) -> Result<(), FrameError> {
        if x + src.width > self.width || y + src.height > self.height {
            return Err(FrameError::RegionOutOfBounds {
                x,
                y,
                width: src.width,
                height: src.height,
                plane: self.shape(),
            });
        }
        for sy in 0..src.height {
            let dst_off = (y + sy) * self.width + x;
            self.data[dst_off..dst_off + src.width].copy_from_slice(src.row(sy));
        }
        Ok(())
    }

    /// Iterates over `(x, y, value)` triples in row-major order.
    pub fn iter_xy(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i % w, i / w, v))
    }

    /// Minimum sample value (by `PartialOrd`; NaNs are skipped for floats).
    pub fn min_sample(&self) -> T {
        let mut best = self.data[0];
        for &v in &self.data[1..] {
            if v < best {
                best = v;
            }
        }
        best
    }

    /// Maximum sample value (by `PartialOrd`; NaNs are skipped for floats).
    pub fn max_sample(&self) -> T {
        let mut best = self.data[0];
        for &v in &self.data[1..] {
            if v > best {
                best = v;
            }
        }
        best
    }

    /// Arithmetic mean of all samples as `f64`.
    pub fn mean(&self) -> f64 {
        let sum: f64 = self.data.iter().map(|v| v.to_f32() as f64).sum();
        sum / self.data.len() as f64
    }

    /// Population variance of all samples as `f64`.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let ss: f64 = self
            .data
            .iter()
            .map(|v| {
                let d = v.to_f32() as f64 - mean;
                d * d
            })
            .sum();
        ss / self.data.len() as f64
    }
}

/// The canonical band partition: `height` rows into at most `bands`
/// contiguous ranges. The first `height % bands` bands are one row taller;
/// empty bands (when `bands > height`) are omitted. Deterministic in its
/// inputs — banded renderers depend on this to merge worker output in a
/// fixed order. The ranges are computed on the fly, so walking them
/// allocates nothing.
pub fn band_rows(
    height: usize,
    bands: usize,
) -> impl ExactSizeIterator<Item = std::ops::Range<usize>> + Clone {
    assert!(bands >= 1, "at least one band required");
    let base = height / bands;
    let extra = height % bands;
    let start = move |i: usize| i * base + i.min(extra);
    (0..bands.min(height)).map(move |i| start(i)..start(i + 1))
}

impl Plane<f32> {
    /// Quantizes to 8-bit code values (round + clamp to `[0, 255]`).
    pub fn quantize_u8(&self) -> Plane<u8> {
        self.map(u8::from_f32)
    }
}

impl Plane<u8> {
    /// Promotes to `f32` code values.
    pub fn to_f32(&self) -> Plane<f32> {
        self.map(|v| v as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_rejects_zero_dims() {
        assert!(Plane::<u8>::new(0, 4).is_err());
        assert!(Plane::<u8>::new(4, 0).is_err());
        assert!(Plane::<u8>::new(4, 4).is_ok());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Plane::from_vec(2, 2, vec![0u8; 3]).is_err());
        assert!(Plane::from_vec(2, 2, vec![0u8; 4]).is_ok());
    }

    #[test]
    fn get_put_roundtrip() {
        let mut p = Plane::<f32>::filled(3, 2, 0.0);
        p.put(2, 1, 9.5);
        assert_eq!(p.get(2, 1), 9.5);
    }

    #[test]
    fn clamped_access_replicates_border() {
        let p = Plane::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        assert_eq!(p.get_clamped(-5, -5), 0.0);
        assert_eq!(p.get_clamped(10, 10), 8.0);
        assert_eq!(p.get_clamped(-1, 2), 6.0);
    }

    #[test]
    fn crop_and_blit_are_inverses_on_region() {
        let p = Plane::from_fn(6, 5, |x, y| (y * 6 + x) as i16);
        let c = p.crop(2, 1, 3, 3).unwrap();
        assert_eq!(c.get(0, 0), p.get(2, 1));
        let mut q = Plane::<i16>::filled(6, 5, -1);
        q.blit(&c, 2, 1).unwrap();
        assert_eq!(q.get(4, 3), p.get(4, 3));
        assert_eq!(q.get(0, 0), -1);
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let p = Plane::<u8>::filled(4, 4, 0);
        assert!(p.crop(3, 3, 2, 2).is_err());
        assert!(p.crop(0, 0, 0, 1).is_err());
    }

    #[test]
    fn blit_out_of_bounds_errors() {
        let mut p = Plane::<u8>::filled(4, 4, 0);
        let s = Plane::<u8>::filled(3, 3, 1);
        assert!(p.blit(&s, 2, 2).is_err());
    }

    #[test]
    fn statistics_match_hand_computation() {
        let p = Plane::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        assert!((p.mean() - 2.5).abs() < 1e-12);
        assert!((p.variance() - 1.25).abs() < 1e-12);
        assert_eq!(p.min_sample(), 1.0);
        assert_eq!(p.max_sample(), 4.0);
    }

    #[test]
    fn quantize_clamps_and_rounds() {
        let p = Plane::from_vec(3, 1, vec![-4.0f32, 127.5, 300.0]).unwrap();
        let q = p.quantize_u8();
        assert_eq!(q.samples(), &[0, 128, 255]);
    }

    #[test]
    fn sample_conversions_clamp() {
        assert_eq!(u8::from_f32(-1.0), 0);
        assert_eq!(u8::from_f32(256.0), 255);
        assert_eq!(i16::from_f32(1e9), i16::MAX);
        assert_eq!(i16::from_f32(-1e9), i16::MIN);
    }

    #[test]
    fn iter_xy_visits_all_in_row_major_order() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        let v: Vec<_> = p.iter_xy().collect();
        assert_eq!(v[0], (0, 0, 0));
        assert_eq!(v[3], (0, 1, 10));
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn band_rows_partition_is_exact_and_balanced() {
        for (h, n) in [(10usize, 3usize), (7, 7), (5, 8), (1080, 4), (2, 1)] {
            let bands: Vec<_> = band_rows(h, n).collect();
            assert!(bands.len() <= n);
            assert_eq!(bands.first().map(|r| r.start), Some(0));
            assert_eq!(bands.last().map(|r| r.end), Some(h));
            for pair in bands.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "bands must be contiguous");
            }
            let max = bands.iter().map(|r| r.len()).max().unwrap();
            let min = bands.iter().map(|r| r.len()).min().unwrap();
            assert!(max - min <= 1, "bands must differ by at most one row");
        }
    }

    proptest! {
        #[test]
        fn crop_contents_match_source(
            w in 1usize..16, h in 1usize..16,
            cx in 0usize..8, cy in 0usize..8,
            cw in 1usize..8, ch in 1usize..8,
        ) {
            let p = Plane::from_fn(w, h, |x, y| (x * 31 + y * 7) as f32);
            match p.crop(cx, cy, cw, ch) {
                Ok(c) => {
                    prop_assert!(cx + cw <= w && cy + ch <= h);
                    for (x, y, v) in c.iter_xy() {
                        prop_assert_eq!(v, p.get(cx + x, cy + y));
                    }
                }
                Err(_) => prop_assert!(cx + cw > w || cy + ch > h),
            }
        }

        #[test]
        fn convert_u8_f32_roundtrip(data in proptest::collection::vec(any::<u8>(), 12)) {
            let p = Plane::from_vec(4, 3, data.clone()).unwrap();
            let rt: Plane<u8> = p.to_f32().quantize_u8();
            prop_assert_eq!(rt.samples(), &data[..]);
        }
    }
}
