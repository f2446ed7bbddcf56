//! Pooling layers.

use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::tensor::Tensor;

/// Max pooling with square window and stride equal to the window size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxPool2d {
    size: usize,
    #[serde(skip)]
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone, PartialEq)]
struct PoolCache {
    input_shape: [usize; 4],
    /// Flat input index of the winning element for each output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window/stride size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> MaxPool2d {
        assert!(size > 0, "pool size must be nonzero");
        MaxPool2d { size, cache: None }
    }

    /// The window (and stride) size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward pass `[N, C, H, W] -> [N, C, H/size, W/size]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is rank 4 and
    /// both spatial dimensions are divisible by the pool size.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let [n, c, h, w] = pool_shape(input, self.size)?;
        let (ho, wo) = (h / self.size, w / self.size);
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        let mut argmax = vec![0usize; n * c * ho * wo];
        let mut out_idx = 0;
        for b in 0..n {
            for ch in 0..c {
                for oi in 0..ho {
                    for oj in 0..wo {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_flat = 0;
                        for ki in 0..self.size {
                            for kj in 0..self.size {
                                let ii = oi * self.size + ki;
                                let jj = oj * self.size + kj;
                                let v = input.get(&[b, ch, ii, jj]);
                                if v > best {
                                    best = v;
                                    best_flat = ((b * c + ch) * h + ii) * w + jj;
                                }
                            }
                        }
                        out.set(&[b, ch, oi, oj], best);
                        argmax[out_idx] = best_flat;
                        out_idx += 1;
                    }
                }
            }
        }
        self.cache = Some(PoolCache {
            input_shape: [n, c, h, w],
            argmax,
        });
        Ok(out)
    }

    /// Backward pass: routes each output gradient to its argmax position.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad` does not match the
    /// forward output or no forward pass was cached.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or(NnError::ShapeMismatch {
            expected: "a cached forward pass".into(),
            got: vec![],
        })?;
        let [n, c, h, w] = cache.input_shape;
        let (ho, wo) = (h / self.size, w / self.size);
        if grad.shape() != [n, c, ho, wo] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{n}, {c}, {ho}, {wo}]"),
                got: grad.shape().to_vec(),
            });
        }
        let mut out = Tensor::zeros(&[n, c, h, w]);
        for (out_idx, &flat) in cache.argmax.iter().enumerate() {
            out.data_mut()[flat] += grad.data()[out_idx];
        }
        Ok(out)
    }
}

/// Average pooling with square window and stride equal to the window size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvgPool2d {
    size: usize,
    #[serde(skip)]
    input_shape: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given window/stride size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> AvgPool2d {
        assert!(size > 0, "pool size must be nonzero");
        AvgPool2d {
            size,
            input_shape: None,
        }
    }

    /// The window (and stride) size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward pass `[N, C, H, W] -> [N, C, H/size, W/size]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is rank 4 and
    /// divisible by the pool size.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let shape = pool_shape(input, self.size)?;
        let out = avg_pool2d(input, self.size)?;
        self.input_shape = Some(shape);
        Ok(out)
    }

    /// Backward pass: spreads each output gradient uniformly over its
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad` does not match the
    /// forward output or no forward pass was cached.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let [n, c, h, w] = self.input_shape.take().ok_or(NnError::ShapeMismatch {
            expected: "a cached forward pass".into(),
            got: vec![],
        })?;
        let (ho, wo) = (h / self.size, w / self.size);
        if grad.shape() != [n, c, ho, wo] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{n}, {c}, {ho}, {wo}]"),
                got: grad.shape().to_vec(),
            });
        }
        let norm = (self.size * self.size) as f32;
        let mut out = Tensor::zeros(&[n, c, h, w]);
        for b in 0..n {
            for ch in 0..c {
                for oi in 0..ho {
                    for oj in 0..wo {
                        let g = grad.get(&[b, ch, oi, oj]) / norm;
                        for ki in 0..self.size {
                            for kj in 0..self.size {
                                let idx = [b, ch, oi * self.size + ki, oj * self.size + kj];
                                let cur = out.get(&idx);
                                out.set(&idx, cur + g);
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Validates a pooling input: rank 4 with both spatial sides divisible
/// by `size`. Returns its `[N, C, H, W]`.
fn pool_shape(input: &Tensor, size: usize) -> Result<[usize; 4], NnError> {
    match *input.shape() {
        [n, c, h, w] if h.is_multiple_of(size) && w.is_multiple_of(size) => Ok([n, c, h, w]),
        ref s => Err(NnError::ShapeMismatch {
            expected: format!("[N, C, H, W] with H, W divisible by {size}"),
            got: s.to_vec(),
        }),
    }
}

/// Pools every `H × W` plane of a `[N, C, H, W]` tensor with `window`,
/// which reduces the `size × size` window whose top-left element is at
/// flat plane index `at` (plane row stride `w`).
fn pool_planes(
    input: &Tensor,
    size: usize,
    window: impl Fn(&[f32], usize, usize) -> f32,
) -> Result<Tensor, NnError> {
    let [n, c, h, w] = pool_shape(input, size)?;
    let (ho, wo) = (h / size, w / size);
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    if ho * wo == 0 {
        return Ok(out);
    }
    let planes = input.data().chunks_exact(h * w);
    for (plane, dst) in planes.zip(out.data_mut().chunks_exact_mut(ho * wo)) {
        for (o, d) in dst.iter_mut().enumerate() {
            *d = window(plane, (o / wo * w + o % wo) * size, w);
        }
    }
    Ok(out)
}

/// Inference-only max pooling: the output of [`MaxPool2d::forward`]
/// without building a layer or caching the argmax for a backward pass.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless the input is rank 4 and
/// both spatial dimensions are divisible by `size`.
pub fn max_pool2d(input: &Tensor, size: usize) -> Result<Tensor, NnError> {
    pool_planes(input, size, |plane, at, w| {
        let mut best = f32::NEG_INFINITY;
        for ki in 0..size {
            for &v in &plane[at + ki * w..][..size] {
                if v > best {
                    best = v;
                }
            }
        }
        best
    })
}

/// Average pooling without building a layer: each window is summed in
/// row-major order from `0.0`, then divided by `size²`.
/// [`AvgPool2d::forward`] computes its output with this function.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless the input is rank 4 and
/// both spatial dimensions are divisible by `size`.
pub fn avg_pool2d(input: &Tensor, size: usize) -> Result<Tensor, NnError> {
    let norm = (size * size) as f32;
    pool_planes(input, size, |plane, at, w| {
        let mut sum = 0.0;
        for ki in 0..size {
            for &v in &plane[at + ki * w..][..size] {
                sum += v;
            }
        }
        sum / norm
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The element-wise average pool [`avg_pool2d`] replaced, kept as
    /// its oracle.
    fn avg_pool_reference(input: &Tensor, size: usize) -> Tensor {
        let s = input.shape();
        let (n, c, ho, wo) = (s[0], s[1], s[2] / size, s[3] / size);
        let norm = (size * size) as f32;
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        for b in 0..n {
            for ch in 0..c {
                for oi in 0..ho {
                    for oj in 0..wo {
                        let mut sum = 0.0;
                        for ki in 0..size {
                            for kj in 0..size {
                                sum += input.get(&[b, ch, oi * size + ki, oj * size + kj]);
                            }
                        }
                        out.set(&[b, ch, oi, oj], sum / norm);
                    }
                }
            }
        }
        out
    }

    fn assert_same_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The slice pools equal their element-wise oracles (the max
        /// pool's is the training layer's forward pass) bit for bit, NaN
        /// and infinite inputs included.
        #[test]
        fn inference_pools_match_layer_forward(
            n in 1usize..3,
            c in 1usize..4,
            size in 1usize..4,
            ho in 1usize..4,
            wo in 1usize..4,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = [n, c, ho * size, wo * size];
            let x = Tensor::from_vec(
                (0..shape.iter().product::<usize>())
                    .map(|_| match rng.gen_range(0..12u32) {
                        0 => f32::NAN,
                        1 => f32::NEG_INFINITY,
                        _ => rng.gen_range(-2.0..2.0f32),
                    })
                    .collect(),
                &shape,
            )
            .unwrap();
            assert_same_bits(&max_pool2d(&x, size).unwrap(), &MaxPool2d::new(size).forward(&x).unwrap());
            assert_same_bits(&avg_pool2d(&x, size).unwrap(), &avg_pool_reference(&x, size));
        }
    }

    #[test]
    fn inference_pools_reject_like_layers() {
        for bad in [vec![1, 1, 3, 4], vec![1, 4, 4], vec![1, 1, 4, 5]] {
            let x = Tensor::zeros(&bad);
            assert_eq!(
                max_pool2d(&x, 2).unwrap_err(),
                MaxPool2d::new(2).forward(&x).unwrap_err()
            );
            assert_eq!(
                avg_pool2d(&x, 2).unwrap_err(),
                AvgPool2d::new(2).forward(&x).unwrap_err()
            );
        }
    }

    #[test]
    fn maxpool_forward_picks_max() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.5, 0.0, //
                -3.0, -4.0, 0.0, 0.25,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.5]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x).unwrap();
        let g = Tensor::full(&[1, 1, 1, 1], 10.0);
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn avgpool_forward_averages() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        pool.forward(&x).unwrap();
        let dx = pool.backward(&Tensor::full(&[1, 1, 1, 1], 4.0)).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn indivisible_spatial_size_rejected() {
        let mut pool = MaxPool2d::new(2);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 3, 4])).is_err());
        let mut pool = AvgPool2d::new(3);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn backward_without_forward_rejected() {
        let mut pool = MaxPool2d::new(2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        let mut pool = AvgPool2d::new(2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn multi_channel_pooling_independent() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                // channel 0
                1.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                // channel 1
                0.0, 0.0, 0.0, 0.0, //
                0.0, 9.0, 0.0, 0.0,
            ],
            &[1, 2, 2, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 1, 2]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.get(&[0, 1, 0, 0]), 9.0);
    }
}
