//! 2-D convolution via im2col.
//!
//! Convolutions are lowered to matrix products (`im2col`), which is also
//! how the ReSiPE engine maps them onto crossbars: the `[out_ch,
//! in_ch·k·k]` kernel matrix becomes the conductance array and each im2col
//! column becomes one input spike vector.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::tensor::Tensor;

/// A 2-D convolution with stride 1 and symmetric zero padding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    padding: usize,
    /// Kernel matrix `[out_ch, in_ch * k * k]`.
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    vel_weights: Tensor,
    vel_bias: Tensor,
    #[serde(skip)]
    cache: Option<ConvCache>,
}

#[derive(Debug, Clone, PartialEq)]
struct ConvCache {
    /// im2col matrices, one per batch sample: `[in_ch·k·k, H_out·W_out]`.
    cols: Vec<Tensor>,
    input_shape: [usize; 4],
}

impl Conv2d {
    /// Creates a convolution with He-initialized kernels and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        padding: usize,
        rng: &mut R,
    ) -> Conv2d {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel_size > 0,
            "conv dimensions must be nonzero"
        );
        let fan_in = in_channels * kernel_size * kernel_size;
        let std = (2.0 / fan_in as f32).sqrt();
        let weights = Tensor::from_vec(
            (0..out_channels * fan_in)
                .map(|_| {
                    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
                    let u2: f32 = rng.gen();
                    std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                })
                .collect(),
            &[out_channels, fan_in],
        )
        .expect("shape matches");
        Conv2d {
            in_channels,
            out_channels,
            kernel_size,
            padding,
            weights,
            bias: Tensor::zeros(&[out_channels]),
            grad_weights: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            vel_weights: Tensor::zeros(&[out_channels, fan_in]),
            vel_bias: Tensor::zeros(&[out_channels]),
            cache: None,
        }
    }

    /// Creates a convolution with explicit kernel matrix and bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless `weights` is
    /// `[out_ch, in_ch·k·k]` and `bias` is `[out_ch]`.
    pub fn from_parameters(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        padding: usize,
        weights: Tensor,
        bias: Tensor,
    ) -> Result<Conv2d, NnError> {
        let fan_in = in_channels * kernel_size * kernel_size;
        if weights.shape() != [out_channels, fan_in] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{out_channels}, {fan_in}] kernel matrix"),
                got: weights.shape().to_vec(),
            });
        }
        if bias.shape() != [out_channels] {
            return Err(NnError::ShapeMismatch {
                expected: format!("bias [{out_channels}]"),
                got: bias.shape().to_vec(),
            });
        }
        Ok(Conv2d {
            in_channels,
            out_channels,
            kernel_size,
            padding,
            grad_weights: Tensor::zeros(&[out_channels, fan_in]),
            grad_bias: Tensor::zeros(&[out_channels]),
            vel_weights: Tensor::zeros(&[out_channels, fan_in]),
            vel_bias: Tensor::zeros(&[out_channels]),
            weights,
            bias,
            cache: None,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Zero padding on each side.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The kernel matrix `[out_ch, in_ch·k·k]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector `[out_ch]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel_size * self.kernel_size
            + self.out_channels
    }

    /// Spatial output size for an input of side `h`.
    pub fn output_side(&self, h: usize) -> usize {
        h + 2 * self.padding + 1 - self.kernel_size
    }

    /// Forward pass `[N, C, H, W] -> [N, out_ch, H_out, W_out]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] unless the input is rank 4 with
    /// the right channel count and a spatial size at least the kernel.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let s = input.shape();
        if s.len() != 4 || s[1] != self.in_channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("[N, {}, H, W]", self.in_channels),
                got: s.to_vec(),
            });
        }
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        if h + 2 * self.padding < self.kernel_size || w + 2 * self.padding < self.kernel_size {
            return Err(NnError::ShapeMismatch {
                expected: format!("spatial size >= kernel {}", self.kernel_size),
                got: s.to_vec(),
            });
        }
        let h_out = self.output_side(h);
        let w_out = self.output_side(w);
        let mut out = Tensor::zeros(&[n, self.out_channels, h_out, w_out]);
        let mut cols_cache = Vec::with_capacity(n);
        for b in 0..n {
            let cols = im2col(input, b, self.kernel_size, self.padding)?;
            let prod = self.weights.matmul(&cols)?; // [out_ch, h_out*w_out]
            for oc in 0..self.out_channels {
                let bias = self.bias.get(&[oc]);
                for i in 0..h_out {
                    for j in 0..w_out {
                        out.set(&[b, oc, i, j], prod.get(&[oc, i * w_out + j]) + bias);
                    }
                }
            }
            cols_cache.push(cols);
        }
        self.cache = Some(ConvCache {
            cols: cols_cache,
            input_shape: [n, c, h, w],
        });
        Ok(out)
    }

    /// Backward pass: accumulates kernel/bias gradients, returns `dL/dx`.
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
        let h_out = self.output_side(h);
        let w_out = self.output_side(w);
        if grad.shape() != [n, self.out_channels, h_out, w_out] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{n}, {}, {h_out}, {w_out}]", self.out_channels),
                got: grad.shape().to_vec(),
            });
        }
        let k = self.kernel_size;
        let fan_in = c * k * k;
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);

        for b in 0..n {
            // Flatten this sample's output gradient to [out_ch, h_out*w_out].
            let mut g = Tensor::zeros(&[self.out_channels, h_out * w_out]);
            for oc in 0..self.out_channels {
                let mut bias_sum = self.grad_bias.get(&[oc]);
                for i in 0..h_out {
                    for j in 0..w_out {
                        let v = grad.get(&[b, oc, i, j]);
                        g.set(&[oc, i * w_out + j], v);
                        bias_sum += v;
                    }
                }
                self.grad_bias.set(&[oc], bias_sum);
            }
            // dW += g · colsᵀ
            let gw = g.matmul(&cache.cols[b].transpose()?)?;
            self.grad_weights = self.grad_weights.zip(&gw, |a, x| a + x)?;
            // dcols = Wᵀ · g, then scatter back (col2im).
            let dcols = self.weights.transpose()?.matmul(&g)?;
            for col_idx in 0..h_out * w_out {
                let oi = col_idx / w_out;
                let oj = col_idx % w_out;
                for row_idx in 0..fan_in {
                    let ch = row_idx / (k * k);
                    let ki = (row_idx / k) % k;
                    let kj = row_idx % k;
                    let ii = oi + ki;
                    let jj = oj + kj;
                    // Undo padding offset.
                    if ii < self.padding || jj < self.padding {
                        continue;
                    }
                    let (ii, jj) = (ii - self.padding, jj - self.padding);
                    if ii >= h || jj >= w {
                        continue;
                    }
                    let cur = grad_input.get(&[b, ch, ii, jj]);
                    grad_input.set(&[b, ch, ii, jj], cur + dcols.get(&[row_idx, col_idx]));
                }
            }
        }
        Ok(grad_input)
    }

    /// SGD-with-momentum update; clears gradients.
    pub fn sgd_step(&mut self, learning_rate: f32, momentum: f32) {
        super::dense::sgd_update(
            self.weights.data_mut(),
            self.grad_weights.data_mut(),
            self.vel_weights.data_mut(),
            learning_rate,
            momentum,
        );
        super::dense::sgd_update(
            self.bias.data_mut(),
            self.grad_bias.data_mut(),
            self.vel_bias.data_mut(),
            learning_rate,
            momentum,
        );
    }
}

/// Extracts the im2col matrix of sample `batch` of a `[N, C, H, W]` tensor:
/// result is `[C·k·k, H_out·W_out]` where each column is the receptive
/// field of one output pixel (zero padded).
///
/// Public because the ReSiPE engine uses the same lowering to map
/// convolutions onto crossbars.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] unless the tensor is rank 4, `batch`
/// is in range and the padded spatial size is at least `k`.
pub fn im2col(input: &Tensor, batch: usize, k: usize, padding: usize) -> Result<Tensor, NnError> {
    let s = input.shape();
    if s.len() != 4 || batch >= s[0] {
        return Err(NnError::ShapeMismatch {
            expected: format!("rank-4 tensor with batch > {batch}"),
            got: s.to_vec(),
        });
    }
    let (c, h, w) = (s[1], s[2], s[3]);
    if h + 2 * padding < k || w + 2 * padding < k {
        return Err(NnError::ShapeMismatch {
            expected: format!("padded spatial size >= kernel {k}"),
            got: s.to_vec(),
        });
    }
    let h_out = h + 2 * padding + 1 - k;
    let w_out = w + 2 * padding + 1 - k;
    let n_pix = h_out * w_out;
    let mut cols = Tensor::zeros(&[c * k * k, n_pix]);
    let sample = &input.data()[batch * c * h * w..(batch + 1) * c * h * w];
    let dst = cols.data_mut();
    for ch in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = &mut dst[(ch * k * k + ki * k + kj) * n_pix..][..n_pix];
                // Output columns `oj_lo..oj_hi` read inside the input;
                // the rest keep the zero fill.
                let oj_lo = padding.saturating_sub(kj).min(w_out);
                let oj_hi = (w + padding).saturating_sub(kj).min(w_out).max(oj_lo);
                if oj_hi == oj_lo {
                    continue;
                }
                for oi in 0..h_out {
                    let ii = oi + ki;
                    if ii < padding || ii - padding >= h {
                        continue;
                    }
                    // Input column of output column `oj` is `oj + kj - padding`.
                    let src = (ch * h + ii - padding) * w + kj;
                    row[oi * w_out + oj_lo..oi * w_out + oj_hi]
                        .copy_from_slice(&sample[src + oj_lo - padding..src + oj_hi - padding]);
                }
            }
        }
    }
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The element-wise `get`/`set` im2col the slice version replaced,
    /// kept as the oracle it must match bit for bit.
    fn im2col_reference(input: &Tensor, batch: usize, k: usize, padding: usize) -> Tensor {
        let s = input.shape();
        let (c, h, w) = (s[1], s[2], s[3]);
        let h_out = h + 2 * padding + 1 - k;
        let w_out = w + 2 * padding + 1 - k;
        let mut cols = Tensor::zeros(&[c * k * k, h_out * w_out]);
        for ch in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    let row_idx = ch * k * k + ki * k + kj;
                    for oi in 0..h_out {
                        let ii = oi + ki;
                        if ii < padding || ii - padding >= h {
                            continue;
                        }
                        for oj in 0..w_out {
                            let jj = oj + kj;
                            if jj < padding || jj - padding >= w {
                                continue;
                            }
                            let v = input.get(&[batch, ch, ii - padding, jj - padding]);
                            cols.set(&[row_idx, oi * w_out + oj], v);
                        }
                    }
                }
            }
        }
        cols
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over random channel counts, kernels, paddings up to `k + 1`
        /// (so whole window rows and columns fall in the padding) and
        /// independent, non-square spatial sides down to the smallest
        /// valid one, the slice im2col equals the element-wise oracle.
        #[test]
        fn im2col_matches_elementwise_oracle(
            c in 1usize..4,
            k in 1usize..6,
            padding in 0usize..7,
            dh in 0usize..5,
            dw in 0usize..5,
            batch in 0usize..2,
            seed in any::<u64>(),
        ) {
            let padding = padding.min(k + 1);
            let min_side = k.saturating_sub(2 * padding).max(1);
            let (h, w) = (min_side + dh, min_side + dw);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = Tensor::from_vec(
                (0..2 * c * h * w).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
                &[2, c, h, w],
            )
            .unwrap();
            let fast = im2col(&x, batch, k, padding).unwrap();
            let slow = im2col_reference(&x, batch, k, padding);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.data().iter().zip(slow.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A 1-channel 3×3 input with a known 2×2 identity-corner kernel.
    fn fixed_conv() -> Conv2d {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 2, 0, &mut rng);
        // Kernel picks the top-left element of each window.
        conv.weights = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]).unwrap();
        conv.bias = Tensor::zeros(&[1]);
        conv
    }

    #[test]
    fn forward_known_kernel() {
        let mut conv = fixed_conv();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Top-left of each 2x2 window.
        assert_eq!(y.data(), &[1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn padding_preserves_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 2, 3, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn im2col_column_content() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let cols = im2col(&x, 0, 2, 0).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // First column = window at (0,0): [1, 2, 4, 5].
        assert_eq!(
            (0..4).map(|r| cols.get(&[r, 0])).collect::<Vec<_>>(),
            vec![1.0, 2.0, 4.0, 5.0]
        );
        // Last column = window at (1,1): [5, 6, 8, 9].
        assert_eq!(
            (0..4).map(|r| cols.get(&[r, 3])).collect::<Vec<_>>(),
            vec![5.0, 6.0, 8.0, 9.0]
        );
    }

    #[test]
    fn im2col_padding_zeros_border() {
        let x = Tensor::full(&[1, 1, 2, 2], 1.0);
        let cols = im2col(&x, 0, 3, 1).unwrap();
        assert_eq!(cols.shape(), &[9, 4]);
        // The (0,0) output window covers the padded top-left corner; its
        // first kernel element hits padding and must be zero.
        assert_eq!(cols.get(&[0, 0]), 0.0);
        // Its center (kernel row 1, col 1 -> row index 4) hits input (0,0).
        assert_eq!(cols.get(&[4, 0]), 1.0);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4)
                .map(|i| (i as f32 * 0.13).sin())
                .collect(),
            &[2, 2, 4, 4],
        )
        .unwrap();
        let y = conv.forward(&x).unwrap();
        let base = y.sum();
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = conv.backward(&ones).unwrap();
        assert_eq!(dx.shape(), x.shape());

        let eps = 1e-2_f32;
        // Spot check a few input positions.
        for &(b, c, i, j) in &[(0, 0, 0, 0), (1, 1, 2, 3), (0, 1, 3, 1)] {
            let mut xp = x.clone();
            xp.set(&[b, c, i, j], x.get(&[b, c, i, j]) + eps);
            let yp = conv.forward(&xp).unwrap();
            let fd = (yp.sum() - base) / eps;
            let an = dx.get(&[b, c, i, j]);
            assert!(
                (fd - an).abs() < 0.05 * an.abs().max(1.0),
                "dx[{b},{c},{i},{j}] fd {fd} vs an {an}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_output_pixels() {
        let mut conv = fixed_conv();
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        conv.forward(&x).unwrap();
        let g = Tensor::full(&[1, 1, 2, 2], 1.0);
        conv.backward(&g).unwrap();
        // 4 output pixels, each contributing 1.
        assert_eq!(conv.grad_bias.get(&[0]), 4.0);
    }

    #[test]
    fn shape_validation() {
        let mut conv = fixed_conv();
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 3, 3])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
        conv.forward(&Tensor::zeros(&[1, 1, 3, 3])).unwrap();
        assert!(conv.backward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
        assert!(im2col(&Tensor::zeros(&[1, 1, 3, 3]), 1, 2, 0).is_err());
    }

    #[test]
    fn sgd_step_updates_kernel() {
        let mut conv = fixed_conv();
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        conv.forward(&x).unwrap();
        conv.backward(&Tensor::full(&[1, 1, 2, 2], 1.0)).unwrap();
        let before = conv.weights.get(&[0, 0]);
        conv.sgd_step(0.01, 0.0);
        assert!(conv.weights.get(&[0, 0]) < before);
        assert_eq!(conv.grad_weights.get(&[0, 0]), 0.0);
    }

    #[test]
    fn output_side_formula() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(1, 1, 5, 2, &mut rng);
        assert_eq!(conv.output_side(28), 28);
        let conv = Conv2d::new(1, 1, 5, 0, &mut rng);
        assert_eq!(conv.output_side(28), 24);
    }
}
