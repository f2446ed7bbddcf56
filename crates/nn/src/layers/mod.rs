//! Neural-network layers with hand-written backpropagation.
//!
//! Layers are an enum rather than trait objects so that downstream crates
//! (the ReSiPE engine) can inspect layer kinds and parameters to re-execute
//! the matrix products on simulated crossbars.

mod activation;
mod conv;
mod dense;
mod pool;

pub use activation::{Flatten, Relu};
pub use conv::{im2col, Conv2d};
pub use dense::Dense;
pub use pool::{avg_pool2d, max_pool2d, AvgPool2d, MaxPool2d};

use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::tensor::Tensor;

/// One layer of a [`crate::network::Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Rectified linear activation.
    Relu(Relu),
    /// Flattens `[N, ...]` to `[N, features]`.
    Flatten(Flatten),
}

impl Layer {
    /// Forward pass. Caches whatever the backward pass will need.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input shape is
    /// incompatible with the layer.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.forward(input),
            Layer::Conv2d(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::AvgPool2d(l) => l.forward(input),
            Layer::Relu(l) => l.forward(input),
            Layer::Flatten(l) => l.forward(input),
        }
    }

    /// Backward pass: consumes the cached forward state and accumulates
    /// parameter gradients, returning the gradient w.r.t. the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `grad` does not match the
    /// forward output shape or no forward pass was cached.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        match self {
            Layer::Dense(l) => l.backward(grad),
            Layer::Conv2d(l) => l.backward(grad),
            Layer::MaxPool2d(l) => l.backward(grad),
            Layer::AvgPool2d(l) => l.backward(grad),
            Layer::Relu(l) => l.backward(grad),
            Layer::Flatten(l) => l.backward(grad),
        }
    }

    /// Applies one SGD-with-momentum step to the layer's parameters and
    /// clears the gradients. No-op for parameterless layers.
    pub fn sgd_step(&mut self, learning_rate: f32, momentum: f32) {
        match self {
            Layer::Dense(l) => l.sgd_step(learning_rate, momentum),
            Layer::Conv2d(l) => l.sgd_step(learning_rate, momentum),
            _ => {}
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.param_count(),
            Layer::Conv2d(l) => l.param_count(),
            _ => 0,
        }
    }

    /// A short human-readable description (kind and dimensions).
    pub fn describe(&self) -> String {
        match self {
            Layer::Dense(l) => format!("dense({}x{})", l.in_features(), l.out_features()),
            Layer::Conv2d(l) => format!(
                "conv2d({}->{}, k={}, pad={})",
                l.in_channels(),
                l.out_channels(),
                l.kernel_size(),
                l.padding()
            ),
            Layer::MaxPool2d(l) => format!("maxpool2d({})", l.size()),
            Layer::AvgPool2d(l) => format!("avgpool2d({})", l.size()),
            Layer::Relu(_) => "relu".to_owned(),
            Layer::Flatten(_) => "flatten".to_owned(),
        }
    }

    /// `true` if this layer carries trainable weights (i.e. maps onto
    /// crossbars in the PIM engines).
    pub fn has_weights(&self) -> bool {
        matches!(self, Layer::Dense(_) | Layer::Conv2d(_))
    }
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Layer {
        Layer::Dense(l)
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Layer {
        Layer::Conv2d(l)
    }
}

impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Layer {
        Layer::MaxPool2d(l)
    }
}

impl From<AvgPool2d> for Layer {
    fn from(l: AvgPool2d) -> Layer {
        Layer::AvgPool2d(l)
    }
}

impl From<Relu> for Layer {
    fn from(l: Relu) -> Layer {
        Layer::Relu(l)
    }
}

impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Layer {
        Layer::Flatten(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_and_param_count() {
        let mut rng = rand::thread_rng();
        let dense: Layer = Dense::new(4, 3, &mut rng).into();
        assert_eq!(dense.describe(), "dense(4x3)");
        assert_eq!(dense.param_count(), 4 * 3 + 3);
        assert!(dense.has_weights());

        let relu: Layer = Relu::new().into();
        assert_eq!(relu.describe(), "relu");
        assert_eq!(relu.param_count(), 0);
        assert!(!relu.has_weights());
    }

    #[test]
    fn parameterless_sgd_step_is_noop() {
        let mut l: Layer = Flatten::new().into();
        l.sgd_step(0.1, 0.9); // must not panic
    }
}
