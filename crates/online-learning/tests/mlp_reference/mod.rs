//! The nested-`Vec` multi-layer perceptron that the flat-weight
//! `soclearn_online_learning::Mlp` replaced, kept verbatim (minus serde and
//! its unit tests) as the oracle of the bit-identity tests: the same builder,
//! the same `weights[o][i]` layout and the same per-step allocations, so any
//! change to the production network's arithmetic shows up as a differing bit.

#![allow(dead_code)]

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use soclearn_online_learning::traits::{Classifier, OnlineRegressor};

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(&self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
        }
    }

    fn derivative_from_output(&self, out: f64) -> f64 {
        match self {
            Activation::Relu => {
                if out > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => out * (1.0 - out),
            Activation::Tanh => 1.0 - out * out,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// `weights[o][i]` maps input `i` to output `o`.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut ChaCha8Rng) -> Self {
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        let weights = (0..outputs)
            .map(|_| (0..inputs).map(|_| rng.gen_range(-scale..scale)).collect())
            .collect();
        Self { weights, biases: vec![0.0; outputs] }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(row, b)| b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>())
            .collect()
    }
}

/// Builder for [`Mlp`] networks.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpBuilder {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    seed: u64,
}

impl MlpBuilder {
    /// Starts a builder for a network with the given input and output widths.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, output_dim: usize) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "network dimensions must be positive");
        Self {
            input_dim,
            hidden: vec![16],
            output_dim,
            activation: Activation::Relu,
            learning_rate: 0.01,
            l2: 1e-5,
            seed: 7,
        }
    }

    /// Sets the hidden-layer widths (may be empty for a linear model).
    pub fn hidden_layers(mut self, hidden: &[usize]) -> Self {
        assert!(hidden.iter().all(|&h| h > 0), "hidden layer widths must be positive");
        self.hidden = hidden.to_vec();
        self
    }

    /// Sets the hidden activation function.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the SGD learning rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    pub fn learning_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "learning rate must be positive");
        self.learning_rate = rate;
        self
    }

    /// Sets the L2 weight-decay strength.
    pub fn l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "weight decay must be non-negative");
        self.l2 = l2;
        self
    }

    /// Sets the RNG seed used for weight initialisation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the network.
    pub fn build(self) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut sizes = vec![self.input_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.output_dim);
        let layers = sizes.windows(2).map(|w| Layer::new(w[0], w[1], &mut rng)).collect();
        Mlp {
            layers,
            activation: self.activation,
            learning_rate: self.learning_rate,
            l2: self.l2,
            input_dim: self.input_dim,
            output_dim: self.output_dim,
            updates: 0,
        }
    }
}

/// A dense feed-forward network trained with stochastic gradient descent.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    input_dim: usize,
    output_dim: usize,
    updates: usize,
}

impl Mlp {
    /// Number of inputs the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of outputs the network produces.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Total number of trainable parameters (weights and biases), for
    /// model-footprint accounting.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.iter().map(Vec::len).sum::<usize>() + l.biases.len())
            .sum()
    }

    /// Raw network outputs (pre-softmax for classification use).
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_trace(x).outputs.last().cloned().unwrap_or_default()
    }

    /// Softmax of the network outputs, usable as class probabilities.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.forward(x))
    }

    fn forward_trace(&self, x: &[f64]) -> ForwardTrace {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        outputs.push(x.to_vec());
        for (idx, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(outputs.last().expect("at least the input is present"));
            let is_last = idx + 1 == self.layers.len();
            if !is_last {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            outputs.push(z);
        }
        ForwardTrace { outputs }
    }

    /// One SGD step toward the multi-output regression target `target` using
    /// squared loss; returns the loss before the update.
    ///
    /// # Panics
    ///
    /// Panics on input/target dimension mismatch.
    pub fn train_regression(&mut self, x: &[f64], target: &[f64]) -> f64 {
        assert_eq!(target.len(), self.output_dim, "target dimension mismatch");
        let trace = self.forward_trace(x);
        let prediction = trace.outputs.last().expect("forward produces outputs");
        let delta: Vec<f64> = prediction.iter().zip(target).map(|(p, t)| p - t).collect();
        let loss = delta.iter().map(|d| d * d).sum::<f64>() / delta.len() as f64;
        self.backpropagate(&trace, delta);
        loss
    }

    /// One SGD step of softmax cross-entropy toward the class `label`; returns the
    /// cross-entropy loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if `label >= output_dim` or on input dimension mismatch.
    pub fn train_classification(&mut self, x: &[f64], label: usize) -> f64 {
        assert!(label < self.output_dim, "label out of range");
        let trace = self.forward_trace(x);
        let logits = trace.outputs.last().expect("forward produces outputs");
        let probs = softmax(logits);
        let loss = -(probs[label].max(1e-12)).ln();
        let mut delta = probs;
        delta[label] -= 1.0;
        self.backpropagate(&trace, delta);
        loss
    }

    /// Backpropagates the output-layer error signal `delta` (dL/dz for the last
    /// layer's pre-activation) and applies one SGD update.
    fn backpropagate(&mut self, trace: &ForwardTrace, mut delta: Vec<f64>) {
        let lr = self.learning_rate;
        for layer_idx in (0..self.layers.len()).rev() {
            let input = &trace.outputs[layer_idx];
            // Compute the delta to propagate before mutating this layer.
            let mut next_delta = vec![0.0; input.len()];
            {
                let layer = &self.layers[layer_idx];
                for (o, d) in delta.iter().enumerate() {
                    for (i, nd) in next_delta.iter_mut().enumerate() {
                        *nd += layer.weights[o][i] * d;
                    }
                }
            }
            // Multiply by the activation derivative of the layer below (if any).
            if layer_idx > 0 {
                for (nd, out) in next_delta.iter_mut().zip(&trace.outputs[layer_idx]) {
                    *nd *= self.activation.derivative_from_output(*out);
                }
            }
            let layer = &mut self.layers[layer_idx];
            for (o, d) in delta.iter().enumerate() {
                for (i, &inp) in input.iter().enumerate() {
                    let grad = d * inp + self.l2 * layer.weights[o][i];
                    layer.weights[o][i] -= lr * grad;
                }
                layer.biases[o] -= lr * d;
            }
            delta = next_delta;
        }
        self.updates += 1;
    }
}

#[derive(Debug)]
struct ForwardTrace {
    /// `outputs[0]` is the input vector, `outputs[i]` the post-activation output of
    /// layer `i-1` (the last entry is pre-softmax / linear).
    outputs: Vec<Vec<f64>>,
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum.max(1e-300)).collect()
}

impl OnlineRegressor for Mlp {
    fn update(&mut self, x: &[f64], y: f64) {
        let _ = self.train_regression(x, &[y]);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.forward(x)[0]
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn samples_seen(&self) -> usize {
        self.updates
    }
}

impl Classifier for Mlp {
    fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize]) {
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        const EPOCHS: usize = 30;
        for _ in 0..EPOCHS {
            for (x, &label) in xs.iter().zip(labels) {
                let _ = self.train_classification(x, label);
            }
        }
    }

    fn predict_class(&self, x: &[f64]) -> usize {
        let scores = self.forward(x);
        argmax(&scores)
    }

    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.probabilities(x)
    }

    fn class_count(&self) -> usize {
        self.output_dim
    }
}

/// Index of the maximum element (first one on ties); 0 for an empty slice.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}
