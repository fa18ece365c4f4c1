//! Multi-layer perceptron trained by back-propagation.
//!
//! The online-IL policy of the paper (Section IV-A3) is "represented as a
//! neural network and ... updated using the back-propagation algorithm".  The
//! networks involved are tiny — a handful of hidden units over at most a dozen
//! counter features — so a straightforward dense implementation with
//! stochastic gradient descent is faithful to the original and fast enough to
//! be called once per snippet.
//!
//! The same type serves as a regressor (linear output, squared loss) and as a
//! classifier (softmax output, cross-entropy loss); the policy crates use the
//! classifier mode to pick discrete frequency levels.
//!
//! # Layout and allocation contract
//!
//! Each layer stores its weights flat and row-major: `weights[o * inputs + i]`
//! maps input `i` to output `o`.  Every pass runs over one caller-owned
//! scratch buffer holding the input and each layer's activations back to back,
//! followed (for training) by two back-propagation delta buffers as wide as
//! the widest layer.  **An SGD step allocates nothing**:
//! [`Mlp::train_classification_epochs`] allocates its scratch once per call
//! and reuses it for every step, while [`Mlp::train_classification`],
//! [`Mlp::train_regression`] and the prediction methods allocate one buffer
//! per call.
//!
//! The per-sample arithmetic is that of the textbook nested-`Vec`
//! implementation, operation for operation: each row's `b + Σ w·x` is summed
//! left to right from `-0.0` like `Iterator::sum` (several rows are merely
//! interleaved), the back-propagated delta is accumulated output by output,
//! `grad = d·x + l2·w`, and the softmax is `(v − max).exp()` over
//! `sum.max(1e-300)`.  Trained weights are therefore bit-identical to that
//! implementation's, which the crate's equivalence tests keep as an oracle.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::traits::{Classifier, OnlineRegressor};

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    inputs: usize,
    /// Row-major: `weights[o * inputs + i]` maps input `i` to output `o`.
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut ChaCha8Rng) -> Self {
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        let weights = (0..outputs * inputs).map(|_| rng.gen_range(-scale..scale)).collect();
        Self { inputs, weights, biases: vec![0.0; outputs] }
    }

    fn outputs(&self) -> usize {
        self.biases.len()
    }
}

/// Builder for [`Mlp`] networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        self.layers.iter().map(|l| l.weights.len() + l.biases.len()).sum()
    }

    /// Raw network outputs (pre-softmax for classification use).
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut acts = vec![0.0; self.activations_len()];
        self.forward_into(x, &mut acts);
        acts.drain(..acts.len() - self.output_dim);
        acts
    }

    /// Softmax of the network outputs, usable as class probabilities.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        let mut probs = self.forward(x);
        softmax_in_place(&mut probs);
        probs
    }

    /// One SGD step toward the multi-output regression target `target` using
    /// squared loss; returns the loss before the update.
    ///
    /// # Panics
    ///
    /// Panics on input/target dimension mismatch.
    pub fn train_regression(&mut self, x: &[f64], target: &[f64]) -> f64 {
        assert_eq!(target.len(), self.output_dim, "target dimension mismatch");
        let mut scratch = self.scratch();
        self.sgd_step(x, &mut scratch, |delta| {
            for (d, t) in delta.iter_mut().zip(target) {
                *d -= t;
            }
            delta.iter().map(|d| d * d).sum::<f64>() / delta.len() as f64
        })
    }

    /// One SGD step of softmax cross-entropy toward the class `label`; returns the
    /// cross-entropy loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if `label >= output_dim` or on input dimension mismatch.
    pub fn train_classification(&mut self, x: &[f64], label: usize) -> f64 {
        let mut scratch = self.scratch();
        self.classification_step(x, label, &mut scratch)
    }

    /// `epochs` passes of per-sample softmax cross-entropy SGD over
    /// `samples`, each pass in iteration order — the same updates as calling
    /// [`Mlp::train_classification`] on every sample of every pass, with one
    /// scratch allocation for the whole call.
    ///
    /// # Panics
    ///
    /// Panics if a label is `>= output_dim` or on input dimension mismatch.
    pub fn train_classification_epochs<'a, I>(&mut self, samples: I, epochs: usize)
    where
        I: IntoIterator<Item = (&'a [f64], usize)> + Clone,
    {
        let mut scratch = self.scratch();
        for _ in 0..epochs {
            for (x, label) in samples.clone() {
                self.classification_step(x, label, &mut scratch);
            }
        }
    }

    fn classification_step(&mut self, x: &[f64], label: usize, scratch: &mut [f64]) -> f64 {
        assert!(label < self.output_dim, "label out of range");
        self.sgd_step(x, scratch, |delta| {
            softmax_in_place(delta);
            let loss = -(delta[label].max(1e-12)).ln();
            delta[label] -= 1.0;
            loss
        })
    }

    /// Length of the activation area: the input followed by every layer's
    /// output.
    fn activations_len(&self) -> usize {
        self.input_dim + self.layers.iter().map(Layer::outputs).sum::<usize>()
    }

    /// Training scratch: the activation area, then two delta buffers as wide
    /// as the widest layer.
    fn scratch(&self) -> Vec<f64> {
        let widest = self.layers.iter().map(Layer::outputs).max().unwrap_or(0);
        vec![0.0; self.activations_len() + 2 * widest]
    }

    /// Writes `x` and then every layer's output (post-activation for hidden
    /// layers, linear for the last) back to back into `acts`.
    fn forward_into(&self, x: &[f64], acts: &mut [f64]) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        acts[..x.len()].copy_from_slice(x);
        let mut start = 0;
        for (idx, layer) in self.layers.iter().enumerate() {
            let (below, above) = acts.split_at_mut(start + layer.inputs);
            let input = &below[start..];
            let is_last = idx + 1 == self.layers.len();
            let out = &mut above[..layer.outputs()];
            dense(&layer.weights, &layer.biases, input, out);
            if !is_last {
                for z in out.iter_mut() {
                    *z = self.activation.apply(*z);
                }
            }
            start += layer.inputs;
        }
    }

    /// One SGD step over `scratch` (see [`Mlp::scratch`]): runs the forward
    /// pass, lets `output_error` turn a copy of the network outputs into the
    /// output-layer error signal (dL/dz) in place and return the loss, then
    /// back-propagates.  Returns that loss.
    fn sgd_step(
        &mut self,
        x: &[f64],
        scratch: &mut [f64],
        output_error: impl FnOnce(&mut [f64]) -> f64,
    ) -> f64 {
        let (acts, deltas) = scratch.split_at_mut(self.activations_len());
        self.forward_into(x, acts);
        let (delta, next) = deltas.split_at_mut(deltas.len() / 2);
        let out = &mut delta[..self.output_dim];
        out.copy_from_slice(&acts[acts.len() - self.output_dim..]);
        let loss = output_error(out);
        self.backpropagate(acts, delta, next);
        loss
    }

    /// Backpropagates the output-layer error signal held in `delta` and
    /// applies one SGD update; `next` is the second delta buffer.  The input
    /// layer propagates no delta, since nothing below it consumes one.
    fn backpropagate<'a>(
        &mut self,
        acts: &[f64],
        mut delta: &'a mut [f64],
        mut next: &'a mut [f64],
    ) {
        let (lr, l2, activation) = (self.learning_rate, self.l2, self.activation);
        let mut end = acts.len() - self.output_dim;
        for (layer_idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let start = end - layer.inputs;
            let input = &acts[start..end];
            let d = &delta[..layer.outputs()];
            if layer_idx > 0 {
                // Compute the delta to propagate before mutating this layer,
                // then multiply by the activation derivative of the layer below.
                let nd = &mut next[..layer.inputs];
                nd.fill(0.0);
                for (row, d) in layer.weights.chunks_exact(layer.inputs).zip(d) {
                    for (nd, w) in nd.iter_mut().zip(row) {
                        *nd += w * d;
                    }
                }
                for (nd, out) in nd.iter_mut().zip(input) {
                    *nd *= activation.derivative_from_output(*out);
                }
            }
            let rows = layer.weights.chunks_exact_mut(layer.inputs);
            for ((row, b), d) in rows.zip(&mut layer.biases).zip(d) {
                for (w, &inp) in row.iter_mut().zip(input) {
                    let grad = d * inp + l2 * *w;
                    *w -= lr * grad;
                }
                *b -= lr * d;
            }
            std::mem::swap(&mut delta, &mut next);
            end = start;
        }
        self.updates += 1;
    }
}

/// `out[o] = biases[o] + Σ_i weights[o * inputs + i] · x[i]`.
///
/// Each row is summed left to right from `-0.0`, exactly as `Iterator::sum`
/// does, so every output is bitwise `b + row.iter().zip(x).map(|(w, x)| w *
/// x).sum()`.  Rows are summed four at a time, side by side, so that their
/// independent addition chains overlap instead of running back to back.
fn dense(weights: &[f64], biases: &[f64], x: &[f64], out: &mut [f64]) {
    let inputs = x.len();
    let blocks = weights.chunks_exact(inputs * 4);
    let tail_rows = blocks.remainder();
    let (head_out, tail_out) = out.split_at_mut(out.len() - tail_rows.len() / inputs);
    let (head_b, tail_b) = biases.split_at(head_out.len());
    for ((block, b), z) in blocks.zip(head_b.chunks_exact(4)).zip(head_out.chunks_exact_mut(4)) {
        let (r0, rest) = block.split_at(inputs);
        let (r1, rest) = rest.split_at(inputs);
        let (r2, r3) = rest.split_at(inputs);
        let mut acc = [-0.0; 4];
        for ((((w0, w1), w2), w3), xi) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
            acc[0] += w0 * xi;
            acc[1] += w1 * xi;
            acc[2] += w2 * xi;
            acc[3] += w3 * xi;
        }
        for ((z, b), a) in z.iter_mut().zip(b).zip(acc) {
            *z = b + a;
        }
    }
    for ((row, b), z) in tail_rows.chunks_exact(inputs).zip(tail_b).zip(tail_out) {
        *z = b + row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
    }
}

/// Softmax in place: `(v - max).exp()`, normalised by the sum.
fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum.max(1e-300);
    }
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
        self.train_classification_epochs(
            xs.iter().map(Vec::as_slice).zip(labels.iter().copied()),
            EPOCHS,
        );
    }

    fn predict_class(&self, x: &[f64]) -> usize {
        argmax(&self.forward(x))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_regression() {
        let mut net = MlpBuilder::new(2, 1)
            .hidden_layers(&[])
            .learning_rate(0.05)
            .l2(0.0)
            .seed(1)
            .build();
        for epoch in 0..400 {
            let x = [((epoch * 13) % 10) as f64 / 10.0, 1.0];
            let y = 2.0 * x[0] - 0.5;
            net.update(&x, y);
        }
        assert!((net.predict(&[0.5, 1.0]) - 0.5).abs() < 0.1);
        assert!(net.samples_seen() == 400);
    }

    #[test]
    fn learns_xor_classification() {
        let xs = [vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let labels = [0usize, 1, 1, 0];
        // XOR training can land in a bad basin for an unlucky initialisation; the
        // test requires that at least one of a few fixed seeds learns it exactly,
        // which is how the policy crates use the network (they pick a fixed seed
        // that works and keep it).
        let learned = (0..6u64).any(|seed| {
            let mut net = MlpBuilder::new(2, 2)
                .hidden_layers(&[12])
                .activation(Activation::Tanh)
                .learning_rate(0.05)
                .l2(0.0)
                .seed(seed)
                .build();
            for _ in 0..4000 {
                for (x, &l) in xs.iter().zip(&labels) {
                    net.train_classification(x, l);
                }
            }
            let p = net.probabilities(&xs[0]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            xs.iter().map(|x| net.predict_class(x)).collect::<Vec<_>>() == labels
        });
        assert!(learned, "XOR should be learnable with one hidden layer for some seed");
    }

    #[test]
    fn classifier_fit_separates_simple_clusters() {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let offset = i as f64 * 0.01;
            xs.push(vec![1.0 + offset, 1.0 - offset]);
            labels.push(0usize);
            xs.push(vec![-1.0 - offset, -1.0 + offset]);
            labels.push(1usize);
            xs.push(vec![1.0 + offset, -1.0 - offset]);
            labels.push(2usize);
        }
        let mut net =
            MlpBuilder::new(2, 3).hidden_layers(&[12]).learning_rate(0.05).seed(5).build();
        net.fit(&xs, &labels);
        let correct = xs.iter().zip(&labels).filter(|(x, &l)| net.predict_class(x) == l).count();
        assert!(correct as f64 / xs.len() as f64 > 0.95, "accuracy {}/{}", correct, xs.len());
        assert_eq!(net.class_count(), 3);
    }

    #[test]
    fn cross_entropy_decreases_during_training() {
        let mut net = MlpBuilder::new(1, 2).hidden_layers(&[4]).learning_rate(0.1).seed(9).build();
        let first = net.train_classification(&[1.0], 1);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_classification(&[1.0], 1);
        }
        assert!(last < first * 0.5, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn training_activations_differ_but_all_learn_sign_task() {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let mut net = MlpBuilder::new(1, 2)
                .hidden_layers(&[6])
                .activation(act)
                .learning_rate(0.1)
                .seed(11)
                .build();
            for _ in 0..500 {
                net.train_classification(&[1.0], 1);
                net.train_classification(&[-1.0], 0);
            }
            assert_eq!(net.predict_class(&[2.0]), 1, "{act:?}");
            assert_eq!(net.predict_class(&[-2.0]), 0, "{act:?}");
        }
    }

    #[test]
    fn dense_matches_sequential_row_sums_bitwise() {
        // Signed zeros and a -0.0 bias expose any change of the summation's
        // starting value; 7 rows cover a four-row block plus a 3-row tail.
        let x = [0.0, -0.0, 1.5, -2.25, 1e-300];
        let inputs = x.len();
        let weights: Vec<f64> = (0..7 * inputs)
            .map(|k| match k % 4 {
                0 => -0.0,
                1 => 0.0,
                _ => (k as f64 * 0.37).sin(),
            })
            .collect();
        let biases = [-0.0, 0.0, 1.0, -0.0, -3.5, 0.0, -0.0];
        for rows in [1, 4, 7] {
            let mut out = vec![f64::NAN; rows];
            dense(&weights[..rows * inputs], &biases[..rows], &x, &mut out);
            for (o, z) in out.iter().enumerate() {
                let row = &weights[o * inputs..(o + 1) * inputs];
                let expected = biases[o] + row.iter().zip(&x).map(|(w, x)| w * x).sum::<f64>();
                assert_eq!(z.to_bits(), expected.to_bits(), "row {o} of {rows}");
            }
        }
        // All-negative-zero products: the row sums are -0.0 only when summed
        // from -0.0, and a -0.0 bias keeps that sign visible in the output.
        let positive = [0.0, 1.5, 1e-300];
        let mut out = [f64::NAN; 4];
        dense(&[-0.0; 12], &[-0.0; 4], &positive, &mut out);
        let expected = -0.0 + positive.iter().map(|x| -0.0 * x).sum::<f64>();
        assert!(expected.is_sign_negative());
        assert!(out.iter().all(|z| z.to_bits() == expected.to_bits()), "{out:?}");
    }

    #[test]
    fn argmax_handles_edges() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_label() {
        let mut net = MlpBuilder::new(1, 2).build();
        net.train_classification(&[0.0], 5);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_bad_input_width() {
        let net = MlpBuilder::new(3, 2).build();
        let _ = net.forward(&[0.0]);
    }
}

#[cfg(test)]
mod gradcheck_tests {
    use super::*;

    #[test]
    fn numerical_gradient_check() {
        let net = MlpBuilder::new(2, 2)
            .hidden_layers(&[3])
            .activation(Activation::Tanh)
            .learning_rate(1.0)
            .l2(0.0)
            .seed(13)
            .build();
        let x = [0.7, -0.4];
        let label = 1usize;
        let loss_of = |n: &Mlp| -> f64 {
            let p = n.probabilities(&x);
            -(p[label].max(1e-12)).ln()
        };
        // numerical gradient for a hidden-layer weight and an output-layer weight
        for (li, o, i) in [(0usize, 1usize, 0usize), (1usize, 0usize, 2usize)] {
            let eps = 1e-6;
            let w = o * net.layers[li].inputs + i;
            let mut plus = net.clone();
            plus.layers[li].weights[w] += eps;
            let mut minus = net.clone();
            minus.layers[li].weights[w] -= eps;
            let num_grad = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            // analytic: apply one update with lr=1 and measure weight change = -grad
            let mut updated = net.clone();
            updated.train_classification(&x, label);
            let ana_grad = net.layers[li].weights[w] - updated.layers[li].weights[w];
            println!("layer {li} w[{o}][{i}]: numerical {num_grad:.6} analytic {ana_grad:.6}");
            assert!((num_grad - ana_grad).abs() < 1e-4, "layer {li}: {num_grad} vs {ana_grad}");
        }
        let _ = net;
    }
}
