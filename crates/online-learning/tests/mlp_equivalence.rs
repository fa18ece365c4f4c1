//! Bit-identity of the flat-weight, allocation-free `Mlp` against the
//! nested-`Vec` implementation it replaced (`mlp_reference`).
//!
//! Both networks are built from the same seed and driven through the same
//! random interleaving of single-sample classification and regression steps,
//! 30-epoch `fit`s and multi-epoch `train_classification_epochs` calls (the
//! reference runs the equivalent loop of single steps).  After every step the
//! returned losses, the raw outputs and probabilities on every sample, the
//! update counts and the parameter counts must agree bit for bit.  Run with
//! `cargo test --release` as well, so the identity also holds under
//! optimisation.

mod mlp_reference;

use mlp_reference as reference;
use proptest::prelude::*;
use soclearn_online_learning::traits::Classifier;
use soclearn_online_learning::{Activation, Mlp, MlpBuilder};

const MAX_DIM: usize = 6;
const HIDDEN_SHAPES: [&[usize]; 3] = [&[], &[24], &[12, 6]];
const ACTIVATIONS: [(Activation, reference::Activation); 3] = [
    (Activation::Relu, reference::Activation::Relu),
    (Activation::Sigmoid, reference::Activation::Sigmoid),
    (Activation::Tanh, reference::Activation::Tanh),
];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every observable of the two networks agrees bitwise on `xs`.
fn assert_same(net: &Mlp, oracle: &reference::Mlp, xs: &[Vec<f64>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(net.updates(), oracle.updates());
    prop_assert_eq!(net.param_count(), oracle.param_count());
    for x in xs {
        prop_assert_eq!(bits(&net.forward(x)), bits(&oracle.forward(x)), "forward on {:?}", x);
        prop_assert_eq!(bits(&net.probabilities(x)), bits(&oracle.probabilities(x)));
        prop_assert_eq!(net.predict_class(x), oracle.predict_class(x));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_mlp_is_bit_identical_to_the_nested_reference(
        shape in 0usize..HIDDEN_SHAPES.len(),
        activation in 0usize..ACTIVATIONS.len(),
        (input_dim, output_dim, seed) in (1usize..=MAX_DIM, 1usize..=4, 0u64..1_000),
        (learning_rate, l2) in (0.005f64..0.2, 0.0f64..1e-3),
        values in proptest::collection::vec(-2.0f64..2.0, 8 * MAX_DIM),
        classes in proptest::collection::vec(0usize..4, 8),
        // `(kind, sample index or prefix length - 1, epochs)` per training call.
        ops in proptest::collection::vec((0usize..4, 0usize..8, 1usize..4), 1..10),
    ) {
        let (hidden, (act, ref_act)) = (HIDDEN_SHAPES[shape], ACTIVATIONS[activation]);
        let mut net = MlpBuilder::new(input_dim, output_dim)
            .hidden_layers(hidden)
            .activation(act)
            .learning_rate(learning_rate)
            .l2(l2)
            .seed(seed)
            .build();
        let mut oracle = reference::MlpBuilder::new(input_dim, output_dim)
            .hidden_layers(hidden)
            .activation(ref_act)
            .learning_rate(learning_rate)
            .l2(l2)
            .seed(seed)
            .build();
        let xs: Vec<Vec<f64>> = values.chunks(MAX_DIM).map(|c| c[..input_dim].to_vec()).collect();
        let labels: Vec<usize> = classes.iter().map(|c| c % output_dim).collect();
        let targets: Vec<Vec<f64>> = values.chunks(output_dim).take(xs.len()).map(<[f64]>::to_vec).collect();
        assert_same(&net, &oracle, &xs)?;

        for (kind, index, epochs) in ops {
            match kind {
                0 => {
                    let (loss, expected) = (
                        net.train_classification(&xs[index], labels[index]),
                        oracle.train_classification(&xs[index], labels[index]),
                    );
                    prop_assert_eq!(loss.to_bits(), expected.to_bits(), "classification loss");
                }
                1 => {
                    let (loss, expected) = (
                        net.train_regression(&xs[index], &targets[index]),
                        oracle.train_regression(&xs[index], &targets[index]),
                    );
                    prop_assert_eq!(loss.to_bits(), expected.to_bits(), "regression loss");
                }
                2 => {
                    let n = index + 1;
                    net.fit(&xs[..n], &labels[..n]);
                    oracle.fit(&xs[..n], &labels[..n]);
                }
                _ => {
                    let n = index + 1;
                    let samples = xs[..n].iter().map(Vec::as_slice).zip(labels[..n].iter().copied());
                    net.train_classification_epochs(samples, epochs);
                    for _ in 0..epochs {
                        for (x, &label) in xs[..n].iter().zip(&labels[..n]) {
                            let _ = oracle.train_classification(x, label);
                        }
                    }
                }
            }
            assert_same(&net, &oracle, &xs)?;
        }
    }
}
