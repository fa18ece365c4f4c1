//! Bit-identity of the discretise-once, step-in-place `RcThermalModel`
//! against the allocating model it replaced (`thermal_reference`).
//!
//! Both models are built from the same network, either `mobile_soc` or a
//! random one (node count, capacitances, conductances, symmetric couplings,
//! ambient and step length all drawn), and driven through the same random
//! sequence of steps, constant-power simulations, predictions and resets
//! under random per-node powers.  After every operation the returned values
//! and the temperatures must agree bit for bit.  Run with
//! `cargo test --release` as well, so the identity also holds under
//! optimisation.

mod thermal_reference;

use proptest::prelude::*;
use soclearn_power_thermal::{RcThermalModel, ThermalNode};
use thermal_reference as reference;

const MAX_NODES: usize = 6;
const POWER_ROWS: usize = 8;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The same network twice: as the model under test and as the oracle.
fn build(
    n: usize,
    capacitances: &[f64],
    conductances: &[f64],
    couplings: &[f64],
    ambient_c: f64,
    step_s: f64,
) -> (RcThermalModel, reference::RcThermalModel) {
    let nodes: Vec<ThermalNode> = (0..n)
        .map(|i| ThermalNode::new(format!("n{i}"), capacitances[i], conductances[i]))
        .collect();
    let coupling: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i == j { 0.0 } else { couplings[i.min(j) * MAX_NODES + i.max(j)] })
                .collect()
        })
        .collect();
    (
        RcThermalModel::new(nodes.clone(), coupling.clone(), ambient_c, step_s),
        reference::RcThermalModel::new(nodes, coupling, ambient_c, step_s),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn in_place_stepping_is_bit_identical_to_the_allocating_reference(
        network in 0usize..4,
        n in 1usize..=MAX_NODES,
        capacitances in proptest::collection::vec(1.0f64..80.0, MAX_NODES),
        conductances in proptest::collection::vec(0.01f64..2.0, MAX_NODES),
        couplings in proptest::collection::vec(0.0f64..0.5, MAX_NODES * MAX_NODES),
        (ambient_c, step_s) in (-20.0f64..60.0, 0.001f64..0.2),
        powers in proptest::collection::vec(-1.0f64..10.0, POWER_ROWS * MAX_NODES),
        // `(kind, power row, count)` per operation.
        ops in proptest::collection::vec((0usize..4, 0usize..POWER_ROWS, 0usize..40), 1..16),
    ) {
        // One case in four runs the calibrated mobile SoC network instead.
        let (mut model, mut oracle, n) = if network == 0 {
            let (m, o) = (RcThermalModel::mobile_soc(ambient_c), reference::RcThermalModel::mobile_soc(ambient_c));
            (m, o, 4)
        } else {
            let (m, o) = build(n, &capacitances, &conductances, &couplings, ambient_c, step_s);
            (m, o, n)
        };
        prop_assert_eq!(bits(model.temperatures()), bits(oracle.temperatures()));

        for (kind, row, count) in ops {
            let power = &powers[row * MAX_NODES..row * MAX_NODES + n];
            match kind {
                0 => {
                    for _ in 0..count {
                        let stepped = bits(model.step(power));
                        prop_assert_eq!(stepped, bits(&oracle.step(power)));
                    }
                }
                1 => {
                    let trajectory = model.simulate_constant_power(power, count);
                    prop_assert_eq!(bits(&trajectory), bits(&oracle.simulate_constant_power(power, count)));
                }
                2 => {
                    let ahead = model.predict(power, count);
                    prop_assert_eq!(bits(&ahead), bits(&oracle.predict(power, count)));
                }
                _ => {
                    model.reset();
                    oracle.reset();
                }
            }
            prop_assert_eq!(bits(model.temperatures()), bits(oracle.temperatures()), "after op {}", kind);
        }
    }
}
