//! The allocating RC thermal model that `RcThermalModel` replaced, kept as
//! the oracle of the `thermal_equivalence` test.
//!
//! Every step rebuilds the state matrix `A` as nested `Vec`s and allocates
//! the next temperature vector, exactly as the model did before the network
//! was discretised once at construction.

use soclearn_power_thermal::ThermalNode;

#[derive(Debug, Clone)]
pub struct RcThermalModel {
    nodes: Vec<ThermalNode>,
    coupling: Vec<Vec<f64>>,
    ambient_c: f64,
    step_s: f64,
    temperatures: Vec<f64>,
}

impl RcThermalModel {
    pub fn new(
        nodes: Vec<ThermalNode>,
        coupling: Vec<Vec<f64>>,
        ambient_c: f64,
        step_s: f64,
    ) -> Self {
        let temperatures = vec![ambient_c; nodes.len()];
        Self { nodes, coupling, ambient_c, step_s, temperatures }
    }

    pub fn mobile_soc(ambient_c: f64) -> Self {
        let nodes = vec![
            ThermalNode::new("big", 6.0, 0.25),
            ThermalNode::new("little", 4.0, 0.20),
            ThermalNode::new("gpu", 5.0, 0.22),
            ThermalNode::new("skin", 60.0, 0.9),
        ];
        let coupling = vec![
            vec![0.0, 0.30, 0.25, 0.10],
            vec![0.30, 0.0, 0.20, 0.08],
            vec![0.25, 0.20, 0.0, 0.09],
            vec![0.10, 0.08, 0.09, 0.0],
        ];
        Self::new(nodes, coupling, ambient_c, 0.1)
    }

    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    pub fn reset(&mut self) {
        for t in &mut self.temperatures {
            *t = self.ambient_c;
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn state_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.nodes.len();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            let ci = self.nodes[i].capacitance;
            let mut total_g = self.nodes[i].conductance_to_ambient;
            for j in 0..n {
                if i != j {
                    total_g += self.coupling[i][j];
                    a[i][j] = self.step_s * self.coupling[i][j] / ci;
                }
            }
            a[i][i] = 1.0 - self.step_s * total_g / ci;
        }
        a
    }

    pub fn step(&mut self, power_w: &[f64]) -> Vec<f64> {
        assert_eq!(power_w.len(), self.nodes.len(), "one power entry per node required");
        let a = self.state_matrix();
        let n = self.nodes.len();
        let mut next = vec![0.0; n];
        for i in 0..n {
            let mut t: f64 =
                a[i].iter().zip(&self.temperatures).map(|(aij, temp)| aij * temp).sum();
            let total_g: f64 = self.nodes[i].conductance_to_ambient;
            t += self.step_s / self.nodes[i].capacitance * (power_w[i] + total_g * self.ambient_c);
            next[i] = t;
        }
        self.temperatures = next.clone();
        next
    }

    pub fn simulate_constant_power(&mut self, power_w: &[f64], steps: usize) -> Vec<f64> {
        (0..steps)
            .map(|_| {
                self.step(power_w);
                self.temperatures.iter().cloned().fold(f64::MIN, f64::max)
            })
            .collect()
    }

    pub fn predict(&self, power_w: &[f64], horizon: usize) -> Vec<f64> {
        let mut clone = self.clone();
        let mut last = clone.temperatures().to_vec();
        for _ in 0..horizon {
            last = clone.step(power_w);
        }
        last
    }
}
