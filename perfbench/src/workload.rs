//! The three workloads: their inputs, the per-call perturbation that
//! keeps every call distinct, and the check of every reply.

use netsolve_core::data::DataObject;
use netsolve_core::matrix::Matrix;
use netsolve_core::rng::Rng64;

/// One closed-loop traffic mix: `threads` callers, each blocking in
/// `netsl()` on `problem` before issuing its next call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub problem: &'static str,
    pub threads: usize,
    /// Problem size: vector length or matrix order.
    pub n: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Fixed per-call cost dominates: agent legs, connect, codec.
    Workload {
        name: "small_ddot",
        problem: "ddot",
        threads: 2,
        n: 1000,
    },
    // The paper's canonical call; the solver dominates.
    Workload {
        name: "medium_dgesv",
        problem: "dgesv",
        threads: 1,
        n: 200,
    },
    // Bytes dominate: 4 MiB in, 1 MiB out, streamed frames.
    Workload {
        name: "bulk_dgtsv",
        problem: "dgtsv",
        threads: 1,
        n: 1 << 17,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Step between the perturbations of successive calls: far above the
/// rounding unit of the perturbed values (all of order 1 to 400), far
/// below anything that changes conditioning.
const PERTURB_STEP: f64 = 1.0 / (1u64 << 30) as f64;

/// A caller's inputs. Call `k` sees the seeded base input with one element
/// of the major operand raised by `(k + 1) * PERTURB_STEP`, so no two
/// calls with distinct `k` send the same input.
pub struct CallInputs {
    workload: Workload,
    objects: Vec<DataObject>,
    /// The element changed for the previous call and its base value.
    saved: Option<(usize, f64)>,
}

impl CallInputs {
    pub fn generate(workload: Workload, seed: u64, caller: u64) -> Self {
        let mut rng = Rng64::new(seed).fork(caller);
        let n = workload.n;
        let mut vec = |len: usize, lo: f64, hi: f64| -> DataObject {
            DataObject::Vector((0..len).map(|_| rng.uniform(lo, hi)).collect())
        };
        let objects = match workload.problem {
            // Positive operands: the dot product never cancels, so a
            // relative comparison is well posed.
            "ddot" => vec![vec(n, 0.5, 1.5), vec(n, 0.5, 1.5)],
            "dgesv" => {
                let b = vec(n, -1.0, 1.0);
                let mut matrix_rng = Rng64::new(seed).fork(caller ^ 0xA5A5);
                vec![
                    DataObject::Matrix(Matrix::random_diag_dominant(n, &mut matrix_rng)),
                    b,
                ]
            }
            // Diagonal 4..5 against off-diagonals in [-1, 1]: strictly
            // diagonally dominant, so the Thomas algorithm is stable.
            "dgtsv" => vec![
                vec(n - 1, -1.0, 1.0),
                vec(n, 4.0, 5.0),
                vec(n - 1, -1.0, 1.0),
                vec(n, -1.0, 1.0),
            ],
            other => unreachable!("no generator for {other}"),
        };
        CallInputs {
            workload,
            objects,
            saved: None,
        }
    }

    fn major(&mut self) -> &mut [f64] {
        let index = if self.workload.problem == "dgtsv" {
            1
        } else {
            0
        };
        match &mut self.objects[index] {
            DataObject::Vector(v) => v,
            DataObject::Matrix(m) => m.as_mut_slice(),
            _ => unreachable!("major operands are vectors or matrices"),
        }
    }

    /// The inputs for call `k`.
    pub fn prepare(&mut self, k: u64) -> &[DataObject] {
        if let Some((at, value)) = self.saved.take() {
            self.major()[at] = value;
        }
        let n = self.workload.n;
        let j = (k % n as u64) as usize;
        // dgesv perturbs the diagonal (column-major index j*n + j), which
        // keeps the matrix diagonally dominant.
        let at = if self.workload.problem == "dgesv" {
            j * n + j
        } else {
            j
        };
        let major = self.major();
        let base = major[at];
        major[at] = base + (k + 1) as f64 * PERTURB_STEP;
        self.saved = Some((at, base));
        &self.objects
    }
}

fn vector(obj: &DataObject) -> Result<&[f64], String> {
    obj.as_vector().map_err(|e| e.to_string())
}

/// Normwise backward-error bound for the residual checks: LU with
/// partial pivoting and the Thomas algorithm land near 1e-15 on these
/// well-conditioned systems.
const RESIDUAL_TOL: f64 = 1e-9;
const DDOT_REL_TOL: f64 = 1e-9;

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Check one reply against the inputs that produced it.
pub fn check(problem: &str, inputs: &[DataObject], outputs: &[DataObject]) -> Result<(), String> {
    match problem {
        "ddot" => {
            let (x, y) = (vector(&inputs[0])?, vector(&inputs[1])?);
            let got = outputs
                .first()
                .ok_or("no output")?
                .as_double()
                .map_err(|e| e.to_string())?;
            let want: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
            if (got - want).abs() <= DDOT_REL_TOL * want.abs() {
                Ok(())
            } else {
                Err(format!("ddot {got} != {want}"))
            }
        }
        "dgesv" => {
            let a = inputs[0].as_matrix().map_err(|e| e.to_string())?;
            let b = vector(&inputs[1])?;
            let x = vector(outputs.first().ok_or("no output")?)?;
            let ax = a.matvec(x).map_err(|e| e.to_string())?;
            let norm_a = (0..a.rows())
                .map(|i| (0..a.cols()).map(|j| a[(i, j)].abs()).sum::<f64>())
                .fold(0.0, f64::max);
            residual_ok(&ax, b, norm_a * max_abs(x))
        }
        "dgtsv" => {
            let (dl, d, du, b) = (
                vector(&inputs[0])?,
                vector(&inputs[1])?,
                vector(&inputs[2])?,
                vector(&inputs[3])?,
            );
            let x = vector(outputs.first().ok_or("no output")?)?;
            let n = d.len();
            if x.len() != n {
                return Err(format!("solution has {} entries, want {n}", x.len()));
            }
            let mut norm_a: f64 = 0.0;
            let ax: Vec<f64> = (0..n)
                .map(|i| {
                    let lower = if i > 0 { dl[i - 1] } else { 0.0 };
                    let upper = if i + 1 < n { du[i] } else { 0.0 };
                    norm_a = norm_a.max(lower.abs() + d[i].abs() + upper.abs());
                    let mut s = d[i] * x[i];
                    if i > 0 {
                        s += lower * x[i - 1];
                    }
                    if i + 1 < n {
                        s += upper * x[i + 1];
                    }
                    s
                })
                .collect();
            residual_ok(&ax, b, norm_a * max_abs(x))
        }
        other => Err(format!("no check for {other}")),
    }
}

fn residual_ok(ax: &[f64], b: &[f64], scale: f64) -> Result<(), String> {
    if ax.len() != b.len() {
        return Err(format!(
            "solution has {} entries, want {}",
            ax.len(),
            b.len()
        ));
    }
    let r = ax
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    let bound = RESIDUAL_TOL * (scale + max_abs(b));
    if r <= bound {
        Ok(())
    } else {
        Err(format!("residual {r:e} exceeds {bound:e}"))
    }
}

/// f64 payload bytes of a set of objects (8 per element).
pub fn payload_bytes(objects: &[DataObject]) -> u64 {
    objects
        .iter()
        .map(|o| match o {
            DataObject::Double(_) => 8,
            DataObject::Vector(v) => 8 * v.len() as u64,
            DataObject::Matrix(m) => 8 * m.len() as u64,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_touches_one_element_and_never_repeats() {
        let w = by_name("medium_dgesv").unwrap();
        let mut c = CallInputs::generate(Workload { n: 4, ..w }, 7, 0);
        let base = c.prepare(0).to_vec();
        let mut seen = vec![base.clone()];
        for k in 1..40 {
            let now = c.prepare(k).to_vec();
            assert!(!seen.contains(&now), "call {k} repeats an earlier input");
            seen.push(now);
        }
        // Each call first restores the element the previous one changed,
        // so repeating an index reproduces that call's input exactly.
        assert_eq!(c.prepare(0), &base[..]);
    }

    #[test]
    fn checks_accept_true_solutions_and_reject_wrong_ones() {
        for w in WORKLOADS {
            let w = Workload {
                n: w.n.min(64),
                ..w
            };
            let mut c = CallInputs::generate(w, 3, 1);
            let inputs = c.prepare(5).to_vec();
            let good = netsolve_solvers::execute(w.problem, &inputs).unwrap();
            check(w.problem, &inputs, &good).unwrap();
            let bad = match &good[0] {
                DataObject::Double(d) => vec![DataObject::Double(d * (1.0 + 1e-6))],
                DataObject::Vector(v) => {
                    let mut v = v.clone();
                    v[0] += 1e-3;
                    vec![DataObject::Vector(v)]
                }
                _ => unreachable!(),
            };
            assert!(
                check(w.problem, &inputs, &bad).is_err(),
                "{} accepted a wrong answer",
                w.name
            );
        }
    }
}
