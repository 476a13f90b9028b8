//! Lowering of [`Expr`] trees to linear forms.
//!
//! The race prover reasons over systems of linear inequalities, so model
//! expressions are lowered to [`Lin`] — an integer-coefficient affine form
//! over symbolic variables — under a *grounding* that fixes the enumerated
//! shape parameters (`kl`, `ku`, `nb`, `nrhs`, …) to concrete values.
//! `min`/`max` nodes cannot be expressed linearly, so lowering returns a
//! set of [`Branch`]es: each branch carries the linear value the
//! expression takes plus the linear side conditions (`cond >= 0`) under
//! which that value is the correct one. Branches cover the whole domain
//! (ties appear in both), so proving a property on every branch proves it
//! outright.
//!
//! Variables are keyed by `(name, copy)`: the prover analyzes *pairs* of
//! accesses, and the second access's loop variables are renamed to copy 1
//! so the two instances stay independent.

use crate::expr::{Env, Expr};
use std::collections::BTreeMap;

/// Variable key: symbol name plus instance copy (0 = shared / first
/// access, 1 = second access's renamed loop variables).
pub type VKey = (&'static str, u8);

/// Affine form `k + Σ coeff · var` with `i128` coefficients.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Lin {
    /// Constant term.
    pub k: i128,
    /// Per-variable coefficients (zero coefficients are not stored).
    pub terms: BTreeMap<VKey, i128>,
}

impl Lin {
    /// The constant form `c`.
    pub fn konst(c: i128) -> Lin {
        Lin {
            k: c,
            terms: BTreeMap::new(),
        }
    }

    /// The single-variable form `var`.
    pub fn var(key: VKey) -> Lin {
        Lin {
            k: 0,
            terms: BTreeMap::from([(key, 1)]),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Lin) -> Lin {
        let mut out = self.clone();
        out.k += other.k;
        for (key, c) in &other.terms {
            let e = out.terms.entry(*key).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(key);
            }
        }
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &Lin) -> Lin {
        self.add(&other.scale(-1))
    }

    /// `self * c`.
    pub fn scale(&self, c: i128) -> Lin {
        if c == 0 {
            return Lin::konst(0);
        }
        Lin {
            k: self.k * c,
            terms: self.terms.iter().map(|(key, v)| (*key, v * c)).collect(),
        }
    }

    /// Whether the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.k == 0 && self.terms.is_empty()
    }

    /// The constant value, if the form has no variables.
    pub fn as_const(&self) -> Option<i128> {
        self.terms.is_empty().then_some(self.k)
    }

    /// Rename every occurrence of variable `from` to `to` (merging
    /// coefficients if `to` is already present).
    pub fn rename(&self, from: VKey, to: VKey) -> Lin {
        let Some(c) = self.terms.get(&from).copied() else {
            return self.clone();
        };
        let mut out = self.clone();
        out.terms.remove(&from);
        let e = out.terms.entry(to).or_insert(0);
        *e += c;
        if *e == 0 {
            out.terms.remove(&to);
        }
        out
    }

    /// Evaluate under concrete variable values (panics on unbound vars).
    pub fn eval(&self, values: &BTreeMap<VKey, i64>) -> i128 {
        let mut acc = self.k;
        for (key, c) in &self.terms {
            let v = values
                .get(key)
                .unwrap_or_else(|| panic!("unbound variable {key:?} in linear form"));
            acc += c * i128::from(*v);
        }
        acc
    }
}

/// One case of a lowered `min`/`max` expression: the linear value under
/// the listed side conditions (each `cond >= 0`).
#[derive(Clone, Debug)]
pub struct Branch {
    /// Linear value of the expression on this branch.
    pub lin: Lin,
    /// Side conditions (`>= 0`) under which this branch applies.
    pub cond: Vec<Lin>,
}

fn combine(a: &[Branch], b: &[Branch], f: impl Fn(&Lin, &Lin) -> Vec<Branch>) -> Vec<Branch> {
    let mut out = Vec::new();
    for ba in a {
        for bb in b {
            for mut nb in f(&ba.lin, &bb.lin) {
                let mut cond = ba.cond.clone();
                cond.extend(bb.cond.iter().cloned());
                cond.append(&mut nb.cond);
                out.push(Branch { lin: nb.lin, cond });
            }
        }
    }
    out
}

fn plain(lin: Lin) -> Vec<Branch> {
    vec![Branch {
        lin,
        cond: Vec::new(),
    }]
}

/// Lower `e` to linear branches under `ground` (symbols with concrete
/// values; all other symbols become copy-0 variables). Panics on a product
/// where neither factor grounds to a constant — enumerate one side instead
/// of writing a nonlinear model.
pub fn linearize(e: &Expr, ground: &Env) -> Vec<Branch> {
    match e {
        Expr::K(c) => plain(Lin::konst(i128::from(*c))),
        Expr::V(name) => match ground.get(name) {
            Some(val) => plain(Lin::konst(i128::from(*val))),
            None => plain(Lin::var((name, 0))),
        },
        Expr::Add(a, b) => combine(&linearize(a, ground), &linearize(b, ground), |x, y| {
            plain(x.add(y))
        }),
        Expr::Sub(a, b) => combine(&linearize(a, ground), &linearize(b, ground), |x, y| {
            plain(x.sub(y))
        }),
        Expr::Mul(a, b) => combine(&linearize(a, ground), &linearize(b, ground), |x, y| {
            if let Some(c) = x.as_const() {
                plain(y.scale(c))
            } else if let Some(c) = y.as_const() {
                plain(x.scale(c))
            } else {
                panic!("nonlinear product in access model: {e:?} (enumerate one factor)")
            }
        }),
        Expr::Min(a, b) => combine(&linearize(a, ground), &linearize(b, ground), |x, y| {
            vec![
                Branch {
                    lin: x.clone(),
                    cond: vec![y.sub(x)], // y - x >= 0 — x is the min
                },
                Branch {
                    lin: y.clone(),
                    cond: vec![x.sub(y)],
                },
            ]
        }),
        Expr::Max(a, b) => combine(&linearize(a, ground), &linearize(b, ground), |x, y| {
            vec![
                Branch {
                    lin: x.clone(),
                    cond: vec![x.sub(y)], // x - y >= 0 — x is the max
                },
                Branch {
                    lin: y.clone(),
                    cond: vec![y.sub(x)],
                },
            ]
        }),
        Expr::Ceil8(_) => panic!("ceil8 is for smem formulas only, not access offsets: {e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{emin, k, v};

    #[test]
    fn grounded_symbols_fold_to_constants() {
        let ground = Env::from([("kl", 3)]);
        let branches = linearize(&(v("kl") * v("n") + k(1)), &ground);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].lin.k, 1);
        assert_eq!(branches[0].lin.terms[&("n", 0)], 3);
    }

    #[test]
    fn min_splits_into_guarded_branches() {
        let branches = linearize(&emin(v("n"), k(5)), &Env::new());
        assert_eq!(branches.len(), 2);
        // Branch 0: value n, condition 5 - n >= 0.
        assert_eq!(branches[0].lin, Lin::var(("n", 0)));
        assert_eq!(branches[0].cond[0], Lin::konst(5).sub(&Lin::var(("n", 0))));
    }

    #[test]
    #[should_panic(expected = "nonlinear product")]
    fn nonlinear_products_are_rejected() {
        linearize(&(v("n") * v("m")), &Env::new());
    }
}
