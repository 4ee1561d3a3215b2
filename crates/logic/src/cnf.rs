//! Clause buffer in DIMACS conventions.
//!
//! Literals are non-zero `i32`s: variable `v ≥ 1` appears positively as `v`
//! and negatively as `-v`. This is the lingua franca between the
//! bit-blaster, the Tseitin encoder and the SAT solver.
//!
//! A [`Cnf`] is a staging buffer, not a clause database: clauses are
//! stored flat, each terminated by `0` as in a DIMACS file, until
//! [`Cnf::drain_clauses`] hands them to their consumer (typically a SAT
//! solver, which keeps its own copy) and forgets them. The variable and
//! clause counters keep counting everything ever added, so an incremental
//! producer can drain after every step and still report the formula's
//! size.

/// A CNF formula over variables `1..=num_vars`, of which the clauses not
/// yet drained are held.
///
/// # Examples
///
/// ```
/// use gqed_logic::cnf::Cnf;
///
/// let mut cnf = Cnf::new();
/// let a = cnf.fresh_var();
/// let b = cnf.fresh_var();
/// cnf.add_clause(&[a, b]);
/// cnf.add_clause(&[-a]);
/// let mut seen = Vec::new();
/// cnf.drain_clauses(|c| seen.push(c.to_vec()));
/// assert_eq!(seen, vec![vec![a, b], vec![-a]]);
/// assert_eq!(cnf.clauses().count(), 0);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    num_vars: u32,
    num_clauses: usize,
    /// Pending clauses, each followed by a `0` terminator.
    lits: Vec<i32>,
}

impl Cnf {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses ever added, drained ones included.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh_var(&mut self) -> i32 {
        self.num_vars += 1;
        self.num_vars as i32
    }

    /// Adds a clause. Literals must be non-zero and reference allocated
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if a literal is zero or references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[i32]) {
        for &l in lits {
            assert!(l != 0, "literal 0 is not allowed");
            assert!(
                l.unsigned_abs() <= self.num_vars,
                "literal {l} references unallocated variable (num_vars = {})",
                self.num_vars
            );
        }
        self.lits.extend_from_slice(lits);
        self.lits.push(0);
        self.num_clauses += 1;
    }

    /// Iterates over the clauses not yet drained, in the order they were
    /// added.
    pub fn clauses(&self) -> impl Iterator<Item = &[i32]> {
        self.lits
            .split_inclusive(|&l| l == 0)
            .map(|c| &c[..c.len() - 1])
    }

    /// Hands every clause not yet drained to `sink`, in the order they
    /// were added, then forgets them (their buffer is freed).
    /// [`Cnf::num_clauses`] and [`Cnf::num_vars`] are unaffected.
    pub fn drain_clauses(&mut self, mut sink: impl FnMut(&[i32])) {
        let lits = std::mem::take(&mut self.lits);
        for c in lits.split_inclusive(|&l| l == 0) {
            sink(&c[..c.len() - 1]);
        }
    }

    /// Evaluates the clauses not yet drained under a complete assignment
    /// (`assignment[v - 1]` is the value of variable `v`).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses().all(|c| {
            c.iter().any(|&l| {
                let v = assignment[(l.unsigned_abs() - 1) as usize];
                if l > 0 {
                    v
                } else {
                    !v
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_sequential() {
        let mut cnf = Cnf::new();
        assert_eq!(cnf.fresh_var(), 1);
        assert_eq!(cnf.fresh_var(), 2);
        assert_eq!(cnf.fresh_var(), 3);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn rejects_unallocated_variable() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1]);
    }

    #[test]
    #[should_panic(expected = "literal 0")]
    fn rejects_zero_literal() {
        let mut cnf = Cnf::new();
        let _ = cnf.fresh_var();
        cnf.add_clause(&[0]);
    }

    #[test]
    fn eval_checks_all_clauses() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[-a, b]);
        assert!(cnf.eval(&[true, true]));
        assert!(cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[true, false]));
        assert!(!cnf.eval(&[false, false]));
    }

    #[test]
    fn drain_keeps_order_and_counts() {
        let mut cnf = Cnf::new();
        let (a, b, c) = (cnf.fresh_var(), cnf.fresh_var(), cnf.fresh_var());
        cnf.add_clause(&[a, -b, c]);
        cnf.add_clause(&[]);
        cnf.add_clause(&[-c]);
        let mut first = Vec::new();
        cnf.drain_clauses(|cl| first.push(cl.to_vec()));
        assert_eq!(first, vec![vec![a, -b, c], vec![], vec![-c]]);
        assert_eq!(cnf.clauses().count(), 0);
        cnf.drain_clauses(|_| panic!("a drained clause was handed over twice"));

        // Clauses added after a drain are the only ones seen next, and the
        // counters keep everything ever added.
        let d = cnf.fresh_var();
        cnf.add_clause(&[b, d]);
        cnf.add_clause(&[-a]);
        let pending: Vec<Vec<i32>> = cnf.clauses().map(<[i32]>::to_vec).collect();
        assert_eq!(pending, vec![vec![b, d], vec![-a]]);
        let mut second = Vec::new();
        cnf.drain_clauses(|cl| second.push(cl.to_vec()));
        assert_eq!(second, pending);
        assert_eq!(cnf.num_vars(), 4);
        assert_eq!(cnf.num_clauses(), 5);
    }
}
