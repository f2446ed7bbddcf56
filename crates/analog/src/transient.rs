//! Fixed-step backward-Euler transient analysis.
//!
//! The solver assembles the modified-nodal-analysis (MNA) system
//! `[G  B; Bᵀ 0] · [v; i] = [rhs; e]` each step, with capacitors replaced by
//! their backward-Euler companion models (a conductance `C/h` in parallel
//! with a history current source). Voltage sources contribute branch-current
//! unknowns, whose solved values also give per-source delivered energy — the
//! basis of the power numbers reported for the analog path. Every node and
//! capacitor starts at 0 V, and every step is captured into the waveforms.
//!
//! Behavioural elements (sample-and-hold, comparators) are expressed as
//! [`Controller`]s: callbacks invoked before every step that observe the
//! previous node voltages and may retune netlist elements (switch states,
//! source levels). The solver refactors its LU only when a controller
//! actually changed something, so pure-RC stretches run at one
//! back/forward-substitution per step.
//!
//! # The linear solver
//!
//! Each step solves one linear system with sparse LU ([`crate::sparse`]),
//! whatever the system size. The solver exploits the
//! switch-topology-stability of the ReSiPE datapath three ways, in
//! increasing scope:
//!
//! 1. **unchanged matrix** → no factorization at all, only an RHS refresh
//!    and one substitution into reused buffers;
//! 2. **changed values, same topology** → a numeric refactorization that
//!    replays the frozen pivot order and fill pattern;
//! 3. **new run, same topology** → a [`SolverSession`] carries the
//!    symbolic analysis across [`Transient::run_with_session`] calls, so a
//!    parameter sweep pays for its fill-reducing order and pivot/pattern
//!    discovery exactly once.
//!
//! [`SolverStats`] counts all of this (assemblies, symbolic analyses,
//! refactorizations, reused-factor solves) for benchmarks and acceptance
//! tests, and [`TransientConfig::with_min_rcond`] arms a per-factorization
//! condition gate that turns silent precision loss into
//! [`AnalogError::IllConditioned`]. The dense LU in [`crate::linalg`] is
//! not a transient backend; it is the reference the sparse solver is
//! property-tested against.

use crate::error::AnalogError;
use crate::netlist::{Netlist, Node};
use crate::sparse::{
    min_degree_order, CsrMatrix, CsrPattern, MnaStamp, PatternBuilder, SparseLu, SparseLuError,
};
use crate::units::{Joules, Seconds, Volts};
use crate::waveform::Waveform;

/// What is left of the old dense/sparse backend switch.
///
/// Every transient runs on sparse LU. The one constant below keeps
/// external callers that still compare a system size against the old
/// crossover compiling: a system with at least one unknown is solved
/// sparsely, and a system with none solves nothing.
#[derive(Debug, Clone, Copy)]
pub struct SolverKind;

impl SolverKind {
    /// Systems of at least this many unknowns are solved with sparse LU,
    /// which is every system that has anything to solve.
    pub const SPARSE_THRESHOLD: usize = 1;
}

/// Configuration of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    stop: Seconds,
    step: Seconds,
    min_rcond: Option<f64>,
}

impl TransientConfig {
    /// Default integration step when none is given: 10 ps, fine enough for
    /// the paper's 1 ns computation stage.
    pub const DEFAULT_STEP: Seconds = Seconds(10e-12);

    /// Creates a configuration running from 0 to `stop` with the default
    /// step.
    pub fn new(stop: Seconds) -> TransientConfig {
        TransientConfig {
            stop,
            step: Self::DEFAULT_STEP,
            min_rcond: None,
        }
    }

    /// Arms the condition gate: every (re)factorization estimates the
    /// system's reciprocal 1-norm condition number, and the run fails with
    /// [`AnalogError::IllConditioned`] if it drops below `min_rcond`.
    ///
    /// Off by default — a healthy ReSiPE netlist legitimately spans the
    /// full switch on/off contrast (`r_off/r_on ≈ 1e14`, so
    /// `rcond ≈ 1e-14..1e-16` is *normal*), and the estimate costs a
    /// handful of extra substitutions per factorization. Arm it for
    /// whole-tile validation runs where silent precision loss would
    /// corrupt an oracle; thresholds around `1e-18`–`1e-20` separate
    /// "healthy contrast" from "actually degenerate".
    pub fn with_min_rcond(mut self, min_rcond: f64) -> TransientConfig {
        self.min_rcond = Some(min_rcond);
        self
    }

    /// The armed condition-gate threshold, if any.
    pub fn min_rcond(&self) -> Option<f64> {
        self.min_rcond
    }

    /// Sets the integration step.
    pub fn with_step(mut self, step: Seconds) -> TransientConfig {
        self.step = step;
        self
    }

    /// The configured stop time.
    pub fn stop(&self) -> Seconds {
        self.stop
    }

    /// The configured integration step.
    pub fn step(&self) -> Seconds {
        self.step
    }

    fn validate(&self) -> Result<(), AnalogError> {
        if !(self.stop.0 > 0.0) || !self.stop.0.is_finite() {
            return Err(AnalogError::InvalidConfig {
                reason: format!("stop time must be positive and finite, got {}", self.stop),
            });
        }
        if !(self.step.0 > 0.0) || !self.step.0.is_finite() {
            return Err(AnalogError::InvalidConfig {
                reason: format!("step must be positive and finite, got {}", self.step),
            });
        }
        if self.step.0 > self.stop.0 {
            return Err(AnalogError::InvalidConfig {
                reason: "step larger than stop time".to_owned(),
            });
        }
        if let Some(r) = self.min_rcond {
            if !(r > 0.0) || !(r <= 1.0) {
                return Err(AnalogError::InvalidConfig {
                    reason: format!("min_rcond must be in (0, 1], got {r}"),
                });
            }
        }
        Ok(())
    }
}

/// Read-only view of the circuit state handed to controllers.
#[derive(Debug)]
pub struct StepView<'a> {
    /// The start time of the step about to be integrated.
    pub time: Seconds,
    /// Node voltages at `time` (index 0 = ground = 0 V).
    voltages: &'a [f64],
}

impl StepView<'_> {
    /// Voltage of `node` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn voltage(&self, node: Node) -> Volts {
        Volts(self.voltages[node.index()])
    }
}

/// A behavioural element: observes the circuit every step and may retune it.
///
/// Implemented for closures `FnMut(&StepView, &mut Netlist) -> bool`; the
/// return value reports whether the netlist was changed (so the solver knows
/// to refactor).
pub trait Controller {
    /// Called before integrating the step that starts at `view.time`.
    /// Returns `true` if the netlist was modified.
    fn on_step(&mut self, view: &StepView<'_>, net: &mut Netlist) -> bool;
}

impl<F> Controller for F
where
    F: FnMut(&StepView<'_>, &mut Netlist) -> bool,
{
    fn on_step(&mut self, view: &StepView<'_>, net: &mut Netlist) -> bool {
        self(view, net)
    }
}

/// A no-op controller for purely linear runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoController;

impl Controller for NoController {
    fn on_step(&mut self, _view: &StepView<'_>, _net: &mut Netlist) -> bool {
        false
    }
}

/// Counters describing the linear-solver work of one or more transient
/// runs — the observable behind "symbolic analysis is computed once and
/// reused" claims in benchmarks and acceptance tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct SolverStats {
    /// System size: `(nodes − 1) + voltage-source branches`.
    pub unknowns: usize,
    /// Structural nonzeros of the MNA pattern.
    pub nonzeros: usize,
    /// Matrix value assemblies (stamping passes over the netlist).
    pub assemblies: usize,
    /// Pivot-order/pattern discoveries: fresh [`SparseLu::factor`] calls.
    pub symbolic_analyses: usize,
    /// Fill-reducing orders computed ([`min_degree_order`] calls). Only a
    /// symbolic analysis with no earlier factorization of the pattern at
    /// hand computes one; a re-pivot after a lost pivot, and every run
    /// that reuses a [`SolverSession`]'s analysis, borrows the cached
    /// factorization's column order instead.
    pub orderings: usize,
    /// Runs that inherited a cached symbolic analysis from a
    /// [`SolverSession`] instead of computing their own.
    pub symbolic_reuses: usize,
    /// Value-only refactorizations over a frozen symbolic structure.
    pub numeric_refactors: usize,
    /// Total linear solves (one per integrated step).
    pub solves: usize,
    /// Solves that skipped factorization entirely because the matrix was
    /// unchanged — only the right-hand side was refreshed.
    pub reused_factor_solves: usize,
    /// Largest pivot growth `max|U| / max|A|` seen across factorizations.
    pub pivot_growth_max: f64,
    /// Smallest reciprocal condition estimate seen; only populated when
    /// the [`TransientConfig::with_min_rcond`] gate is armed (estimation
    /// costs solves).
    pub min_rcond_seen: Option<f64>,
}

impl SolverStats {
    /// Folds another run's counters into these totals (used by
    /// [`SolverSession`]): counts add, extrema merge, sizes take the
    /// latest run's values.
    fn absorb(&mut self, run: &SolverStats) {
        self.unknowns = run.unknowns;
        self.nonzeros = run.nonzeros;
        self.assemblies += run.assemblies;
        self.symbolic_analyses += run.symbolic_analyses;
        self.orderings += run.orderings;
        self.symbolic_reuses += run.symbolic_reuses;
        self.numeric_refactors += run.numeric_refactors;
        self.solves += run.solves;
        self.reused_factor_solves += run.reused_factor_solves;
        self.pivot_growth_max = self.pivot_growth_max.max(run.pivot_growth_max);
        self.min_rcond_seen = match (self.min_rcond_seen, run.min_rcond_seen) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Carries sparse symbolic analyses (and solver-stat totals) across
/// transient runs.
///
/// A parameter sweep simulates many structurally identical netlists —
/// same topology, different element values. Passing one session to every
/// [`Transient::run_with_session`] call lets run *N+1* reuse run *N*'s
/// frozen LU structure, column order included: the new run's pattern is
/// compared against the cached one ([`CsrPattern`] equality), and on a
/// match the expensive pivot/pattern discovery is replaced by a numeric
/// refactorization and no fill-reducing order is computed at all — the
/// order is computed once per symbolic analysis that starts from nothing.
/// Every run's counters accumulate in [`SolverSession::stats`].
#[derive(Debug, Default)]
pub struct SolverSession {
    cache: Option<SessionCache>,
    totals: SolverStats,
}

#[derive(Debug)]
struct SessionCache {
    pattern: CsrPattern,
    lu: SparseLu,
}

impl SolverSession {
    /// Creates an empty session.
    pub fn new() -> SolverSession {
        SolverSession::default()
    }

    /// Solver counters accumulated over every run this session served.
    pub fn stats(&self) -> SolverStats {
        self.totals
    }
}

/// Per-run solver state: the assembled matrix, the (possibly stale)
/// factors, and the two buffers every solve writes into, so the step loop
/// allocates nothing.
struct MnaSolver {
    matrix: CsrMatrix,
    lu: Option<SparseLu>,
    scratch: Vec<f64>,
    solution: Vec<f64>,
}

impl MnaSolver {
    /// Refactors from the freshly assembled matrix, updates diagnostics,
    /// and applies the condition gate if armed.
    fn refresh_factors(
        &mut self,
        step: usize,
        min_rcond: Option<f64>,
        stats: &mut SolverStats,
    ) -> Result<(), AnalogError> {
        // Prefer a value-only replay of the frozen structure; fall back to
        // a fresh pivoting factorization if a stored pivot collapsed (or
        // no factorization exists yet).
        let refreshed = match self.lu.as_mut() {
            Some(f) => match f.refactor(&self.matrix) {
                Ok(()) => {
                    stats.numeric_refactors += 1;
                    true
                }
                Err(SparseLuError::PivotLost { .. }) => false,
                Err(SparseLuError::Singular { .. }) => {
                    return Err(AnalogError::SingularMatrix { step })
                }
            },
            None => false,
        };
        if !refreshed {
            // A stale factorization of this pattern lends its column order
            // (the min-degree order of the same pattern); only the first
            // factorization computes one.
            let fresh = match &self.lu {
                Some(stale) => SparseLu::factor(&self.matrix, stale.column_order()),
                None => {
                    stats.orderings += 1;
                    SparseLu::factor(&self.matrix, &min_degree_order(self.matrix.pattern()))
                }
            };
            let f = fresh.map_err(|_| AnalogError::SingularMatrix { step })?;
            stats.symbolic_analyses += 1;
            self.lu = Some(f);
        }
        let f = self.lu.as_ref().expect("factored above");
        let pivot_growth = f.pivot_growth();
        stats.pivot_growth_max = stats.pivot_growth_max.max(pivot_growth);
        if let Some(threshold) = min_rcond {
            let rc = f.rcond_estimate(self.matrix.norm_one());
            stats.min_rcond_seen = Some(stats.min_rcond_seen.map_or(rc, |m| m.min(rc)));
            if rc < threshold {
                return Err(AnalogError::IllConditioned {
                    step,
                    rcond: rc,
                    pivot_growth,
                });
            }
        }
        Ok(())
    }
}

/// Result of a transient run: per-node waveforms plus per-source energy.
#[derive(Debug, Clone)]
pub struct TransientResult {
    waveforms: Vec<Waveform>,
    source_energy: Vec<Joules>,
    final_voltages: Vec<f64>,
    steps: usize,
    solver_stats: SolverStats,
}

impl TransientResult {
    /// The captured waveform of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::WaveformNotCaptured`] if the node index is out
    /// of range for the simulated netlist.
    pub fn waveform(&self, node: Node) -> Result<&Waveform, AnalogError> {
        self.waveforms
            .get(node.index())
            .ok_or(AnalogError::WaveformNotCaptured {
                index: node.index(),
            })
    }

    /// Final voltage of `node` at the stop time.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::UnknownNode`] if the node index is out of
    /// range.
    pub fn final_voltage(&self, node: Node) -> Result<Volts, AnalogError> {
        self.final_voltages
            .get(node.index())
            .map(|&v| Volts(v))
            .ok_or(AnalogError::UnknownNode {
                index: node.index(),
                node_count: self.final_voltages.len(),
            })
    }

    /// Total energy delivered by the `i`-th voltage source (in insertion
    /// order). Negative values mean the source absorbed energy.
    pub fn source_energy(&self, source_index: usize) -> Option<Joules> {
        self.source_energy.get(source_index).copied()
    }

    /// Sum of energy delivered by all voltage sources.
    pub fn total_source_energy(&self) -> Joules {
        self.source_energy.iter().copied().sum()
    }

    /// Number of integration steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Linear-solver counters for this run (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver_stats
    }
}

/// A transient simulation of one netlist.
///
/// The netlist is cloned at construction; controllers mutate the internal
/// copy, leaving the caller's netlist untouched.
#[derive(Debug, Clone)]
pub struct Transient {
    net: Netlist,
    cfg: TransientConfig,
}

impl Transient {
    /// Prepares a transient run of `net` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::InvalidConfig`] for nonsensical stop/step
    /// values.
    pub fn new(net: &Netlist, cfg: TransientConfig) -> Result<Transient, AnalogError> {
        cfg.validate()?;
        Ok(Transient {
            net: net.clone(),
            cfg,
        })
    }

    /// Runs the simulation with no behavioural controller.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::SingularMatrix`] if the MNA system cannot be
    /// factored (e.g. a floating node with no DC path to ground).
    pub fn run(self) -> Result<TransientResult, AnalogError> {
        self.run_with(NoController)
    }

    /// Runs the simulation, invoking `controller` before every step.
    ///
    /// # Errors
    ///
    /// Same as [`Transient::run`].
    pub fn run_with<C: Controller>(self, controller: C) -> Result<TransientResult, AnalogError> {
        self.run_with_session(controller, &mut SolverSession::new())
    }

    /// Runs the simulation, reusing `session`'s cached symbolic analysis
    /// when the netlist topology matches the session's previous run.
    ///
    /// This is the batched-sweep entry point: structurally identical
    /// netlists (same nodes/elements, different values) share one sparse
    /// symbolic analysis across the whole batch, and a run that inherits
    /// it computes no fill-reducing order.
    ///
    /// # Errors
    ///
    /// Same as [`Transient::run`], plus [`AnalogError::IllConditioned`]
    /// when a [`TransientConfig::with_min_rcond`] gate is armed and trips.
    pub fn run_with_session<C: Controller>(
        mut self,
        mut controller: C,
        session: &mut SolverSession,
    ) -> Result<TransientResult, AnalogError> {
        let n_nodes = self.net.node_count();
        let n_unknowns = (n_nodes - 1) + self.net.vsource_count();
        let h = self.cfg.step.0;
        let n_steps = (self.cfg.stop.0 / h).round() as usize;
        let min_rcond = self.cfg.min_rcond;

        // Every node and capacitor starts at 0 V; index 0 is ground.
        let mut voltages = vec![0.0; n_nodes];
        let mut cap_history = vec![0.0; self.net.capacitors.len()];

        let mut waveforms = vec![Waveform::new(); n_nodes];
        let mut source_energy = vec![0.0; self.net.vsource_count()];

        // One symbolic stamping pass freezes the pattern (positions are
        // value-independent).
        let mut builder = PatternBuilder::new(n_unknowns);
        stamp_mna(&self.net, &mut builder, h);
        let pattern = builder.finish();
        let mut stats = SolverStats {
            unknowns: n_unknowns,
            nonzeros: pattern.nnz(),
            ..SolverStats::default()
        };
        // A session cache with the same pattern donates its frozen
        // symbolic analysis, column order included; the values are stale,
        // but the first assembly refactors before any solve.
        let cached_lu = match session.cache.take() {
            Some(c) if c.pattern == pattern => {
                stats.symbolic_reuses += 1;
                Some(c.lu)
            }
            _ => None,
        };
        let mut solver = MnaSolver {
            matrix: CsrMatrix::from_pattern(pattern),
            lu: cached_lu,
            scratch: vec![0.0; n_unknowns],
            solution: vec![0.0; n_unknowns],
        };
        let mut factors_current = false;
        let mut rhs = vec![0.0; n_unknowns];

        // Capture t = 0.
        for (node, wf) in waveforms.iter_mut().enumerate() {
            wf.push(Seconds(0.0), Volts(voltages[node]));
        }

        for step in 0..n_steps {
            let t0 = Seconds(step as f64 * h);
            let view = StepView {
                time: t0,
                voltages: &voltages,
            };
            let dirty = controller.on_step(&view, &mut self.net);
            if dirty {
                factors_current = false;
            }

            if n_unknowns == 0 {
                continue;
            }

            // (Re)assemble. Conductance stamps only change when the netlist
            // changed, but the RHS changes every step (capacitor history),
            // so we rebuild RHS always and the matrix only when dirty.
            if !factors_current {
                solver.matrix.clear();
                stamp_mna(&self.net, &mut solver.matrix, h);
                stats.assemblies += 1;
                solver.refresh_factors(step, min_rcond, &mut stats)?;
                factors_current = true;
            } else {
                stats.reused_factor_solves += 1;
            }
            rhs.fill(0.0);
            self.stamp_rhs(&mut rhs, h, &cap_history);

            stats.solves += 1;
            let lu = solver.lu.as_ref().expect("factored before solve");
            lu.solve_into(&rhs, &mut solver.scratch, &mut solver.solution);
            let solution = &solver.solution;

            // Unpack node voltages (index 0 stays ground).
            voltages[1..n_nodes].copy_from_slice(&solution[..n_nodes - 1]);

            // Update capacitor history from the new node voltages.
            for (v_prev, cap) in cap_history.iter_mut().zip(&self.net.capacitors) {
                *v_prev = voltages[cap.a.index()] - voltages[cap.b.index()];
            }

            // Accumulate per-source delivered energy: E += V · I · h. The
            // MNA branch current is oriented from + terminal through the
            // source, so delivered power is −V·I_branch.
            for (k, vs) in self.net.vsources.iter().enumerate() {
                let i_branch = solution[(n_nodes - 1) + k];
                source_energy[k] += -vs.volts.0 * i_branch * h;
            }

            let t1 = Seconds((step + 1) as f64 * h);
            for (node, wf) in waveforms.iter_mut().enumerate() {
                wf.push(t1, Volts(voltages[node]));
            }
        }

        // Donate the (now value-fresh) factorization back to the session
        // so the next structurally identical run can refactor instead of
        // re-analyzing.
        if let Some(lu) = solver.lu {
            session.cache = Some(SessionCache {
                pattern: solver.matrix.pattern().clone(),
                lu,
            });
        }
        session.totals.absorb(&stats);

        Ok(TransientResult {
            waveforms,
            source_energy: source_energy.into_iter().map(Joules).collect(),
            final_voltages: voltages,
            steps: n_steps,
            solver_stats: stats,
        })
    }

    /// Stamps the right-hand side: each capacitor's backward-Euler history
    /// current `(C/h)·v_n` and the source values.
    fn stamp_rhs(&self, rhs: &mut [f64], h: f64, cap_history: &[f64]) {
        let n_nodes = self.net.node_count();
        for (c, &v_prev) in self.net.capacitors.iter().zip(cap_history) {
            let i_eq = c.farads.0 / h * v_prev;
            if !c.a.is_ground() {
                rhs[c.a.index() - 1] += i_eq;
            }
            if !c.b.is_ground() {
                rhs[c.b.index() - 1] -= i_eq;
            }
        }
        for (k, vs) in self.net.vsources.iter().enumerate() {
            rhs[(n_nodes - 1) + k] = vs.volts.0;
        }
    }
}

/// Stamps the conductance and incidence parts of the MNA system into any
/// [`MnaStamp`] sink — a sparse matrix over a frozen pattern, or a
/// [`PatternBuilder`] doing the symbolic pass. One routine serving both is
/// what guarantees the pattern and the values it carries can never drift
/// apart.
fn stamp_mna<S: MnaStamp>(net: &Netlist, m: &mut S, h: f64) {
    let n_nodes = net.node_count();
    let mut stamp_conductance = |a: Node, b: Node, g: f64| {
        if !a.is_ground() {
            m.add(a.index() - 1, a.index() - 1, g);
        }
        if !b.is_ground() {
            m.add(b.index() - 1, b.index() - 1, g);
        }
        if !a.is_ground() && !b.is_ground() {
            m.add(a.index() - 1, b.index() - 1, -g);
            m.add(b.index() - 1, a.index() - 1, -g);
        }
    };

    for r in &net.resistors {
        stamp_conductance(r.a, r.b, 1.0 / r.ohms.0);
    }
    for sw in &net.switches {
        stamp_conductance(sw.a, sw.b, 1.0 / sw.resistance().0);
    }
    for c in &net.capacitors {
        stamp_conductance(c.a, c.b, c.farads.0 / h);
    }
    for (k, vs) in net.vsources.iter().enumerate() {
        let row = (n_nodes - 1) + k;
        // Constraint: V(b) − V(a) = volts; branch current flows b→a
        // inside the source.
        if !vs.b.is_ground() {
            m.add(row, vs.b.index() - 1, 1.0);
            m.add(vs.b.index() - 1, row, 1.0);
        }
        if !vs.a.is_ground() {
            m.add(row, vs.a.index() - 1, -1.0);
            m.add(vs.a.index() - 1, row, -1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::SwitchState;
    use crate::units::{Farads, Ohms};

    /// RC charging: v(t) = V(1 − e^(−t/RC)).
    #[test]
    fn rc_charging_matches_closed_form() {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let cap = net.node("cap");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        net.resistor(vdd, cap, Ohms(1e3));
        net.capacitor(cap, Node::GROUND, Farads(1e-9));
        // tau = 1 µs; simulate 3 tau.
        let cfg = TransientConfig::new(Seconds(3e-6)).with_step(Seconds(1e-9));
        let res = Transient::new(&net, cfg).unwrap().run().unwrap();
        let wf = res.waveform(cap).unwrap();
        for &t in &[0.5e-6, 1e-6, 2e-6, 3e-6] {
            let expected = 1.0 - (-t / 1e-6_f64).exp();
            let got = wf.sample(Seconds(t)).unwrap().0;
            assert!(
                (got - expected).abs() < 2e-3,
                "t={t}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn voltage_divider_dc() {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let mid = net.node("mid");
        net.voltage_source(Node::GROUND, vdd, Volts(2.0));
        net.resistor(vdd, mid, Ohms(1e3));
        net.resistor(mid, Node::GROUND, Ohms(3e3));
        let cfg = TransientConfig::new(Seconds(1e-6)).with_step(Seconds(1e-8));
        let res = Transient::new(&net, cfg).unwrap().run().unwrap();
        let v = res.final_voltage(mid).unwrap();
        assert!((v.0 - 1.5).abs() < 1e-9, "divider voltage {v}");
    }

    #[test]
    fn switch_controller_gates_charging() {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let cap = net.node("cap");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        let sw = net.switch(vdd, cap, Ohms(1e3), Ohms(1e15));
        net.capacitor(cap, Node::GROUND, Farads(1e-9));
        // Close the switch at t = 1 µs.
        let mut closed = false;
        let controller = move |view: &StepView<'_>, net: &mut Netlist| {
            if !closed && view.time.0 >= 1e-6 {
                net.set_switch(sw, SwitchState::Closed);
                closed = true;
                true
            } else {
                false
            }
        };
        let cfg = TransientConfig::new(Seconds(3e-6)).with_step(Seconds(1e-9));
        let res = Transient::new(&net, cfg)
            .unwrap()
            .run_with(controller)
            .unwrap();
        let wf = res.waveform(cap).unwrap();
        // Before the switch closes the cap stays at ~0.
        assert!(wf.sample(Seconds(0.9e-6)).unwrap().0.abs() < 1e-6);
        // One tau after closing it reaches 1 − 1/e.
        let got = wf.sample(Seconds(2e-6)).unwrap().0;
        let expected = 1.0 - (-1.0_f64).exp();
        assert!((got - expected).abs() < 3e-3, "got {got}");
    }

    #[test]
    fn source_energy_matches_rc_theory() {
        // Charging a capacitor through a resistor draws E = C·V² from the
        // source (half stored, half dissipated) once fully charged.
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let cap = net.node("cap");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        net.resistor(vdd, cap, Ohms(1e3));
        net.capacitor(cap, Node::GROUND, Farads(1e-9));
        let cfg = TransientConfig::new(Seconds(10e-6)).with_step(Seconds(1e-9));
        let res = Transient::new(&net, cfg).unwrap().run().unwrap();
        let e = res.source_energy(0).unwrap();
        let expected = 1e-9; // C·V² = 1e-9 J
        assert!(
            (e.0 - expected).abs() / expected < 0.01,
            "source energy {} J, expected {expected} J",
            e.0
        );
        assert!((res.total_source_energy().0 - e.0).abs() < 1e-18);
    }

    #[test]
    fn invalid_configs_rejected() {
        let net = Netlist::new();
        assert!(matches!(
            Transient::new(&net, TransientConfig::new(Seconds(0.0))),
            Err(AnalogError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Transient::new(
                &net,
                TransientConfig::new(Seconds(1e-6)).with_step(Seconds(-1.0))
            ),
            Err(AnalogError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Transient::new(
                &net,
                TransientConfig::new(Seconds(1e-9)).with_step(Seconds(1e-6))
            ),
            Err(AnalogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn floating_node_is_singular() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        // `b` has no DC path to anything.
        net.resistor(Node::GROUND, a, Ohms(1e3));
        let _ = b;
        let cfg = TransientConfig::new(Seconds(1e-6)).with_step(Seconds(1e-8));
        let err = Transient::new(&net, cfg).unwrap().run();
        assert!(matches!(err, Err(AnalogError::SingularMatrix { .. })));
    }

    /// Builds the RC+switch netlist used by the solver tests.
    fn switched_rc() -> (Netlist, Node, crate::netlist::SwitchId) {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let cap = net.node("cap");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        let sw = net.switch(vdd, cap, Ohms(1e3), Ohms(1e15));
        net.capacitor(cap, Node::GROUND, Farads(1e-9));
        net.resistor(cap, Node::GROUND, Ohms(1e9));
        (net, cap, sw)
    }

    /// `switched_rc` with the switch closing at 1 µs, over 3 µs in 1 ns
    /// steps.
    fn run_switched_rc() -> (TransientResult, Node) {
        let (net, cap, sw) = switched_rc();
        let mut closed = false;
        let controller = move |view: &StepView<'_>, net: &mut Netlist| {
            if !closed && view.time.0 >= 1e-6 {
                net.set_switch(sw, SwitchState::Closed);
                closed = true;
                true
            } else {
                false
            }
        };
        let cfg = TransientConfig::new(Seconds(3e-6)).with_step(Seconds(1e-9));
        let res = Transient::new(&net, cfg)
            .unwrap()
            .run_with(controller)
            .unwrap();
        (res, cap)
    }

    /// The sparse solver reproduces the waveform and energy the dense LU
    /// solver produced for this run, recorded as `(sample, volts)` pairs
    /// before dense LU stopped being a transient backend.
    #[test]
    fn sparse_backend_matches_dense() {
        const DENSE_CAP: [(usize, f64); 10] = [
            (500, 4.999998747498975e-13),
            (1000, 9.999994994996865e-13),
            (1001, 0.0009990009990019967),
            (1002, 0.0019970039930119806),
            (1010, 0.009945219233424925),
            (1100, 0.09511736438362527),
            (1500, 0.39331769942561245),
            (2000, 0.6319364314705922),
            (2500, 0.7767020989349608),
            (3000, 0.86452881017762),
        ];
        const DENSE_ENERGY: f64 = 8.645299456476405e-10;
        let (res, cap) = run_switched_rc();
        let wf = res.waveform(cap).unwrap().values();
        assert_eq!(wf.len(), 3001);
        for (i, dense) in DENSE_CAP {
            assert!(
                (wf[i] - dense).abs() < 1e-9,
                "sample {i}: {} vs {dense}",
                wf[i]
            );
        }
        assert!((res.total_source_energy().0 - DENSE_ENERGY).abs() < 1e-18);
    }

    #[test]
    fn sparse_counters_show_reuse_within_a_run() {
        let (res, _cap) = run_switched_rc();
        let s = res.solver_stats();
        // One symbolic analysis at step 0; the switch event refactors
        // without re-analyzing; every other step reuses the factors.
        assert_eq!(s.symbolic_analyses, 1, "{s:?}");
        assert_eq!(s.numeric_refactors, 1, "{s:?}");
        assert_eq!(s.assemblies, 2, "{s:?}");
        assert_eq!(s.solves, res.steps());
        assert_eq!(s.reused_factor_solves, s.solves - 2);
        assert!(s.nonzeros > 0 && s.nonzeros < s.unknowns * s.unknowns);
    }

    #[test]
    fn session_reuses_symbolic_analysis_across_runs() {
        let mut session = SolverSession::new();
        for ohms in [1e3, 2e3, 5e3] {
            let mut net = Netlist::new();
            let vdd = net.node("vdd");
            let cap = net.node("cap");
            net.voltage_source(Node::GROUND, vdd, Volts(1.0));
            net.resistor(vdd, cap, Ohms(ohms));
            net.capacitor(cap, Node::GROUND, Farads(1e-9));
            let cfg = TransientConfig::new(Seconds(1e-6)).with_step(Seconds(1e-9));
            Transient::new(&net, cfg)
                .unwrap()
                .run_with_session(NoController, &mut session)
                .unwrap();
        }
        let totals = session.stats();
        // Run 1 analyzes; runs 2 and 3 inherit the structure and only
        // refactor values.
        assert_eq!(totals.symbolic_analyses, 1, "{totals:?}");
        assert_eq!(totals.symbolic_reuses, 2, "{totals:?}");
        assert_eq!(totals.numeric_refactors, 2, "{totals:?}");
        // Only the run that analyzed computed a fill-reducing order.
        assert_eq!(totals.orderings, 1, "{totals:?}");
        assert_eq!(totals.solves, 3000);
    }

    #[test]
    fn lost_pivot_refactors_in_the_cached_column_order() {
        let mut b = PatternBuilder::new(2);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.add(r, c, 0.0);
        }
        let mut matrix = CsrMatrix::from_pattern(b.finish());
        for (r, c, v) in [(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 1.0)] {
            matrix.add(r, c, v);
        }
        let mut solver = MnaSolver {
            matrix,
            lu: None,
            scratch: vec![0.0; 2],
            solution: vec![0.0; 2],
        };
        let mut stats = SolverStats::default();
        solver.refresh_factors(0, None, &mut stats).unwrap();
        let order = solver.lu.as_ref().unwrap().column_order().to_vec();
        // Zero the diagonal: the frozen first pivot collapses, and the
        // re-pivot must reuse the column order instead of computing one.
        solver.matrix.clear();
        solver.matrix.add(0, 1, 1.0);
        solver.matrix.add(1, 0, 1.0);
        solver.refresh_factors(1, None, &mut stats).unwrap();
        assert_eq!(stats.symbolic_analyses, 2, "{stats:?}");
        assert_eq!(stats.numeric_refactors, 0, "{stats:?}");
        assert_eq!(stats.orderings, 1, "{stats:?}");
        let lu = solver.lu.as_ref().unwrap();
        assert_eq!(lu.column_order(), &order[..]);
        assert_eq!(lu.solve(&[2.0, 3.0]), vec![3.0, 2.0]);
    }

    /// A `rows × cols` tile as `AnalogMvm` builds it, in the switch state
    /// of its first step: a supply charging the GD ramp, one bitline per
    /// column (`C_cog` held at 0 V by its closed reset switch), and one
    /// wordline per row, held by a grounded source and tied to every
    /// bitline through an open cell switch.
    fn crossbar_tile(rows: usize, cols: usize) -> Netlist {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        let ramp = net.node("ramp");
        net.resistor(vdd, ramp, Ohms(1e4));
        net.capacitor(ramp, Node::GROUND, Farads(1e-12));
        net.switch(ramp, Node::GROUND, Ohms(10.0), Ohms(1e15));
        let mut bitlines = Vec::with_capacity(cols);
        for j in 0..cols {
            let cog = net.node(&format!("cog{j}"));
            net.capacitor(cog, Node::GROUND, Farads(1e-12));
            let reset = net.switch(cog, Node::GROUND, Ohms(10.0), Ohms(1e15));
            net.set_switch(reset, SwitchState::Closed);
            bitlines.push(cog);
        }
        for i in 0..rows {
            let held = net.node(&format!("held{i}"));
            net.voltage_source(Node::GROUND, held, Volts(0.0));
            for (j, &cog) in bitlines.iter().enumerate() {
                let r_cell = Ohms(1e4 + 1e3 * ((i * cols + j) % 97) as f64);
                net.switch(held, cog, r_cell, Ohms(1e15));
            }
        }
        net
    }

    /// Every wordline of a source-driven crossbar is pinned, so its MNA
    /// system factors without fill: the factor stores no more entries
    /// than the matrix has.
    #[test]
    fn source_driven_crossbar_factors_without_fill() {
        let net = crossbar_tile(32, 32);
        let n = (net.node_count() - 1) + net.vsource_count();
        let h = 50e-12;
        let mut builder = PatternBuilder::new(n);
        stamp_mna(&net, &mut builder, h);
        let mut a = CsrMatrix::from_pattern(builder.finish());
        stamp_mna(&net, &mut a, h);
        let lu = SparseLu::factor(&a, &min_degree_order(a.pattern())).unwrap();
        let (l, u) = lu.factor_nnz();
        assert!(
            l + u <= a.pattern().nnz(),
            "nnz(L) {l} + nnz(U) {u} exceeds nnz(A) {}",
            a.pattern().nnz()
        );
    }

    #[test]
    fn min_rcond_gate_trips_on_degenerate_contrast() {
        // A nearly floating node: `b` hangs off the rest of the circuit
        // through ~1e19 Ω only, so its row is ~13 orders of magnitude
        // lighter than `a`'s — factorable, but numerically degenerate.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(Node::GROUND, a, Ohms(1.0));
        net.resistor(a, b, Ohms(1e19));
        net.resistor(b, Node::GROUND, Ohms(1e19));
        net.capacitor(b, Node::GROUND, Farads(1e-21));
        let base = TransientConfig::new(Seconds(1e-6)).with_step(Seconds(1e-8));
        // Without the gate the run silently succeeds.
        Transient::new(&net, base.clone()).unwrap().run().unwrap();
        let cfg = base.clone().with_min_rcond(1e-6);
        let err = Transient::new(&net, cfg).unwrap().run();
        assert!(
            matches!(err, Err(AnalogError::IllConditioned { rcond, .. }) if rcond < 1e-6),
            "{err:?}"
        );
        // A healthy circuit passes the same gate and reports diagnostics.
        let (healthy, _, _) = switched_rc();
        let cfg = base.with_min_rcond(1e-16);
        let res = Transient::new(&healthy, cfg).unwrap().run().unwrap();
        let s = res.solver_stats();
        assert!(s.min_rcond_seen.unwrap() >= 1e-16, "{s:?}");
        assert!(s.pivot_growth_max > 0.0);
    }

    #[test]
    fn invalid_min_rcond_rejected() {
        let net = Netlist::new();
        for bad in [0.0, -1.0, 2.0, f64::NAN] {
            assert!(matches!(
                Transient::new(
                    &net,
                    TransientConfig::new(Seconds(1e-6)).with_min_rcond(bad)
                ),
                Err(AnalogError::InvalidConfig { .. })
            ));
        }
        let cfg = TransientConfig::new(Seconds(1e-6)).with_min_rcond(1e-12);
        assert_eq!(cfg.min_rcond(), Some(1e-12));
    }

    #[test]
    fn two_source_superposition() {
        // Two sources through equal resistors into one node: v = (V1+V2)/2.
        let mut net = Netlist::new();
        let s1 = net.node("s1");
        let s2 = net.node("s2");
        let out = net.node("out");
        net.voltage_source(Node::GROUND, s1, Volts(1.0));
        net.voltage_source(Node::GROUND, s2, Volts(0.2));
        net.resistor(s1, out, Ohms(10e3));
        net.resistor(s2, out, Ohms(10e3));
        let cfg = TransientConfig::new(Seconds(1e-7)).with_step(Seconds(1e-10));
        let res = Transient::new(&net, cfg).unwrap().run().unwrap();
        let v = res.final_voltage(out).unwrap();
        assert!((v.0 - 0.6).abs() < 1e-9, "got {v}");
    }
}
