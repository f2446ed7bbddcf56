//! Property-based tests for the analog substrate.

use proptest::prelude::*;

use resipe_analog::linalg::{LuFactors, Matrix};
use resipe_analog::netlist::{Netlist, Node};
use resipe_analog::sparse::{CsrMatrix, MnaStamp, PatternBuilder, SparseLu, SparseLuError};
use resipe_analog::transient::{Transient, TransientConfig};
use resipe_analog::units::{Farads, Ohms, Seconds, Volts};
use resipe_analog::waveform::{Edge, Waveform};

/// Stamps the same `(row, col, value)` entries into a dense [`Matrix`]
/// and a sparse [`CsrMatrix`] through the shared [`MnaStamp`] trait.
fn stamp_both(n: usize, entries: &[(usize, usize, f64)]) -> (Matrix, CsrMatrix) {
    let mut dense = Matrix::zeros(n, n);
    let mut builder = PatternBuilder::new(n);
    for &(r, c, v) in entries {
        dense.add(r, c, v);
        builder.add(r, c, v);
    }
    let mut sparse = CsrMatrix::from_pattern(builder.finish());
    for &(r, c, v) in entries {
        sparse.add(r, c, v);
    }
    (dense, sparse)
}

/// Entries of a conductance `g` between unknowns `a` and `b` (`None` is
/// ground).
fn conductance(a: Option<usize>, b: Option<usize>, g: f64) -> Vec<(usize, usize, f64)> {
    let mut e = Vec::new();
    if let Some(a) = a {
        e.push((a, a, g));
    }
    if let Some(b) = b {
        e.push((b, b, g));
    }
    if let (Some(a), Some(b)) = (a, b) {
        e.push((a, b, -g));
        e.push((b, a, -g));
    }
    e
}

/// An MNA-shaped random system: a conductance block (symmetric pattern,
/// diagonally reinforced by ground conductances) bordered by voltage-source
/// incidence rows with structurally zero diagonals.
fn mna_shaped(
    n_nodes: usize,
    edges: &[(usize, usize, f64)],
    grounds: &[f64],
    n_vsrc: usize,
) -> (Matrix, CsrMatrix) {
    let mut entries = Vec::new();
    for (i, &g) in grounds.iter().enumerate() {
        entries.push((i, i, g));
    }
    for &(a, b, g) in edges {
        entries.extend(conductance(Some(a), Some(b), g));
    }
    // Source k drives node k (distinct nodes keep the system regular).
    for k in 0..n_vsrc {
        entries.push((n_nodes + k, k, 1.0));
        entries.push((k, n_nodes + k, 1.0));
    }
    stamp_both(n_nodes + n_vsrc, &entries)
}

/// The MNA system of an `AnalogMac` column at one switch configuration:
/// a source-held supply charging the GD ramp (`C_gd` companion, discharge
/// switch), the `C_cog` node (companion, reset switch), and per input a
/// source-held sample-and-hold node, a compute switch and the cell.
/// Unknowns: `vdd`, `ramp`, `cog`, `held_i`/`wl_i` per input, then one
/// branch per source (`4 + 3m`). The right-hand side is a step's: history
/// currents on the capacitor nodes, held levels on the source rows.
fn analog_mac_shaped(
    cells: &[f64],
    caps: (f64, f64),
    r_gd: f64,
    closed: &[bool],
    levels: &[f64],
) -> (Matrix, CsrMatrix, Vec<f64>) {
    let m = cells.len();
    let n_nodes = 3 + 2 * m;
    let (vdd, ramp, cog) = (0, 1, 2);
    // The netlist's switches: r_on = 10 Ω, r_off = 1e15 Ω.
    let switch = |on: bool| if on { 1.0 / 10.0 } else { 1.0 / 1e15 };
    let mut entries = Vec::new();
    entries.extend(conductance(Some(vdd), Some(ramp), 1.0 / r_gd));
    entries.extend(conductance(Some(ramp), None, caps.0));
    entries.extend(conductance(Some(ramp), None, switch(closed[0])));
    entries.extend(conductance(Some(cog), None, caps.1));
    entries.extend(conductance(Some(cog), None, switch(closed[1])));
    for (i, &g) in cells.iter().enumerate() {
        let (held, wl) = (3 + 2 * i, 4 + 2 * i);
        entries.extend(conductance(Some(held), Some(wl), switch(closed[2 + i])));
        entries.extend(conductance(Some(wl), Some(cog), g));
    }
    // Source rows: the supply drives `vdd`, source `1 + i` drives `held_i`.
    let driven = std::iter::once(vdd).chain((0..m).map(|i| 3 + 2 * i));
    for (k, node) in driven.enumerate() {
        entries.push((n_nodes + k, node, 1.0));
        entries.push((node, n_nodes + k, 1.0));
    }
    let n = n_nodes + 1 + m;
    let (dense, sparse) = stamp_both(n, &entries);
    let mut rhs = vec![0.0; n];
    rhs[ramp] = caps.0 * levels[0];
    rhs[cog] = caps.1 * levels[1];
    rhs[n_nodes] = 1.0;
    rhs[n_nodes + 1..].copy_from_slice(&levels[2..2 + m]);
    (dense, sparse, rhs)
}

/// Sparse and dense solutions (plain and transposed) of the same system
/// agree within `1e-8` relative (absolute below 1).
fn assert_lu_agree(dense: &Matrix, sparse: &CsrMatrix, rhs: &[f64]) -> Result<(), String> {
    let order = resipe_analog::sparse::min_degree_order(sparse.pattern());
    let lu = SparseLu::factor(sparse, &order).expect("regular MNA system");
    let dense_lu = LuFactors::factor(dense).expect("regular MNA system");
    let pairs = [
        (lu.solve(rhs), dense_lu.solve(rhs)),
        (lu.solve_transposed(rhs), dense_lu.solve_transposed(rhs)),
    ];
    let within = |s: f64, d: f64| (s - d).abs() < 1e-8 * d.abs().max(1.0);
    for (xs, xd) in pairs {
        if let Some((s, d)) = xs.iter().zip(&xd).find(|&(&s, &d)| !within(s, d)) {
            return Err(format!("{s} vs {d}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LU solve inverts the matrix product for diagonally-dominant
    /// (guaranteed non-singular) random systems.
    #[test]
    fn lu_solve_round_trip(
        vals in proptest::collection::vec(-1.0..1.0f64, 9),
        rhs in proptest::collection::vec(-10.0..10.0f64, 3),
    ) {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = vals[i * 3 + j];
            }
            // Make strictly diagonally dominant.
            a[(i, i)] += 4.0;
        }
        let x = a.solve(&rhs).expect("dominant matrices are non-singular");
        let back = a.mul_vec(&x);
        for (b, r) in back.iter().zip(&rhs) {
            prop_assert!((b - r).abs() < 1e-9, "{b} vs {r}");
        }
    }

    /// RC charging stays within [0, V] and is monotone for any R, C in a
    /// physical range.
    #[test]
    fn rc_charge_bounded_and_monotone(
        r_kohm in 1.0..500.0f64,
        c_ff in 10.0..1000.0f64,
    ) {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let cap = net.node("cap");
        net.voltage_source(Node::GROUND, vdd, Volts(1.0));
        net.resistor(vdd, cap, Ohms(r_kohm * 1e3));
        net.capacitor(cap, Node::GROUND, Farads(c_ff * 1e-15));
        let tau = r_kohm * 1e3 * c_ff * 1e-15;
        let cfg = TransientConfig::new(Seconds(3.0 * tau)).with_step(Seconds(tau / 200.0));
        let res = Transient::new(&net, cfg).expect("valid").run().expect("converges");
        // Small circuits ride the same sparse path as whole tiles: one
        // symbolic analysis, then refactors only.
        prop_assert_eq!(res.solver_stats().symbolic_analyses, 1);
        let wf = res.waveform(cap).expect("captured");
        let mut prev = -1e-9;
        for &v in wf.values() {
            prop_assert!((-1e-9..=1.0 + 1e-6).contains(&v), "out of range {v}");
            prop_assert!(v >= prev - 1e-9, "non-monotone");
            prev = v;
        }
    }

    /// Whole-tile charge conservation on the sparse path: with no
    /// resistive path to ground, every coulomb the source delivers lands
    /// on a bitline capacitor — backward Euler satisfies this *exactly*
    /// (per-step KCL), so the only slack is LU roundoff.
    #[test]
    fn whole_tile_charge_conservation_sparse(
        m in 16usize..28,
        k in 16usize..28,
        r_kohm in 1.0..50.0f64,
        c_ff in 50.0..500.0f64,
    ) {
        let mut net = Netlist::new();
        let src = net.node("src");
        net.voltage_source(Node::GROUND, src, Volts(1.0));
        let c = Farads(c_ff * 1e-15);
        let bls: Vec<Node> = (0..k)
            .map(|j| {
                let bl = net.node(&format!("bl{j}"));
                net.capacitor(bl, Node::GROUND, c);
                bl
            })
            .collect();
        for i in 0..m {
            let wl = net.node(&format!("wl{i}"));
            net.resistor(src, wl, Ohms(r_kohm * 1e3));
            for (j, &bl) in bls.iter().enumerate() {
                // Deterministically de-uniformed mesh resistances.
                let spread = 1.0 + 0.5 * ((i * 31 + j * 17) % 10) as f64 / 10.0;
                net.resistor(wl, bl, Ohms(r_kohm * 1e3 * spread));
            }
        }
        let cfg = TransientConfig::new(Seconds(200e-9)).with_step(Seconds(1e-9));
        let res = Transient::new(&net, cfg).expect("valid").run().expect("converges");
        let s = res.solver_stats();
        prop_assert_eq!(s.symbolic_analyses, 1);
        prop_assert_eq!(s.reused_factor_solves, s.solves - 1);

        // Q_source = E / V_s (constant 1 V source); Q_caps = Σ C·v_final.
        let q_source = res.total_source_energy().0 / 1.0;
        let q_caps: f64 = bls
            .iter()
            .map(|&bl| c.0 * res.final_voltage(bl).expect("bl exists").0)
            .sum();
        prop_assert!(q_caps > 0.0, "caps actually charged");
        let rel = (q_source - q_caps).abs() / q_caps;
        prop_assert!(rel < 1e-9, "charge leak: {q_source} vs {q_caps} (rel {rel})");
    }

    /// Sparse LU ≡ dense LU on random well-conditioned MNA-shaped systems
    /// and on `AnalogMac`-shaped systems (source-held nodes, switches at
    /// 10 Ω / 1e15 Ω contrast — the small systems every transient now
    /// solves sparsely): same solution, same transposed solution, through
    /// an independent fill-reducing order and pivot sequence.
    #[test]
    fn sparse_lu_matches_dense_on_mna_systems(
        n_nodes in 3usize..10,
        n_vsrc in 0usize..3,
        n_edges in 2usize..20,
        edge_a in proptest::collection::vec(0usize..10, 20),
        edge_b in proptest::collection::vec(0usize..10, 20),
        edge_g in proptest::collection::vec(0.1..10.0f64, 20),
        grounds in proptest::collection::vec(0.1..5.0f64, 10),
        rhs_seed in proptest::collection::vec(-10.0..10.0f64, 13),
        mac_inputs in 1usize..17,
        mac_cells in proptest::collection::vec(5e-6..150e-6f64, 16),
        mac_caps in (1e-3..1e-2f64, 1e-3..1e-2f64),
        mac_r_gd in 1e3..1e5f64,
        mac_closed in proptest::collection::vec(any::<bool>(), 18),
        mac_levels in proptest::collection::vec(0.0..1.0f64, 18),
    ) {
        let n_vsrc = n_vsrc.min(n_nodes);
        let edges: Vec<(usize, usize, f64)> = (0..n_edges)
            .map(|e| (edge_a[e] % n_nodes, edge_b[e] % n_nodes, edge_g[e]))
            .filter(|&(a, b, _)| a != b)
            .collect();
        let (dense, sparse) =
            mna_shaped(n_nodes, &edges, &grounds[..n_nodes], n_vsrc);
        let n = n_nodes + n_vsrc;
        let agree = assert_lu_agree(&dense, &sparse, &rhs_seed[..n]);
        prop_assert!(agree.is_ok(), "generic MNA system: {agree:?}");

        let (dense, sparse, rhs) = analog_mac_shaped(
            &mac_cells[..mac_inputs],
            mac_caps,
            mac_r_gd,
            &mac_closed,
            &mac_levels,
        );
        let agree = assert_lu_agree(&dense, &sparse, &rhs);
        prop_assert!(agree.is_ok(), "AnalogMac system, {mac_inputs} inputs: {agree:?}");
    }

    /// Singular-matrix error parity: a structurally floating node makes the
    /// dense solver return `None` and the sparse factorization report
    /// `Singular` — never a wrong answer from either.
    #[test]
    fn sparse_lu_singular_parity(
        n_nodes in 3usize..8,
        floater in 0usize..8,
        grounds in proptest::collection::vec(0.1..5.0f64, 8),
    ) {
        let floater = floater % n_nodes;
        // Ring-connect every node except the floater; give the others
        // ground conductances.
        let mut edges = Vec::new();
        let ring: Vec<usize> = (0..n_nodes).filter(|&i| i != floater).collect();
        for w in ring.windows(2) {
            edges.push((w[0], w[1], 1.0));
        }
        let grounds: Vec<f64> = (0..n_nodes)
            .map(|i| if i == floater { 0.0 } else { grounds[i] })
            .collect();
        let (dense, sparse) = mna_shaped(n_nodes, &edges, &grounds, 0);
        prop_assert!(dense.solve(&vec![1.0; n_nodes]).is_none());
        let order = resipe_analog::sparse::min_degree_order(sparse.pattern());
        prop_assert!(matches!(
            SparseLu::factor(&sparse, &order),
            Err(SparseLuError::Singular { .. })
        ));
    }

    /// Waveform interpolation stays within the convex hull of its
    /// neighbours.
    #[test]
    fn interpolation_within_bounds(
        values in proptest::collection::vec(-5.0..5.0f64, 2..20),
        frac in 0.0..1.0f64,
    ) {
        let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let wf = Waveform::from_samples(times, values.clone());
        let t = frac * (values.len() - 1) as f64;
        let v = wf.sample(Seconds(t)).expect("non-empty").0;
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// A detected rising crossing really brackets the threshold.
    #[test]
    fn crossing_brackets_threshold(
        values in proptest::collection::vec(0.0..1.0f64, 3..30),
        th in 0.05..0.95f64,
    ) {
        let times: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let wf = Waveform::from_samples(times, values.clone());
        if let Some(t) = wf.crossing(Volts(th), Edge::Rising, Seconds(0.0)) {
            let before = wf.sample(Seconds((t.0 - 0.5).max(0.0))).expect("in range").0;
            let after = wf
                .sample(Seconds((t.0 + 0.5).min((values.len() - 1) as f64)))
                .expect("in range")
                .0;
            // Just before the interpolated crossing the signal is below
            // (or equal within the sample resolution), just after at or
            // above — allowing for equality at sample points.
            prop_assert!(before <= th + 1e-9 || after >= th - 1e-9);
        }
    }
}
