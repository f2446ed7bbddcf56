//! `circuit_oracle`: single-thread transients of the analog netlist model
//! checked against the closed-form engine.
//!
//! Phase `a` runs a seeded grid of small `AnalogMac` columns (at most 52
//! MNA unknowns, so `SolverKind::Auto` picks dense LU); phase `b` runs
//! the 128×128 `AnalogMvm` tile (387 unknowns, sparse LU) through one
//! `SolverSession`. Each transient's outputs must agree with the engine
//! within the `engine_vs_circuit` tolerances: `|Δv_out| < 10 mV`, the
//! same saturation verdict, and `|Δt_out| / t_out < 5 %`.

use resipe::circuit::{AnalogMac, AnalogMacResult, AnalogMvm};
use resipe::config::ResipeConfig;
use resipe::engine::{MacResult, ResipeEngine};
use resipe_analog::transient::{SolverKind, SolverSession, SolverStats};
use resipe_analog::units::{Seconds, Siemens};

use crate::host::{process_cpu_ns, Mark};
use crate::report::Values;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{derive_seed, setup_repeated, Res, Run, RunOutput};

/// Transient step of the MAC grid (as in `engine_vs_circuit`).
const MAC_STEP: Seconds = Seconds(25e-12);
/// Transient step of the whole tile.
const TILE_STEP: Seconds = Seconds(50e-12);
/// Inputs per MAC column, two columns of each.
const MAC_SIZES: [usize; 4] = [2, 4, 8, 16];
/// Tile shape.
const TILE: usize = 128;
/// Distinct tile spike times: each dirties the netlist once in S1, so
/// the run refactors a handful of times instead of once per row.
const TILE_LEVELS_NS: [f64; 5] = [10.0, 20.0, 30.0, 40.0, 50.0];

/// Tolerances of the engine against the circuit.
const MAX_DV: f64 = 0.01;
const MAX_DT_REL: f64 = 0.05;

/// A uniform draw in `[lo, hi)` from the `k`-th derived seed.
fn uniform(seed: u64, k: u64, lo: f64, hi: f64) -> f64 {
    let u = (derive_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// Worst `|Δv|` and whether the circuit result is within tolerance.
fn compare(circuit: &AnalogMacResult, engine: &MacResult) -> (f64, bool) {
    let dv = (circuit.v_out.0 - engine.v_out.0).abs();
    let dt_ok = engine.saturated
        || (circuit.t_out.0 - engine.t_out.0).abs() / engine.t_out.0.max(1e-10) < MAX_DT_REL;
    (
        dv,
        dv < MAX_DV && circuit.saturated == engine.saturated && dt_ok,
    )
}

struct Mac {
    circuit: AnalogMac,
    t_in: Vec<Seconds>,
    engine: MacResult,
    unknowns: usize,
}

struct Tile {
    circuit: AnalogMvm,
    t_in: Vec<Seconds>,
    engine: Vec<MacResult>,
    session: SolverSession,
}

/// Seeded circuits and their engine references.
fn build(seed: u64) -> Res<(Vec<Mac>, Tile)> {
    let cfg = ResipeConfig::paper();
    let engine = ResipeEngine::new(cfg);
    let mut k = 0u64;
    let mut next = |lo: f64, hi: f64| {
        k += 1;
        uniform(seed, k, lo, hi)
    };
    let mut macs = Vec::new();
    for &m in MAC_SIZES.iter().chain(&MAC_SIZES) {
        let g: Vec<Siemens> = (0..m).map(|_| Siemens(next(5e-6, 150e-6))).collect();
        let t_in: Vec<Seconds> = (0..m).map(|_| Seconds(next(2e-9, 78e-9))).collect();
        macs.push(Mac {
            circuit: AnalogMac::new(cfg, &g)?,
            engine: engine.mac(&t_in, &g)?,
            t_in,
            // vdd, ramp, cog, a held and a wordline node per input, plus
            // the supply and one held source per input.
            unknowns: 4 + 3 * m,
        });
    }
    let g: Vec<f64> = (0..TILE * TILE).map(|_| next(5e-6, 150e-6)).collect();
    let t_in: Vec<Seconds> = (0..TILE)
        .map(|_| Seconds(TILE_LEVELS_NS[(next(0.0, 5.0) as usize).min(4)] * 1e-9))
        .collect();
    let g_siemens: Vec<Siemens> = g.iter().map(|&x| Siemens(x)).collect();
    let tile = Tile {
        circuit: AnalogMvm::new(cfg, &g_siemens, TILE, TILE)?,
        engine: engine.mvm_matrix(&g, TILE, TILE, &t_in)?,
        t_in,
        session: SolverSession::new(),
    };
    Ok((macs, tile))
}

/// Running totals of the checks.
#[derive(Default)]
struct Oracle {
    max_dv: f64,
    transients: u64,
    failed: u64,
}

impl Oracle {
    fn mac(&mut self, mac: &Mac, tracer: &Tracer) -> Res<usize> {
        let r = tracer.span("AnalogMac::run", None, None, || {
            mac.circuit.run(&mac.t_in, MAC_STEP)
        })?;
        let (dv, ok) = compare(&r, &mac.engine);
        self.book(dv, ok);
        Ok(r.ramp.len().saturating_sub(1))
    }

    fn tile(&mut self, tile: &mut Tile, tracer: &Tracer) -> Res<SolverStats> {
        let r = tracer.span("AnalogMvm::run_with_session", None, None, || {
            tile.circuit
                .run_with_session(&tile.t_in, TILE_STEP, &mut tile.session)
        })?;
        let mut worst = 0.0f64;
        let mut all_ok = r.columns.len() == tile.engine.len();
        for (c, e) in r.columns.iter().zip(&tile.engine) {
            let (dv, ok) = compare(c, e);
            worst = worst.max(dv);
            all_ok &= ok;
        }
        self.book(worst, all_ok);
        Ok(r.solver_stats)
    }

    fn book(&mut self, dv: f64, ok: bool) {
        self.max_dv = self.max_dv.max(dv);
        self.transients += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `circuit_oracle`.
pub fn run(cfg: &Run) -> Res<RunOutput> {
    let mut out = RunOutput::default();
    let tracer = if cfg.trace {
        Tracer::enabled()
    } else {
        Tracer::default()
    };
    let mut oracle = Oracle::default();

    // ---- Set-up: circuits, engine references, one warm transient each
    // (the tile's warm run performs the session's symbolic analysis).
    let mark = Mark::now();
    let repeats = if cfg.trace { 1 } else { crate::SETUP_REPEATS };
    let ((macs, mut tile), setup_s, setup_line) = setup_repeated(repeats, || {
        let (macs, mut tile) = build(cfg.seed)?;
        let mut warm = Oracle::default();
        warm.mac(&macs[0], &Tracer::default())?;
        warm.tile(&mut tile, &Tracer::default())?;
        Ok((macs, tile))
    })?;
    out.phases.push(mark.phase("setup"));
    out.values.set("setup_s", setup_s);
    out.lines.push(setup_line);

    let mac_round = |oracle: &mut Oracle, tracer: &Tracer| -> Res<(f64, usize)> {
        let c0 = process_cpu_ns();
        let mut steps = 0;
        for mac in &macs {
            steps += oracle.mac(mac, tracer)?;
        }
        Ok(((process_cpu_ns() - c0) as f64 * 1e-3 / steps as f64, steps))
    };

    if cfg.trace {
        let rounds = 3;
        let untraced = median(
            &(0..rounds)
                .map(|_| mac_round(&mut oracle, &Tracer::default()).map(|r| r.0))
                .collect::<Res<Vec<_>>>()?,
        );
        let mark = Mark::now();
        let (mut traced, mut mac_solves) = (Vec::new(), 0usize);
        let mut tile_stats = Vec::new();
        for _ in 0..rounds {
            let (us, steps) = mac_round(&mut oracle, &tracer)?;
            traced.push(us);
            mac_solves += steps;
            tile_stats.push(oracle.tile(&mut tile, &tracer)?);
        }
        // `SolverKind::Auto` solves a column densely below the threshold.
        let all_dense = macs
            .iter()
            .all(|m| m.unknowns < SolverKind::SPARSE_THRESHOLD);
        let dense_solves = if all_dense { mac_solves } else { 0 };
        let facts = mark.phase("traced");
        out.lines.push(facts.line());
        let mut v = Values::default();
        crate::host_values(&mut v, &facts);
        v.set("analog.mac.solves", mac_solves as f64);
        v.set("analog.mac.dense_solves", dense_solves as f64);
        let sum = |f: fn(&SolverStats) -> usize| tile_stats.iter().map(f).sum::<usize>() as f64;
        v.set(
            "analog.tile.symbolic_analyses",
            sum(|s| s.symbolic_analyses),
        );
        v.set(
            "analog.tile.numeric_refactors",
            sum(|s| s.numeric_refactors),
        );
        v.set(
            "analog.tile.reused_factor_solves",
            sum(|s| s.reused_factor_solves),
        );
        v.set(
            "analog.tile.nonzeros",
            tile_stats.last().map_or(0, |s| s.nonzeros) as f64,
        );
        v.set("trace.baseline_us", untraced);
        v.set("trace.overhead_us", median(&traced) - untraced);
        out.lines.push(format!(
            "report trace.overhead = {} us per MAC step ({} traced vs {untraced} untraced, process CPU)",
            median(&traced) - untraced,
            median(&traced)
        ));
        out.values = v;
        out.spans = tracer.to_json_lines();
    } else {
        let mark = Mark::now();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
        while std::time::Instant::now() < deadline || a.len() < crate::MIN_ROUNDS {
            a.push(mac_round(&mut oracle, &tracer)?.0);
            let c0 = process_cpu_ns();
            let stats = oracle.tile(&mut tile, &tracer)?;
            b.push((process_cpu_ns() - c0) as f64 * 1e-3 / stats.solves.max(1) as f64);
        }
        out.phases.push(mark.phase("measure"));
        for (tag, what, v) in [
            ("mac", "AnalogMac grid, dense LU", &a),
            ("tile", "128x128 AnalogMvm, sparse LU", &b),
        ] {
            let s = Summary::of(v);
            out.lines.push(format!(
                "report {tag}.cpu_us_per_step = {} us ({what}; process CPU per transient step per round; {})",
                s.median,
                s.describe("us")
            ));
        }
        out.values.set("a.cpu_us_per_op", median(&a));
        out.values.set("b.cpu_us_per_op", median(&b));
    }
    out.lines.push(format!(
        "report oracle_max_dv_mv = {} mV (worst |V_out engine - circuit| over {} transients; limit {} mV)",
        oracle.max_dv * 1e3,
        oracle.transients,
        MAX_DV * 1e3
    ));
    out.attempted += oracle.transients;
    out.failed += oracle.failed;
    Ok(out)
}
