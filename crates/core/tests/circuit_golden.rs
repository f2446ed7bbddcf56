//! Bit-level pins of the analog transients.
//!
//! The sparse solver's structure (which positions the MNA pattern holds,
//! which column order a factorization uses, whether a run re-analyzes or
//! inherits a cached analysis) must never move an output bit. These tests
//! hold seeded `AnalogMvm` and `AnalogMac` runs to bits recorded from the
//! solver that kept a structural diagonal in every row and re-ordered on
//! every run, and check that a run reusing a `SolverSession` equals a
//! fresh-session run bit for bit.

use resipe::circuit::{AnalogMac, AnalogMacResult, AnalogMvm, AnalogMvmResult};
use resipe::config::ResipeConfig;
use resipe_analog::transient::SolverSession;
use resipe_analog::units::{Ohms, Seconds, Siemens};
use resipe_analog::waveform::Waveform;

const STEP: Seconds = Seconds(20e-12);
const ROWS: usize = 6;
const COLS: usize = 4;

/// `n` xorshift draws in `[lo, hi)`.
fn draws(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            lo + (hi - lo) * ((s >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

fn spike_times(seed: u64, n: usize) -> Vec<Seconds> {
    draws(seed, n, 2e-9, 78e-9)
        .into_iter()
        .map(Seconds)
        .collect()
}

fn tile() -> AnalogMvm {
    let g: Vec<Siemens> = draws(0x5eed, ROWS * COLS, 5e-6, 150e-6)
        .into_iter()
        .map(Siemens)
        .collect();
    AnalogMvm::new(ResipeConfig::paper(), &g, ROWS, COLS).unwrap()
}

fn mac() -> AnalogMac {
    let g: Vec<Siemens> = draws(0xac, 4, 5e-6, 150e-6)
        .into_iter()
        .map(Siemens)
        .collect();
    AnalogMac::new(ResipeConfig::paper(), &g).unwrap()
}

/// FNV-1a over every sample's time and value bits. An exact zero hashes
/// as `+0.0`: dropping a structural zero from the factor may flip the
/// sign of a zero, which no output can observe.
fn wave_hash<'a>(waves: impl IntoIterator<Item = &'a Waveform>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in waves {
        for &v in w.times().iter().chain(w.values()) {
            let bits = if v == 0.0 { 0 } else { v.to_bits() };
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// `(v_out bits, t_out bits)` per column, the energy bits and the hash of
/// every `C_cog` waveform.
fn mvm_bits(r: &AnalogMvmResult) -> (Vec<(u64, u64)>, u64, u64) {
    (
        r.columns
            .iter()
            .map(|c| (c.v_out.0.to_bits(), c.t_out.0.to_bits()))
            .collect(),
        r.source_energy.0.to_bits(),
        wave_hash(r.columns.iter().map(|c| &c.cog)),
    )
}

/// `v_out`, `t_out` and energy bits, and the hash of the `C_cog`, held
/// and ramp waveforms.
fn mac_bits(r: &AnalogMacResult) -> [u64; 4] {
    [
        r.v_out.0.to_bits(),
        r.t_out.0.to_bits(),
        r.source_energy.0.to_bits(),
        wave_hash(
            std::iter::once(&r.cog)
                .chain(&r.held)
                .chain(std::iter::once(&r.ramp)),
        ),
    ]
}

/// `(v_out bits, t_out bits)` of every column of the tile.
type ColumnBits = [(u64, u64); COLS];

#[test]
fn transients_keep_their_recorded_bits() {
    const MVM: [(ColumnBits, u64, u64); 2] = [
        (
            [
                (0x3fe95d600dd313d9, 0x3e50e8cfa281e004),
                (0x3fe771025042379e, 0x3e4c58e667fb3958),
                (0x3fe59e61983b44d4, 0x3e48326441566dc8),
                (0x3fe71badd4887a2f, 0x3e4b86a5e52edfa0),
            ],
            0x3d662289e1e062fe,
            0xbbc0c8746e7e3249,
        ),
        (
            [
                (0x3fe49d1d2bd5ec56, 0x3e4635e82fe55a40),
                (0x3fe4e9f858e3c327, 0x3e46c8f416c8d0a8),
                (0x3fe2ebb8fcc0aefb, 0x3e433b19b77f2a20),
                (0x3fe476ffc7789106, 0x3e45ee6ace6fe390),
            ],
            0x3d62f1e9b6e14307,
            0x89b0ffac814a3dc8,
        ),
    ];
    const WIRED_V_OUT: [u64; COLS] = [
        0x3fec1927ba341bec,
        0x3fe67da423857cbf,
        0x3fe77b0eaa2c1dea,
        0x3fe7fb4fc5891221,
    ];
    const WIRED: (u64, u64) = (0x3d6526919c963897, 0xa280b7392ad02245);
    const MAC: [u64; 4] = [
        0x3fe50b95002bfc9d,
        0x3e470a8471922d20,
        0x3d556dc68401687d,
        0x42d0e9b5320135e8,
    ];

    // Two runs through one session: the first analyzes, the second
    // inherits the analysis.
    let mvm = tile();
    let mut session = SolverSession::new();
    for (seed, (columns, energy, hash)) in [0x71, 0x72].into_iter().zip(MVM) {
        let r = mvm
            .run_with_session(&spike_times(seed, ROWS), STEP, &mut session)
            .unwrap();
        assert_eq!(
            mvm_bits(&r),
            (columns.to_vec(), energy, hash),
            "seed {seed:#x}"
        );
    }
    assert_eq!(session.stats().symbolic_reuses, 1);

    // A bitline wire ladder: the one crossbar topology whose factor fills.
    let r = tile()
        .with_wire_resistance(Ohms(40.0))
        .run(&spike_times(0x73, ROWS), STEP)
        .unwrap();
    let (columns, energy, hash) = mvm_bits(&r);
    let v_out: Vec<u64> = columns.iter().map(|&(v, _)| v).collect();
    assert_eq!(v_out, WIRED_V_OUT);
    assert_eq!((energy, hash), WIRED);

    let r = mac().run(&spike_times(0xad, 4), STEP).unwrap();
    assert_eq!(mac_bits(&r), MAC);
}

#[test]
fn session_reuse_matches_a_fresh_session_bit_for_bit() {
    let (first, second) = (spike_times(0x71, ROWS), spike_times(0x72, ROWS));
    let mvm = tile();
    let mut session = SolverSession::new();
    mvm.run_with_session(&first, STEP, &mut session).unwrap();
    let reused = mvm.run_with_session(&second, STEP, &mut session).unwrap();
    let fresh = mvm.run(&second, STEP).unwrap();
    assert_eq!(reused.solver_stats.symbolic_reuses, 1);
    assert_eq!(reused.solver_stats.orderings, 0);
    assert_eq!(fresh.solver_stats.orderings, 1);
    assert_eq!(mvm_bits(&reused), mvm_bits(&fresh));

    let (mac, mut session) = (mac(), SolverSession::new());
    mac.run_with_session(&spike_times(0xad, 4), STEP, &mut session)
        .unwrap();
    let t_in = spike_times(0xae, 4);
    let reused = mac.run_with_session(&t_in, STEP, &mut session).unwrap();
    let fresh = mac.run(&t_in, STEP).unwrap();
    let totals = session.stats();
    assert_eq!(totals.symbolic_reuses, 1, "{totals:?}");
    assert_eq!(totals.orderings, 1, "{totals:?}");
    assert_eq!(mac_bits(&reused), mac_bits(&fresh));
}
