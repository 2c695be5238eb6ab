//! Property suites over the cost model (deterministic vendored proptest):
//!
//! * **Monotonicity** — for every op class, the estimated cost never
//!   decreases when a load parameter grows (test→paper scale, wider
//!   sweeps, longer sources), at the *committed*
//!   coefficients and at arbitrary valid coefficient tables alike. A
//!   bigger request estimating cheaper than a smaller one would invert
//!   admission control's whole premise.
//! * **Estimate/charge agreement** — the `estimate` reply and the
//!   admission controller's internal charge come from the same
//!   [`CostModel::charge`]; these properties pin that the public
//!   per-class formulas and `charge` can never drift apart for any
//!   request shape.

use mve_kernels::Scale;
use mve_serve::cost::{CostModel, OpClass};
use mve_serve::protocol::{Request, SimSpec, MAX_ARRAYS, MAX_COMPILE_SOURCE_BYTES};
use proptest::prelude::*;

/// A valid coefficient table derived from a seed: finite, non-negative,
/// `scale_paper_mult ≥ 1` — exactly the class `CostModel::from_json`
/// admits. Spans several orders of magnitude so degenerate corners
/// (zero slopes, huge multipliers) are exercised.
fn arb_model(seed: u64) -> CostModel {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Map a word onto [0, 10^(k-4)) with a 1-in-8 chance of exactly zero.
    let mut coeff = |k: u32| {
        let word = next();
        if word % 8 == 0 {
            0.0
        } else {
            (word % 1_000_000) as f64 / 10f64.powi(4 - k as i32) / 1_000_000.0
        }
    };
    CostModel {
        artefact_test_us: coeff(6),
        scale_paper_mult: 1.0 + coeff(3),
        sim_exec_test_us: coeff(6),
        sweep_per_config_us: coeff(5),
        compile_base_us: coeff(4),
        compile_per_byte_us: coeff(1),
    }
}

fn models(seed: u64) -> [CostModel; 2] {
    [CostModel::committed().clone(), arb_model(seed)]
}

proptest! {
    /// Artefact cost is monotone in scale, for the committed table and
    /// arbitrary valid tables.
    #[test]
    fn artefact_cost_is_monotone_in_scale(seed in 0u64..u64::MAX) {
        for m in models(seed) {
            prop_assert!(m.artefact_cost(Scale::Paper) >= m.artefact_cost(Scale::Test));
        }
    }

    /// Sim/sweep cost is monotone in scale and sweep width.
    #[test]
    fn sweep_cost_is_monotone_in_every_load_parameter(
        seed in 0u64..u64::MAX,
        width_lo in 1usize..=512,
        width_hi in 1usize..=512,
    ) {
        let (w_lo, w_hi) = (width_lo.min(width_hi), width_lo.max(width_hi));
        for m in models(seed) {
            prop_assert!(m.sim_cost(Scale::Paper) >= m.sim_cost(Scale::Test));
            prop_assert!(
                m.sweep_cost(Scale::Test, w_hi) >= m.sweep_cost(Scale::Test, w_lo),
                "width {w_lo}->{w_hi} must not cheapen the sweep"
            );
            // A sim request is exactly the width-1 sweep.
            prop_assert_eq!(m.sim_cost(Scale::Test), m.sweep_cost(Scale::Test, 1));
        }
    }

    /// Compile cost is monotone in source length.
    #[test]
    fn compile_cost_is_monotone_in_source_length(
        seed in 0u64..u64::MAX,
        len_lo in 0usize..=MAX_COMPILE_SOURCE_BYTES,
        len_hi in 0usize..=MAX_COMPILE_SOURCE_BYTES,
    ) {
        let (lo, hi) = (len_lo.min(len_hi), len_lo.max(len_hi));
        for m in models(seed) {
            prop_assert!(m.compile_cost(hi) >= m.compile_cost(lo));
        }
    }

    /// `charge` — the number the admission controller levies and the
    /// `estimate` op replies with — agrees with the public per-class
    /// formulas for every request shape, and every charge is ≥ 1 (a
    /// zero-cost request would be invisible to the budget).
    #[test]
    fn charge_agrees_with_the_public_formulas(
        seed in 0u64..u64::MAX,
        paper in any::<bool>(),
        arrays_raw in 0usize..=MAX_ARRAYS,
        source_len in 0usize..=4096,
    ) {
        let scale = if paper { Scale::Paper } else { Scale::Test };
        // 0 stands in for "no override" (the protocol default).
        let arrays = (arrays_raw > 0).then_some(arrays_raw);
        let spec = SimSpec { arrays, ..SimSpec::default() };
        let artefact = Request::Artefact { name: "fig10".to_owned(), scale };
        let sim = Request::Sim { kernel: "gemm".to_owned(), scale, spec: spec.clone() };
        let compile = Request::Compile { source: "k".repeat(source_len), spec };
        for m in models(seed) {
            let est = m.charge(&artefact).expect("artefact is chargeable");
            prop_assert_eq!(est.class, OpClass::Artefact);
            prop_assert_eq!(est.cost, m.artefact_cost(scale));
            let est = m.charge(&sim).expect("sim is chargeable");
            prop_assert_eq!(est.class, OpClass::Sim);
            // An `arrays` override is priced as the default geometry.
            prop_assert_eq!(est.cost, m.sim_cost(scale));
            let est = m.charge(&compile).expect("compile is chargeable");
            prop_assert_eq!(est.class, OpClass::Compile);
            prop_assert_eq!(est.cost, m.compile_cost(source_len));
            for req in [&artefact, &sim, &compile] {
                let est = m.charge(req).expect("chargeable");
                prop_assert!(est.cost >= 1, "charges are never invisible: {est:?}");
                // The estimate op wraps the same request; pricing the
                // wrapper is a category error and must yield no charge.
                prop_assert!(m.charge(&Request::Estimate(Box::new(req.clone()))).is_none());
            }
        }
    }

    /// Coefficient tables survive the serialize/parse round trip with
    /// at most the documented 3-decimal rounding, so `calibrate --write`
    /// followed by a drift check compares like with like.
    #[test]
    fn tables_round_trip_within_rounding(seed in 0u64..u64::MAX) {
        let model = arb_model(seed);
        let parsed = CostModel::from_json(&model.to_json())
            .unwrap_or_else(|e| panic!("round trip failed: {e}"));
        for (a, b) in [
            (model.artefact_test_us, parsed.artefact_test_us),
            (model.scale_paper_mult, parsed.scale_paper_mult),
            (model.sim_exec_test_us, parsed.sim_exec_test_us),
            (model.sweep_per_config_us, parsed.sweep_per_config_us),
            (model.compile_base_us, parsed.compile_base_us),
            (model.compile_per_byte_us, parsed.compile_per_byte_us),
        ] {
            prop_assert!((a - b).abs() <= 0.0005 + 1e-9, "{a} vs {b}");
        }
    }
}
