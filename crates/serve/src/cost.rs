//! The calibrated per-op-class cost model behind admission control.
//!
//! A daemon facing heavy traffic must predict what a request costs
//! *before* running it (the Swan benchmark study shows per-op-class cost
//! characterization is stable across kernels). This static table is the
//! daemon's one cost signal: closed-form cost formulas per operation
//! class, fitted by the `calibrate` binary's own timing probes:
//!
//! * **artefact** — one registry render at a scale,
//! * **sim** — one functional kernel execution plus one timing walk
//!   (generalizing to a *sweep-of-N*: one execution, N walks — the shape
//!   `mve_core::sim::simulate_sweep` runs, which calibrate's drift rows
//!   check),
//! * **compile** — the DSL front-end over the source text plus the
//!   compiled kernel's execution and timing walk,
//! * **profile** — a compile plus one extra timing walk (the per-line
//!   attribution pass).
//!
//! The unit is **microseconds of worker compute on the calibration
//! host** — relative magnitudes are what admission control needs; no
//! wall-clock promise is made on other hosts. Coefficients live in the
//! committed [`COST_MODEL.json`](../COST_MODEL.json) table, regenerated
//! by the `calibrate` binary in `mve-bench` and drift-checked in CI
//! (`calibrate --check` recalibrates fast-mode and fails if any
//! coefficient deviates by more than 2x).
//!
//! Every formula is monotone in its load parameters (scale, sweep
//! width, source length) — the property suite in
//! `tests/cost_props.rs` pins this, so a bigger request can never
//! estimate cheaper than a smaller one.

use crate::json::Json;
use crate::protocol::Request;
use mve_kernels::Scale;

/// The committed coefficient table (regenerated by `calibrate --write`).
pub const COST_MODEL_JSON: &str = include_str!("../COST_MODEL.json");

/// Schema tag the committed table must carry.
pub const COST_MODEL_SCHEMA: &str = "mve-cost-model-v1";

/// The operation class a chargeable request falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Registry artefact render.
    Artefact,
    /// Kernel execution + timing walk(s).
    Sim,
    /// DSL compile + execution + timing walk.
    Compile,
    /// DSL compile + marked execution + timing walk + per-line
    /// attribution pass.
    Profile,
}

impl OpClass {
    /// Wire name of the class.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Artefact => "artefact",
            OpClass::Sim => "sim",
            OpClass::Compile => "compile",
            OpClass::Profile => "profile",
        }
    }
}

/// One predicted cost: the class and the charge in cost units
/// (microseconds of calibrated worker compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// The operation class.
    pub class: OpClass,
    /// Predicted cost in units (≥ 1).
    pub cost: u64,
}

/// The calibrated coefficients. All values are finite and non-negative;
/// `scale_paper_mult` is ≥ 1 (paper scale can never be cheaper than test
/// scale) — [`CostModel::from_json`] rejects tables violating either.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One artefact render at test scale, µs.
    pub artefact_test_us: f64,
    /// Multiplier from test to paper scale (≥ 1).
    pub scale_paper_mult: f64,
    /// One functional kernel execution at test scale, µs.
    pub sim_exec_test_us: f64,
    /// One timing walk of a trace for one configuration at the default
    /// 32-array geometry, µs. An `arrays` override is charged the same:
    /// no calibration run measured a walk at 64 arrays slower than one
    /// at 8.
    pub sweep_per_config_us: f64,
    /// DSL front-end fixed cost (lex/parse/lower/schedule/allocate), µs.
    pub compile_base_us: f64,
    /// DSL front-end marginal cost per source byte, µs.
    pub compile_per_byte_us: f64,
}

impl CostModel {
    /// The committed model, parsed from [`COST_MODEL_JSON`].
    ///
    /// # Panics
    ///
    /// Panics if the committed table is malformed — a build-time artefact
    /// error, caught by any test touching the model.
    pub fn committed() -> &'static CostModel {
        static MODEL: std::sync::OnceLock<CostModel> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            CostModel::from_json(COST_MODEL_JSON).expect("committed COST_MODEL.json is valid")
        })
    }

    /// Parses a coefficient table from its JSON document.
    pub fn from_json(text: &str) -> Result<CostModel, String> {
        let doc = Json::parse(text).map_err(|e| format!("cost model: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(COST_MODEL_SCHEMA) => {}
            other => {
                return Err(format!(
                    "cost model schema must be {COST_MODEL_SCHEMA:?}, got {other:?}"
                ))
            }
        }
        let coeffs = doc
            .get("coefficients")
            .ok_or("cost model lacks `coefficients`")?;
        let field = |key: &str| -> Result<f64, String> {
            let v = coeffs
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cost model lacks numeric coefficient `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("coefficient `{key}` must be finite and ≥ 0: {v}"));
            }
            Ok(v)
        };
        let model = CostModel {
            artefact_test_us: field("artefact_test_us")?,
            scale_paper_mult: field("scale_paper_mult")?,
            sim_exec_test_us: field("sim_exec_test_us")?,
            sweep_per_config_us: field("sweep_per_config_us")?,
            compile_base_us: field("compile_base_us")?,
            compile_per_byte_us: field("compile_per_byte_us")?,
        };
        if model.scale_paper_mult < 1.0 {
            return Err(format!(
                "scale_paper_mult must be ≥ 1 (paper can never be cheaper than test): {}",
                model.scale_paper_mult
            ));
        }
        Ok(model)
    }

    /// Serializes the coefficients as the committed-table document
    /// (the `calibrate` binary's output format).
    pub fn to_json(&self) -> String {
        let coeff = |v: f64| Json::F64((v * 1000.0).round() / 1000.0);
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(COST_MODEL_SCHEMA.into())),
            (
                "unit".to_owned(),
                Json::Str("microseconds of worker compute on the calibration host".into()),
            ),
            (
                "coefficients".to_owned(),
                Json::Obj(vec![
                    ("artefact_test_us".to_owned(), coeff(self.artefact_test_us)),
                    ("scale_paper_mult".to_owned(), coeff(self.scale_paper_mult)),
                    ("sim_exec_test_us".to_owned(), coeff(self.sim_exec_test_us)),
                    (
                        "sweep_per_config_us".to_owned(),
                        coeff(self.sweep_per_config_us),
                    ),
                    ("compile_base_us".to_owned(), coeff(self.compile_base_us)),
                    (
                        "compile_per_byte_us".to_owned(),
                        coeff(self.compile_per_byte_us),
                    ),
                ]),
            ),
        ])
        .encode()
    }

    fn scale_mult(&self, scale: Scale) -> f64 {
        match scale {
            Scale::Test => 1.0,
            Scale::Paper => self.scale_paper_mult,
        }
    }

    /// Cost of one artefact render.
    pub fn artefact_cost(&self, scale: Scale) -> u64 {
        to_units(self.artefact_test_us * self.scale_mult(scale))
    }

    /// Cost of a sweep-of-`width`: one functional kernel execution plus
    /// `width` timing walks. A plain `sim` request is the `width == 1`
    /// case; calibrate's `sweep@…` drift row checks the general one.
    pub fn sweep_cost(&self, scale: Scale, width: usize) -> u64 {
        let exec = self.sim_exec_test_us * self.scale_mult(scale);
        to_units(exec + width as f64 * self.sweep_per_config_us)
    }

    /// Cost of one `sim` request (a sweep of width 1).
    pub fn sim_cost(&self, scale: Scale) -> u64 {
        self.sweep_cost(scale, 1)
    }

    /// Cost of one `compile` request: the front-end over `source_len`
    /// bytes plus the compiled kernel's execution and timing walk at the
    /// default geometry (DSL kernels always run there).
    pub fn compile_cost(&self, source_len: usize) -> u64 {
        let front_end = self.compile_base_us + self.compile_per_byte_us * source_len as f64;
        let execute = self.sim_exec_test_us + self.sweep_per_config_us;
        to_units(front_end + execute)
    }

    /// Cost of one `profile` request: a compile plus one extra timing
    /// walk — the per-line attribution pass re-walks the trace sampling
    /// the completion frontier at every marker. Strictly above
    /// [`CostModel::compile_cost`] for the same source, preserving
    /// monotonicity (a profile does everything a compile does and more).
    pub fn profile_cost(&self, source_len: usize) -> u64 {
        let front_end = self.compile_base_us + self.compile_per_byte_us * source_len as f64;
        let execute = self.sim_exec_test_us + 2.0 * self.sweep_per_config_us;
        to_units(front_end + execute)
    }

    /// The charge admission control levies for `req` — the same number
    /// the `estimate` op replies with, by construction (both call this).
    /// `None` for control-plane ops (stats/shutdown/estimate), which are
    /// never charged.
    pub fn charge(&self, req: &Request) -> Option<Estimate> {
        match req {
            Request::Artefact { scale, .. } => Some(Estimate {
                class: OpClass::Artefact,
                cost: self.artefact_cost(*scale),
            }),
            Request::Sim { scale, .. } => Some(Estimate {
                class: OpClass::Sim,
                cost: self.sim_cost(*scale),
            }),
            Request::Compile { source, .. } => Some(Estimate {
                class: OpClass::Compile,
                cost: self.compile_cost(source.len()),
            }),
            Request::Profile { source, .. } => Some(Estimate {
                class: OpClass::Profile,
                cost: self.profile_cost(source.len()),
            }),
            Request::Estimate(_)
            | Request::Stats
            | Request::Metrics
            | Request::Trace
            | Request::Shutdown => None,
        }
    }
}

/// Rounds a µs figure up to whole cost units, never below 1 — a zero
/// charge would make a request invisible to the budget.
fn to_units(us: f64) -> u64 {
    if !us.is_finite() {
        return u64::MAX / 4;
    }
    (us.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SimSpec;

    #[test]
    fn committed_table_parses_and_round_trips() {
        let model = CostModel::committed();
        let again = CostModel::from_json(&model.to_json()).expect("round trip");
        assert_eq!(*model, again);
    }

    #[test]
    fn formulas_are_monotone_at_the_committed_coefficients() {
        let m = CostModel::committed();
        assert!(m.artefact_cost(Scale::Paper) >= m.artefact_cost(Scale::Test));
        assert!(m.sim_cost(Scale::Paper) >= m.sim_cost(Scale::Test));
        assert!(m.sweep_cost(Scale::Test, 4) >= m.sweep_cost(Scale::Test, 1));
        assert!(m.compile_cost(4096) >= m.compile_cost(16));
    }

    #[test]
    fn charge_covers_every_chargeable_op_and_skips_control_plane() {
        let m = CostModel::committed();
        let sim = Request::Sim {
            kernel: "csum".into(),
            scale: Scale::Test,
            spec: SimSpec::default(),
        };
        let est = m.charge(&sim).expect("sim is chargeable");
        assert_eq!(est.class, OpClass::Sim);
        assert_eq!(est.cost, m.sim_cost(Scale::Test));
        assert!(m.charge(&Request::Stats).is_none());
        assert!(m.charge(&Request::Shutdown).is_none());
        assert!(m.charge(&Request::Estimate(Box::new(sim))).is_none());
    }

    #[test]
    fn malformed_tables_are_rejected_with_specific_messages() {
        for (text, needle) in [
            ("{", "cost model"),
            (r#"{"schema":"other"}"#, "schema"),
            (r#"{"schema":"mve-cost-model-v1"}"#, "coefficients"),
            (
                r#"{"schema":"mve-cost-model-v1","coefficients":{"artefact_test_us":-1}}"#,
                "≥ 0",
            ),
        ] {
            let err = CostModel::from_json(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
        }
        // A sub-unity paper multiplier is physically impossible.
        let mut bad = CostModel::committed().clone();
        bad.scale_paper_mult = 0.5;
        let err = CostModel::from_json(&bad.to_json()).expect_err("mult < 1");
        assert!(err.contains("scale_paper_mult"), "{err}");
    }
}
