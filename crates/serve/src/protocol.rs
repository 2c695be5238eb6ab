//! The JSON-lines wire protocol and the content-addressed key scheme.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! -> {"op":"artefact","name":"fig10","scale":"test"}
//! <- {"ok":true,"artefact":"fig10","bytes":"Figure 10 — ..."}
//! -> {"op":"sim","kernel":"gemm","scale":"test","scheme":"BP","arrays":16}
//! <- {"ok":true,"kernel":"gemm","report":{"total_cycles":...,...}}
//! -> {"op":"compile","source":"kernel k(...) { ... }","scheme":"BS"}
//! <- {"ok":true,"compile":true,"bytes":"mvel kernel `k` — ..."}
//! -> {"op":"estimate","request":{"op":"sim","kernel":"gemm","scale":"paper"}}
//! <- {"ok":true,"estimate":{"class":"sim","cost":61500,"admit_now":true}}
//! -> {"op":"stats"}
//! <- {"ok":true,"stats":{...}}
//! -> {"op":"shutdown"}
//! <- {"ok":true,"shutdown":true}
//! ```
//!
//! Errors are typed replies, never closed connections:
//! `{"ok":false,"error":"unknown kernel `gemmm`; valid kernels: ..."}` —
//! and compile diagnostics carry their source position as machine-readable
//! members: `{"ok":false,"error":"...","line":3,"col":9}`. A request shed
//! by admission control gets the typed overload reply
//! `{"ok":false,"error":"overloaded: ...","overloaded":true,"retry_after_ms":N}`
//! so clients can distinguish "back off and retry" from a real failure.
//!
//! Cache keys are FNV-1a digests over a request-kind tag, the artefact or
//! kernel id, the scale, and — for simulations — the configuration's
//! canonical encoding ([`SimConfig::canonical_bytes`]), so two requests
//! collide exactly when they denote the same computation. The `compile`
//! key alone uses truncated SHA-256: its input is arbitrary
//! client-controlled source text, where an FNV collision is craftable
//! (see [`crate::digest`]).

use crate::json::Json;
use mve_core::sim::{fnv1a_64, SimConfig, SimReport};
use mve_insram::Scheme;
use mve_kernels::Scale;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Render one named artefact (table/figure/ablation) at a scale.
    Artefact {
        /// Artefact name, e.g. `"fig10"`.
        name: String,
        /// Problem scale.
        scale: Scale,
    },
    /// Time one kernel under one configuration.
    Sim {
        /// Kernel registry name, e.g. `"gemm"`.
        kernel: String,
        /// Problem scale.
        scale: Scale,
        /// Configuration knobs.
        spec: SimSpec,
    },
    /// Compile and run a client-submitted `.mvel` kernel.
    Compile {
        /// The DSL source text.
        source: String,
        /// Timing-configuration knobs.
        spec: SimSpec,
    },
    /// Compile, run, and per-line-profile a client-submitted `.mvel`
    /// kernel: the reply carries the annotated-source text plus the
    /// per-line attribution array (events, scalar instrs, cycles, spill
    /// traffic per source line, conservation-checked server-side).
    Profile {
        /// The DSL source text.
        source: String,
        /// Timing-configuration knobs.
        spec: SimSpec,
    },
    /// Price a request against the cost model without executing it. The
    /// inner request is any chargeable op (artefact/sim/compile); nesting
    /// an `estimate` inside an `estimate` is a protocol error.
    Estimate(Box<Request>),
    /// Counter snapshot.
    Stats,
    /// Prometheus text exposition of the unified metrics registry.
    Metrics,
    /// Snapshot of the completed-request trace ring buffer.
    Trace,
    /// Graceful shutdown.
    Shutdown,
}

/// The configuration knobs a `sim` request can set; everything else is the
/// Table IV platform default. `to_config` applies them through the
/// `SimConfig` builder methods, so a request's cache key is guaranteed to
/// match the equivalent locally-built configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSpec {
    /// In-SRAM computing scheme (default bit-serial).
    pub scheme: Scheme,
    /// SRAM-array count override (default: Table IV's 32).
    pub arrays: Option<usize>,
    /// PUMICE-style per-CB dispatch (default off).
    pub ooo_dispatch: bool,
    /// Charge the compute-mode switch flush (default on).
    pub mode_switch: bool,
    /// Steady-state cache warming (default on).
    pub cache_warming: bool,
}

impl Default for SimSpec {
    fn default() -> Self {
        Self {
            scheme: Scheme::BitSerial,
            arrays: None,
            ooo_dispatch: false,
            mode_switch: true,
            cache_warming: true,
        }
    }
}

impl SimSpec {
    /// Materializes the configuration via the builder methods.
    pub fn to_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default().with_scheme(self.scheme);
        if let Some(arrays) = self.arrays {
            cfg = cfg.with_arrays(arrays);
        }
        if self.ooo_dispatch {
            cfg = cfg.with_ooo_dispatch();
        }
        if !self.mode_switch {
            cfg = cfg.without_mode_switch();
        }
        if !self.cache_warming {
            cfg = cfg.without_cache_warming();
        }
        cfg
    }

    /// The request-object members encoding this spec.
    fn json_members(&self) -> Vec<(String, Json)> {
        let mut m = vec![(
            "scheme".to_owned(),
            Json::Str(self.scheme.short_name().into()),
        )];
        if let Some(arrays) = self.arrays {
            m.push(("arrays".to_owned(), Json::U64(arrays as u64)));
        }
        m.push(("ooo_dispatch".to_owned(), Json::Bool(self.ooo_dispatch)));
        m.push(("mode_switch".to_owned(), Json::Bool(self.mode_switch)));
        m.push(("cache_warming".to_owned(), Json::Bool(self.cache_warming)));
        m
    }
}

/// Upper bound on the `compile` op's source text, so one huge request
/// line cannot balloon daemon memory (the lowering has its own op-count
/// bound for unrolled loops; this bounds the text itself).
pub const MAX_COMPILE_SOURCE_BYTES: usize = 1 << 20;

/// Upper bound on the `arrays` override a request may ask for. The
/// legitimate design space is the Figure 12(b) sweep (8–64); the bound is
/// generous beyond that but must exist: engine allocations scale with the
/// array count, so an unvalidated huge value would let one request abort
/// the whole daemon on allocation failure (an abort is not a panic — the
/// worker's `catch_unwind` cannot contain it).
pub const MAX_ARRAYS: usize = 256;

/// Wire name of a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

fn parse_scale(obj: &Json) -> Result<Scale, String> {
    match obj.get("scale") {
        None => Ok(Scale::Test),
        Some(v) => match v.as_str() {
            Some("test") => Ok(Scale::Test),
            Some("paper") => Ok(Scale::Paper),
            _ => Err("field `scale` must be \"test\" or \"paper\"".to_owned()),
        },
    }
}

fn parse_scheme(obj: &Json) -> Result<Scheme, String> {
    match obj.get("scheme") {
        None => Ok(Scheme::BitSerial),
        Some(v) => {
            let name = v.as_str().ok_or("field `scheme` must be a string")?;
            Scheme::ALL
                .iter()
                .copied()
                .find(|s| s.short_name() == name)
                .ok_or_else(|| {
                    let valid: Vec<&str> = Scheme::ALL.iter().map(Scheme::short_name).collect();
                    format!(
                        "unknown scheme `{name}`; valid schemes: {}",
                        valid.join(", ")
                    )
                })
        }
    }
}

fn parse_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

fn required_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("field `{key}` (string) is required"))
}

/// Decodes one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    parse_request_obj(&doc, true)
}

/// Decodes one request object. `allow_estimate` is cleared on the
/// recursive call for `estimate`'s inner request, bounding nesting to one
/// level.
fn parse_request_obj(doc: &Json, allow_estimate: bool) -> Result<Request, String> {
    let op = required_str(doc, "op")?;
    match op {
        "artefact" => Ok(Request::Artefact {
            name: required_str(doc, "name")?.to_owned(),
            scale: parse_scale(doc)?,
        }),
        "sim" => {
            let arrays = match doc.get("arrays") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .filter(|&n| (1..=MAX_ARRAYS).contains(&n))
                        .ok_or_else(|| {
                            format!("field `arrays` must be an integer in 1..={MAX_ARRAYS}")
                        })?,
                ),
            };
            Ok(Request::Sim {
                kernel: required_str(doc, "kernel")?.to_owned(),
                scale: parse_scale(doc)?,
                spec: SimSpec {
                    scheme: parse_scheme(doc)?,
                    arrays,
                    ooo_dispatch: parse_bool(doc, "ooo_dispatch", false)?,
                    mode_switch: parse_bool(doc, "mode_switch", true)?,
                    cache_warming: parse_bool(doc, "cache_warming", true)?,
                },
            })
        }
        "compile" | "profile" => {
            if doc.get("arrays").is_some() {
                return Err(format!(
                    "`arrays` is not supported for `{op}`: DSL kernels execute on the \
                     default 32-array geometry"
                ));
            }
            let source = required_str(doc, "source")?;
            if source.len() > MAX_COMPILE_SOURCE_BYTES {
                return Err(format!(
                    "`source` is {} bytes; the {op} op accepts at most {}",
                    source.len(),
                    MAX_COMPILE_SOURCE_BYTES
                ));
            }
            let source = source.to_owned();
            let spec = SimSpec {
                scheme: parse_scheme(doc)?,
                arrays: None,
                ooo_dispatch: parse_bool(doc, "ooo_dispatch", false)?,
                mode_switch: parse_bool(doc, "mode_switch", true)?,
                cache_warming: parse_bool(doc, "cache_warming", true)?,
            };
            Ok(if op == "compile" {
                Request::Compile { source, spec }
            } else {
                Request::Profile { source, spec }
            })
        }
        "estimate" => {
            if !allow_estimate {
                return Err("`estimate` cannot nest another `estimate`".to_owned());
            }
            let inner = doc
                .get("request")
                .ok_or("field `request` (object) is required for `estimate`")?;
            match parse_request_obj(inner, false)? {
                req @ (Request::Artefact { .. }
                | Request::Sim { .. }
                | Request::Compile { .. }
                | Request::Profile { .. }) => Ok(Request::Estimate(Box::new(req))),
                other => Err(format!(
                    "`estimate` prices chargeable ops (artefact, compile, profile, sim); `{}` \
                     is control-plane and costs nothing",
                    op_name(&other)
                )),
            }
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op `{other}`; valid ops: artefact, compile, estimate, metrics, profile, \
             sim, stats, trace, shutdown"
        )),
    }
}

/// Wire name of a request's op.
pub fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Artefact { .. } => "artefact",
        Request::Sim { .. } => "sim",
        Request::Compile { .. } => "compile",
        Request::Profile { .. } => "profile",
        Request::Estimate(_) => "estimate",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Trace => "trace",
        Request::Shutdown => "shutdown",
    }
}

/// Encodes a request line (client side; no trailing newline).
pub fn encode_request(req: &Request) -> String {
    request_to_json(req).encode()
}

/// Encodes a request as its wire object (the `estimate` op nests one).
pub fn request_to_json(req: &Request) -> Json {
    match req {
        Request::Artefact { name, scale } => Json::Obj(vec![
            ("op".to_owned(), Json::Str("artefact".into())),
            ("name".to_owned(), Json::Str(name.clone())),
            ("scale".to_owned(), Json::Str(scale_name(*scale).into())),
        ]),
        Request::Sim {
            kernel,
            scale,
            spec,
        } => {
            let mut members = vec![
                ("op".to_owned(), Json::Str("sim".into())),
                ("kernel".to_owned(), Json::Str(kernel.clone())),
                ("scale".to_owned(), Json::Str(scale_name(*scale).into())),
            ];
            members.extend(spec.json_members());
            Json::Obj(members)
        }
        Request::Compile { source, spec } | Request::Profile { source, spec } => {
            let mut members = vec![
                ("op".to_owned(), Json::Str(op_name(req).into())),
                ("source".to_owned(), Json::Str(source.clone())),
            ];
            members.extend(
                spec.json_members()
                    .into_iter()
                    .filter(|(k, _)| k != "arrays"),
            );
            Json::Obj(members)
        }
        Request::Estimate(inner) => Json::Obj(vec![
            ("op".to_owned(), Json::Str("estimate".into())),
            ("request".to_owned(), request_to_json(inner)),
        ]),
        Request::Stats => Json::Obj(vec![("op".to_owned(), Json::Str("stats".into()))]),
        Request::Metrics => Json::Obj(vec![("op".to_owned(), Json::Str("metrics".into()))]),
        Request::Trace => Json::Obj(vec![("op".to_owned(), Json::Str("trace".into()))]),
        Request::Shutdown => Json::Obj(vec![("op".to_owned(), Json::Str("shutdown".into()))]),
    }
}

/// Serializes a timing report as the `report` response member.
pub fn report_to_json(r: &SimReport) -> Json {
    Json::Obj(vec![
        ("total_cycles".to_owned(), Json::U64(r.total_cycles)),
        ("compute_cycles".to_owned(), Json::U64(r.compute_cycles)),
        ("data_cycles".to_owned(), Json::U64(r.data_cycles)),
        ("idle_cycles".to_owned(), Json::U64(r.idle_cycles)),
        ("cb_busy_cycles".to_owned(), Json::U64(r.cb_busy_cycles)),
        ("control_blocks".to_owned(), Json::U64(r.control_blocks)),
        ("vector_instrs".to_owned(), Json::U64(r.vector_instrs)),
        ("scalar_instrs".to_owned(), Json::U64(r.scalar_instrs)),
        ("utilization".to_owned(), Json::F64(r.utilization())),
    ])
}

/// `{"ok":true,"artefact":name,"bytes":text}`.
pub fn ok_artefact(name: &str, text: &str) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("artefact".to_owned(), Json::Str(name.to_owned())),
        ("bytes".to_owned(), Json::Str(text.to_owned())),
    ])
    .encode()
}

/// `{"ok":true,"kernel":name,"report":<fragment>}` — the fragment is the
/// cached, already-serialized report object, spliced verbatim.
pub fn ok_sim(kernel: &str, report_fragment: &str) -> String {
    let mut out = String::with_capacity(report_fragment.len() + kernel.len() + 32);
    out.push_str("{\"ok\":true,\"kernel\":");
    out.push_str(&Json::Str(kernel.to_owned()).encode());
    out.push_str(",\"report\":");
    out.push_str(report_fragment);
    out.push('}');
    out
}

/// `{"ok":true,"stats":<stats>}`.
pub fn ok_stats(stats: Json) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("stats".to_owned(), stats),
    ])
    .encode()
}

/// `{"ok":true,"shutdown":true}`.
pub fn ok_shutdown() -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("shutdown".to_owned(), Json::Bool(true)),
    ])
    .encode()
}

/// `{"ok":true,"compile":true,"bytes":text}` — the rendered compile
/// artefact (`mve_lang::compile_and_render` bytes, cached verbatim). A
/// cache-miss compile additionally carries `"phases"`: per-phase compiler
/// wall-clock in microseconds (`lex`/`parse`/`lower`/`schedule`/
/// `allocate`, pipeline order). The phases ride only in the reply
/// envelope — the cached `bytes` stay byte-identical to the goldens —
/// and a cache hit omits the member entirely (nothing was compiled).
pub fn ok_compile(text: &str, phases: Option<&mve_lang::CompilePhases>) -> String {
    let mut members = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("compile".to_owned(), Json::Bool(true)),
        ("bytes".to_owned(), Json::Str(text.to_owned())),
    ];
    if let Some(phases) = phases {
        members.push((
            "phases".to_owned(),
            Json::Obj(
                phases
                    .phases()
                    .iter()
                    .map(|(name, d)| {
                        (
                            format!("{name}_us"),
                            Json::F64(d.as_secs_f64() * 1_000_000.0),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(members).encode()
}

/// Serializes the cached payload of a `profile` reply: the annotated
/// source text plus the per-line attribution rows, as one JSON object
/// fragment. The fragment is what the single-flight cache stores, so a
/// hit splices the identical bytes a miss computed ([`ok_profile`]).
pub fn profile_payload(text: &str, report: &mve_lang::LineReport) -> String {
    let line_to_json = |l: &mve_lang::LineStat| {
        Json::Obj(vec![
            ("line".to_owned(), Json::U64(u64::from(l.line))),
            ("cycles".to_owned(), Json::U64(l.cycles)),
            ("events".to_owned(), Json::U64(l.events)),
            ("scalar_instrs".to_owned(), Json::U64(l.scalar_instrs)),
            ("active_lanes".to_owned(), Json::U64(l.active_lanes)),
            ("cache_lines".to_owned(), Json::U64(l.cache_lines)),
            ("spill_stores".to_owned(), Json::U64(l.spill_stores)),
            ("reloads".to_owned(), Json::U64(l.reloads)),
        ])
    };
    Json::Obj(vec![
        ("kernel".to_owned(), Json::Str(report.name.clone())),
        (
            "digest".to_owned(),
            Json::Str(format!("{:#018x}", report.source_digest)),
        ),
        ("total_cycles".to_owned(), Json::U64(report.total_cycles)),
        (
            "lines".to_owned(),
            Json::Arr(report.lines.iter().map(line_to_json).collect()),
        ),
        ("text".to_owned(), Json::Str(text.to_owned())),
    ])
    .encode()
}

/// `{"ok":true,"profile":<fragment>}` — the fragment is the cached,
/// already-serialized [`profile_payload`] object, spliced verbatim
/// (hit and miss replies are byte-identical).
pub fn ok_profile(payload_fragment: &str) -> String {
    let mut out = String::with_capacity(payload_fragment.len() + 24);
    out.push_str("{\"ok\":true,\"profile\":");
    out.push_str(payload_fragment);
    out.push('}');
    out
}

/// `{"ok":true,"estimate":{"class":C,"cost":N,"admit_now":B}}` — the
/// priced-but-not-executed reply to the `estimate` op. `cost` is in cost
/// units (calibrated microseconds of worker compute); `admit_now` reports
/// whether the admission controller would take a request of this cost
/// right now without queueing.
pub fn ok_estimate(class: &str, cost: u64, admit_now: bool) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        (
            "estimate".to_owned(),
            Json::Obj(vec![
                ("class".to_owned(), Json::Str(class.to_owned())),
                ("cost".to_owned(), Json::U64(cost)),
                ("admit_now".to_owned(), Json::Bool(admit_now)),
            ]),
        ),
    ])
    .encode()
}

/// `{"ok":true,"metrics":<exposition text>}` — the Prometheus text
/// exposition document rides inside the usual one-line JSON reply (the
/// transport stays JSON-lines; clients print the text verbatim).
pub fn ok_metrics(exposition: &str) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("metrics".to_owned(), Json::Str(exposition.to_owned())),
    ])
    .encode()
}

/// `{"ok":true,"traces":[...]}` — the completed-request trace ring.
pub fn ok_traces(traces: Json) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("traces".to_owned(), traces),
    ])
    .encode()
}

/// `{"ok":false,"error":...,"overloaded":true,"retry_after_ms":N}` — the
/// typed shed reply. The `overloaded` marker (not the prose) is the
/// machine-readable signal; `retry_after_ms` is the backoff hint the
/// client's retry loop honors.
pub fn overloaded_reply(reason: &str, retry_after_ms: u64) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        (
            "error".to_owned(),
            Json::Str(format!(
                "overloaded: {reason}; retry after {retry_after_ms} ms"
            )),
        ),
        ("overloaded".to_owned(), Json::Bool(true)),
        ("retry_after_ms".to_owned(), Json::U64(retry_after_ms)),
    ])
    .encode()
}

/// Decodes the overload members of a response document, if present:
/// `Some(retry_after_ms)` exactly when the reply is a typed shed.
pub fn parse_overloaded(doc: &Json) -> Option<u64> {
    if doc.get("overloaded").and_then(Json::as_bool) == Some(true) {
        Some(
            doc.get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(1),
        )
    } else {
        None
    }
}

/// `{"ok":false,"error":message}`.
pub fn error_reply(message: &str) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::Str(message.to_owned())),
    ])
    .encode()
}

/// `{"ok":false,"error":message,"line":N,"col":N}` — a *typed* source
/// diagnostic: clients get the position as machine-readable members, not
/// just prose (omitted when the failure has no source position).
pub fn error_reply_at(message: &str, line: u32, col: u32) -> String {
    if line == 0 {
        return error_reply(message);
    }
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::Str(message.to_owned())),
        ("line".to_owned(), Json::U64(u64::from(line))),
        ("col".to_owned(), Json::U64(u64::from(col))),
    ])
    .encode()
}

/// Decodes a response line: `Ok(doc)` on `"ok":true`, `Err(message)` on a
/// typed error reply (with any `line`/`col` diagnostic members rendered as
/// a `line:col:` prefix), `Err(..)` on malformed documents.
pub fn parse_response(line: &str) -> Result<Json, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(doc),
        Some(false) => {
            let msg = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error");
            let pos = doc
                .get("line")
                .and_then(Json::as_u64)
                .zip(doc.get("col").and_then(Json::as_u64));
            Err(match pos {
                Some((line, col)) => format!("{line}:{col}: {msg}"),
                None => msg.to_owned(),
            })
        }
        None => Err("response lacks an `ok` field".to_owned()),
    }
}

/// Content key of an artefact request.
pub fn artefact_key(name: &str, scale: Scale) -> u64 {
    let mut bytes = Vec::with_capacity(name.len() + 16);
    bytes.extend_from_slice(b"artefact\0");
    bytes.extend_from_slice(name.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(scale_name(scale).as_bytes());
    fnv1a_64(&bytes)
}

/// Content key of a compile request: truncated SHA-256 over the exact
/// source text plus the canonical configuration encoding — two requests
/// collide exactly when they ship the same program for the same timing
/// configuration. SHA-256 (not FNV like the server-vocabulary keys): the
/// source is arbitrary *client-controlled* bytes, and an FNV collision is
/// craftable, which would let one program silently serve another's cached
/// results (see `crate::digest`).
pub fn compile_key(source: &str, cfg: &SimConfig) -> u64 {
    let mut bytes = Vec::with_capacity(source.len() + 400);
    bytes.extend_from_slice(b"compile\0");
    bytes.extend_from_slice(source.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&cfg.canonical_bytes());
    crate::digest::sha256_trunc64(&bytes)
}

/// Content key of a profile request — [`compile_key`]'s construction
/// with a distinct domain prefix, so a `profile` and a `compile` of the
/// same source under the same configuration can never alias each
/// other's cached bytes.
pub fn profile_key(source: &str, cfg: &SimConfig) -> u64 {
    let mut bytes = Vec::with_capacity(source.len() + 400);
    bytes.extend_from_slice(b"profile\0");
    bytes.extend_from_slice(source.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&cfg.canonical_bytes());
    crate::digest::sha256_trunc64(&bytes)
}

/// Content key of a simulation request: kernel id + scale + the canonical
/// configuration encoding.
pub fn sim_key(kernel: &str, scale: Scale, cfg: &SimConfig) -> u64 {
    let mut bytes = Vec::with_capacity(kernel.len() + 400);
    bytes.extend_from_slice(b"sim\0");
    bytes.extend_from_slice(kernel.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(scale_name(scale).as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&cfg.canonical_bytes());
    fnv1a_64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_encode_and_parse() {
        let reqs = [
            Request::Artefact {
                name: "fig10".into(),
                scale: Scale::Test,
            },
            Request::Sim {
                kernel: "gemm".into(),
                scale: Scale::Paper,
                spec: SimSpec {
                    scheme: Scheme::BitParallel,
                    arrays: Some(16),
                    ooo_dispatch: true,
                    mode_switch: false,
                    cache_warming: true,
                },
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn sim_defaults_match_the_platform_default() {
        let req = parse_request(r#"{"op":"sim","kernel":"csum"}"#).unwrap();
        match req {
            Request::Sim {
                kernel,
                scale,
                spec,
            } => {
                assert_eq!(kernel, "csum");
                assert_eq!(scale, Scale::Test);
                assert_eq!(spec.to_config(), SimConfig::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spec_builds_through_the_builder_methods() {
        let spec = SimSpec {
            scheme: Scheme::BitHybrid,
            arrays: Some(64),
            ooo_dispatch: true,
            mode_switch: false,
            cache_warming: false,
        };
        let expect = SimConfig::default()
            .with_scheme(Scheme::BitHybrid)
            .with_arrays(64)
            .with_ooo_dispatch()
            .without_mode_switch()
            .without_cache_warming();
        assert_eq!(spec.to_config(), expect);
        assert_eq!(spec.to_config().cache_key(), expect.cache_key());
    }

    #[test]
    fn malformed_requests_get_specific_messages() {
        for (line, needle) in [
            ("{", "invalid JSON"),
            (r#"{"kernel":"gemm"}"#, "`op`"),
            (r#"{"op":"simulate"}"#, "unknown op"),
            (r#"{"op":"sim"}"#, "`kernel`"),
            (r#"{"op":"sim","kernel":"gemm","scale":"huge"}"#, "`scale`"),
            (
                r#"{"op":"sim","kernel":"gemm","scheme":"XX"}"#,
                "unknown scheme",
            ),
            (r#"{"op":"sim","kernel":"gemm","arrays":0}"#, "`arrays`"),
            // An absurd array count must be rejected at the protocol layer:
            // the engine would otherwise attempt a matching allocation.
            (
                r#"{"op":"sim","kernel":"gemm","arrays":100000000}"#,
                "`arrays`",
            ),
            (r#"{"op":"artefact"}"#, "`name`"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn compile_requests_round_trip_and_are_bounded() {
        let req = Request::Compile {
            source: "kernel k(o: mut buf<i32>[4]) {\n  shape [4];\n  store 1 + 2 -> o [1];\n}"
                .into(),
            spec: SimSpec {
                scheme: Scheme::BitHybrid,
                arrays: None,
                ooo_dispatch: true,
                mode_switch: false,
                cache_warming: true,
            },
        };
        let line = encode_request(&req);
        assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        // Oversized sources and arrays overrides are protocol errors.
        let huge = format!(
            r#"{{"op":"compile","source":"{}"}}"#,
            "x".repeat(MAX_COMPILE_SOURCE_BYTES + 1)
        );
        assert!(parse_request(&huge).unwrap_err().contains("at most"));
        let err = parse_request(r#"{"op":"compile","source":"k","arrays":16}"#).unwrap_err();
        assert!(err.contains("not supported"), "{err}");
        assert!(parse_request(r#"{"op":"compile"}"#)
            .unwrap_err()
            .contains("`source`"));
    }

    #[test]
    fn estimate_requests_round_trip_and_reject_control_plane() {
        let inner = Request::Sim {
            kernel: "gemm".into(),
            scale: Scale::Paper,
            spec: SimSpec {
                scheme: Scheme::BitHybrid,
                arrays: Some(16),
                ooo_dispatch: false,
                mode_switch: true,
                cache_warming: true,
            },
        };
        let req = Request::Estimate(Box::new(inner));
        let line = encode_request(&req);
        assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        assert_eq!(op_name(&req), "estimate");
        // Estimating a control-plane op, nesting estimates, or omitting
        // the inner request are all protocol errors.
        let err = parse_request(r#"{"op":"estimate","request":{"op":"stats"}}"#).unwrap_err();
        assert!(err.contains("control-plane"), "{err}");
        let nested = r#"{"op":"estimate","request":{"op":"estimate","request":{"op":"stats"}}}"#;
        let err = parse_request(nested).unwrap_err();
        assert!(err.contains("nest"), "{err}");
        let err = parse_request(r#"{"op":"estimate"}"#).unwrap_err();
        assert!(err.contains("`request`"), "{err}");
        // Inner-request validation still applies through the wrapper.
        let err =
            parse_request(r#"{"op":"estimate","request":{"op":"sim","kernel":"g","arrays":0}}"#)
                .unwrap_err();
        assert!(err.contains("`arrays`"), "{err}");
    }

    #[test]
    fn estimate_replies_carry_class_cost_and_admit_now() {
        let reply = ok_estimate("sim", 1234, true);
        let doc = parse_response(&reply).unwrap();
        let est = doc.get("estimate").expect("estimate member");
        assert_eq!(est.get("class").and_then(Json::as_str), Some("sim"));
        assert_eq!(est.get("cost").and_then(Json::as_u64), Some(1234));
        assert_eq!(est.get("admit_now").and_then(Json::as_bool), Some(true));
        assert!(
            matches!(est, Json::Obj(members) if members.len() == 3),
            "{reply}"
        );
    }

    #[test]
    fn metrics_and_trace_ops_round_trip() {
        for (req, wire) in [
            (Request::Metrics, r#"{"op":"metrics"}"#),
            (Request::Trace, r#"{"op":"trace"}"#),
        ] {
            assert_eq!(encode_request(&req), wire);
            assert_eq!(parse_request(wire).unwrap(), req);
        }
        // Control-plane: not estimable.
        let err = parse_request(r#"{"op":"estimate","request":{"op":"metrics"}}"#).unwrap_err();
        assert!(err.contains("control-plane"), "{err}");
        // The exposition text survives the JSON-lines transport.
        let reply = ok_metrics("# TYPE mve_serve_requests counter\nmve_serve_requests 3\n");
        let doc = parse_response(&reply).unwrap();
        assert!(doc
            .get("metrics")
            .and_then(Json::as_str)
            .unwrap()
            .contains("mve_serve_requests 3"));
    }

    #[test]
    fn overloaded_replies_are_typed_and_machine_decodable() {
        let reply = overloaded_reply("budget exhausted", 250);
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(parse_overloaded(&doc), Some(250));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        // Through the generic decoder it is still a typed error reply.
        let err = parse_response(&reply).unwrap_err();
        assert!(err.contains("overloaded"), "{err}");
        assert!(err.contains("250"), "{err}");
        // Ordinary errors carry no overload members.
        let plain = Json::parse(&error_reply("boom")).unwrap();
        assert_eq!(parse_overloaded(&plain), None);
    }

    #[test]
    fn typed_diagnostics_round_trip_with_positions() {
        let reply = error_reply_at("unknown value `z`", 3, 9);
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("line").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("col").and_then(Json::as_u64), Some(9));
        let err = parse_response(&reply).unwrap_err();
        assert_eq!(err, "3:9: unknown value `z`");
        // Position-less diagnostics degrade to the plain error reply.
        let plain = error_reply_at("allocation failed", 0, 0);
        assert_eq!(plain, error_reply("allocation failed"));
        assert_eq!(parse_response(&plain).unwrap_err(), "allocation failed");
    }

    #[test]
    fn compile_keys_separate_sources_and_configs() {
        let cfg = SimConfig::default();
        let keys = [
            compile_key("kernel a() {}", &cfg),
            compile_key("kernel b() {}", &cfg),
            compile_key("kernel a() {}", &cfg.clone().with_ooo_dispatch()),
            sim_key("gemm", Scale::Test, &cfg),
        ];
        let unique: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len());
    }

    #[test]
    fn keys_separate_kinds_scales_and_configs() {
        let cfg = SimConfig::default();
        let keys = [
            artefact_key("fig10", Scale::Test),
            artefact_key("fig10", Scale::Paper),
            artefact_key("fig11", Scale::Test),
            sim_key("fig10", Scale::Test, &cfg),
            sim_key("gemm", Scale::Test, &cfg),
            sim_key("gemm", Scale::Test, &cfg.clone().with_ooo_dispatch()),
        ];
        let unique: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len());
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_artefact("fig10", "line1\nline2 ≥ \"quoted\"");
        let doc = parse_response(&ok).unwrap();
        assert_eq!(
            doc.get("bytes").and_then(Json::as_str),
            Some("line1\nline2 ≥ \"quoted\"")
        );
        let report = report_to_json(&SimReport {
            total_cycles: 123,
            ..SimReport::default()
        });
        let sim = ok_sim("gemm", &report.encode());
        let doc = parse_response(&sim).unwrap();
        assert_eq!(
            doc.get("report")
                .and_then(|r| r.get("total_cycles"))
                .and_then(Json::as_u64),
            Some(123)
        );
        let err = parse_response(&error_reply("boom")).expect_err("error reply");
        assert_eq!(err, "boom");
        assert!(parse_response(&ok_shutdown()).is_ok());
    }
}
