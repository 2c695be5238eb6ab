//! The client side of the wire protocol: a blocking connection (with an
//! optional request deadline and overload-aware capped exponential
//! backoff), the smoke-set replay driver used by `mve-client` and CI, and
//! the open-loop throughput driver shared by `mve-client --flood
//! --duration-ms` and the `serve_throughput` perf harness.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mve_kernels::Scale;
use mve_obs::metrics::{AtomicLog2Histogram, HistogramStats};

use crate::json::Json;
use crate::protocol::{encode_request, parse_overloaded, parse_response, Request, SimSpec};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent a typed error reply.
    Server(String),
    /// The server's reply was not what the request called for.
    Protocol(String),
    /// The request deadline elapsed without a reply (or the connect
    /// timeout elapsed without a connection). The connection must be
    /// considered dead afterwards: a late reply would desynchronize the
    /// request/reply pairing, so reconnect before reusing.
    TimedOut {
        /// The deadline that elapsed.
        after: Duration,
    },
    /// The server shed the request with a typed `overloaded` reply —
    /// back off and retry ([`Client::request_with_backoff`] does).
    Overloaded {
        /// The server's backoff hint, in milliseconds.
        retry_after_ms: u64,
        /// The reply's prose.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::TimedOut { after } => {
                write!(f, "timed out after {} ms", after.as_millis())
            }
            ClientError::Overloaded {
                retry_after_ms,
                message,
            } => write!(f, "{message} (retry_after_ms={retry_after_ms})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Ceiling on one backoff sleep in [`Client::request_with_backoff`].
const BACKOFF_CAP_MS: u64 = 2_000;

/// One blocking connection to a server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request_timeout: Option<Duration>,
}

impl Client {
    /// Connects to `addr` (e.g. `("127.0.0.1", 7878)`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on the connect itself, so a dead or
    /// firewalled address fails in `timeout` rather than the OS default
    /// (minutes). The timeout also becomes the request deadline, as if
    /// [`Client::set_request_timeout`] had been called.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    let mut client = Self::from_stream(stream)?;
                    client.set_request_timeout(Some(timeout))?;
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                ClientError::TimedOut { after: timeout }
            }
            Some(e) => ClientError::Io(e),
            None => ClientError::Protocol("address resolved to nothing".to_owned()),
        })
    }

    fn from_stream(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            request_timeout: None,
        })
    }

    /// Bounds every subsequent [`Client::request`]: a reply that has not
    /// fully arrived within `timeout` fails with
    /// [`ClientError::TimedOut`] instead of blocking forever on a hung
    /// daemon. `None` restores unbounded blocking.
    pub fn set_request_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.request_timeout = timeout;
        Ok(())
    }

    /// Sends one request and decodes its reply document.
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let line = encode_request(req);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = match self.reader.read_line(&mut reply) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(ClientError::TimedOut {
                    after: self.request_timeout.unwrap_or_default(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a reply arrived".to_owned(),
            ));
        }
        let trimmed = reply.trim_end();
        // Surface a typed shed before the generic ok/error decode, so
        // callers can branch on `Overloaded` rather than parse prose.
        if let Ok(doc) = Json::parse(trimmed) {
            if let Some(retry_after_ms) = parse_overloaded(&doc) {
                return Err(ClientError::Overloaded {
                    retry_after_ms,
                    message: doc
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("overloaded")
                        .to_owned(),
                });
            }
        }
        parse_response(trimmed).map_err(ClientError::Server)
    }

    /// [`Client::request`] with capped exponential backoff over
    /// `overloaded` replies: each retry sleeps the server's
    /// `retry_after_ms` hint or the doubling client floor, whichever is
    /// larger, capped at 2 s. Gives up after `max_retries` retries with
    /// the final [`ClientError::Overloaded`]. All other outcomes pass
    /// through immediately.
    pub fn request_with_backoff(
        &mut self,
        req: &Request,
        max_retries: u32,
    ) -> Result<Json, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.request(req) {
                Err(ClientError::Overloaded {
                    retry_after_ms,
                    message,
                }) => {
                    if attempt >= max_retries {
                        return Err(ClientError::Overloaded {
                            retry_after_ms,
                            message,
                        });
                    }
                    let floor = 10u64.saturating_mul(1 << attempt.min(20));
                    std::thread::sleep(Duration::from_millis(
                        retry_after_ms.max(floor).min(BACKOFF_CAP_MS),
                    ));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Prices a chargeable request against the server's cost model
    /// without executing it, returning the `estimate` object
    /// (`class`/`cost`/`admit_now`).
    pub fn estimate(&mut self, req: &Request) -> Result<Json, ClientError> {
        let doc = self.request(&Request::Estimate(Box::new(req.clone())))?;
        doc.get("estimate")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("estimate reply lacks `estimate`".to_owned()))
    }

    /// Renders one artefact, returning its exact text.
    pub fn artefact(&mut self, name: &str, scale: Scale) -> Result<String, ClientError> {
        let doc = self.request(&Request::Artefact {
            name: name.to_owned(),
            scale,
        })?;
        doc.get("bytes")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("artefact reply lacks `bytes`".to_owned()))
    }

    /// Times one kernel, returning the `report` object.
    pub fn sim(&mut self, kernel: &str, scale: Scale, spec: SimSpec) -> Result<Json, ClientError> {
        let doc = self.request(&Request::Sim {
            kernel: kernel.to_owned(),
            scale,
            spec,
        })?;
        doc.get("report")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("sim reply lacks `report`".to_owned()))
    }

    /// Compiles and runs a `.mvel` kernel server-side, returning the
    /// rendered compile artefact. A parse/type error comes back as
    /// [`ClientError::Server`] with a `line:col:` prefix.
    pub fn compile(&mut self, source: &str, spec: SimSpec) -> Result<String, ClientError> {
        if spec.arrays.is_some() {
            // The wire encoding would silently drop the override; surface
            // the same rejection the server gives raw-JSON clients.
            return Err(ClientError::Protocol(
                "`arrays` is not supported for compile: DSL kernels execute on the \
                 default 32-array geometry"
                    .to_owned(),
            ));
        }
        let doc = self.request(&Request::Compile {
            source: source.to_owned(),
            spec,
        })?;
        doc.get("bytes")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("compile reply lacks `bytes`".to_owned()))
    }

    /// Compiles, runs, and per-line-profiles a `.mvel` kernel
    /// server-side, returning the `profile` reply object: `text` (the
    /// annotated source), `lines` (per-line attribution rows), `kernel`,
    /// `digest`, and `total_cycles`. A parse/type error comes back as
    /// [`ClientError::Server`] with a `line:col:` prefix.
    pub fn profile(&mut self, source: &str, spec: SimSpec) -> Result<Json, ClientError> {
        if spec.arrays.is_some() {
            return Err(ClientError::Protocol(
                "`arrays` is not supported for profile: DSL kernels execute on the \
                 default 32-array geometry"
                    .to_owned(),
            ));
        }
        let doc = self.request(&Request::Profile {
            source: source.to_owned(),
            spec,
        })?;
        doc.get("profile")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("profile reply lacks `profile`".to_owned()))
    }

    /// Fetches the counter snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let doc = self.request(&Request::Stats)?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats reply lacks `stats`".to_owned()))
    }

    /// Fetches the Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let doc = self.request(&Request::Metrics)?;
        doc.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("metrics reply lacks `metrics`".to_owned()))
    }

    /// Fetches the recent-request trace ring (oldest first).
    pub fn trace(&mut self) -> Result<Vec<Json>, ClientError> {
        let doc = self.request(&Request::Trace)?;
        match doc.get("traces") {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(ClientError::Protocol(
                "trace reply lacks `traces`".to_owned(),
            )),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

/// Drives `names` through a running server and writes each artefact to
/// `out_dir/<name>.txt` — the replay path CI diffs byte-for-byte against
/// `reproduce --smoke`. Returns `(name, bytes written)` per artefact.
pub fn replay_artefacts(
    addr: impl ToSocketAddrs,
    names: &[&str],
    scale: Scale,
    out_dir: &Path,
) -> Result<Vec<(String, usize)>, ClientError> {
    std::fs::create_dir_all(out_dir)?;
    let mut client = Client::connect(addr)?;
    let mut written = Vec::with_capacity(names.len());
    for name in names {
        let text = client.artefact(name, scale)?;
        std::fs::write(out_dir.join(format!("{name}.txt")), text.as_bytes())?;
        written.push(((*name).to_owned(), text.len()));
    }
    Ok(written)
}

/// The result of one [`open_loop`] run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Concurrent connections driven.
    pub connections: usize,
    /// Measured wall time (send of the first request to the last reply).
    pub elapsed: Duration,
    /// Requests sent.
    pub requests: u64,
    /// `ok` replies.
    pub ok: u64,
    /// Typed `overloaded` sheds (a correct reply, not a failure).
    pub overloaded: u64,
    /// Typed `error` replies.
    pub server_errors: u64,
    /// Requests sent with no reply of any kind (transport error, timeout,
    /// or premature close) — the correctness headline: it must be zero.
    pub lost: u64,
    /// Request-to-reply latency over every answered request.
    pub latency: HistogramStats,
}

impl OpenLoopReport {
    /// Answered (typed-reply) requests per second.
    pub fn req_per_s(&self) -> f64 {
        let answered = (self.ok + self.overloaded + self.server_errors) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            answered / secs
        } else {
            0.0
        }
    }

    /// One flat JSON object — the `mve-client` open-loop output line.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("connections".into(), Json::U64(self.connections as u64)),
            (
                "duration_ms".into(),
                Json::U64(self.elapsed.as_millis().min(u64::MAX as u128) as u64),
            ),
            ("requests".into(), Json::U64(self.requests)),
            ("ok".into(), Json::U64(self.ok)),
            ("overloaded".into(), Json::U64(self.overloaded)),
            ("server_errors".into(), Json::U64(self.server_errors)),
            ("lost".into(), Json::U64(self.lost)),
            ("req_per_s".into(), Json::F64(self.req_per_s())),
            ("p50_us".into(), Json::U64(self.latency.p50_us)),
            ("p90_us".into(), Json::U64(self.latency.p90_us)),
            ("p99_us".into(), Json::U64(self.latency.p99_us)),
            ("max_us".into(), Json::U64(self.latency.max_us)),
        ])
    }
}

/// Drives `connections` concurrent connections against `addr`, each
/// sending `make_request(conn, seq)` back-to-back (open loop: the next
/// request goes out as soon as the previous reply lands) until `duration`
/// elapses. Every reply is classified — ok, typed overload, typed error —
/// and timed into one shared histogram; a request that gets no reply at
/// all counts as `lost` and ends that connection's run early.
pub fn open_loop(
    addr: impl ToSocketAddrs,
    connections: usize,
    duration: Duration,
    make_request: impl Fn(usize, u64) -> Request + Sync,
) -> Result<OpenLoopReport, ClientError> {
    let connections = connections.max(1);
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| ClientError::Protocol("address resolved to nothing".to_owned()))?;
    let requests = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let server_errors = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let latency = AtomicLog2Histogram::new();
    let make_request = &make_request;
    let started = Instant::now();
    let deadline = started + duration;
    std::thread::scope(|s| {
        for conn in 0..connections {
            let (requests, ok, overloaded, server_errors, lost, latency) =
                (&requests, &ok, &overloaded, &server_errors, &lost, &latency);
            s.spawn(move || {
                // A dead daemon must not hang the harness: bound every
                // read at the run length plus a margin.
                let Ok(mut client) =
                    Client::connect_with_timeout(addr, duration + Duration::from_secs(5))
                else {
                    return;
                };
                let mut seq = 0u64;
                while Instant::now() < deadline {
                    let req = make_request(conn, seq);
                    seq += 1;
                    requests.fetch_add(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    match client.request(&req) {
                        Ok(_) => {
                            latency.record_duration(t0.elapsed());
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Overloaded { .. }) => {
                            latency.record_duration(t0.elapsed());
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server(_)) => {
                            latency.record_duration(t0.elapsed());
                            server_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            lost.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    Ok(OpenLoopReport {
        connections,
        elapsed: started.elapsed(),
        requests: requests.into_inner(),
        ok: ok.into_inner(),
        overloaded: overloaded.into_inner(),
        server_errors: server_errors.into_inner(),
        lost: lost.into_inner(),
        latency: latency.snapshot().stats(),
    })
}
