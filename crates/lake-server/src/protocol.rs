//! Wire protocol: length-prefixed JSON frames with typed error codes.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. One connection carries exactly one request and
//! one response (HTTP/1.0-style): workers therefore never park on an idle
//! keep-alive socket, which keeps the admission ladder's in-flight count
//! an honest measure of work.
//!
//! The contract the robustness ladder depends on: **every** failure mode
//! maps to a named [`ErrorCode`] carried in a well-formed response frame
//! — quota exhaustion, breaker rejection, load shedding, draining,
//! malformed input, storage faults. Clients never have to infer "what
//! happened" from a dropped connection, and chaos harnesses can assert
//! exact per-code counts.

use lake_core::{Dataset, Json, LakeError, Result};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard ceiling on a frame payload, absent configuration: 1 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// The request verbs the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Liveness probe; touches no storage.
    Health,
    /// Store a dataset under the tenant's namespace.
    Put,
    /// Retrieve a dataset by name.
    Get,
    /// Delete a dataset by name.
    Del,
    /// List the tenant's dataset names.
    List,
    /// Per-tenant quota/breaker/namespace statistics.
    Stats,
    /// Prometheus-text metrics scrape.
    Metrics,
    /// Ask the server to begin a graceful drain.
    Drain,
    /// Chaos-only: the handler panics mid-request (tests panic isolation).
    Boom,
    /// Chaos-only: the handler fails with a transient error (feeds the
    /// tenant's circuit breaker).
    Flaky,
    /// Chaos-only: abort the whole process immediately (`kill -9` from the
    /// inside) — the restart-chaos harness's trigger for crash-recovery
    /// scenarios. No response frame is ever written.
    Crash,
}

impl Verb {
    /// Parse a wire verb.
    pub fn parse(s: &str) -> Result<Verb> {
        match s {
            "health" => Ok(Verb::Health),
            "put" => Ok(Verb::Put),
            "get" => Ok(Verb::Get),
            "del" => Ok(Verb::Del),
            "list" => Ok(Verb::List),
            "stats" => Ok(Verb::Stats),
            "metrics" => Ok(Verb::Metrics),
            "drain" => Ok(Verb::Drain),
            "boom" => Ok(Verb::Boom),
            "flaky" => Ok(Verb::Flaky),
            "crash" => Ok(Verb::Crash),
            other => Err(LakeError::invalid(format!("unknown verb: {other}"))),
        }
    }

    /// Stable wire/metric label.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Health => "health",
            Verb::Put => "put",
            Verb::Get => "get",
            Verb::Del => "del",
            Verb::List => "list",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Drain => "drain",
            Verb::Boom => "boom",
            Verb::Flaky => "flaky",
            Verb::Crash => "crash",
        }
    }

    /// `true` for the fault-injection verbs that only a chaos-configured
    /// server accepts.
    pub fn is_chaos(self) -> bool {
        matches!(self, Verb::Boom | Verb::Flaky | Verb::Crash)
    }
}

/// Typed response codes — the HTTP-ish taxonomy every rejection path
/// speaks. Chaos gates assert on these names, so they are stable API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Success.
    Ok,
    /// Malformed request (bad JSON, unknown verb, invalid ident, …).
    BadRequest,
    /// The named dataset does not exist.
    NotFound,
    /// The connection exceeded a read/write deadline.
    Timeout,
    /// A conflicting object already exists.
    Conflict,
    /// The frame exceeded the configured size ceiling.
    TooLarge,
    /// The tenant's request quota is exhausted (429-style).
    QuotaRequests,
    /// The tenant's byte quota cannot fit this payload (429-style).
    QuotaBytes,
    /// The server is saturated and shed this connection (503-style).
    Shed,
    /// The server is draining and accepts no new work (503-style).
    Draining,
    /// The tenant's circuit breaker is open (503-style).
    BreakerOpen,
    /// A transient storage failure survived the retry budget.
    Transient,
    /// An unexpected internal failure.
    Internal,
}

impl ErrorCode {
    /// The HTTP-flavoured numeric code.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::Ok => 200,
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::Timeout => 408,
            ErrorCode::Conflict => 409,
            ErrorCode::TooLarge => 413,
            ErrorCode::QuotaRequests | ErrorCode::QuotaBytes => 429,
            ErrorCode::Shed | ErrorCode::Draining | ErrorCode::BreakerOpen | ErrorCode::Transient => 503,
            ErrorCode::Internal => 500,
        }
    }

    /// Stable label used on the wire and in metrics.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Ok => "ok",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Conflict => "conflict",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::QuotaRequests => "quota_requests",
            ErrorCode::QuotaBytes => "quota_bytes",
            ErrorCode::Shed => "shed",
            ErrorCode::Draining => "draining",
            ErrorCode::BreakerOpen => "breaker_open",
            ErrorCode::Transient => "transient",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire label back into a code (clients and gates).
    pub fn parse(s: &str) -> Result<ErrorCode> {
        match s {
            "ok" => Ok(ErrorCode::Ok),
            "bad_request" => Ok(ErrorCode::BadRequest),
            "not_found" => Ok(ErrorCode::NotFound),
            "timeout" => Ok(ErrorCode::Timeout),
            "conflict" => Ok(ErrorCode::Conflict),
            "too_large" => Ok(ErrorCode::TooLarge),
            "quota_requests" => Ok(ErrorCode::QuotaRequests),
            "quota_bytes" => Ok(ErrorCode::QuotaBytes),
            "shed" => Ok(ErrorCode::Shed),
            "draining" => Ok(ErrorCode::Draining),
            "breaker_open" => Ok(ErrorCode::BreakerOpen),
            "transient" => Ok(ErrorCode::Transient),
            "internal" => Ok(ErrorCode::Internal),
            other => Err(LakeError::parse(format!("unknown error code: {other}"))),
        }
    }

    /// Map a storage-layer error onto the wire taxonomy.
    pub fn from_error(e: &LakeError) -> ErrorCode {
        match e {
            LakeError::NotFound(_) => ErrorCode::NotFound,
            LakeError::AlreadyExists(_) | LakeError::Conflict(_) => ErrorCode::Conflict,
            LakeError::Parse(_)
            | LakeError::Schema(_)
            | LakeError::Query(_)
            | LakeError::Invalid(_)
            | LakeError::PermissionDenied(_) => ErrorCode::BadRequest,
            LakeError::Transient(_) => ErrorCode::Transient,
            LakeError::Io(_) => ErrorCode::Internal,
        }
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// The tenant namespace this request acts in.
    pub tenant: String,
    /// What to do.
    pub verb: Verb,
    /// Dataset name (empty for verbs that take none).
    pub name: String,
    /// Dataset shape for `put`: `"text"`, `"log"`, or `"documents"`.
    pub kind: String,
    /// Verb-specific payload.
    pub body: Json,
}

impl Request {
    /// A request with empty name/kind/body.
    pub fn new(tenant: &str, verb: Verb) -> Request {
        Request {
            tenant: tenant.to_string(),
            verb,
            name: String::new(),
            kind: String::new(),
            body: Json::Null,
        }
    }

    /// Set the dataset name.
    pub fn with_name(mut self, name: &str) -> Request {
        self.name = name.to_string();
        self
    }

    /// Set the dataset kind.
    pub fn with_kind(mut self, kind: &str) -> Request {
        self.kind = kind.to_string();
        self
    }

    /// Set the payload.
    pub fn with_body(mut self, body: Json) -> Request {
        self.body = body;
        self
    }

    /// Decode a request from its JSON envelope.
    pub fn from_json(j: &Json) -> Result<Request> {
        let tenant = j
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or_else(|| LakeError::invalid("request missing \"tenant\""))?;
        let verb = j
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| LakeError::invalid("request missing \"verb\""))?;
        let name = j.get("name").and_then(Json::as_str).unwrap_or("");
        let kind = j.get("kind").and_then(Json::as_str).unwrap_or("");
        let body = j.get("body").cloned().unwrap_or(Json::Null);
        Ok(Request {
            tenant: tenant.to_string(),
            verb: Verb::parse(verb)?,
            name: name.to_string(),
            kind: kind.to_string(),
            body,
        })
    }

    /// Encode the JSON envelope.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tenant", Json::str(self.tenant.clone())),
            ("verb", Json::str(self.verb.name())),
            ("name", Json::str(self.name.clone())),
            ("kind", Json::str(self.kind.clone())),
            ("body", self.body.clone()),
        ])
    }
}

/// A response envelope.
#[derive(Debug, Clone)]
pub struct Response {
    /// Typed outcome.
    pub code: ErrorCode,
    /// Human-readable detail for non-`Ok` codes.
    pub error: String,
    /// Verb-specific payload for `Ok`.
    pub body: Json,
    /// Deterministic virtual cost of serving the request, in microseconds
    /// (see [`virtual_cost_us`]): the latency model chaos benches report
    /// percentiles over, independent of wall-clock noise.
    pub cost_us: u64,
}

impl Response {
    /// A success response carrying `body`.
    pub fn ok(body: Json, cost_us: u64) -> Response {
        Response { code: ErrorCode::Ok, error: String::new(), body, cost_us }
    }

    /// A typed failure response.
    pub fn fail(code: ErrorCode, detail: impl std::fmt::Display) -> Response {
        Response { code, error: detail.to_string(), body: Json::Null, cost_us: 0 }
    }

    /// `true` when the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.code == ErrorCode::Ok
    }

    /// Encode the JSON envelope.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("status", Json::str(if self.is_ok() { "ok" } else { "error" })),
            ("code", Json::str(self.code.name())),
            ("http", Json::Num(f64::from(self.code.code()))),
            ("error", Json::str(self.error.clone())),
            ("body", self.body.clone()),
            ("cost_us", Json::Num(self.cost_us as f64)),
        ])
    }

    /// Decode a response envelope.
    pub fn from_json(j: &Json) -> Result<Response> {
        let code = j
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| LakeError::parse("response missing \"code\""))?;
        let error = j.get("error").and_then(Json::as_str).unwrap_or("");
        let body = j.get("body").cloned().unwrap_or(Json::Null);
        let cost = j.get("cost_us").and_then(Json::as_f64).unwrap_or(0.0);
        Ok(Response {
            code: ErrorCode::parse(code)?,
            error: error.to_string(),
            body,
            cost_us: if cost.is_finite() && cost >= 0.0 { cost as u64 } else { 0 },
        })
    }
}

/// The deterministic cost model: a per-verb base charge plus a linear
/// payload term. Under a virtual clock the swarm reports percentiles over
/// these costs, so two same-seed runs produce byte-identical benchmarks;
/// under a real clock they still rank verbs sensibly.
pub fn virtual_cost_us(verb: Verb, request_bytes: u64) -> u64 {
    let base = match verb {
        Verb::Health => 50,
        Verb::Drain => 100,
        Verb::Stats => 150,
        Verb::List => 250,
        Verb::Del => 350,
        Verb::Get => 400,
        Verb::Boom => 450,
        Verb::Flaky => 500,
        // The process dies before answering; the cost only prices the
        // request parse for swarm reports that count the attempt.
        Verb::Crash => 550,
        Verb::Put => 600,
        Verb::Metrics => 900,
    };
    base + request_bytes / 2
}

/// Read one length-prefixed frame. `Ok(None)` is a clean close (EOF
/// before the first length byte); EOF mid-frame is a [`LakeError::Parse`]
/// (truncated), a socket timeout is a [`LakeError::Transient`] with a
/// `"deadline"` marker, and an oversized length is [`LakeError::Invalid`].
pub fn read_frame(stream: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        // EOF anywhere in the header is a close: the peer never committed
        // to a frame.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) if is_timeout(&e) => {
            return Err(LakeError::transient("deadline: frame header read timed out"))
        }
        Err(e) => return Err(LakeError::Io(format!("frame header: {e}"))),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(LakeError::invalid(format!(
            "frame of {len} bytes exceeds the {max_frame}-byte ceiling"
        )));
    }
    let mut payload = vec![0u8; len];
    match stream.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(LakeError::parse("truncated frame: peer closed mid-payload"))
        }
        Err(e) if is_timeout(&e) => {
            Err(LakeError::transient("deadline: frame payload read timed out"))
        }
        Err(e) => Err(LakeError::Io(format!("frame payload: {e}"))),
    }
}

/// Write one length-prefixed frame. Prefix and payload leave in a single
/// `write`, so a small frame is one TCP segment and the peer's reader
/// wakes once for it; sent as two writes, the peer wakes on the four
/// length bytes and blocks again until the payload's segment comes.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| LakeError::invalid("frame payload exceeds u32::MAX"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame).and_then(|()| stream.flush()).map_err(|e| {
        if is_timeout(&e) {
            LakeError::transient("deadline: frame write timed out")
        } else {
            LakeError::Io(format!("frame write: {e}"))
        }
    })
}

/// Serialize and send a JSON value as one frame.
pub fn write_json(stream: &mut TcpStream, j: &Json) -> Result<()> {
    write_frame(stream, j.to_string().as_bytes())
}

/// Read and parse one JSON frame; `Ok(None)` on clean close.
pub fn read_json(stream: &mut TcpStream, max_frame: usize) -> Result<Option<Json>> {
    read_frame(stream, max_frame)?.map(|payload| payload_json(&payload)).transpose()
}

/// Parse one frame payload as JSON.
pub(crate) fn payload_json(payload: &[u8]) -> Result<Json> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| LakeError::parse("frame payload is not UTF-8"))?;
    lake_formats::json::parse(text)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One full client exchange: connect, send `req`, read the response.
/// Transport-level failures surface as `LakeError`s; protocol-level
/// failures arrive as typed [`Response`]s.
pub fn request(addr: &str, req: &Request, timeout_ms: u64, max_frame: usize) -> Result<Response> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| LakeError::transient(format!("connect {addr}: {e}")))?;
    let timeout = Some(Duration::from_millis(timeout_ms.max(1)));
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .map_err(|e| LakeError::Io(format!("set timeouts: {e}")))?;
    write_json(&mut stream, &req.to_json())?;
    match read_json(&mut stream, max_frame)? {
        Some(j) => Response::from_json(&j),
        None => Err(LakeError::Io("server closed before responding".to_string())),
    }
}

/// Decode a `put` body into a [`Dataset`] by declared kind. Shared by the
/// live `put` handler and journal replay, so a record that was accepted
/// live always decodes identically during recovery.
pub fn dataset_from_body(kind: &str, body: &Json) -> Result<Dataset> {
    match kind {
        "text" => {
            let s = body
                .as_str()
                .ok_or_else(|| LakeError::invalid("kind \"text\" needs a string body"))?;
            Ok(Dataset::Text(s.to_string()))
        }
        "log" => {
            let lines = body
                .as_array()
                .ok_or_else(|| LakeError::invalid("kind \"log\" needs an array body"))?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| LakeError::invalid("log lines must be strings"))
                })
                .collect::<Result<Vec<String>>>()?;
            Ok(Dataset::Log(lines))
        }
        "documents" => {
            let docs = body
                .as_array()
                .ok_or_else(|| LakeError::invalid("kind \"documents\" needs an array body"))?;
            Ok(Dataset::Documents(docs.to_vec()))
        }
        other => Err(LakeError::invalid(format!(
            "unsupported kind {other:?} (use text, log, or documents)"
        ))),
    }
}

/// Encode a [`Dataset`] as a `get` response body (the inverse of
/// [`dataset_from_body`] for the wire kinds).
pub fn dataset_to_body(dataset: &Dataset) -> Json {
    match dataset {
        Dataset::Text(t) => Json::obj(vec![
            ("kind", Json::str("text")),
            ("body", Json::str(t.clone())),
        ]),
        Dataset::Log(lines) => Json::obj(vec![
            ("kind", Json::str("log")),
            ("body", Json::Array(lines.iter().map(|l| Json::str(l.clone())).collect())),
        ]),
        Dataset::Documents(docs) => Json::obj(vec![
            ("kind", Json::str("documents")),
            ("body", Json::Array(docs.clone())),
        ]),
        other => Json::obj(vec![
            ("kind", Json::str(other.kind().name())),
            ("records", Json::Num(other.record_count() as f64)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_round_trip() {
        for v in [
            Verb::Health,
            Verb::Put,
            Verb::Get,
            Verb::Del,
            Verb::List,
            Verb::Stats,
            Verb::Metrics,
            Verb::Drain,
            Verb::Boom,
            Verb::Flaky,
            Verb::Crash,
        ] {
            assert_eq!(Verb::parse(v.name()).unwrap(), v);
        }
        assert!(Verb::parse("nope").is_err());
        assert!(Verb::Boom.is_chaos() && Verb::Flaky.is_chaos() && !Verb::Get.is_chaos());
        assert!(Verb::Crash.is_chaos());
    }

    #[test]
    fn error_codes_round_trip_and_map() {
        for c in [
            ErrorCode::Ok,
            ErrorCode::BadRequest,
            ErrorCode::NotFound,
            ErrorCode::Timeout,
            ErrorCode::Conflict,
            ErrorCode::TooLarge,
            ErrorCode::QuotaRequests,
            ErrorCode::QuotaBytes,
            ErrorCode::Shed,
            ErrorCode::Draining,
            ErrorCode::BreakerOpen,
            ErrorCode::Transient,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(c.name()).unwrap(), c);
            assert!(c.code() >= 200);
        }
        assert_eq!(ErrorCode::from_error(&LakeError::not_found("x")), ErrorCode::NotFound);
        assert_eq!(ErrorCode::from_error(&LakeError::transient("x")), ErrorCode::Transient);
        assert_eq!(ErrorCode::from_error(&LakeError::invalid("x")), ErrorCode::BadRequest);
    }

    #[test]
    fn request_and_response_envelopes_round_trip() {
        let req = Request::new("acme", Verb::Put)
            .with_name("events")
            .with_kind("text")
            .with_body(Json::str("hello"));
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.verb, Verb::Put);
        assert_eq!(back.name, "events");
        assert_eq!(back.body, Json::str("hello"));

        let resp = Response::ok(Json::str("done"), 123);
        let back = Response::from_json(&resp.to_json()).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.cost_us, 123);

        let fail = Response::fail(ErrorCode::QuotaRequests, "tenant over budget");
        let back = Response::from_json(&fail.to_json()).unwrap();
        assert_eq!(back.code, ErrorCode::QuotaRequests);
        assert!(back.error.contains("budget"));
    }

    #[test]
    fn cost_model_is_deterministic_and_monotone_in_bytes() {
        assert_eq!(virtual_cost_us(Verb::Health, 0), 50);
        assert_eq!(virtual_cost_us(Verb::Put, 100), 650);
        assert!(virtual_cost_us(Verb::Put, 1000) > virtual_cost_us(Verb::Put, 10));
    }

    #[test]
    fn frames_round_trip_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let j = read_json(&mut s, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
            write_json(&mut s, &j).unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        let msg = Json::obj(vec![("k", Json::Num(7.0))]);
        write_json(&mut c, &msg).unwrap();
        let back = read_json(&mut c, DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(back, msg);
        echo.join().unwrap();
    }

    /// A sink that counts how many `write` calls it took.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_round_trips_at_every_size() {
        let max = DEFAULT_MAX_FRAME_BYTES;
        for len in [0, 1, 4_095, 65_536, max, max + 1] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut sink = CountingSink::default();
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.writes, 1, "{len}-byte payload");
            // On the wire: the big-endian length, then the payload.
            assert_eq!(sink.bytes.len(), 4 + len);
            assert_eq!(sink.bytes[..4], (len as u32).to_be_bytes());
            let back = read_frame(&mut sink.bytes.as_slice(), max);
            if len <= max {
                assert_eq!(back.unwrap(), Some(payload), "{len}-byte payload");
            } else {
                assert!(matches!(back, Err(LakeError::Invalid(_))), "{back:?}");
            }
        }
    }

    #[test]
    fn oversized_frames_are_rejected_not_read() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_frame(&mut s, 16)
        });
        let mut c = TcpStream::connect(addr).unwrap();
        write_frame(&mut c, &[0u8; 64]).unwrap();
        let r = srv.join().unwrap();
        assert!(matches!(r, Err(LakeError::Invalid(_))), "{r:?}");
    }
}
