//! The end-to-end runs: each workload against in-process `asrs-server`s
//! over loopback sockets, timed from the client side with tracing off.

use crate::inputs::{self, Input, Planned, Workload};
use crate::measure::{median, peak_rss_mb, percentile, Checks, Metrics};
use crate::verify;
use asrs_core::{AsrsEngine, EngineBuilder, QueryResponse};
use asrs_server::{AsrsServer, HttpClient, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run: at least `SETUP_MIN`, and more until `SETUP_SECONDS`
/// of set-up time have passed, up to `SETUP_MAX`.  `setup_s` is their
/// median, so a sub-millisecond set-up is timed often enough to be steady.
const SETUP_MIN: usize = 21;
const SETUP_MAX: usize = 2_000;
const SETUP_SECONDS: f64 = 1.0;

/// The engine builder every workload uses for dataset `input`.
pub fn builder(input: &Input, cache: bool) -> EngineBuilder {
    AsrsEngine::builder(input.dataset.clone(), input.aggregator.clone())
        .build_index(inputs::GRID, inputs::GRID)
        .cache_capacity(if cache { inputs::CACHE_CAPACITY } else { 0 })
}

/// Engines and servers of one set-up.
struct Deployment {
    engines: Vec<AsrsEngine>,
    servers: Vec<ServerHandle>,
}

impl Deployment {
    fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::addr).collect()
    }

    fn shutdown(&mut self) {
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: inputs::CLIENTS,
        // Cold runs keep one connection per client and server open, some
        // idle for tens of seconds; the default idle timeout would close
        // them.  The whole-request deadline counts the idle wait before a
        // request too: at its default of 30 s, 45 s runs lost 4–19
        // requests each to connections the server closed on arrival.
        read_timeout: Duration::from_secs(120),
        request_deadline: Duration::from_secs(120),
        // Without TTLs or persistence the maintenance thread has no work.
        sweep_interval: None,
        ..ServerConfig::default()
    }
}

/// Builds every engine and starts one server per engine.
fn deploy(inputs: &[Input]) -> Deployment {
    let mut engines = Vec::new();
    let mut servers = Vec::new();
    for input in inputs {
        let engine = builder(input, true).build().expect("engine builds");
        let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", server_config())
            .expect("server binds");
        servers.push(server.start().expect("server starts"));
        engines.push(engine);
    }
    Deployment { engines, servers }
}

/// Sets up repeatedly, shutting down and dropping each deployment before
/// the next is built, so at most one is alive; returns the last with the
/// median set-up time in seconds.
fn timed_setup(inputs: &[Input]) -> (Deployment, f64) {
    let mut times = Vec::new();
    let mut kept: Option<Deployment> = None;
    loop {
        if let Some(mut old) = kept.take() {
            old.shutdown();
        }
        let started = Instant::now();
        kept = Some(deploy(inputs));
        times.push(started.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MAX || (times.len() >= SETUP_MIN && spent >= SETUP_SECONDS) {
            break;
        }
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// One answered (or failed) operation.
struct Sample {
    index: usize,
    latency_ms: f64,
    /// HTTP status; 0 for a protocol error.
    status: u16,
    body: String,
}

/// Posts `body` to `/query`, connecting first when `client` has no
/// connection; a protocol error drops the connection and answers status 0.
fn query(client: &mut Option<HttpClient>, addr: SocketAddr, body: &str) -> (u16, String) {
    if client.is_none() {
        *client = HttpClient::connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return (0, String::new());
    };
    match c.request("POST", "/query", body) {
        Ok(answer) => answer,
        Err(e) => {
            eprintln!("protocol error on /query: {e}");
            *client = None;
            (0, String::new())
        }
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Lines of extra figures for people (not part of the result line).
    pub notes: Vec<String>,
}

/// The end-to-end metrics of one window of timed queries: `latencies` of
/// every query (a failed one at its time to answer), `ok` queries answered
/// with 200.
fn query_metrics(
    metrics: &mut Metrics,
    checks: &mut Checks,
    setup_s: f64,
    mut latencies: Vec<f64>,
    ok: usize,
    elapsed_s: f64,
) {
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    checks.require(p95.is_some(), || {
        format!(
            "{} queries: too few for a p95 with ten samples beyond it",
            latencies.len()
        )
    });
    metrics.put("setup_s", setup_s, "s");
    metrics.put("query_p50_ms", p50.unwrap_or(f64::NAN), "ms");
    metrics.put("query_p95_ms", p95.unwrap_or(f64::NAN), "ms");
    metrics.put("query_ok_rps", ok as f64 / elapsed_s, "1/s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Closed loop, `CLIENTS` clients, over the seeded stream of distinct
/// requests; every request is a cache miss.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let inputs = &inputs::datasets(workload, seed);
    let (mut deployment, setup_s) = timed_setup(inputs);
    let addrs = deployment.addrs();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<(Planned, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs::CLIENTS)
            .map(|_| {
                let (addrs, next) = (&addrs, &next);
                scope.spawn(move || {
                    let mut clients: Vec<Option<HttpClient>> = addrs.iter().map(|_| None).collect();
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let planned = inputs::request(workload, seed, inputs, index);
                        let body = serde::json::to_string(&planned.request);
                        let sent = Instant::now();
                        let (status, body) =
                            query(&mut clients[planned.dataset], addrs[planned.dataset], &body);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        done.push((
                            planned,
                            Sample {
                                index,
                                latency_ms,
                                status,
                                body,
                            },
                        ));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let cache_misses: u64 = deployment
        .engines
        .iter()
        .map(|e| e.cache_stats().map_or(0, |s| s.misses))
        .sum();
    deployment.shutdown();

    let mut samples: Vec<(Planned, Sample)> = per_client.into_iter().flatten().collect();
    samples.sort_by_key(|(_, s)| s.index);
    let mut checks = Checks::default();
    let ok = samples.iter().filter(|(_, s)| s.status == 200).count();
    let deadline_failures = samples.iter().filter(|(_, s)| s.status == 408).count();
    let mut mismatched = 0;
    for (planned, sample) in &samples {
        // A spent budget is a failed operation, not a wrong answer.
        checks.require(sample.status == 200 || sample.status == 408, || {
            format!(
                "request {} ({}) answered {}: {}",
                sample.index, planned.op, sample.status, sample.body
            )
        });
        if sample.status == 200 {
            match serde::json::from_str::<QueryResponse>(&sample.body) {
                Ok(response) => {
                    mismatched += verify::answer(
                        &mut checks,
                        &inputs[planned.dataset],
                        &planned.request,
                        &response,
                        sample.index,
                    )
                }
                Err(e) => checks.require(false, || {
                    format!("request {}: unparsable response: {e}", sample.index)
                }),
            }
        }
    }
    checks.require(cache_misses as usize >= ok, || {
        format!("{ok} answers but only {cache_misses} cache misses: a cold stream must not hit")
    });

    let mut metrics = Metrics::default();
    let latencies = samples.iter().map(|(_, s)| s.latency_ms).collect();
    query_metrics(&mut metrics, &mut checks, setup_s, latencies, ok, elapsed_s);
    let attempted = samples.len() as u64;
    let failed = attempted - ok as u64;
    let notes = vec![
        format!("failed {failed} of {attempted}, {deadline_failures} of them over the {} ms budget", inputs::BUDGET_MS),
        format!("answers with a region that does not hold its reported representation: {mismatched} of {ok}"),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        checks,
        notes,
    }
}
