//! The traced run: replays the workload's generated inputs in-process and
//! records a span around every call into a layer's public functions.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to `.perfbench_run/trace-<workload>-<seed>.json` at the end.
//! Work counters come from the `SearchStats`, `CacheStats`,
//! `MutationStats` and `PersistStats` the layers return.  The search
//! replay runs twice on a cache-off engine; its work counters and its set
//! of failed requests must repeat, which makes them regression gates, and
//! once more, with `cold_f1`'s inputs, on cache-off sharded engines for the
//! shard counters.

use crate::e2e::{self, Outcome};
use crate::inputs::{self, Input, Planned, Workload, Write};
use crate::measure::{median, Checks, Metrics};
use crate::verify;
use asrs_baseline::OptimalEnclosure;
use asrs_core::asp::AspInstance;
use asrs_core::{AsrsEngine, GridIndex, QueryRequest, QueryResponse, SearchStats};
use asrs_persist::PersistExt;
use asrs_server::{AsrsServer, HttpClient, ServerConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    request: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in microseconds.
    fn end(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        end_us - span.start_us
    }

    /// Times `f` as one span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        (out, self.end(id))
    }

    fn write(&self, path: &Path, meta: &str) {
        let mut out = format!("{{\"meta\": {meta}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                opt(s.parent),
                opt(s.request),
                s.start_us,
                s.end_us
            );
        }
        out.push_str("]}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("could not write the span dump to {}: {e}", path.display());
        }
    }
}

/// One replayed request's outcome on the cache-off engine.
struct Replayed {
    planned: Planned,
    plan_us: f64,
    chosen_cost: f64,
    search_ms: f64,
    stats: Option<SearchStats>,
}

type Replay = (Vec<Replayed>, Vec<Option<QueryResponse>>);

/// The counters the search gate compares between the two replays.
fn work_counters(stats: &SearchStats) -> [u64; 9] {
    [
        stats.spaces_processed,
        stats.splits,
        stats.drops,
        stats.fallback_points,
        stats.dirty_cells,
        stats.dirty_cells_pruned,
        stats.index_cells_searched,
        stats.shards_touched,
        stats.shards_pruned,
    ]
}

/// One engine per dataset the replay touches, `None` for the others.
type Engines = Vec<Option<AsrsEngine>>;

fn build_engines(
    inputs: &[Input],
    requests: &[Planned],
    build: impl Fn(&Input) -> AsrsEngine,
) -> Engines {
    (0..inputs.len())
        .map(|d| {
            requests
                .iter()
                .any(|r| r.dataset == d)
                .then(|| build(&inputs[d]))
        })
        .collect()
}

fn built(engines: &Engines, dataset: usize) -> &AsrsEngine {
    engines[dataset]
        .as_ref()
        .expect("an engine is built for every replayed dataset")
}

/// Replays `requests` on `twins`, one span `name` per request; with
/// `planner`, plans each request on it first.
fn replay_search(
    tracer: &mut Tracer,
    planner: Option<&Engines>,
    twins: &Engines,
    name: &'static str,
    requests: &[Planned],
) -> Replay {
    requests
        .iter()
        .enumerate()
        .map(|(r, planned)| {
            let root = tracer.begin("request", None, Some(r));
            let (plan, plan_us) = match planner {
                Some(engines) => {
                    let (plan, us) = tracer.time("planner.plan", Some(root), Some(r), || {
                        built(engines, planned.dataset).plan(&planned.request)
                    });
                    (plan.ok(), us)
                }
                None => (None, f64::NAN),
            };
            let (answer, search_us) = tracer.time(name, Some(root), Some(r), || {
                built(twins, planned.dataset).submit(&planned.request)
            });
            tracer.end(root);
            let answer = answer.ok();
            let replayed = Replayed {
                planned: planned.clone(),
                plan_us,
                chosen_cost: plan.map_or(f64::NAN, |p| p.chosen_cost),
                search_ms: search_us / 1e3,
                stats: answer.as_ref().map(|a| a.stats.clone()),
            };
            (replayed, answer)
        })
        .unzip()
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// Operations the traced run attempted and saw fail.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Hits timed with and without a span each, for the tracing overhead.
const OVERHEAD_HITS: usize = 20_000;
/// Calls per span in the hit and round-trip loops, and the fewest spans.
const HIT_BATCH: usize = 1_000;
const RTT_BATCH: usize = 20;
const MIN_BATCHES: usize = 20;
const INDEX_REPEATS: usize = 5;
const INDEX_UPDATES: usize = 64;
const WRITE_OPS: usize = 40;
/// Warm keys of the hit and round-trip loops.
const WARM_KEYS: usize = 4;
const SNAPSHOT_REPEATS: usize = 3;

pub fn run(workload: Workload, seed: u64, seconds: f64, run_dir: &Path, meta: &str) -> Outcome {
    let run_started = Instant::now();
    let inputs = inputs::datasets(workload, seed);
    let requests = inputs::pool(workload, seed, &inputs);
    let build = |input: &Input, cache: bool, shards: usize| {
        e2e::builder(input, cache)
            .shards(shards)
            .build()
            .expect("engine builds")
    };
    let engines = build_engines(&inputs, &requests, |i| build(i, true, 0));
    let twins = build_engines(&inputs, &requests, |i| build(i, false, 0));
    // The shard layer replays `cold_f1`'s pool on every workload: on 4
    // shards, 4 of the first 20 requests of POISyn seeds 1–8 ran past 2 s
    // (one past 10 s) where the unsharded twin answered in under 0.1 s,
    // while Tweet's took at most 0.1 s.
    let shard_inputs = inputs::datasets(Workload::ColdF1, seed);
    let shard_requests = inputs::pool(Workload::ColdF1, seed, &shard_inputs);
    let sharded = build_engines(&shard_inputs, &shard_requests, |i| {
        build(i, false, inputs::SHARDS)
    });
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Search layer: two replays on the cache-off twins.
    let (first, answers) = replay_search(
        &mut tracer,
        Some(&engines),
        &twins,
        "search.submit",
        &requests,
    );
    let (second, _) = replay_search(&mut tracer, None, &twins, "search.submit", &requests);
    for r in first.iter().chain(&second) {
        tally.count(r.stats.is_some());
    }
    // Both replays must answer the same requests, and the work counters of
    // the requests answered in both must repeat exactly.
    let mut flips = Vec::new();
    let mut sums = [[0u64; 9]; 2];
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        match (&a.stats, &b.stats) {
            (Some(x), Some(y)) => {
                for (k, (cx, cy)) in work_counters(x)
                    .into_iter()
                    .zip(work_counters(y))
                    .enumerate()
                {
                    sums[0][k] += cx;
                    sums[1][k] += cy;
                }
            }
            (Some(_), None) | (None, Some(_)) => flips.push(i),
            (None, None) => {}
        }
    }
    checks.require(flips.is_empty(), || {
        format!("requests {flips:?} failed in only one of two replays")
    });
    checks.require(sums[0] == sums[1], || {
        format!(
            "search work counters differ between two replays: {:?} vs {:?}",
            sums[0], sums[1]
        )
    });
    // Shard layer: one more replay on cache-off sharded twins.
    let (on_shards, shard_answers) =
        replay_search(&mut tracer, None, &sharded, "shard.submit", &shard_requests);
    let mut shard_total = SearchStats::default();
    for r in &on_shards {
        tally.count(r.stats.is_some());
        if let Some(stats) = &r.stats {
            shard_total.merge(stats);
        }
    }
    let checked = first
        .iter()
        .zip(&answers)
        .map(|(r, a)| (&inputs, r, a))
        .chain(
            on_shards
                .iter()
                .zip(&shard_answers)
                .map(|(r, a)| (&shard_inputs, r, a)),
        );
    for (i, (data, r, answer)) in checked.enumerate() {
        if let Some(answer) = answer {
            verify::answer(
                &mut checks,
                &data[r.planned.dataset],
                &r.planned.request,
                answer,
                i % requests.len(),
            );
        }
    }
    let ok: Vec<&Replayed> = first.iter().filter(|r| r.stats.is_some()).collect();
    // The reported counters cover the requests answered in both replays,
    // the set the gate compared.
    let mut total = SearchStats::default();
    for (a, b) in first.iter().zip(&second) {
        if let (Some(stats), Some(_)) = (&a.stats, &b.stats) {
            total.merge(stats);
        }
    }

    // MaxRS against the baseline at the same sizes; a request that ran out
    // of budget counts at its time to answer.
    let mut baseline_ms = 0.0;
    let mut engine_ms = 0.0;
    for r in &first {
        if let QueryRequest::MaxRs { size } = r.planned.request.operation() {
            let dataset = &inputs[r.planned.dataset].dataset;
            let (outcome, us) = tracer.time("baseline.optimal_enclosure", None, None, || {
                OptimalEnclosure::new(dataset, *size).search()
            });
            checks.require(outcome.is_ok(), || "OptimalEnclosure failed".to_string());
            baseline_ms += us / 1e3;
            engine_ms += r.search_ms;
        }
    }

    // Planner: estimate against measured cost, one ms-per-unit constant.
    let fitted = median(
        &ok.iter()
            .map(|r| r.search_ms / r.chosen_cost)
            .collect::<Vec<_>>(),
    );
    let q_errors: Vec<f64> = ok
        .iter()
        .map(|r| {
            let predicted = fitted * r.chosen_cost;
            (predicted / r.search_ms).max(r.search_ms / predicted)
        })
        .collect();

    // Cache and server: warm the first stream requests of dataset 0, then
    // time in-process hits and loopback round trips of the same keys.  A
    // hit must equal the key's cold computation.
    let warm: Vec<Planned> = (0..WARM_KEYS)
        .map(|i| inputs::request(workload, seed, &inputs, i * inputs::DATASETS))
        .collect();
    let engine = built(&engines, 0);
    let mut cold_answers = Vec::new();
    for p in &warm {
        let (answer, _) = tracer.time("cache.fill", None, None, || engine.submit(&p.request));
        match answer {
            Ok(answer) => cold_answers.push(answer),
            Err(e) => checks.require(false, || format!("warming {} failed: {e:?}", p.op)),
        }
    }
    for (p, cold) in warm.iter().zip(&cold_answers) {
        let hit = engine.submit(&p.request);
        checks.require(hit.as_ref().ok() == Some(cold), || {
            format!("a {} hit differs from its cold computation", p.op)
        });
    }
    // ASP instances at every region size the replay asked for.
    let mut asp_ms = Vec::new();
    for r in &requests {
        let dataset = &inputs[r.dataset].dataset;
        let sizes: Vec<asrs_geo::RegionSize> = match r.request.operation() {
            QueryRequest::Similar { query }
            | QueryRequest::TopK { query, .. }
            | QueryRequest::Approximate { query, .. } => vec![query.size],
            QueryRequest::Batch { queries } => queries.iter().map(|q| q.size).collect(),
            QueryRequest::MaxRs { size } => vec![*size],
            _ => vec![],
        };
        for size in sizes {
            let (asp, us) = tracer.time("asp.build", None, None, || {
                AspInstance::build(dataset, size, None, 1e-12)
            });
            let _ = std::hint::black_box(asp);
            asp_ms.push(us / 1e3);
        }
    }

    // Index: build, then incremental updates on a clone.
    let input = &inputs[0];
    let mut build_ms = Vec::new();
    let mut index = None;
    for _ in 0..INDEX_REPEATS {
        let (built, us) = tracer.time("index.build", None, None, || {
            GridIndex::build(
                &input.dataset,
                &input.aggregator,
                inputs::GRID,
                inputs::GRID,
            )
        });
        build_ms.push(us / 1e3);
        index = built.ok();
    }
    let mut index = index.expect("index builds");
    let fresh: Vec<asrs_data::SpatialObject> =
        inputs::write_schedule(seed, &input.dataset, INDEX_UPDATES * 2)
            .into_iter()
            .filter_map(|w| match w {
                Write::Append(o) | Write::AppendTtl(o) => Some(o),
                _ => None,
            })
            .take(INDEX_UPDATES)
            .collect();
    let append_us: Vec<f64> = fresh
        .iter()
        .map(|o| {
            tracer
                .time("index.update_append", None, None, || {
                    index.update_append(o, &input.aggregator)
                })
                .1
        })
        .collect();
    let remove_us: Vec<f64> = fresh
        .iter()
        .rev()
        .map(|o| {
            tracer
                .time("index.update_remove", None, None, || {
                    index.update_remove(o, &input.dataset, &input.aggregator)
                })
                .1
        })
        .collect();

    // Commit path: the write schedule through a persistent, unsharded,
    // cache-off engine.
    let write_dir = run_dir.join("traced-persist");
    let _ = std::fs::remove_dir_all(&write_dir);
    let persistent = e2e::builder(input, false)
        .persist_dir(&write_dir)
        .build()
        .expect("persistent engine boots");
    let live = persistent.engine();
    let (m0, p0) = (live.mutation_stats(), persistent.persist().stats());
    let writes = inputs::write_schedule(seed, &input.dataset, WRITE_OPS);
    let mut ack_ms = Vec::new();
    let mut objects_written = 0usize;
    for (i, write) in writes.iter().enumerate() {
        let (result, us) = tracer.time("commit", None, None, || match write {
            Write::Append(o) => live.append(o.clone()).map(|_| ()),
            Write::AppendTtl(o) => live
                .append_with_ttl(o.clone(), Duration::from_millis(inputs::WRITE_TTL_MS))
                .map(|_| ()),
            Write::Batch(items) => live
                .append_batch(items.iter().map(|o| (o.clone(), None)).collect())
                .map(|_| ()),
            Write::Remove(id) => live.remove(*id).map(|_| ()),
        });
        tally.count(result.is_ok());
        checks.require(result.is_ok(), || {
            format!("write {i} failed: {:?}", result.err())
        });
        ack_ms.push(us / 1e3);
        objects_written += write.objects();
    }
    let (m1, p1) = (live.mutation_stats(), persistent.persist().stats());
    let mut snapshot_ms = Vec::new();
    let mut snapshot_bytes = 0u64;
    for _ in 0..SNAPSHOT_REPEATS {
        let (report, us) = tracer.time("snapshot.write", None, None, || persistent.snapshot());
        snapshot_ms.push(us / 1e3);
        snapshot_bytes = report.expect("snapshot writes").bytes;
    }
    drop(persistent);

    // Cache and server fill the rest of the run: in-process hits and
    // loopback round trips of the warm keys, one span per batch.
    let before = engine.cache_stats().expect("cached engine");
    let key = |i: usize| &warm[i % warm.len()].request;
    let untraced_started = Instant::now();
    for i in 0..OVERHEAD_HITS {
        let _ = std::hint::black_box(engine.submit(key(i)));
    }
    let untraced_s = untraced_started.elapsed().as_secs_f64();
    // The same hits with a span each; these spans only measure their own
    // cost and are dropped again.
    let mark = tracer.spans.len();
    let traced_started = Instant::now();
    for i in 0..OVERHEAD_HITS {
        let _ =
            std::hint::black_box(tracer.time("cache.hit", None, None, || engine.submit(key(i))));
    }
    let traced_s = traced_started.elapsed().as_secs_f64();
    tracer.spans.truncate(mark);
    let end = run_started + Duration::from_secs_f64(seconds);
    let hits_until = Instant::now().max(end - (end.saturating_duration_since(Instant::now()) / 2));
    let mut hit_us = Vec::new();
    while hit_us.len() < MIN_BATCHES || Instant::now() < hits_until {
        let ((), us) = tracer.time("cache.hit_batch", None, None, || {
            for i in 0..HIT_BATCH {
                let _ = std::hint::black_box(engine.submit(key(i)));
            }
        });
        hit_us.push(us / HIT_BATCH as f64);
    }
    let after = engine.cache_stats().expect("cached engine");
    checks.require(after.misses == before.misses, || {
        "a warm key missed the cache".to_string()
    });
    let server = AsrsServer::bind(engine.handle(), "127.0.0.1:0", ServerConfig::default())
        .and_then(AsrsServer::start)
        .expect("server starts");
    let bodies: Vec<String> = warm
        .iter()
        .map(|p| serde::json::to_string(&p.request))
        .collect();
    let cold_bodies: Vec<String> = cold_answers.iter().map(serde::json::to_string).collect();
    let mut rtt_us = Vec::new();
    {
        let mut client = HttpClient::connect(server.addr()).expect("client connects");
        while rtt_us.len() < MIN_BATCHES || Instant::now() < end {
            let (same, us) = tracer.time("server.request_batch", None, None, || {
                (0..RTT_BATCH)
                    .map(|i| {
                        let j = i % bodies.len();
                        match client.request("POST", "/query", &bodies[j]) {
                            Ok((200, body)) => cold_bodies.get(j) == Some(&body),
                            _ => false,
                        }
                    })
                    .collect::<Vec<bool>>()
            });
            checks.require(same.iter().all(|&s| s), || {
                "a loopback hit did not answer 200 with its cold computation's bytes".to_string()
            });
            rtt_us.push(us / RTT_BATCH as f64);
        }
    }
    server.shutdown();

    let fsyncs = p1.fsyncs - p0.fsyncs;
    let rtt = median(&rtt_us) - median(&hit_us);
    let search_ms: Vec<f64> = first.iter().map(|r| r.search_ms).collect();
    let maxrs: Vec<&Replayed> = first.iter().filter(|r| r.planned.op == "max_rs").collect();
    let maxrs_ms: Vec<f64> = maxrs.iter().map(|r| r.search_ms).collect();
    let maxrs_fallback: u64 = maxrs
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .map(|s| s.fallback_points)
        .sum();

    metrics.put("server.rtt_us", rtt, "us");
    metrics.put("cache.hit_us", median(&hit_us), "us");
    metrics.put(
        "planner.plan_us",
        median(&first.iter().map(|r| r.plan_us).collect::<Vec<_>>()),
        "us",
    );
    metrics.put("planner.q_error_p50", median(&q_errors), "ratio");
    metrics.put("planner.q_error_max", max(&q_errors), "ratio");
    metrics.put("asp.build_ms", median(&asp_ms), "ms");
    metrics.put("search.ms_p50", median(&search_ms), "ms");
    metrics.put("search.ms_max", max(&search_ms), "ms");
    metrics.put("search.spaces", total.spaces_processed as f64, "count");
    metrics.put("search.splits", total.splits as f64, "count");
    metrics.put("search.drops", total.drops as f64, "count");
    metrics.put(
        "search.fallback_points",
        total.fallback_points as f64,
        "count",
    );
    metrics.put(
        "search.prune_ratio",
        total.dirty_cells_pruned as f64 / total.dirty_cells.max(1) as f64,
        "ratio",
    );
    // Sharded engines report no index cells; their ratio reads 0.
    metrics.put(
        "search.index_ratio",
        total.index_search_ratio().unwrap_or(0.0),
        "ratio",
    );
    metrics.put("shard.touched", shard_total.shards_touched as f64, "count");
    metrics.put("shard.pruned", shard_total.shards_pruned as f64, "count");
    metrics.put("maxrs.ms_max", max(&maxrs_ms), "ms");
    metrics.put("maxrs.fallback_points", maxrs_fallback as f64, "count");
    metrics.put("maxrs.vs_baseline", engine_ms / baseline_ms, "ratio");
    metrics.put("index.build_ms", median(&build_ms), "ms");
    metrics.put("index.append_us", median(&append_us), "us");
    metrics.put("index.remove_us", median(&remove_us), "us");
    metrics.put("commit.ack_ms_p50", median(&ack_ms), "ms");
    metrics.put("commit.ack_ms_max", max(&ack_ms), "ms");
    metrics.put(
        "commit.objects_per_generation",
        objects_written as f64 / (m1.generation - m0.generation).max(1) as f64,
        "ratio",
    );
    metrics.put(
        "commit.index_rebuilds",
        (m1.index_rebuilds - m0.index_rebuilds) as f64,
        "count",
    );
    metrics.put(
        "wal.fsync_us_mean",
        (p1.fsync_total_us - p0.fsync_total_us) as f64 / fsyncs.max(1) as f64,
        "us",
    );
    metrics.put(
        "wal.bytes_per_object",
        (p1.wal_bytes as f64 - p0.wal_bytes as f64) / objects_written.max(1) as f64,
        "bytes",
    );
    metrics.put("snapshot.write_ms", median(&snapshot_ms), "ms");
    metrics.put("snapshot.bytes", snapshot_bytes as f64, "bytes");
    metrics.put(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );

    let dump = Path::new(".perfbench_run").join(format!("trace-{}-{seed}.json", workload.name()));
    tracer.write(&dump, meta);
    let notes = vec![
        format!("replayed {} requests twice; {} failed on the {} ms budget", requests.len(), first.len() - ok.len(), inputs::BUDGET_MS),
        format!("sharded replay of the cold_f1 pool ({} shards): {} of {} requests answered", inputs::SHARDS, on_shards.iter().filter(|r| r.stats.is_some()).count(), shard_requests.len()),
        format!("{} spans written to {}", tracer.spans.len(), dump.display()),
        format!("tracing overhead: {:.3} ms untraced vs {:.3} ms traced for {OVERHEAD_HITS} in-process hits", untraced_s * 1e3, traced_s * 1e3),
    ];
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        checks,
        notes,
    }
}
