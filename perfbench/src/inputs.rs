//! Everything the benchmark feeds the program, generated from the seed:
//! datasets, request streams, request pools and the write schedule.
//!
//! The request stream is stratified rather than drawn independently: every
//! block of [`BLOCK`] consecutive requests holds the same number of each
//! operation, and each operation's query sizes cover 8–80 query units in
//! equal strata, with the seed choosing the point inside each stratum and
//! the order of the block.  Cold search cost depends mostly on the query
//! size, so stratifying keeps runs with different seeds comparable while
//! every request of a run stays distinct.

use asrs_aggregator::CompositeAggregator;
use asrs_bench::workloads::Workload as Family;
use asrs_core::QueryRequest;
use asrs_data::{Dataset, SpatialObject};
use asrs_geo::{Point, RegionSize};

/// Wall-clock budget carried by every request, in milliseconds.  It only
/// guards the run against a stall: the dataset sizes below keep every
/// request far inside it (the slowest of 6 000 probe requests on a 2-vCPU
/// host took 370 ms), so no operation fails.  A request that runs out of
/// it answers 408 and counts as a failed operation.
pub const BUDGET_MS: u64 = 10_000;
/// Closed-loop clients driving a workload, so requests in flight: the
/// host has two cores.
pub const CLIENTS: usize = 2;
/// Index granularity of every engine.
pub const GRID: usize = 32;
/// Query-result cache capacity of cached engines.
pub const CACHE_CAPACITY: usize = 1024;
/// Objects of each Tweet-analogue dataset.  Larger sizes have search
/// cliffs that move with the seed: at 3k objects a MaxRS took 1.0 s, at 5k
/// 1.1 s, and at 10k 2.6 s, while similar and batch requests at 5k ran
/// past 10 s on some seeds.  At 2k the slowest of 4 000 requests over ten
/// seeds took 370 ms, 5× its p99.
pub const TWEET_OBJECTS: usize = 2_000;
/// Objects of each POISyn-analogue dataset.  At 2k objects 17–21 % of the
/// requests took longer than 250 ms and at 5k some ran past 90 s; at 1k
/// the slowest of 2 000 requests over ten seeds took 363 ms.
pub const POISYN_OBJECTS: usize = 1_000;
/// Independent datasets (one engine and server each) a run spreads
/// its stream over, so one dataset's costs do not decide the run.  With 48
/// the p95 of `cold_f2` spread 0.18 over five seeds; with 192, 0.06.
pub const DATASETS: usize = 192;
/// Shards of the traced run's sharded twin engines.
pub const SHARDS: usize = 4;
/// Objects in one `append_batch` payload of the write schedule.
pub const WRITE_BATCH: usize = 8;
/// Time to live of TTL'd appends, in milliseconds.
pub const WRITE_TTL_MS: u64 = 3_000;

/// Smallest and largest query size, in query units `q`.
const K_MIN: f64 = 8.0;
const K_MAX: f64 = 80.0;
/// MaxRS region sides range over extent/80 … extent/20.
const MAXRS_DIV_MIN: f64 = 20.0;
const MAXRS_DIV_MAX: f64 = 80.0;

/// The operations of one block: per operation, how many slots it has.
const MIX: [(Op, usize); 5] = [
    (Op::Similar, 8),
    (Op::TopK, 3),
    (Op::Approximate, 3),
    (Op::Batch, 3),
    (Op::MaxRs, 3),
];
/// Requests per stratified block.
pub const BLOCK: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Similar,
    TopK,
    Approximate,
    Batch,
    MaxRs,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdF1,
    ColdF2,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold_f1" => Workload::ColdF1,
            "cold_f2" => Workload::ColdF2,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdF1 => "cold_f1",
            Workload::ColdF2 => "cold_f2",
        }
    }

    pub fn family(self) -> Family {
        match self {
            Workload::ColdF1 => Family::Tweet,
            Workload::ColdF2 => Family::PoiSyn,
        }
    }

    pub fn objects(self) -> usize {
        match self.family() {
            Family::PoiSyn => POISYN_OBJECTS,
            _ => TWEET_OBJECTS,
        }
    }
}

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for the `index`-th item of stream `tag`, independent of
    /// how many other items were drawn before it.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

const TAG_DATASET: u64 = 1;
const TAG_BLOCK: u64 = 2;
const TAG_SLOT: u64 = 3;
const TAG_WRITES: u64 = 4;

/// One generated dataset with its aggregator.
pub struct Input {
    pub dataset: Dataset,
    pub aggregator: CompositeAggregator,
}

/// The workload's datasets, generated from the seed.
pub fn datasets(workload: Workload, seed: u64) -> Vec<Input> {
    let family = workload.family();
    (0..DATASETS)
        .map(|j| {
            let data_seed = Rng::derive(seed, TAG_DATASET, j as u64).next_u64();
            let dataset = family.dataset(workload.objects(), data_seed);
            let aggregator = family.aggregator(&dataset);
            Input {
                dataset,
                aggregator,
            }
        })
        .collect()
}

/// One request of a stream: which dataset (engine) it targets, its
/// operation name, and the request with the workload's budget attached.
#[derive(Debug, Clone)]
pub struct Planned {
    pub dataset: usize,
    pub op: &'static str,
    pub request: QueryRequest,
}

/// The `index`-th request of the workload's stream.  Request `i` belongs
/// to stratified block `i / BLOCK` and targets dataset `i mod D`.
pub fn request(workload: Workload, seed: u64, inputs: &[Input], index: usize) -> Planned {
    let dataset = index % inputs.len();
    let (block, slot) = (index / BLOCK, index % BLOCK);
    // The block's order: a seeded permutation of the MIX slots.
    let mut order: Vec<(Op, usize, usize)> = MIX
        .iter()
        .flat_map(|&(op, n)| (0..n).map(move |s| (op, s, n)))
        .collect();
    let mut shuffle = Rng::derive(seed, TAG_BLOCK, block as u64);
    for i in (1..order.len()).rev() {
        order.swap(i, shuffle.below(i + 1));
    }
    let (op, stratum, strata) = order[slot];
    let mut rng = Rng::derive(seed, TAG_SLOT, index as u64);
    let mut k = || K_MIN + (K_MAX - K_MIN) * (stratum as f64 + rng.unit()) / strata as f64;
    let family = workload.family();
    let ds = &inputs[dataset].dataset;
    let (name, request) = match op {
        Op::Similar => ("similar", QueryRequest::similar(family.query(ds, k()))),
        Op::TopK => ("top_k", QueryRequest::top_k(family.query(ds, k()), 3)),
        Op::Approximate => {
            let query = family.query(ds, k());
            let delta = 0.1 + 0.4 * Rng::derive(seed, TAG_SLOT ^ 0xA, index as u64).unit();
            ("approximate", QueryRequest::approximate(query, delta))
        }
        Op::Batch => {
            let first = family.query(ds, k());
            let mut other = Rng::derive(seed, TAG_SLOT ^ 0xB, index as u64);
            let second = family.query(ds, K_MIN + (K_MAX - K_MIN) * other.unit());
            ("batch", QueryRequest::batch(vec![first, second]))
        }
        Op::MaxRs => {
            let frac = (stratum as f64 + Rng::derive(seed, TAG_SLOT ^ 0xC, index as u64).unit())
                / strata as f64;
            let div = MAXRS_DIV_MIN + (MAXRS_DIV_MAX - MAXRS_DIV_MIN) * frac;
            let bbox = ds.bounding_box().expect("generated datasets are non-empty");
            (
                "max_rs",
                QueryRequest::max_rs(RegionSize::new(bbox.width() / div, bbox.height() / div)),
            )
        }
    };
    Planned {
        dataset,
        op: name,
        request: request.with_budget_ms(BUDGET_MS),
    }
}

/// The requests the traced run replays: the first block of the stream.
pub fn pool(workload: Workload, seed: u64, inputs: &[Input]) -> Vec<Planned> {
    (0..BLOCK)
        .map(|i| request(workload, seed, inputs, i))
        .collect()
}

/// One operation of the write schedule.
#[derive(Debug, Clone)]
pub enum Write {
    Append(SpatialObject),
    AppendTtl(SpatialObject),
    Batch(Vec<SpatialObject>),
    /// Removes, by id, a solo (non-TTL) append earlier in the schedule.
    Remove(u64),
}

impl Write {
    pub fn objects(&self) -> usize {
        match self {
            Write::Append(_) | Write::AppendTtl(_) | Write::Remove(_) => 1,
            Write::Batch(items) => items.len(),
        }
    }
}

/// Ids of appended objects start here, far above any generated id.
const WRITE_ID_BASE: u64 = 1_000_000_000;

/// The `n` first operations of the write schedule over `dataset`: 40 %
/// solo appends, 20 % TTL'd appends, 20 % `append_batch` payloads and
/// 20 % removals of earlier solo appends.  New objects copy the location
/// (slightly moved) and attributes of a random existing object, so writes
/// land where queries look.
pub fn write_schedule(seed: u64, dataset: &Dataset, n: usize) -> Vec<Write> {
    let mut rng = Rng::derive(seed, TAG_WRITES, 0);
    let bbox = dataset
        .bounding_box()
        .expect("generated datasets are non-empty");
    let jitter = bbox.width().min(bbox.height()) / 2_000.0;
    let mut next_id = WRITE_ID_BASE;
    let mut fresh = |rng: &mut Rng| {
        let template = dataset.object(rng.below(dataset.len()));
        let location = Point::new(
            template.location.x + jitter * (rng.unit() - 0.5),
            template.location.y + jitter * (rng.unit() - 0.5),
        );
        next_id += 1;
        SpatialObject::new(next_id, location, template.values.clone())
    };
    let mut removable: Vec<u64> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.unit();
        let op = if roll < 0.2 && !removable.is_empty() {
            let victim = removable.swap_remove(rng.below(removable.len()));
            Write::Remove(victim)
        } else if roll < 0.4 {
            Write::AppendTtl(fresh(&mut rng))
        } else if roll < 0.6 {
            Write::Batch((0..WRITE_BATCH).map(|_| fresh(&mut rng)).collect())
        } else {
            let object = fresh(&mut rng);
            removable.push(object.id);
            Write::Append(object)
        };
        ops.push(op);
    }
    ops
}
