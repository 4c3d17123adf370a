//! Workload definitions and seeded input generation.
//!
//! The dataset is the fixed E6 incident point for each workload (data
//! seed [`DATA_SEED`]); `--seed` drives everything the clients send: the
//! read stream, the write targets and the output-check sample. The
//! program under test only ever sees the generated requests.

use std::collections::HashSet;

use grdf_rdf::graph::Graph;
use grdf_rdf::term::{Term, Triple};
use grdf_rdf::vocab::{grdf, rdf};
use grdf_workload::incident::roles;
use grdf_workload::requests::{generate_requests, query_pool, RequestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::Digest;

/// Seed of the generated incident dataset (the E6 data point is fixed;
/// only the request streams vary with `--seed`).
pub const DATA_SEED: u64 = 42;

/// Query-cache capacity of the service under test (as `grdf-cli serve`).
pub const CACHE_CAPACITY: usize = 16;

/// Length of the read stream; closed loops cycle through it.
const STREAM_LEN: usize = 1 << 16;

/// Distinct read texts generated for `read_unique` (cycled if a run sends
/// more; by then every earlier text has long left the 16-entry cache).
const UNIQUE_LEN: usize = 1 << 14;

/// Open-loop read rate of `mixed_writes`.
pub const OPEN_READ_RATE: u64 = 100;

/// One write every this many milliseconds in `mixed_writes`, the first
/// half a period in.
pub const WRITE_PERIOD_MS: u64 = 3_000;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm path: Zipf reads over five templates, closed loop.
    ReadSkewed,
    /// Cold path at E6 scale: every query text distinct, closed loop.
    ReadUnique,
    /// `read_skewed` reads at a fixed rate plus a write every 3 s, durable.
    MixedWrites,
}

/// E6 incident dataset size: `streams × sites` at `detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub streams: usize,
    pub sites: usize,
    pub detail: usize,
}

impl Scale {
    /// The `S×S_dD` label used in reports.
    pub fn label(self) -> String {
        format!("{}×{}_d{}", self.streams, self.sites, self.detail)
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadSkewed,
        Workload::ReadUnique,
        Workload::MixedWrites,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSkewed => "read_skewed",
            Workload::ReadUnique => "read_unique",
            Workload::MixedWrites => "mixed_writes",
        }
    }

    /// The E6 data point the workload serves.
    pub fn scale(self) -> Scale {
        match self {
            Workload::ReadUnique => Scale {
                streams: 1000,
                sites: 1000,
                detail: 7,
            },
            Workload::ReadSkewed | Workload::MixedWrites => Scale {
                streams: 250,
                sites: 250,
                detail: 3,
            },
        }
    }

    /// Set-ups per run, each followed by write-probe pairs and a cold
    /// phase. Every set-up is a fresh service, so the run's figures do not
    /// hang on one instance. Fewer at E6 scale, where one cold phase
    /// builds three views of up to 487 K triples.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ReadUnique => 3,
            Workload::ReadSkewed | Workload::MixedWrites => 8,
        }
    }

    /// Insert/delete pairs of the write probe per set-up.
    pub fn probe_pairs(self) -> usize {
        4
    }

    /// Whether the service runs on a write-ahead-logged store.
    pub fn durable(self) -> bool {
        self == Workload::MixedWrites
    }
}

/// The three §7.1 roles, in the index order the streams use.
pub fn role_iris() -> [String; 3] {
    [roles::main_repair(), roles::hazmat(), roles::emergency()]
}

/// Index of 'main repair' in [`role_iris`].
pub const MAIN_REPAIR: u8 = 0;

/// Query shape: which `query_pool` template family a text comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `?f a app:ChemSite` inside a `grdf:intersectsBox` window.
    Window,
    /// Stream names with `LIMIT` (and `OFFSET` in `read_unique`).
    Streams,
    /// `hasChemicalInfo/hasChemCode` join with `OFFSET`.
    ChemCodes,
}

impl Shape {
    fn of(i: usize) -> Shape {
        match i % 3 {
            0 => Shape::Window,
            1 => Shape::Streams,
            _ => Shape::ChemCodes,
        }
    }
}

/// One read: a role index into [`role_iris`] and a query index into
/// [`Inputs::queries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Read {
    pub role: u8,
    pub query: u32,
}

/// One single-triple update by the emergency role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write {
    pub insert: bool,
    pub triple: Triple,
}

impl Write {
    /// The `/update` body: one `+`/`-` prefixed N-Triples line.
    pub fn body(&self) -> String {
        format!("{}{}\n", if self.insert { '+' } else { '-' }, self.triple)
    }
}

/// One entry of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// Read `reads[i]` is due `at_us` after the phase begins.
    Read { at_us: u64, i: usize },
    /// Write `writes[k]` is due `at_us` after the phase begins.
    Write { at_us: u64, k: usize },
}

impl Due {
    pub fn at_us(self) -> u64 {
        match self {
            Due::Read { at_us, .. } | Due::Write { at_us, .. } => at_us,
        }
    }
}

/// Everything the clients will send in one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// Distinct query texts; reads index into it.
    pub queries: Vec<String>,
    /// Shape of each query text.
    pub shapes: Vec<Shape>,
    /// The read stream (cycled by closed loops).
    pub reads: Vec<Read>,
    /// Writes: `mixed_writes`' timed-phase writes (the first
    /// `timed_writes`), then, from `probe_from`, the write probe every
    /// workload sends to each freshly set-up service.
    pub writes: Vec<Write>,
    pub timed_writes: usize,
    pub probe_from: usize,
    /// The first read of each role, in role order (the cold phase).
    pub cold: Vec<Read>,
    /// Reads whose HTTP rows are compared against the reference.
    pub checks: Vec<Read>,
}

impl Inputs {
    /// Generate the run's inputs. `base` is the generated dataset (the
    /// write targets are drawn from its ChemSites); `seconds` sizes the
    /// open-loop schedule.
    pub fn generate(workload: Workload, seed: u64, base: &Graph, seconds: u64) -> Inputs {
        let (queries, shapes, reads) = match workload {
            Workload::ReadSkewed | Workload::MixedWrites => skewed_reads(seed),
            Workload::ReadUnique => unique_reads(seed),
        };
        let cold = (0..3u8)
            .map(|r| {
                *reads
                    .iter()
                    .find(|x| x.role == r)
                    .expect("every role appears in the read stream")
            })
            .collect();
        let checks = match workload {
            // Every (role, query) pair the stream can send.
            Workload::ReadSkewed | Workload::MixedWrites => {
                let mut pairs: Vec<Read> = Vec::new();
                for role in 0..3u8 {
                    for q in 0..queries.len() as u32 {
                        pairs.push(Read { role, query: q });
                    }
                }
                pairs
            }
            // A seeded sample of the stream: four reads per shape.
            Workload::ReadUnique => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC_5A3B);
                let mut picked = Vec::new();
                let mut per_shape = [0usize; 3];
                while per_shape.iter().any(|&n| n < 4) {
                    let r = reads[rng.gen_range(0..reads.len())];
                    let s = shapes[r.query as usize] as usize;
                    if per_shape[s] < 4 && !picked.contains(&r) {
                        per_shape[s] += 1;
                        picked.push(r);
                    }
                }
                picked
            }
        };
        let timed_writes = match workload {
            Workload::MixedWrites => (0..)
                .take_while(|k| write_due_us(*k) < seconds * 1_000_000)
                .count(),
            _ => 0,
        };
        let probe_from = timed_writes.next_multiple_of(2);
        let probes = 2 * workload.probe_pairs() * workload.setup_reps();
        let writes = write_sequence(seed, base, probe_from + probes);
        Inputs {
            workload,
            queries,
            shapes,
            reads,
            writes,
            timed_writes,
            probe_from,
            cold,
            checks,
        }
    }

    /// The open-loop schedule of `mixed_writes` for a `seconds`-long
    /// timed phase, ordered by due time.
    pub fn schedule(&self, seconds: u64) -> Vec<Due> {
        let horizon_us = seconds * 1_000_000;
        let step_us = 1_000_000 / OPEN_READ_RATE;
        let mut due: Vec<Due> = (0..horizon_us / step_us)
            .map(|i| Due::Read {
                at_us: i * step_us,
                i: i as usize % self.reads.len(),
            })
            .collect();
        for k in 0..self.timed_writes {
            due.push(Due::Write {
                at_us: write_due_us(k),
                k,
            });
        }
        due.sort_by_key(|d| (d.at_us(), matches!(d, Due::Read { .. })));
        due
    }

    pub fn text(&self, r: Read) -> &str {
        &self.queries[r.query as usize]
    }

    pub fn shape(&self, r: Read) -> Shape {
        self.shapes[r.query as usize]
    }

    /// Digest of everything the clients send, in order.
    pub fn digest(&self) -> String {
        let roles = role_iris();
        let mut d = Digest::default();
        d.add(self.workload.name().as_bytes());
        for r in self.reads.iter().chain(&self.cold).chain(&self.checks) {
            d.add(roles[r.role as usize].as_bytes());
            d.add(self.text(*r).as_bytes());
        }
        for w in &self.writes {
            d.add(w.body().as_bytes());
        }
        d.hex()
    }
}

/// Due time of `mixed_writes`' `k`-th write: every [`WRITE_PERIOD_MS`],
/// the first half a period in.
fn write_due_us(k: usize) -> u64 {
    (WRITE_PERIOD_MS / 2 + k as u64 * WRITE_PERIOD_MS) * 1000
}

/// `read_skewed` reads: Zipf s=1.2 over the first five `query_pool`
/// templates, roles uniform (the workload crate's E6 request generator).
fn skewed_reads(seed: u64) -> (Vec<String>, Vec<Shape>, Vec<Read>) {
    const TEMPLATES: usize = 5;
    let roles = role_iris();
    let queries = query_pool(TEMPLATES);
    let reads = generate_requests(&RequestConfig {
        count: STREAM_LEN,
        distinct_queries: TEMPLATES,
        zipf_s: 1.2,
        roles: roles.to_vec(),
        seed,
    })
    .into_iter()
    .map(|r| Read {
        role: roles.iter().position(|x| *x == r.role).expect("known role") as u8,
        query: queries
            .iter()
            .position(|q| *q == r.query)
            .expect("pool query") as u32,
    })
    .collect();
    let shapes = (0..TEMPLATES).map(Shape::of).collect();
    (queries, shapes, reads)
}

/// `read_unique` reads: every text distinct — seeded windows, `LIMIT`s and
/// `OFFSET`s over the three `query_pool` shapes; roles round-robin. A
/// collision draws new parameters for the same shape.
fn unique_reads(seed: u64) -> (Vec<String>, Vec<Shape>, Vec<Read>) {
    const PREFIX: &str = "PREFIX app: <http://grdf.org/app#>\n";
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_1C0E);
    let mut seen = HashSet::new();
    let mut queries = Vec::with_capacity(UNIQUE_LEN);
    let mut shapes = Vec::with_capacity(UNIQUE_LEN);
    while queries.len() < UNIQUE_LEN {
        // Shapes rotate every three reads while roles rotate every read, so
        // each run of nine reads holds every (role, shape) pair once and the
        // mix of cheap and expensive queries does not vary with the seed.
        let shape = Shape::of(queries.len() / 3);
        let text = match shape {
            // Windows inside the generated sites' 100 km extent.
            Shape::Window => {
                let x0 = 2_500_000.0 + rng.gen::<f64>() * 100_000.0;
                let y0 = 7_050_000.0 + rng.gen::<f64>() * 100_000.0;
                let w = 5_000.0 + rng.gen::<f64>() * 25_000.0;
                let h = 5_000.0 + rng.gen::<f64>() * 25_000.0;
                format!(
                    "{PREFIX}SELECT ?f WHERE {{ ?f a app:ChemSite . FILTER(grdf:intersectsBox(?f, {x0:.1}, {y0:.1}, {:.1}, {:.1})) }}",
                    x0 + w,
                    y0 + h
                )
            }
            Shape::Streams => format!(
                "{PREFIX}SELECT ?s ?n WHERE {{ ?s a app:Stream ; app:hasStreamName ?n }} LIMIT {} OFFSET {}",
                rng.gen_range(1..=100),
                rng.gen_range(0..1000)
            ),
            Shape::ChemCodes => format!(
                "{PREFIX}SELECT ?c WHERE {{ ?s app:hasChemicalInfo ?i . ?i app:hasChemCode ?c }} OFFSET {}",
                rng.gen_range(0..15_000)
            ),
        };
        if seen.insert(text.clone()) {
            queries.push(text);
            shapes.push(shape);
        }
    }
    let reads = (0..UNIQUE_LEN)
        .map(|i| Read {
            role: (i % 3) as u8,
            query: i as u32,
        })
        .collect();
    (queries, shapes, reads)
}

/// The asserted ChemSites of `base`, sorted (write targets).
pub fn chem_sites(base: &Graph) -> Vec<Term> {
    let mut sites = base.subjects(&Term::iri(rdf::TYPE), &Term::iri(&grdf::app("ChemSite")));
    sites.sort_by_key(ToString::to_string);
    sites
}

/// `count` single-triple writes alternating insert/delete: each pair
/// inserts a fresh `app:hasSiteName` on a seeded ChemSite, then deletes it.
fn write_sequence(seed: u64, base: &Graph, count: usize) -> Vec<Write> {
    let sites = chem_sites(base);
    assert!(!sites.is_empty(), "the dataset has ChemSites");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00A1_7E55);
    let mut out: Vec<Write> = Vec::with_capacity(count);
    for k in 0..count {
        if k % 2 == 1 {
            let triple = out[k - 1].triple.clone();
            out.push(Write {
                insert: false,
                triple,
            });
            continue;
        }
        let site = sites[rng.gen_range(0..sites.len())].clone();
        let triple = Triple::new(
            site,
            Term::iri(&grdf::app("hasSiteName")),
            Term::string(&format!("perfbench site name {seed}-{}", k / 2)),
        );
        out.push(Write {
            insert: true,
            triple,
        });
    }
    out
}
