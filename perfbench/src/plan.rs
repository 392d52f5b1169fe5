//! Seeded workload schedules. Everything a run does — which guest program
//! at which guest seed, how many times it is put, where it seeks, which
//! fleet sessions read and which upload — is a pure function of the
//! workload name, the `--seed` argument and the client index. The guest
//! programs only ever see the generated inputs.

use djvm::rng::SplitMix64;

/// The stress scenarios `pipeline_mix` round-robins over.
pub const MIX: [&str; 6] = [
    "lock_convoy",
    "gc_pressure",
    "native_heavy",
    "clock_spin",
    "recursion_storm",
    "server_loop",
];

/// The hot-loop program `pipeline_hot` records.
pub const HOT: &str = "fig1_hot";

/// `fleet_stored` corpus: seeds per stress scenario, and fig1_hot runs.
pub const CORPUS_MIX_SEEDS: usize = 8;
pub const CORPUS_HOT_RUNS: usize = 2;
/// `fleet_stored` pre-recorded uploads: the first half duplicate corpus
/// runs, the second half are runs the store has not seen.
pub const UPLOADS: usize = 8;
/// `fleet_stored` items come in rounds of this many per client, at seeded
/// positions: two local pipeline runs (not served: the round's other
/// items are sessions), one upload, one fig1_hot stored session (client 0
/// only, so at most one resident fig1_hot replay holds its checkpoints at
/// a time), and the rest stored stress-scenario sessions. Pipeline runs
/// and stored sessions each take the scenarios in turn.
pub const ROUND: u64 = 16;
const ROUND_SLOTS: usize = 4;
/// Backward seeks per pipeline run.
pub const SEEKS_PER_RUN: usize = 4;
/// Every this many pipeline runs (from a seeded phase), one is also
/// served by the fleet. Coprime with the six stress scenarios, so the
/// served runs cycle through all of them.
pub const SERVE_ONE_IN: u64 = 5;
/// Every this many pipeline runs, one is read back with `get_bytes`.
pub const GET_ONE_IN: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineHot,
    PipelineMix,
    FleetStored,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PipelineHot,
        Workload::PipelineMix,
        Workload::FleetStored,
    ];

    pub fn from_name(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineHot => "pipeline_hot",
            Workload::PipelineMix => "pipeline_mix",
            Workload::FleetStored => "fleet_stored",
        }
    }

    /// Closed-loop client threads (each with one fleet connection).
    pub fn clients(self) -> usize {
        match self {
            Workload::FleetStored => 2,
            _ => 1,
        }
    }
}

/// One guest run to record and push through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// How many times the encoded trace is put (repeated ingest).
    pub puts: u32,
    /// Backward-seek targets, each a share (‰) of the run's final
    /// logical time, in descending order: visited after replaying to the
    /// end, every seek goes backward.
    pub seeks: Vec<u64>,
    /// Serve the stored run through one fleet session, seeking to this
    /// share (‰) of the run.
    pub serve: Option<u64>,
    /// Whether `get_bytes` is compared byte for byte against the put.
    pub check_get: bool,
}

/// One unit of closed-loop work for a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// Record locally, store, replay, seek — then serve the stored run
    /// through one fleet session.
    Pipeline(Run),
    /// `OpenStored → Replay → SeekLogical → Close` on a corpus entry.
    Stored { entry: usize, seek_permille: u64 },
    /// `Open → IngestBlocks → Replay → Close` of a pre-recorded trace.
    Upload { upload: usize },
}

fn stream(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn guest_seed(rng: &mut SplitMix64) -> u64 {
    rng.gen_range_u64(1, 1_000_000)
}

fn seek_permille(rng: &mut SplitMix64) -> u64 {
    rng.gen_range_u64(250, 750)
}

/// The runs `fleet_stored` pre-puts: `CORPUS_MIX_SEEDS` seeds of every
/// stress scenario, then `CORPUS_HOT_RUNS` fig1_hot runs (the last
/// entries). Each is put once.
pub fn corpus(seed: u64) -> Vec<Run> {
    let mut rng = stream(seed, 1);
    let mut runs = Vec::new();
    for _ in 0..CORPUS_MIX_SEEDS {
        for w in MIX {
            runs.push(Run {
                workload: w,
                seed: guest_seed(&mut rng),
                puts: 1,
                seeks: Vec::new(),
                serve: None,
                check_get: false,
            });
        }
    }
    for _ in 0..CORPUS_HOT_RUNS {
        runs.push(Run {
            workload: HOT,
            seed: guest_seed(&mut rng),
            puts: 1,
            seeks: Vec::new(),
            serve: None,
            check_get: false,
        });
    }
    runs
}

/// Number of stress-scenario entries at the head of [`corpus`].
pub fn corpus_mix_len() -> usize {
    CORPUS_MIX_SEEDS * MIX.len()
}

/// The pre-recorded traces `fleet_stored` uploads: the first half are
/// copies of seeded corpus stress runs, the rest fresh stress runs.
pub fn uploads(seed: u64, corpus: &[Run]) -> Vec<Run> {
    let mut rng = stream(seed, 2);
    (0..UPLOADS)
        .map(|i| {
            if i < UPLOADS / 2 {
                let j = rng.gen_range_u64(0, corpus_mix_len() as u64 - 1) as usize;
                corpus[j].clone()
            } else {
                Run {
                    workload: MIX[rng.gen_range_u64(0, MIX.len() as u64 - 1) as usize],
                    seed: guest_seed(&mut rng),
                    puts: 1,
                    seeks: Vec::new(),
                    serve: None,
                    check_get: false,
                }
            }
        })
        .collect()
}

/// A client's endless item stream.
pub struct Plan {
    workload: Workload,
    rng: SplitMix64,
    n: u64,
    /// `pipeline_mix` round-robin start.
    offset: u64,
    /// Seeded phase of the serve and get shares.
    phase: u64,
    /// `fleet_stored` round-robins over the stress scenarios: local
    /// pipeline runs, and stored sessions.
    turns: [u64; 2],
    client: usize,
    /// `fleet_stored`: seeded slots of the current round — pipeline,
    /// pipeline, upload, fig1_hot.
    round: [u64; ROUND_SLOTS],
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Plan {
        let mut rng = stream(seed, 100 + client as u64);
        let offset = rng.gen_range_u64(0, MIX.len() as u64 - 1);
        let phase = rng.gen_range_u64(0, 11);
        Plan {
            workload,
            rng,
            n: 0,
            offset,
            phase,
            turns: [0; 2],
            client,
            round: [0; ROUND_SLOTS],
        }
    }

    /// `serve`: whether this run may be one of the served share.
    fn pipeline_run(&mut self, workload: &'static str, puts: u32, serve: bool) -> Run {
        let mut seeks: Vec<u64> = (0..SEEKS_PER_RUN)
            .map(|_| seek_permille(&mut self.rng))
            .collect();
        seeks.sort_unstable_by(|a, b| b.cmp(a));
        Run {
            workload,
            seed: guest_seed(&mut self.rng),
            puts,
            seeks,
            serve: (serve && (self.n + self.phase).is_multiple_of(SERVE_ONE_IN))
                .then(|| seek_permille(&mut self.rng)),
            check_get: (self.n + self.phase).is_multiple_of(GET_ONE_IN),
        }
    }

    /// Next stress scenario of round-robin `k`, from the seeded offset.
    fn turn(&mut self, k: usize) -> usize {
        let t = self.turns[k];
        self.turns[k] += 1;
        ((self.offset + t) % MIX.len() as u64) as usize
    }

    fn draw_round(&mut self) {
        let mut slots = [0u64; ROUND_SLOTS];
        let mut k = 0;
        while k < ROUND_SLOTS {
            let s = self.rng.gen_range_u64(0, ROUND - 1);
            if !slots[..k].contains(&s) {
                slots[k] = s;
                k += 1;
            }
        }
        self.round = slots;
    }
}

impl Iterator for Plan {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        let n = self.n;
        self.n += 1;
        Some(match self.workload {
            Workload::PipelineHot => Item::Pipeline(self.pipeline_run(HOT, 1, true)),
            Workload::PipelineMix => {
                let w = MIX[((self.offset + n) % MIX.len() as u64) as usize];
                let puts = self.rng.gen_range_u64(1, 3) as u32;
                Item::Pipeline(self.pipeline_run(w, puts, true))
            }
            Workload::FleetStored => {
                let slot = n % ROUND;
                if slot == 0 {
                    self.draw_round();
                }
                if slot == self.round[0] || slot == self.round[1] {
                    let w = MIX[self.turn(0)];
                    Item::Pipeline(self.pipeline_run(w, 1, false))
                } else if slot == self.round[2] {
                    Item::Upload {
                        upload: self.rng.gen_range_u64(0, UPLOADS as u64 - 1) as usize,
                    }
                } else if slot == self.round[3] && self.client == 0 {
                    let hot = self.rng.gen_range_u64(0, CORPUS_HOT_RUNS as u64 - 1) as usize;
                    Item::Stored {
                        entry: corpus_mix_len() + hot,
                        seek_permille: seek_permille(&mut self.rng),
                    }
                } else {
                    // corpus entry `i * MIX.len() + s` is seed i of scenario s
                    let scenario = self.turn(1);
                    let i = self.rng.gen_range_u64(0, CORPUS_MIX_SEEDS as u64 - 1) as usize;
                    Item::Stored {
                        entry: i * MIX.len() + scenario,
                        seek_permille: seek_permille(&mut self.rng),
                    }
                }
            }
        })
    }
}
