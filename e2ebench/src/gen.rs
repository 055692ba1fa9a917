//! Workload generators. Every input the benchmark feeds the program is
//! a pure function of the seed; the program sees only the generated
//! requests.
//!
//! The composition of each workload (which requests are computed, which
//! are certified, which are refused) is fixed by construction; the seed
//! draws everything else: order, batching, resubmissions, repeat picks
//! and their timing. Fixed composition keeps runs at different seeds
//! comparable: the seed moves where the work falls, not how much there
//! is.

use scq_apps::Benchmark;
use scq_braid::Policy;
use scq_core::ToolflowConfig;
use scq_serve::{BackendKind, DefectSpec, RequestSource, ScheduleRequest};

use crate::rng::Rng;

/// Problem-size steps every workload draws from.
pub const SCALES: [u32; 2] = [0, 1];
/// Code distances of sweep and repeat requests.
pub const DISTANCES: [u32; 3] = [5, 7, 9];
/// Distance offset of variants: 5, 7 and 9 become 11, 13 and 15, so a
/// variant is never a request of the universe (it misses the schedule
/// cache and hits the placement cache).
pub const VARIANT_DISTANCE_STEP: u32 = 6;
/// Dead-resource rate of defect requests.
pub const DEFECT_RATE: f64 = 0.02;
/// Base defect-map seed (the one `BENCH_epr.json`'s degradation
/// section uses). Each (app, scale, backend) defect request samples its
/// map at a fixed offset from it, so the set of refused requests is the
/// same at every workload seed.
pub const DEFECT_MAP_SEED: u64 = 20702;
/// Physical error rate above the surface-code threshold: the toolflow
/// refuses these points with a threshold error.
pub const REFUSED_P_PHYSICAL: f64 = 0.02;
/// Toolflow points per pass drawn at [`REFUSED_P_PHYSICAL`].
pub const REFUSED_POINTS: usize = 2;
/// Batches per sweep pass: half the size of a group of the universe,
/// so each batch holds two requests of every group (23 requests with
/// the resubmissions).
pub const SWEEP_BATCHES: usize = 13;
/// Clean requests of each group the sweep resubmits.
pub const CLEAN_RESUBMITS: usize = 2;
/// Requests per new request in the repeat stream (the new request, its
/// variant when it has one, and repeats).
pub const REPEAT_BLOCK: usize = 20;
/// Times each defect request is retried after its first submission in
/// the repeat stream, within [`RETRY_WINDOW`] blocks.
pub const REPEAT_RETRIES: usize = 2;
/// Blocks within which a defect request's retries follow it.
pub const RETRY_WINDOW: usize = 10;
/// Exact repeats pick among the most recently seen clean requests of
/// their group: a working set of this many per group (160 in all) fits
/// the cache, so repeats hit and evictions take only cold entries.
pub const REPEAT_WINDOW: usize = 16;
/// The newest requests of a group the window leaves out, so a repeat
/// rarely waits on a long compute still in flight (cheap in-flight
/// repeats still exercise single-flight dedup).
pub const REPEAT_LAG: usize = 4;
/// Cache capacity of every runner (the `scq batch` CLI's).
pub const SERVE_CAPACITY: usize = 256;

/// The (app, scale) groups, in `Benchmark::ALL` order.
pub fn groups() -> Vec<(Benchmark, u32)> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| SCALES.iter().map(move |&s| (b, s)))
        .collect()
}

fn group_index(req: &ScheduleRequest) -> usize {
    match &req.source {
        RequestSource::Named { bench, scale } => groups()
            .iter()
            .position(|g| *g == (*bench, *scale))
            .unwrap_or(0),
        _ => 0,
    }
}

/// One `run_toolflow` call: the paper's per-app verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ToolflowPoint {
    /// Application.
    pub bench: Benchmark,
    /// Problem-size step.
    pub scale: u32,
    /// Braid priority policy.
    pub policy: Policy,
    /// Drawn on a technology above threshold: the toolflow must refuse.
    pub refused: bool,
}

impl ToolflowPoint {
    /// The toolflow configuration of this point (code distance derived).
    pub fn config(&self) -> ToolflowConfig {
        let mut config = ToolflowConfig {
            policy: self.policy,
            scale: Some(self.scale),
            ..Default::default()
        };
        if self.refused {
            config.technology = config.technology.with_error_rate(REFUSED_P_PHYSICAL);
        }
        config
    }
}

/// The toolflow pass: every app × scale × policy point once, plus
/// [`REFUSED_POINTS`] seeded points above threshold, in seeded order.
pub fn toolflow_points(seed: u64) -> Vec<ToolflowPoint> {
    let mut rng = Rng::new(seed ^ 0x746F_6F6C);
    let mut points: Vec<ToolflowPoint> = groups()
        .into_iter()
        .flat_map(|(bench, scale)| {
            Policy::ALL.iter().map(move |&policy| ToolflowPoint {
                bench,
                scale,
                policy,
                refused: false,
            })
        })
        .collect();
    let gs = groups();
    for _ in 0..REFUSED_POINTS {
        let (bench, scale) = gs[rng.below(gs.len())];
        points.push(ToolflowPoint {
            bench,
            scale,
            policy: Policy::ALL[rng.below(Policy::ALL.len())],
            refused: true,
        });
    }
    rng.shuffle(&mut points);
    points
}

fn request(
    bench: Benchmark,
    scale: u32,
    backend: BackendKind,
    policy: Policy,
    code_distance: u32,
) -> ScheduleRequest {
    ScheduleRequest {
        source: RequestSource::Named { bench, scale },
        backend,
        policy,
        code_distance,
        defects: DefectSpec::Clean,
        verify: false,
    }
}

/// Whether a request samples defects.
pub fn is_defect(req: &ScheduleRequest) -> bool {
    !matches!(req.defects, DefectSpec::Clean)
}

/// The request universe of `sweep` and `repeat`, grouped by (app,
/// scale) and ordered by backend, policy and distance within a group.
/// Each group holds the full clean grid (braid P0-P6 × d and planar ×
/// d; exactly a quarter certified) and one 2%-defect request per
/// backend (one of the two certified). All keys are distinct.
pub fn universe(rng: &mut Rng) -> Vec<ScheduleRequest> {
    let mut out = Vec::new();
    for (g, (bench, scale)) in groups().into_iter().enumerate() {
        let mut group = Vec::new();
        for policy in Policy::ALL {
            for d in DISTANCES {
                group.push(request(bench, scale, BackendKind::Braid, policy, d));
            }
        }
        for d in DISTANCES {
            // Planar keys fold the policy away; any policy will do.
            let policy = Policy::ALL[rng.below(Policy::ALL.len())];
            group.push(request(bench, scale, BackendKind::Planar, policy, d));
        }
        // Every fourth request of the grid is certified: a quarter,
        // spread over policies and distances.
        for r in group.iter_mut().skip(g % 4).step_by(4) {
            r.verify = true;
        }
        for (k, backend) in [BackendKind::Braid, BackendKind::Planar]
            .into_iter()
            .enumerate()
        {
            let d = DISTANCES[(g + k) % DISTANCES.len()];
            let mut r = request(bench, scale, backend, Policy::P6, d);
            r.defects = DefectSpec::Sampled {
                rate: DEFECT_RATE,
                seed: DEFECT_MAP_SEED + (2 * g + k) as u64,
            };
            r.verify = k == g % 2;
            group.push(r);
        }
        out.extend(group);
    }
    out
}

/// Pass `pass` of the sweep: the universe dealt into [`SWEEP_BATCHES`]
/// batches, two requests of every (app, scale) group per batch. A
/// group's requests differ in cost by orders of magnitude from
/// another's (SHA-1 at scale 1 against GSE), so a random dealing would
/// leave the share of batches holding an expensive request to chance,
/// and the median batch latency, which falls between the batches with
/// and without one, would move with it; dealt by group, every batch
/// holds the same mix. Member `k` of a group, in universe order, shares
/// its batch with member `k + SWEEP_BATCHES`: the pairs are the same in
/// every pass, so every pass runs the same requests side by side on the
/// pool (the process's peak memory is set by the pair that overlaps
/// most), and no pair holds two certified requests. A shuffle drawn
/// from the seed and the pass picks each pair's batch and the order
/// within a batch.
/// Then the resubmissions, each into another batch than its first
/// submission: every defect request (a refused request is what a user
/// resubmits; errors are never cached, so it recomputes) and
/// [`CLEAN_RESUBMITS`] clean requests of every group, drawn from the
/// seed alone (one copy misses, the other hits). Every pass of a seed
/// holds the same requests. No key repeats within a batch.
pub fn sweep_batches(seed: u64, pass: usize) -> Vec<Vec<ScheduleRequest>> {
    let mut rng = Rng::new(seed ^ 0x0073_7765_6570);
    let u = universe(&mut rng);
    let by_group: Vec<Vec<usize>> = (0..groups().len())
        .map(|g| (0..u.len()).filter(|&i| group_index(&u[i]) == g).collect())
        .collect();
    let mut resubmit: Vec<usize> = (0..u.len()).filter(|&i| is_defect(&u[i])).collect();
    for members in &by_group {
        let mut clean: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| !is_defect(&u[i]))
            .collect();
        rng.shuffle(&mut clean);
        resubmit.extend(clean.into_iter().take(CLEAN_RESUBMITS));
    }

    let mut rng = Rng::new(seed ^ 0x6465_616C ^ (pass as u64).rotate_left(32));
    let mut batch_of = vec![0; u.len()];
    let mut batches: Vec<Vec<usize>> = vec![Vec::new(); SWEEP_BATCHES];
    for members in by_group {
        let mut slots: Vec<usize> = (0..SWEEP_BATCHES).collect();
        rng.shuffle(&mut slots);
        for (k, i) in members.into_iter().enumerate() {
            batch_of[i] = slots[k % SWEEP_BATCHES];
            batches[batch_of[i]].push(i);
        }
    }
    for batch in &mut batches {
        rng.shuffle(batch);
    }
    for i in resubmit {
        let b = (batch_of[i] + 1 + rng.below(SWEEP_BATCHES - 1)) % SWEEP_BATCHES;
        batches[b].push(i);
    }
    batches
        .into_iter()
        .map(|b| b.into_iter().map(|i| u[i].clone()).collect())
        .collect()
}

/// The repeat stream: one block of [`REPEAT_BLOCK`] requests per
/// universe request. Each block holds that new request; when it is a
/// clean braid request, a later slot holds its variant (distance moved
/// by [`VARIANT_DISTANCE_STEP`]; from distance 7 also the policy, to
/// the next one of its layout strategy: a schedule miss, a placement
/// hit);
/// the other slots are repeats. Repeats are the due retries of defect
/// requests ([`REPEAT_RETRIES`] each) or exact repeats of recently seen
/// clean requests ([`REPEAT_WINDOW`], [`REPEAT_LAG`]) of the group
/// repeated least so far, so repeats spread uniformly over the groups.
pub fn repeat_stream(seed: u64) -> Vec<ScheduleRequest> {
    let mut rng = Rng::new(seed ^ 0x7265_7065_6174);
    let u = universe(&mut rng);
    let (mut defect, mut clean): (Vec<ScheduleRequest>, Vec<ScheduleRequest>) =
        u.into_iter().partition(is_defect);
    rng.shuffle(&mut defect);
    rng.shuffle(&mut clean);
    // Defect requests spread evenly over the new slots, the last early
    // enough for its retries to fit; the stream opens with a clean
    // request so repeats have something to repeat.
    let stride = (defect.len() + clean.len()) / defect.len().max(1);
    let total = defect.len() + clean.len();
    let mut news = Vec::with_capacity(total);
    let (mut di, mut ci) = (defect.into_iter(), clean.into_iter());
    for k in 0..total {
        let next = if k % stride == 1 { di.next() } else { None };
        news.push(
            next.or_else(|| ci.next())
                .or_else(|| di.next())
                .expect("sized"),
        );
    }

    let mut seen: Vec<Vec<ScheduleRequest>> = vec![Vec::new(); groups().len()];
    let mut pending: Vec<(usize, ScheduleRequest)> = Vec::new();
    let mut picks = vec![0usize; groups().len()];
    let mut stream = Vec::with_capacity(news.len() * REPEAT_BLOCK);
    for (b, new) in news.into_iter().enumerate() {
        let new_slot = if b == 0 {
            0
        } else {
            rng.below(REPEAT_BLOCK - 1)
        };
        let variant_slot = new_slot + 1 + rng.below(REPEAT_BLOCK - 1 - new_slot);
        let mut variant_of =
            (!is_defect(&new) && new.backend == BackendKind::Braid).then(|| variant(&new));
        let mut new = Some(new);
        for slot in 0..REPEAT_BLOCK {
            if slot == new_slot {
                let r = new.take().expect("one new request per block");
                if is_defect(&r) {
                    for _ in 0..REPEAT_RETRIES {
                        pending.push((b + 1 + rng.below(RETRY_WINDOW), r.clone()));
                    }
                } else {
                    seen[group_index(&r)].push(r.clone());
                }
                stream.push(r);
                continue;
            }
            if slot == variant_slot {
                if let Some(v) = variant_of.take() {
                    seen[group_index(&v)].push(v.clone());
                    stream.push(v);
                    continue;
                }
            }
            if let Some(pos) = pending.iter().position(|(due, _)| *due <= b) {
                stream.push(pending.remove(pos).1);
                continue;
            }
            let least = |eligible: &dyn Fn(usize) -> bool| {
                (0..seen.len())
                    .filter(|&g| eligible(g))
                    .min_by_key(|&g| picks[g])
            };
            let g = least(&|g| seen[g].len() > REPEAT_LAG)
                .or_else(|| least(&|g| !seen[g].is_empty()))
                .expect("block 0 opens with a clean request");
            picks[g] += 1;
            let end = seen[g].len().saturating_sub(REPEAT_LAG).max(1);
            let recent = &seen[g][end.saturating_sub(REPEAT_WINDOW)..end];
            stream.push(recent[rng.below(recent.len())].clone());
        }
    }
    assert!(pending.is_empty(), "every retry falls inside the stream");
    stream
}

fn variant(base: &ScheduleRequest) -> ScheduleRequest {
    let mut v = base.clone();
    v.code_distance = base.code_distance + VARIANT_DISTANCE_STEP;
    if base.code_distance == 7 {
        let strategy = base.policy.layout_strategy();
        let same: Vec<Policy> = Policy::ALL
            .into_iter()
            .filter(|p| p.layout_strategy() == strategy)
            .collect();
        let at = same.iter().position(|p| *p == base.policy).unwrap_or(0);
        v.policy = same[(at + 1) % same.len()];
    }
    v
}
