//! The three workloads. Each sets up, runs its closed loop for
//! the requested seconds in whole passes, checks outputs outside the
//! timed region, and, when traced, replays one more pass with spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use scq_apps::Benchmark;
use scq_core::{run_toolflow, ToolflowError, ToolflowReport};
use scq_serve::{BatchRunner, ScheduleRequest};

use crate::gen::{self, SERVE_CAPACITY};
use crate::layers::{per_layer, LayerCounts, SelfTimes, ServeCounts};
use crate::metrics::{median, metric, peak_rss_mb, percentile, samples_for_tail, Metric, Outcome};
use crate::serve_wl::{self, Ledger, PassTotals, TracedPass};
use crate::span::Tracer;
use crate::toolflow_wl;

/// Times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One client calling `run_toolflow` over the app × scale × policy grid.
    Toolflow,
    /// One client submitting batches to `BatchRunner::run`.
    Sweep,
    /// One client per core calling `BatchRunner::run_one` on a shared runner.
    Repeat,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Toolflow, Workload::Sweep, Workload::Repeat];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Toolflow => "toolflow",
            Workload::Sweep => "sweep",
            Workload::Repeat => "repeat",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_s` reports (recorded in
    /// `BENCHMARK.json`); runs continue until at least ten samples lie
    /// beyond it.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Toolflow => 95.0,
            Workload::Sweep => 90.0,
            Workload::Repeat => 99.9,
        }
    }
}

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace, if anywhere.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Run exactly this many passes instead of measuring for `seconds`
    /// (the harness's own tests use one).
    pub passes: Option<usize>,
}

impl Args {
    /// Whether the timed loop is done after `passes` passes, `elapsed`
    /// seconds and `samples` latency samples.
    fn done(&self, passes: usize, elapsed: f64, samples: usize) -> bool {
        match self.passes {
            Some(n) => passes >= n,
            None => {
                elapsed >= self.seconds
                    && samples >= samples_for_tail(self.workload.tail_percentile())
            }
        }
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::Toolflow => toolflow(args),
        Workload::Sweep | Workload::Repeat => serve(args),
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median wall time
/// and the last result; every repetition must produce the same inputs.
fn timed_setup<T>(
    setup: impl Fn() -> T,
    same: impl Fn(&T, &T) -> bool,
    problems: &mut Vec<String>,
) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = setup();
        secs.push(t0.elapsed().as_secs_f64());
        if last.as_ref().is_some_and(|prev| !same(prev, &inputs)) {
            problems.push("set-up is not a pure function of the seed".to_string());
        }
        last = Some(inputs);
    }
    (median(&secs), last.expect("SETUP_REPS > 0"))
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    workload: Workload,
    setup_s: f64,
    latencies: &[f64],
    throughput: f64,
    error_rate: f64,
    rss_mb: f64,
    braid_cycles: u64,
    planar_cycles: u64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_s", median(latencies), "s"),
        metric(
            "latency_tail_s",
            percentile(latencies, workload.tail_percentile()),
            "s",
        ),
        metric("throughput_per_s", throughput, "1/s"),
        metric("error_rate", error_rate, "ratio"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("sim_braid_cycles", braid_cycles as f64, "cycles"),
        metric("sim_planar_cycles", planar_cycles as f64, "cycles"),
    ]
}

fn write_trace(args: &Args, tr: &Tracer, problems: &mut Vec<String>) {
    let Some(dir) = &args.trace_dir else { return };
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json()))
    {
        problems.push(format!("cannot write {}: {e}", Path::new(&path).display()));
    }
}

/// Sums of cycles over the distinct braid and planar schedules of a
/// toolflow pass (planar schedules do not depend on the policy).
fn toolflow_cycles(
    points: &[gen::ToolflowPoint],
    reports: &[Result<ToolflowReport, ToolflowError>],
) -> (u64, u64) {
    let mut braid = BTreeMap::new();
    let mut planar = BTreeMap::new();
    for (p, r) in points.iter().zip(reports) {
        if let Ok(r) = r {
            braid.insert((p.bench, p.scale, p.policy.index()), r.braid.cycles);
            planar.insert((p.bench, p.scale), r.planar.cycles);
        }
    }
    (braid.values().sum(), planar.values().sum())
}

fn toolflow(args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let (setup_s, (points, circuits)) = timed_setup(
        || {
            let points = gen::toolflow_points(args.seed);
            let circuits: BTreeMap<(Benchmark, u32), scq_ir::Circuit> = points
                .iter()
                .map(|p| ((p.bench, p.scale), p.bench.scaled_circuit(p.scale)))
                .collect();
            warm_engines();
            (points, circuits)
        },
        |a, b| a.0 == b.0,
        &mut problems,
    );

    // Timed closed loop, whole passes.
    let mut ok_latencies = Vec::new();
    let mut per_point: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut first: Vec<Result<ToolflowReport, ToolflowError>> = Vec::with_capacity(points.len());
    let (mut attempted, mut refused) = (0u64, 0u64);
    let mut pass_throughput = Vec::new();
    let mut rss_mb = 0.0;
    let start = Instant::now();
    for pass in 0.. {
        let (mut busy, mut ok) = (0.0, 0u64);
        for (i, p) in points.iter().enumerate() {
            let t0 = Instant::now();
            let r = run_toolflow(p.bench, &p.config());
            let secs = t0.elapsed().as_secs_f64();
            attempted += 1;
            busy += secs;
            per_point[i].push(secs);
            match &r {
                Ok(_) => {
                    ok_latencies.push(secs);
                    ok += 1;
                }
                Err(_) => refused += 1,
            }
            if pass == 0 {
                first.push(r);
            } else if !same_verdict(&first[i], &r) {
                problems.push(format!(
                    "{}@{}: pass {pass} differs from pass 0",
                    p.bench, p.scale
                ));
            }
        }
        pass_throughput.push(ok as f64 / busy);
        if pass == 0 {
            rss_mb = peak_rss_mb();
        }
        if args.done(pass + 1, start.elapsed().as_secs_f64(), ok_latencies.len()) {
            break;
        }
    }
    let (braid_cycles, planar_cycles) = toolflow_cycles(&points, &first);

    // Output checks, untimed.
    let mut planar_checked = Vec::new();
    for (p, r) in points.iter().zip(&first) {
        match (p.refused, r) {
            (false, Ok(report)) => {
                toolflow_wl::check_report(p, report, &circuits, &mut planar_checked, &mut problems)
            }
            (true, Err(ToolflowError::Threshold(_))) => {}
            (_, r) => problems.push(format!(
                "{}@{} {:?} refused={}: unexpected result {:?}",
                p.bench,
                p.scale,
                p.policy,
                p.refused,
                r.as_ref().map(|_| "Ok")
            )),
        }
    }

    let untraced_p50 = median(&ok_latencies);
    let per_layer_metrics = args.trace.then(|| {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut counts = LayerCounts::default();
        let mut replayed = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            let r = tr.span("core.toolflow", i as u64, |tr| {
                toolflow_wl::replay(tr, i as u64, p, &mut counts)
            });
            if format!("{r:?}") != format!("{:?}", first[i]) {
                problems.push(format!(
                    "{}@{} {:?}: traced replay differs from run_toolflow",
                    p.bench, p.scale, p.policy
                ));
            }
            replayed.push(r);
        }
        if toolflow_cycles(&points, &replayed) != (braid_cycles, planar_cycles) {
            problems.push("traced run's exact metrics differ from the untraced run's".to_string());
        }
        let traced_ok: Vec<f64> = tr
            .spans
            .iter()
            .filter(|s| s.name == "core.toolflow" && replayed[s.req as usize].is_ok())
            .map(|s| s.secs())
            .collect();
        let untraced_calls: f64 = per_point.iter().map(|l| median(l)).sum();
        let own = SelfTimes {
            core_s: untraced_calls - tr.child_secs("core.toolflow"),
            serve_s: 0.0,
            trace_overhead_s: median(&traced_ok) - untraced_p50,
        };
        write_trace(args, &tr, &mut problems);
        per_layer(&tr, &counts, &ServeCounts::default(), own)
    });

    let failed = refused + problems.len() as u64;
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        end_to_end: end_to_end(
            Workload::Toolflow,
            setup_s,
            &ok_latencies,
            median(&pass_throughput),
            failed as f64 / attempted as f64,
            rss_mb,
            braid_cycles,
            planar_cycles,
        ),
        per_layer: per_layer_metrics.unwrap_or_default(),
        problems,
    }
}

/// Warm-up for the toolflow: both engines once per application at
/// scale 0, called directly so no toolflow state (and no future
/// memoization inside `run_toolflow`) is primed.
fn warm_engines() {
    let config = scq_braid::BraidConfig::default();
    for bench in Benchmark::ALL {
        let circuit = bench.scaled_circuit(0);
        let _ = scq_braid::schedule_circuit(&circuit, &config);
        let dag = scq_ir::DependencyDag::from_circuit(&circuit);
        let _ =
            scq_teleport::schedule_planar(&circuit, &dag, &scq_teleport::PlanarConfig::default());
    }
}

/// Cheap run-to-run identity of two verdicts for the same point.
fn same_verdict(
    a: &Result<ToolflowReport, ToolflowError>,
    b: &Result<ToolflowReport, ToolflowError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.braid == b.braid && a.planar.cycles == b.planar.cycles && a.estimates == b.estimates
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// A batch on a throwaway runner, one request per application and
/// backend at scale 0: warms code and allocator without touching the
/// runner the timed stream uses.
fn serve_warm_up() {
    let warm: Vec<ScheduleRequest> = Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            [
                scq_serve::BackendKind::Braid,
                scq_serve::BackendKind::Planar,
            ]
            .map(|backend| ScheduleRequest {
                source: scq_serve::RequestSource::Named { bench, scale: 0 },
                backend,
                policy: scq_serve::Policy::P6,
                code_distance: 5,
                defects: scq_serve::DefectSpec::Clean,
                verify: false,
            })
        })
        .collect();
    let _ = BatchRunner::new(SERVE_CAPACITY).run(&warm);
}

fn serve(args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let repeat = args.workload == Workload::Repeat;
    let clients = serve_wl::client_threads();
    let (setup_s, first_inputs) = timed_setup(
        || {
            let batches = if repeat {
                vec![gen::repeat_stream(args.seed)]
            } else {
                gen::sweep_batches(args.seed, 0)
            };
            serve_warm_up();
            batches
        },
        |a, b| a == b,
        &mut problems,
    );
    // The repeat stream is the same every pass; the sweep deals its
    // requests afresh into batches each pass (outside the timed region).
    let pass_inputs = |pass: usize| {
        if repeat || pass == 0 {
            first_inputs.clone()
        } else {
            gen::sweep_batches(args.seed, pass)
        }
    };

    // Timed closed loop, whole passes, each on a fresh runner.
    let mut ledger = Ledger::default();
    let mut latencies = Vec::new();
    let mut pass_totals: Vec<PassTotals> = Vec::new();
    let mut pass_throughput = Vec::new();
    let mut rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let batches = pass_inputs(pass_totals.len());
        let requests: Vec<ScheduleRequest> = batches.iter().flatten().cloned().collect();
        let runner = BatchRunner::new(SERVE_CAPACITY);
        let served = if repeat {
            serve_wl::serve_repeat(&runner, &requests, clients)
        } else {
            serve_wl::serve_sweep(&runner, &batches)
        };
        latencies.extend(served.latencies);
        ledger.begin_pass();
        for (req, resp) in requests.iter().zip(&served.responses) {
            ledger.record(req, resp);
        }
        let totals = ledger.end_pass();
        pass_throughput.push((totals.attempted - totals.failed) as f64 / served.busy_secs);
        pass_totals.push(totals);
        if pass_totals.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if args.done(
            pass_totals.len(),
            start.elapsed().as_secs_f64(),
            latencies.len(),
        ) {
            break;
        }
    }
    let totals = pass_totals[0].clone();
    if pass_totals.iter().any(|t| *t != totals) {
        problems.push("passes over the same requests served different exact results".to_string());
    }
    let passes = pass_totals.len() as u64;
    let attempted = totals.attempted * passes;
    let refused = totals.failed * passes;

    let untraced_p50 = median(&latencies);
    let per_layer_metrics = args.trace.then(|| {
        let mut tr = Tracer::new(Instant::now(), 0);
        let batches = &first_inputs;
        let requests: Vec<ScheduleRequest> = batches.iter().flatten().cloned().collect();
        let runner = BatchRunner::new(SERVE_CAPACITY);
        let pass: TracedPass = if repeat {
            serve_wl::traced_repeat(&mut tr, &runner, &requests, clients)
        } else {
            serve_wl::traced_sweep(&mut tr, &runner, batches)
        };
        ledger.begin_pass();
        for (req, resp) in requests.iter().zip(&pass.responses) {
            ledger.record(req, resp);
        }
        let traced = ledger.end_pass();
        if traced != totals {
            problems.push("traced run's exact metrics differ from the untraced run's".to_string());
        }
        let mut counts = LayerCounts::default();
        serve_wl::replay_computes(&mut tr, &requests, &pass, &mut counts, &mut problems);
        let own = SelfTimes {
            core_s: 0.0,
            serve_s: serve_wl::serve_self_secs(&pass.responses),
            trace_overhead_s: median(&pass.latencies) - untraced_p50,
        };
        let serve_counts = ServeCounts {
            cache: runner.cache_stats(),
            placement: runner.placement_stats(),
            error_recomputes: ledger.error_recomputes,
            err_unroutable: traced.unroutable,
            err_unplaceable: traced.unplaceable,
            err_certification: traced.certification,
        };
        write_trace(args, &tr, &mut problems);
        per_layer(&tr, &counts, &serve_counts, own)
    });

    problems.append(&mut ledger.problems);
    let failed = refused + problems.len() as u64;
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        end_to_end: end_to_end(
            args.workload,
            setup_s,
            &latencies,
            median(&pass_throughput),
            failed as f64 / attempted as f64,
            rss_mb,
            totals.braid_cycles,
            totals.planar_cycles,
        ),
        per_layer: per_layer_metrics.unwrap_or_default(),
        problems,
    }
}
