//! The `scq` command-line tool: analyze, optimize, schedule, and compare
//! encodings for circuits in the QASM text format.
//!
//! ```text
//! scq analyze  <file.qasm>                     logical stats + optimization report
//! scq check    <file.qasm> [policy] [distance] static IR + admission check passes
//! scq schedule <file.qasm> [policy] [distance] braid + planar schedules
//! scq compare  <file.qasm> [p_physical]        encoding recommendation
//! scq heatmap  <file.qasm> [distance]          braid congestion heatmap
//! scq batch    <requests.txt>                  cached batch scheduling service
//! ```
//!
//! `batch` drives the `scq-serve` layer: one request per line, served
//! through the content-addressed schedule cache on the atomic-cursor
//! `parallel_map`, with per-request cache provenance (hit / miss /
//! dedup) in the output. Request lines are whitespace-separated `key=value` tokens —
//! `app=<gse|sq|sha1|im|im-semi>` or `qasm=<file>`, plus optional
//! `scale=`, `backend=<braid|planar>`, `policy=`, `distance=`,
//! `defect-rate=`/`defect-seed=` or `defect-map=`, and the bare
//! `verify` flag. Blank lines and `#` comments are skipped.
//!
//! `check`, `schedule`, and `heatmap` additionally accept the defect
//! flags `--defect-rate R`, `--defect-seed S`, and `--defect-map FILE`
//! to run the same circuit on non-ideal hardware. Sampled maps are
//! drawn per backend at that backend's own mesh dimensions from the
//! shared seed; a map file applies to whichever backend matches its
//! declared dimensions (the other backend runs clean, with a note).
//! Circuits that the defects make unroutable exit nonzero with a
//! structured diagnostic — never a panic or a hang.
//!
//! `schedule --verify` additionally replays every emitted schedule
//! through the independent `scq-verify` certifier and fails (nonzero
//! exit) on any invariant violation.
//!
//! `schedule` and `check` route their frontend and mapping stages
//! through the `scq-core` pass pipeline — the same passes `run_toolflow`
//! executes — so `schedule --timings` can print a per-pass wall-clock
//! breakdown together with each artifact's content hash.

#![warn(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::Instant;

use scq::braid::{
    braid_mesh_dims, schedule_traced, schedule_traced_on_defects, BraidConfig, Policy,
};
use scq::core::{ArtifactContext, PipelineRunner, ToolflowConfig};
use scq::estimate::{estimate_both, AppProfile, EstimateConfig};
use scq::ir::{
    analysis, circuit_from_qasm, optimize, Circuit, CliError, DependencyDag, InteractionGraph,
};
use scq::layout::place;
use scq::mesh::{DefectMap, Topology};
use scq::serve::{load_request_file, BatchRunner};
use scq::surface::Technology;
use scq::teleport::{
    schedule_planar, schedule_planar_on_defects, schedule_planar_traced,
    schedule_planar_traced_on_defects, PlanarConfig, PlanarMachine,
};
use scq::verify::{
    certify_braid_trace, certify_planar_schedule, CheckContext, FabricView, Finding, PassRunner,
    PassTiming, Severity,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => with_circuit(&args, 1, cmd_analyze),
        Some("check") => with_circuit(&args, 1, cmd_check),
        Some("schedule") => with_circuit(&args, 1, cmd_schedule),
        Some("compare") => with_circuit(&args, 1, cmd_compare),
        Some("heatmap") => with_circuit(&args, 1, cmd_heatmap),
        Some("batch") => cmd_batch(&args[1..]),
        _ => {
            eprintln!(
                "usage: scq <analyze|check|schedule|compare|heatmap|batch> <input> [options]"
            );
            eprintln!("  analyze  <file.qasm>                  logical stats + optimizer report");
            eprintln!("  check    <file.qasm> [policy] [dist]  static IR + admission checks");
            eprintln!("  schedule <file.qasm> [policy] [dist]  braid + planar schedules");
            eprintln!("  compare  <file.qasm> [p_physical]     encoding recommendation");
            eprintln!("  heatmap  <file.qasm> [dist]           braid congestion heatmap");
            eprintln!("  batch    <requests.txt>               cached batch scheduling service");
            eprintln!("request-file lines (batch): key=value tokens, one request per line");
            eprintln!("  app=<gse|sq|sha1|im|im-semi> | qasm=<file>   circuit source (required)");
            eprintln!("  scale=<0..4> backend=<braid|planar> policy=<0..6> distance=<odd >= 3>");
            eprintln!("  defect-rate=R defect-seed=S | defect-map=FILE, bare `verify` to certify");
            eprintln!("  blank lines and # comments are skipped");
            eprintln!("defect flags (check, schedule, heatmap):");
            eprintln!("  --defect-rate R    sample dead tiles/links at rate R in [0, 1)");
            eprintln!("  --defect-seed S    PRNG seed for sampling and transient faults");
            eprintln!("  --defect-map FILE  explicit defect map (dims must match a backend)");
            eprintln!("verification:");
            eprintln!("  schedule --verify  certify emitted schedules with scq-verify");
            eprintln!("timing:");
            eprintln!("  schedule --timings per-pass wall clock + artifact content hashes");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn with_circuit(
    args: &[String],
    file_arg: usize,
    run: fn(&Circuit, &[String]) -> CliResult,
) -> CliResult {
    let path = args
        .get(file_arg)
        .ok_or_else(|| CliError::usage("missing <file.qasm> argument"))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, &e))?;
    let circuit = circuit_from_qasm(&text)?;
    run(&circuit, &args[file_arg + 1..])
}

/// Defect flags shared by `schedule` and `heatmap`.
struct DefectOpts {
    rate: f64,
    seed: u64,
    map_path: Option<String>,
}

impl DefectOpts {
    /// Materializes the defect map for a backend whose mesh is `dims`.
    ///
    /// A `--defect-map` file only applies when its declared dimensions
    /// match this backend; otherwise the backend runs clean and a note
    /// says so. With `--defect-rate`, each backend samples at its own
    /// dimensions from the shared seed.
    fn map_for(&self, dims: (u32, u32), backend: &str) -> Result<Option<DefectMap>, CliError> {
        if let Some(path) = &self.map_path {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, &e))?;
            let map = DefectMap::from_text(&text)
                .map_err(|e| CliError::invalid(format!("{path}: {e}")))?;
            let topo = map.topology();
            if (topo.width(), topo.height()) == dims {
                return Ok(Some(map));
            }
            eprintln!(
                "note: defect map {path} is {}x{} but the {backend} mesh is {}x{}; \
                 running the {backend} backend clean",
                topo.width(),
                topo.height(),
                dims.0,
                dims.1
            );
            return Ok(None);
        }
        if self.rate > 0.0 {
            let topo = Topology::new(dims.0, dims.1);
            return Ok(Some(DefectMap::sample(topo, self.rate, self.seed)));
        }
        Ok(None)
    }
}

/// Splits `--defect-*` flags out of `rest`, leaving the positionals.
fn parse_defect_opts(rest: &[String]) -> Result<(Vec<String>, DefectOpts), CliError> {
    let mut positionals = Vec::new();
    let mut opts = DefectOpts {
        rate: 0.0,
        seed: 0,
        map_path: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--defect-rate" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--defect-rate needs a value"))?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad defect rate `{v}`")))?;
                if !(0.0..1.0).contains(&r) {
                    return Err(CliError::invalid(format!(
                        "defect rate must be in [0, 1), got {r}"
                    )));
                }
                opts.rate = r;
            }
            "--defect-seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--defect-seed needs a value"))?;
                opts.seed = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad defect seed `{v}`")))?;
            }
            "--defect-map" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--defect-map needs a path"))?;
                opts.map_path = Some(v.clone());
            }
            s if s.starts_with("--") => {
                return Err(CliError::usage(format!("unknown flag `{s}`")));
            }
            _ => positionals.push(arg.clone()),
        }
    }
    Ok((positionals, opts))
}

fn cmd_analyze(circuit: &Circuit, _rest: &[String]) -> CliResult {
    let stats = analysis::analyze(circuit);
    println!("{stats}");
    let (optimized, ostats) = optimize::peephole(circuit);
    if ostats.removed() > 0 {
        let after = analysis::analyze(&optimized);
        println!(
            "peephole: {} cancelled, {} fused over {} pass(es) -> {} ops (depth {})",
            ostats.cancelled, ostats.fused, ostats.passes, after.total_ops, after.depth
        );
    } else {
        println!("peephole: no redundancies found");
    }
    let dag = DependencyDag::from_circuit(circuit);
    let widths = dag.level_widths();
    println!(
        "width profile: peak {} parallel ops, {} levels",
        widths.iter().max().copied().unwrap_or(0),
        widths.len()
    );
    Ok(())
}

fn parse_policy(rest: &[String]) -> Result<Policy, CliError> {
    match rest.first() {
        None => Ok(Policy::P6),
        Some(s) => {
            let idx: usize = s
                .parse()
                .map_err(|_| CliError::usage(format!("bad policy `{s}`")))?;
            Policy::from_index(idx)
                .ok_or_else(|| CliError::invalid(format!("policy {idx} out of range")))
        }
    }
}

fn parse_distance(rest: &[String], pos: usize) -> Result<u32, CliError> {
    match rest.get(pos) {
        None => Ok(5),
        Some(s) => {
            let d: u32 = s
                .parse()
                .map_err(|_| CliError::usage(format!("bad distance `{s}`")))?;
            if d.is_multiple_of(2) || d < 3 {
                return Err(CliError::invalid(format!(
                    "distance must be odd and >= 3, got {d}"
                )));
            }
            Ok(d)
        }
    }
}

fn describe_map(map: &DefectMap, backend: &str) {
    let topo = map.topology();
    println!(
        "defects ({backend} mesh {}x{}): {} dead tiles, {} dead links, {} flaky links",
        topo.width(),
        topo.height(),
        map.dead_node_count(),
        map.dead_link_count(),
        map.flaky_link_count()
    );
}

/// Prints findings and converts any error-severity one into a CLI
/// failure naming the violated invariant.
fn report_findings(findings: &[Finding], what: &str) -> Result<(), CliError> {
    for f in findings {
        println!("  {f}");
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(CliError::invalid(format!(
            "{what} failed certification with {errors} finding(s)"
        )));
    }
    Ok(())
}

fn cmd_check(circuit: &Circuit, rest: &[String]) -> CliResult {
    let (pos, defects) = parse_defect_opts(rest)?;
    let policy = parse_policy(&pos)?;
    let code_distance = parse_distance(&pos, 1)?;
    // Frontend + mapping through the shared toolflow pass pipeline —
    // the same stages `run_toolflow` runs — then the independent
    // scq-verify check passes over the resulting artifacts.
    let tf_config = ToolflowConfig {
        policy,
        code_distance: Some(code_distance),
        ..Default::default()
    };
    let mut art = ArtifactContext::for_circuit(circuit, tf_config);
    let pipeline = PipelineRunner::analysis().run(&mut art)?;
    let (Some(dag), Some(layout)) = (art.dag(), art.layout()) else {
        return Err(CliError::invalid("analysis pipeline deposited no DAG/layout").into());
    };
    let braid_map = defects.map_for(braid_mesh_dims(layout, circuit), "braid")?;
    if let Some(map) = &braid_map {
        describe_map(map, "braid");
    }
    let machine = PlanarMachine::new(circuit.num_qubits(), None);
    let planar_map = defects.map_for(PlanarMachine::grid_dims(circuit.num_qubits()), "planar")?;
    if let Some(map) = &planar_map {
        describe_map(map, "planar");
    }
    let cx = CheckContext {
        circuit,
        dag,
        fabrics: vec![
            FabricView::braid(layout, circuit, None, braid_map.as_ref()),
            FabricView::planar(&machine, circuit, planar_map.as_ref()),
        ],
    };
    let report = PassRunner::standard().run(&cx);
    for t in pipeline.timings.iter().chain(&report.timings) {
        println!("pass {:<20} {:>9.1?}", t.pass, t.duration);
    }
    report_findings(&report.findings, circuit.name())?;
    println!(
        "check: {} passed ({} warning(s))",
        circuit.name(),
        report.warning_count()
    );
    Ok(())
}

fn cmd_schedule(circuit: &Circuit, rest: &[String]) -> CliResult {
    let mut rest = rest.to_vec();
    let before = rest.len();
    rest.retain(|a| a != "--verify");
    let verify = rest.len() != before;
    let before = rest.len();
    rest.retain(|a| a != "--timings");
    let timings = rest.len() != before;
    let (pos, defects) = parse_defect_opts(&rest)?;
    let policy = parse_policy(&pos)?;
    let code_distance = parse_distance(&pos, 1)?;
    // Frontend + mapping through the shared toolflow pass pipeline —
    // the same stages `run_toolflow` runs, with per-pass wall clock and
    // per-artifact content hashes. The backend schedulers run below
    // with tracing enabled (which the pipeline passes do not), timed
    // under the same stage names.
    let tf_config = ToolflowConfig {
        policy,
        code_distance: Some(code_distance),
        ..Default::default()
    };
    let mut art = ArtifactContext::for_circuit(circuit, tf_config);
    let pipeline = PipelineRunner::analysis().run(&mut art)?;
    let mut pass_timings = pipeline.timings.clone();
    let (Some(dag), Some(layout)) = (art.dag(), art.layout()) else {
        return Err(CliError::invalid("analysis pipeline deposited no DAG/layout").into());
    };
    let config = BraidConfig {
        policy,
        code_distance,
        ..Default::default()
    };
    let braid_map = defects.map_for(braid_mesh_dims(layout, circuit), "braid")?;
    if let Some(map) = &braid_map {
        describe_map(map, "braid");
    }
    let braid_t0 = Instant::now();
    let (braid, trace) = match &braid_map {
        Some(map) => schedule_traced_on_defects(circuit, dag, layout, &config, map)?,
        None => schedule_traced(circuit, dag, layout, &config)?,
    };
    pass_timings.push(PassTiming {
        pass: "braid-schedule",
        duration: braid_t0.elapsed(),
    });
    trace.validate()?;
    println!("double-defect ({policy}, d={code_distance}): {braid}");
    println!(
        "  static replay: conflict-free ({} braid legs)",
        trace.events.len()
    );
    if verify {
        let findings = certify_braid_trace(&trace, circuit, dag, braid_map.as_ref());
        report_findings(&findings, "braid schedule")?;
        println!("  certified: {} braid invariants hold", trace.events.len());
    }
    let planar_config = PlanarConfig {
        code_distance,
        ..Default::default()
    };
    let planar_map = defects.map_for(PlanarMachine::grid_dims(circuit.num_qubits()), "planar")?;
    if let Some(map) = &planar_map {
        describe_map(map, "planar");
    }
    let planar_t0 = Instant::now();
    let planar = if verify {
        let (planar, transcript) = match &planar_map {
            Some(map) => {
                schedule_planar_traced_on_defects(circuit, dag, &planar_config, map, defects.seed)?
            }
            None => schedule_planar_traced(circuit, dag, &planar_config),
        };
        pass_timings.push(PassTiming {
            pass: "planar-schedule",
            duration: planar_t0.elapsed(),
        });
        let findings =
            certify_planar_schedule(&planar, &transcript, circuit, dag, planar_map.as_ref());
        report_findings(&findings, "planar schedule")?;
        planar
    } else {
        let planar = match &planar_map {
            Some(map) => {
                schedule_planar_on_defects(circuit, dag, &planar_config, map, defects.seed)?
            }
            None => schedule_planar(circuit, dag, &planar_config),
        };
        pass_timings.push(PassTiming {
            pass: "planar-schedule",
            duration: planar_t0.elapsed(),
        });
        planar
    };
    println!(
        "planar (Multi-SIMD): {} cycles, {} teleports, peak {} live EPR pairs",
        planar.cycles,
        planar.simd.total_teleports(),
        planar.epr.peak_live_eprs
    );
    if verify {
        println!(
            "  certified: {} EPR flights replayed clean",
            planar.epr.teleports
        );
    }
    if planar.transient_faults > 0 {
        println!(
            "  transient faults: {} hop retries absorbed by the EPR pipeline",
            planar.transient_faults
        );
    }
    if timings {
        println!("per-pass timings:");
        for t in &pass_timings {
            println!("  pass {:<20} {:>9.1?}", t.pass, t.duration);
        }
        println!("artifact hashes:");
        for h in art.hashes() {
            println!("  {:<20} {:016x}  [{}]", h.artifact, h.hash, h.pass);
        }
    }
    Ok(())
}

/// `scq batch <requests.txt>`: serve every request in the file through
/// the content-addressed schedule cache, printing one line per request
/// with its cache provenance, then the cache totals.
///
/// Any malformed line aborts before scheduling starts (the loader
/// reports `path:lineno: ...`); any request that fails to schedule is
/// reported in place and turns the whole batch into a nonzero exit.
fn cmd_batch(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or_else(|| CliError::usage("missing <requests.txt> argument"))?;
    let requests = load_request_file(path)?;
    if requests.is_empty() {
        return Err(CliError::invalid(format!(
            "{path}: no requests (only blank lines and comments)"
        ))
        .into());
    }
    let runner = BatchRunner::new(256);
    let responses = runner.run(&requests);
    let mut failed = 0usize;
    for r in &responses {
        match &r.outcome {
            Ok(outcome) => {
                println!(
                    "#{:<3} {:<24} [{}] {}",
                    r.index, r.label, r.provenance, outcome.summary
                )
            }
            Err(e) => {
                failed += 1;
                println!(
                    "#{:<3} {:<24} [{}] failed: {e}",
                    r.index, r.label, r.provenance
                );
            }
        }
    }
    let stats = runner.cache_stats();
    println!(
        "served {} request(s): {} hits, {} misses, {} dedups, {} computes, hit rate {:.1}%",
        responses.len(),
        stats.hits,
        stats.misses,
        stats.inflight_dedups,
        stats.computes,
        stats.hit_rate() * 100.0
    );
    if failed > 0 {
        return Err(CliError::invalid(format!("{failed} request(s) failed to schedule")).into());
    }
    Ok(())
}

fn cmd_compare(circuit: &Circuit, rest: &[String]) -> CliResult {
    let p_physical: f64 = match rest.first() {
        None => 1e-5,
        Some(s) => s
            .parse()
            .map_err(|_| CliError::usage(format!("bad error rate `{s}`")))?,
    };
    let profile = AppProfile::from_circuit(circuit, circuit.name());
    let config = EstimateConfig {
        technology: Technology::default().with_error_rate(p_physical),
        ..Default::default()
    };
    let kq = circuit.len().max(1) as f64;
    let (planar, dd) = estimate_both(&profile, kq, &config)?;
    println!("at p_physical = {p_physical:.1e}, {kq:.0} logical ops:");
    println!("  {planar}");
    println!("  {dd}");
    let ratio = dd.space_time() / planar.space_time();
    let verdict = if ratio > 1.0 {
        "planar"
    } else {
        "double-defect"
    };
    println!("  space-time ratio (dd/planar): {ratio:.2} -> use {verdict} encoding");
    Ok(())
}

fn cmd_heatmap(circuit: &Circuit, rest: &[String]) -> CliResult {
    let (pos, defects) = parse_defect_opts(rest)?;
    let code_distance = parse_distance(&pos, 0)?;
    let dag = DependencyDag::from_circuit(circuit);
    let graph = InteractionGraph::from_circuit(circuit);
    let layout = place(&graph, Policy::P6.layout_strategy(), None);
    let config = BraidConfig {
        policy: Policy::P6,
        code_distance,
        ..Default::default()
    };
    let (braid, trace) = match defects.map_for(braid_mesh_dims(&layout, circuit), "braid")? {
        Some(map) => {
            describe_map(&map, "braid");
            schedule_traced_on_defects(circuit, &dag, &layout, &config, &map)?
        }
        None => schedule_traced(circuit, &dag, &layout, &config)?,
    };
    println!(
        "{} braid legs over {} cycles, peak {} concurrent braids",
        trace.events.len(),
        braid.cycles,
        trace.peak_concurrent_braids()
    );
    println!("link congestion (0-9 = busy-cycles relative to hottest link):");
    print!("{}", trace.render_heatmap());
    Ok(())
}
