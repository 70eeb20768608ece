//! `adaptive-sweep`: the researcher's job — figure points at a stated
//! confidence. Surface code at d=5 and d=7 (rounds = 2d), two physical error
//! rates, ERASER+M vs GLADIATOR+M, union-find decoding; every cell runs until
//! its Wilson interval reaches the target width (or the shot ceiling), with a
//! checkpoint at every allocation round.
//!
//! One job is one `run_adaptive` call. Job `k` of a run uses input seed
//! `derive(seed, k)`, so a run's median averages over several inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_codes::{CheckBasis, MatchingGraph};
use qec_experiments::adaptive::{
    cell_decision, cell_hash, round_batch, spec_fingerprint, wilson_interval,
    write_checkpoint_state, CellTally,
};
use qec_experiments::engine::build_backend;
use qec_experiments::{
    run_adaptive, AdaptiveOutcome, AdaptiveSpec, BatchEngine, CheckpointState, CodeFamily,
    MetricsAccumulator, SweepCell, SweepSpec,
};

use crate::common::{derive, end_to_end, run_jobs, timed, Outcome, Traced, Workdir, SETUP_REPEATS};
use crate::pipeline::{ShotPipeline, ShotTotals};
use crate::spans::Tracer;

const DISTANCES: [usize; 2] = [5, 7];
const ERROR_RATES: [f64; 2] = [1e-3, 2e-3];
const LEAKAGE_RATIO: f64 = 0.1;
const POLICIES: [PolicyKind; 2] = [PolicyKind::EraserM, PolicyKind::GladiatorM];
/// Per-cell shot ceiling.
const CEILING: usize = 4096;
const TARGET_REL_HALFWIDTH: f64 = 0.35;
const CONFIDENCE: f64 = 0.95;
/// The two-sided 95% normal quantile, written out so the interval check does
/// not depend on the program's own quantile function.
const Z95: f64 = 1.959_963_984_540_054;
const INITIAL_BATCH: usize = 64;
/// Jobs every run completes, whatever `--seconds` says; their exact counters
/// are printed.
const MIN_JOBS: usize = 3;

fn spec(seed: u64, ceiling: usize) -> SweepSpec {
    SweepSpec {
        code: CodeFamily::Surface,
        distances: DISTANCES.to_vec(),
        error_rates: ERROR_RATES.to_vec(),
        leakage_ratios: vec![LEAKAGE_RATIO],
        policies: POLICIES.to_vec(),
        shots: ceiling,
        rounds_per_distance: 2,
        seed,
        decode: true,
        decoders: None,
        adaptive: Some(AdaptiveSpec {
            target_rel_halfwidth: TARGET_REL_HALFWIDTH,
            confidence: CONFIDENCE,
            initial_batch: INITIAL_BATCH,
        }),
    }
}

fn job_seed(seed: u64, job: usize) -> u64 {
    derive(seed, 0xADA0_0000 + job as u64)
}

/// Set-up: the grid's codes, matching graphs, offline GLADIATOR models and
/// decoders, then a one-batch warm-up sweep.
fn setup(seed: u64, work: &Workdir, rep: usize, outcome: &mut Outcome) {
    for scenario in spec(seed, CEILING).expand().expect("the grid is valid") {
        let code = scenario.build_code();
        let config = scenario.to_spec().gladiator;
        let factory = PolicyFactory::new(&code, &config);
        drop(factory.build(scenario.policy));
        outcome.op("build_backend", build_backend(None, &code, scenario.rounds));
    }
    let dir = work.path(&format!("warmup-{rep}"));
    outcome.op("run_adaptive (warm-up)", run_adaptive(&spec(seed, INITIAL_BATCH), &dir, None));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checks one sweep's report against the method's own guarantees and returns
/// its exact counters (shots, allocation rounds, failures, data LRCs).
fn check_outcome(spec: &SweepSpec, result: &AdaptiveOutcome, outcome: &mut Outcome) -> [u64; 4] {
    let cells = &result.report.cells;
    outcome.check(cells.len() == 8, || format!("sweep reported {} cells, not 8", cells.len()));
    let mut shots_sum = 0u64;
    let mut failures_sum = 0u64;
    let mut lrcs_sum = 0u64;
    for cell in cells {
        let n = cell.scenario.shots;
        shots_sum += n as u64;
        let id = cell.scenario.id();
        let Some(ler) = cell.metrics.logical_error_rate else {
            outcome.check(false, || format!("{id}: no logical error rate"));
            continue;
        };
        let failures = (ler * n as f64).round();
        outcome.check((ler * n as f64 - failures).abs() < 1e-6, || {
            format!("{id}: LER {ler} x {n} shots is not a whole failure count")
        });
        failures_sum += failures as u64;
        lrcs_sum += (cell.metrics.data_lrcs * n as f64).round() as u64;
        // The Wilson score interval, computed independently of the program.
        let (k, n_f) = (failures, n as f64);
        let p_hat = k / n_f;
        let z2 = Z95 * Z95;
        let denom = 1.0 + z2 / n_f;
        let center = (p_hat + z2 / (2.0 * n_f)) / denom;
        let halfwidth = Z95 * (p_hat * (1.0 - p_hat) / n_f + z2 / (4.0 * n_f * n_f)).sqrt() / denom;
        let converged = k > 0.0 && halfwidth / center <= TARGET_REL_HALFWIDTH;
        outcome.check(converged || n == spec.shots, || {
            format!(
                "{id}: {k} failures in {n} shots gives relative half-width {:.4}, above the \
                 target {TARGET_REL_HALFWIDTH}, below the ceiling {}",
                halfwidth / center,
                spec.shots
            )
        });
    }
    outcome.check(result.shots_allocated == shots_sum, || {
        format!("shots_allocated {} != sum of cell shots {shots_sum}", result.shots_allocated)
    });
    outcome.check(result.converged + result.ceilinged == cells.len(), || {
        format!(
            "{} converged + {} ceilinged != {} cells",
            result.converged,
            result.ceilinged,
            cells.len()
        )
    });
    // GLADIATOR+M must issue fewer LRCs per round than ERASER+M on every cell.
    for (eraser, gladiator) in twins(cells) {
        let id = eraser.scenario.id();
        match gladiator {
            Some(gladiator) => outcome.check(
                gladiator.metrics.lrcs_per_round < eraser.metrics.lrcs_per_round,
                || {
                    format!(
                        "{id}: GLADIATOR+M issues {} LRCs/round, ERASER+M {}",
                        gladiator.metrics.lrcs_per_round, eraser.metrics.lrcs_per_round
                    )
                },
            ),
            None => outcome.check(false, || format!("{id}: no GLADIATOR+M twin")),
        }
    }
    [shots_sum, result.rounds, failures_sum, lrcs_sum]
}

/// Prints a sweep's figure points to stderr: LER with its interval and LRCs
/// per round, GLADIATOR+M against ERASER+M (the benchmark README's table).
fn print_cells(result: &AdaptiveOutcome) {
    eprintln!(
        "perfbench: cell                                   shots   LER       +/- rel  LRC/round"
    );
    for cell in &result.report.cells {
        let n = cell.scenario.shots as u64;
        let ler = cell.metrics.logical_error_rate.unwrap_or(0.0);
        let interval = wilson_interval((ler * n as f64).round() as u64, n, Z95);
        eprintln!(
            "perfbench: {:<38} {:>6}  {:.3e}  {:.3}    {:.3}",
            cell.scenario.id(),
            n,
            ler,
            interval.relative_halfwidth(),
            cell.metrics.lrcs_per_round
        );
    }
    for (eraser, gladiator) in twins(&result.report.cells) {
        if let (Some(g), Some(e_ler)) = (gladiator, eraser.metrics.logical_error_rate) {
            eprintln!(
                "perfbench: d={} p={:e}: GLADIATOR+M / ERASER+M  LER x{:.2}  LRCs/round x{:.2}",
                eraser.scenario.distance,
                eraser.scenario.p,
                g.metrics.logical_error_rate.unwrap_or(0.0) / e_ler,
                g.metrics.lrcs_per_round / eraser.metrics.lrcs_per_round
            );
        }
    }
}

/// Each ERASER+M cell of a report with its GLADIATOR+M twin (same d and p).
fn twins(cells: &[SweepCell]) -> impl Iterator<Item = (&SweepCell, Option<&SweepCell>)> {
    cells.iter().filter(|c| c.scenario.policy == PolicyKind::EraserM).map(move |eraser| {
        let twin = cells.iter().find(|c| {
            c.scenario.policy == PolicyKind::GladiatorM
                && c.scenario.distance == eraser.scenario.distance
                && c.scenario.p == eraser.scenario.p
        });
        (eraser, twin)
    })
}

/// One job: a whole adaptive sweep in a fresh checkpoint directory.
fn job(spec: &SweepSpec, dir: &Path, outcome: &mut Outcome) -> (Option<AdaptiveOutcome>, f64) {
    let (result, wall) = timed(|| run_adaptive(spec, dir, None));
    let _ = std::fs::remove_dir_all(dir);
    let result = match outcome.op("run_adaptive", result) {
        Some(Some(result)) => Some(result),
        Some(None) => {
            outcome.check(false, || "run_adaptive stopped before every cell did".to_string());
            None
        }
        None => None,
    };
    (result, wall)
}

pub fn run(seed: u64, seconds: f64, work: &Workdir) -> Outcome {
    let mut outcome = Outcome::default();
    let setups: Vec<f64> =
        (0..SETUP_REPEATS).map(|rep| timed(|| setup(seed, work, rep, &mut outcome)).1).collect();
    let mut counts = [0u64; 4];
    let walls = run_jobs(seconds, MIN_JOBS, |k| {
        let spec = spec(job_seed(seed, k), CEILING);
        let (result, wall) = job(&spec, &work.path(&format!("sweep-{k}")), &mut outcome);
        if let Some(result) = result {
            let job_counts = check_outcome(&spec, &result, &mut outcome);
            if k == 0 {
                print_cells(&result);
            }
            if k < MIN_JOBS {
                for (total, c) in counts.iter_mut().zip(job_counts) {
                    *total += c;
                }
            }
        }
        wall
    });
    for (name, value) in
        ["adaptive.shots", "adaptive.rounds", "adaptive.logical_failures", "adaptive.data_lrcs"]
            .iter()
            .zip(counts)
    {
        outcome.count(name, value);
    }
    // One operation per job: its percentiles are the job's own wall time.
    let ops_ms: Vec<Vec<f64>> = walls.iter().map(|w| vec![w * 1e3]).collect();
    end_to_end(&mut outcome, &setups, &walls, &ops_ms);
    outcome
}

/// The traced run: job 0 untraced through `run_adaptive`, then the same sweep
/// driven by hand — the allocation schedule, the stopping rule and the
/// checkpoint writes through the program's public functions, every shot
/// through [`ShotPipeline`]. Its cells must equal the report's, and every
/// cell's shots must equal `BatchEngine::score_range` bit for bit.
pub fn traced(seed: u64, work: &Workdir) -> Traced {
    let mut outcome = Outcome::default();
    setup(seed, work, 0, &mut outcome);
    let spec = spec(job_seed(seed, 0), CEILING);
    let (reference, untraced_wall_s) = job(&spec, &work.path("sweep-untraced"), &mut outcome);
    let Some(reference) = reference else {
        return Traced { outcome, untraced_wall_s, traced_wall_s: untraced_wall_s };
    };
    check_outcome(&spec, &reference, &mut outcome);

    let adaptive = spec.adaptive.expect("the benchmark spec is adaptive");
    let scenarios = spec.expand().expect("the grid is valid");
    let dir = work.path("sweep-traced");
    let _ = std::fs::create_dir_all(&dir);
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let job_span = tracer.enter("experiments.adaptive");
    let mut pipelines = Vec::new();
    let mut factories = Vec::new();
    let mut decoders = Vec::new();
    for scenario in &scenarios {
        let engine_spec = scenario.to_spec();
        let code = tracer.span("codes.build", || {
            let code = scenario.build_code();
            drop(MatchingGraph::build(&code, CheckBasis::Z, scenario.rounds + 1));
            code
        });
        let factory = tracer.span("gladiator.factory", || {
            let factory = PolicyFactory::new(&code, &engine_spec.gladiator);
            drop(factory.build(scenario.policy));
            Arc::new(factory)
        });
        let decoder = tracer
            .span("decoder.build", || build_backend(None, &code, scenario.rounds))
            .expect("union-find serves the surface code");
        pipelines.push(ShotPipeline::new(
            &code,
            &engine_spec,
            &factory,
            Some(Arc::clone(&decoder)),
        ));
        factories.push(factory);
        decoders.push(decoder);
    }
    let hashes: Vec<u64> = scenarios.iter().map(cell_hash).collect();
    let fingerprint = spec_fingerprint(&spec);
    let mut states = vec![MetricsAccumulator::new(); scenarios.len()];
    let mut shots: Vec<Vec<qec_experiments::RunMetrics>> = vec![Vec::new(); scenarios.len()];
    let mut totals = ShotTotals::default();
    let mut rounds = 0u64;
    loop {
        let active: Vec<usize> = (0..scenarios.len())
            .filter(|&i| cell_decision(&states[i], spec.shots, &adaptive).is_none())
            .collect();
        if active.is_empty() {
            break;
        }
        for &i in &active {
            let done = states[i].shots as u64;
            let batch = round_batch(spec.seed, hashes[i], rounds, adaptive.initial_batch as u64)
                .min(spec.shots as u64 - done);
            for shot in done..done + batch {
                let result = pipelines[i].run_shot(shot, &mut tracer);
                totals.add(&result);
                states[i].push(&result.metrics);
                shots[i].push(result.metrics);
            }
        }
        rounds += 1;
        let state = CheckpointState {
            spec_fingerprint: fingerprint,
            rounds,
            cells: scenarios
                .iter()
                .zip(&states)
                .map(|(scenario, acc)| CellTally { id: scenario.id(), acc: acc.clone() })
                .collect(),
        };
        let written =
            tracer.span("experiments.checkpoint_write", || write_checkpoint_state(&dir, &state));
        outcome.op("write_checkpoint_state", written.map_err(|e| e.to_string()));
    }
    tracer.exit(job_span);
    let traced_wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    // The hand-driven sweep must be the program's sweep, bit for bit.
    outcome.check(rounds == reference.rounds, || {
        format!("hand-driven sweep took {rounds} rounds, run_adaptive {}", reference.rounds)
    });
    for (i, (scenario, cell)) in scenarios.iter().zip(&reference.report.cells).enumerate() {
        let id = scenario.id();
        outcome.check(states[i].finalize() == cell.metrics, || {
            format!("{id}: hand-driven cell metrics differ from run_adaptive's")
        });
        let engine = BatchEngine::with_shared(
            &scenario.to_spec(),
            Arc::clone(&factories[i]),
            Some(Arc::clone(&decoders[i])),
        );
        let n = shots[i].len() as u64;
        outcome.check(engine.score_range(0, n) == shots[i], || {
            format!("{id}: hand-driven shots differ from BatchEngine::score_range")
        });
    }

    let stats = tracer.stats();
    let stat = |name: &str| stats.get(name).copied().unwrap_or_default();
    let sim_shot = stat("sim.shot");
    let excluded = tracer.child_total_ns("sim.shot", "speculation.plan")
        + tracer.child_total_ns("sim.shot", "sim.checkpoint");
    let rounds_total = totals.rounds.max(1) as f64;
    outcome.metric("codes.build_ms", stat("codes.build").mean_ms(), "ms");
    outcome.metric("gladiator.factory_ms", stat("gladiator.factory").mean_ms(), "ms");
    outcome.metric("decoder.build_ms", stat("decoder.build").mean_ms(), "ms");
    outcome.metric(
        "sim.shot_us",
        (sim_shot.total_ns - excluded) as f64 / 1e3 / sim_shot.count.max(1) as f64,
        "us",
    );
    outcome.metric("sim.round_us", stat("sim.round").mean_us(), "us");
    outcome.metric("sim.rounds", stat("sim.round").count as f64, "count");
    outcome.metric("sim.checkpoint_us", stat("sim.checkpoint").mean_us(), "us");
    outcome.metric(
        "speculation.policy_ns_per_round",
        stat("speculation.plan").total_ns as f64 / rounds_total,
        "ns",
    );
    outcome.metric(
        "speculation.lrcs_per_round",
        (totals.data_lrcs + totals.ancilla_lrcs) as f64 / rounds_total,
        "count",
    );
    outcome.metric(
        "speculation.false_positives_per_round",
        totals.false_positives as f64 / rounds_total,
        "count",
    );
    outcome.metric(
        "speculation.lrc_precision",
        (totals.data_lrcs - totals.false_positives) as f64 / totals.data_lrcs.max(1) as f64,
        "ratio",
    );
    outcome.metric("decoder.uf_us_per_shot", stat("decoder.uf").mean_us(), "us");
    outcome.metric(
        "decoder.events_per_shot",
        totals.detection_events as f64 / totals.decoded.max(1) as f64,
        "count",
    );
    outcome.metric(
        "experiments.checkpoint_write_ms",
        stat("experiments.checkpoint_write").mean_ms(),
        "ms",
    );
    outcome.metric("experiments.shots_allocated", reference.shots_allocated as f64, "count");
    outcome.metric("experiments.adaptive_rounds", reference.rounds as f64, "count");
    outcome.count("adaptive.traced_shots", totals.shots);
    outcome.count("adaptive.traced_sim_rounds", totals.rounds);
    outcome.count("adaptive.traced_lrcs", totals.data_lrcs + totals.ancilla_lrcs);
    outcome.count("adaptive.traced_detection_events", totals.detection_events);
    tracer.write_out("adaptive-sweep");
    Traced { outcome, untraced_wall_s, traced_wall_s }
}
