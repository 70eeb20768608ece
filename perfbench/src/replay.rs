//! `policy-replay`: record once, evaluate many. Set-up records a corpus that
//! mixes surface d=3/5/7 cells with color d=3 cells (ERASER+M closed loop,
//! rounds = 2d). One job is the full cross-policy report: every cell is
//! loaded from its `.qtr` file and all 11 policies are replayed closed-loop
//! from shared checkpoints with decoding — union-find on surface cells, the
//! exact `lookup` decoder on every d=3 cell.

use std::sync::Arc;
use std::time::Instant;

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_decoder::{DecoderBackend, DecoderKind};
use qec_experiments::engine::build_backend;
use qec_experiments::replay::{calibration_for, load_entry, record_into_corpus, spec_from_header};
use qec_experiments::{
    evaluate_cell_set, evaluation_row, BatchEngine, CodeFamily, LoadedCell, ReplayCellResult,
    ReplayMode, Scenario,
};
use qec_trace::{Corpus, CorpusEntry, ShotTrace};

use crate::common::{
    derive, end_to_end, mix, run_jobs, timed, Outcome, Traced, Workdir, SETUP_REPEATS,
};
use crate::pipeline::{ShotPipeline, ShotTotals};
use crate::spans::Tracer;

/// `(family, distance, p)` of every corpus cell.
const CELLS: [(CodeFamily, usize, f64); 7] = [
    (CodeFamily::Surface, 3, 1e-3),
    (CodeFamily::Surface, 3, 2e-3),
    (CodeFamily::Surface, 5, 1e-3),
    (CodeFamily::Surface, 5, 2e-3),
    (CodeFamily::Surface, 7, 1e-3),
    (CodeFamily::Color, 3, 1e-3),
    (CodeFamily::Color, 3, 2e-3),
];
const SHOTS: usize = 256;
const LEAKAGE_RATIO: f64 = 0.1;
pub const RECORD_POLICY: PolicyKind = PolicyKind::EraserM;
/// Rows re-run live from scratch after the timed phase.
const LIVE_SAMPLE: usize = 3;
const MIN_JOBS: usize = 3;

/// The decoder backends each cell is evaluated under.
fn decoders_for(family: CodeFamily, distance: usize) -> Vec<DecoderKind> {
    match (family, distance) {
        (CodeFamily::Surface, 3) => vec![DecoderKind::UnionFind, DecoderKind::Lookup],
        (CodeFamily::Surface, _) => vec![DecoderKind::UnionFind],
        _ => vec![DecoderKind::Lookup],
    }
}

/// One recorded cell with the artifacts its evaluations share.
struct Cell {
    entry: CorpusEntry,
    factory: Arc<PolicyFactory>,
    decoders: Vec<(DecoderKind, Arc<dyn DecoderBackend>)>,
}

struct Setup {
    corpus: Corpus,
    cells: Vec<Cell>,
}

/// Records `cells` into a corpus at `dir`: ERASER+M closed loop, rounds = 2d,
/// decoding off (recording does not decode). Cell `i` is seeded with
/// `seed_of(i)`.
pub fn record_corpus(
    dir: &std::path::Path,
    cells: &[(CodeFamily, usize, f64)],
    shots: usize,
    seed_of: impl Fn(usize) -> u64,
) -> Result<Corpus, String> {
    let mut corpus = Corpus::open(dir).map_err(|e| e.to_string())?;
    for (i, &(code, distance, p)) in cells.iter().enumerate() {
        let scenario = Scenario {
            code,
            distance,
            rounds: 2 * distance,
            p,
            leakage_ratio: LEAKAGE_RATIO,
            policy: RECORD_POLICY,
            shots,
            seed: seed_of(i),
            decode: false,
            decoder: None,
        };
        record_into_corpus(&mut corpus, &scenario, RECORD_POLICY, "perfbench")?;
    }
    corpus.save().map_err(|e| e.to_string())?;
    Ok(corpus)
}

/// Records the corpus into `dir`, then builds every cell's factory (with its
/// offline model) and decoders.
fn setup(seed: u64, dir: &std::path::Path, outcome: &mut Outcome) -> Option<Setup> {
    let recorded = record_corpus(dir, &CELLS, SHOTS, |i| derive(seed, 0x5E00 + i as u64));
    let corpus = outcome.op("record_corpus", recorded)?;
    let mut cells = Vec::new();
    for entry in corpus.entries().to_vec() {
        let loaded = outcome.op("load_entry", load_entry(&corpus, &entry))?;
        let factory = Arc::new(PolicyFactory::new(&loaded.code, &calibration_for(&loaded.header)));
        for kind in PolicyKind::ALL {
            drop(factory.build(kind));
        }
        let family = CodeFamily::from_label(&entry.family).expect("recorded families parse");
        let mut decoders = Vec::new();
        for kind in decoders_for(family, entry.distance) {
            let backend = build_backend(Some(kind), &loaded.code, loaded.header.rounds);
            decoders.push((kind, outcome.op("build_backend", backend)?));
        }
        cells.push(Cell { entry, factory, decoders });
    }
    Some(Setup { corpus, cells })
}

/// Everything one job produced: report rows, per-call latencies and the
/// exact counters of checkpoint sharing.
#[derive(Default)]
struct JobResult {
    rows: Vec<ReplayCellResult>,
    eval_ms: Vec<f64>,
    forced_passes: u64,
    suffixes: u64,
}

/// One job: the full cross-policy report over the corpus. With a tracer,
/// every load and evaluation call gets its own span.
fn job(setup: &Setup, outcome: &mut Outcome, mut tracer: Option<&mut Tracer>) -> JobResult {
    let mut result = JobResult::default();
    let decoders_of = |cell: &Cell, kind: DecoderKind| {
        cell.decoders.iter().find(|(k, _)| *k == kind).map(|(_, d)| Arc::clone(d))
    };
    for cell in &setup.cells {
        let open = tracer.as_deref_mut().map(|t| t.enter("trace.load"));
        let loaded = load_entry(&setup.corpus, &cell.entry);
        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
            t.exit(open);
        }
        let Some(loaded) = outcome.op("load_entry", loaded) else { continue };
        for &(kind, _) in &cell.decoders {
            let backend = decoders_of(cell, kind).expect("built in set-up");
            let slots: Vec<Option<&dyn DecoderBackend>> =
                PolicyKind::ALL.iter().map(|_| Some(backend.as_ref())).collect();
            let open = tracer.as_deref_mut().map(|t| t.enter("experiments.eval_set"));
            let (evaluated, seconds) = timed(|| {
                evaluate_cell_set(
                    &loaded,
                    &cell.factory,
                    &PolicyKind::ALL,
                    &slots,
                    ReplayMode::ClosedLoop,
                    true,
                )
            });
            if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
                t.exit(open);
            }
            result.eval_ms.push(seconds * 1e3);
            let Some((replays, stats)) = outcome.op("evaluate_cell_set", evaluated) else {
                continue;
            };
            result.forced_passes += stats.forced_passes;
            result.suffixes += stats.suffixes;
            for (&policy, replay) in PolicyKind::ALL.iter().zip(&replays) {
                result.rows.push(evaluation_row(
                    &cell.entry.key,
                    &loaded,
                    policy,
                    Some(kind),
                    replay,
                ));
            }
        }
    }
    result
}

/// Properties every report must have.
fn check_rows(rows: &[ReplayCellResult], outcome: &mut Outcome) {
    let expected: usize = CELLS.iter().map(|&(f, d, _)| decoders_for(f, d).len()).sum::<usize>()
        * PolicyKind::ALL.len();
    outcome.check(rows.len() == expected, || format!("{} rows, expected {expected}", rows.len()));
    for row in rows {
        let what = format!("{} {} @{}", row.key, row.policy, row.decoder.as_deref().unwrap_or("-"));
        let m = &row.metrics;
        if row.policy == row.recorded_policy {
            outcome.check(row.divergent_shots == 0, || {
                format!(
                    "{what}: replaying the recording policy diverged on {} shots",
                    row.divergent_shots
                )
            });
        }
        if row.policy == PolicyKind::Ideal.label() {
            outcome.check(m.false_positives == 0.0 && m.false_negatives == 0.0, || {
                format!("{what}: ideal has FP {} FN {}", m.false_positives, m.false_negatives)
            });
        }
        if row.policy == PolicyKind::NoLrc.label() {
            outcome.check(m.data_lrcs == 0.0 && m.ancilla_lrcs == 0.0, || {
                format!("{what}: no-lrc issued {} + {} LRCs", m.data_lrcs, m.ancilla_lrcs)
            });
        }
        outcome.check(m.logical_error_rate.is_some(), || format!("{what}: not decoded"));
    }
}

/// Replay ≡ live: a seeded sample of rows is re-simulated from scratch (fresh
/// code, factory and decoder) and must equal the replayed rows bit for bit.
fn check_live_sample(seed: u64, setup: &Setup, rows: &[ReplayCellResult], outcome: &mut Outcome) {
    for i in 0..LIVE_SAMPLE {
        let row = &rows[(mix(seed ^ (0x11FE + i as u64)) % rows.len() as u64) as usize];
        let Some(cell) = setup.cells.iter().find(|c| c.entry.key == row.key) else { continue };
        let Some(loaded) = outcome.op("load_entry", load_entry(&setup.corpus, &cell.entry)) else {
            continue;
        };
        let policy = PolicyKind::from_label(&row.policy).expect("rows carry known policies");
        let kind = row.decoder.as_deref().and_then(DecoderKind::from_label);
        let Some(decoder) =
            outcome.op("build_backend", build_backend(kind, &loaded.code, loaded.header.rounds))
        else {
            continue;
        };
        let spec = spec_from_header(&loaded.header, policy, true);
        let factory = Arc::new(PolicyFactory::new(&loaded.code, &spec.gladiator));
        let live = BatchEngine::with_shared(&spec, factory, Some(decoder)).run();
        outcome.check(live.metrics == row.metrics, || {
            format!("{} {}: replayed row differs from a live run", row.key, row.policy)
        });
    }
}

fn counts(result: &JobResult, setup: &Setup, outcome: &mut Outcome) {
    let shots: u64 = result.rows.iter().map(|r| r.shots as u64).sum();
    let divergent: u64 = result.rows.iter().map(|r| r.divergent_shots as u64).sum();
    let errors: u64 = result
        .rows
        .iter()
        .map(|r| (r.metrics.logical_error_rate.unwrap_or(0.0) * r.shots as f64).round() as u64)
        .sum();
    let lrcs: u64 = result
        .rows
        .iter()
        .map(|r| ((r.metrics.data_lrcs + r.metrics.ancilla_lrcs) * r.shots as f64).round() as u64)
        .sum();
    let qtr_bytes: u64 = setup
        .cells
        .iter()
        .map(|c| std::fs::metadata(setup.corpus.trace_path(&c.entry)).map_or(0, |m| m.len()))
        .sum();
    outcome.count("replay.rows", result.rows.len() as u64);
    outcome.count("replay.shots", shots);
    outcome.count("replay.divergent_shots", divergent);
    outcome.count("replay.shared_passes", result.forced_passes);
    outcome.count("replay.suffixes", result.suffixes);
    outcome.count("replay.logical_failures", errors);
    outcome.count("replay.lrcs", lrcs);
    outcome.count("replay.qtr_bytes", qtr_bytes);
}

fn setup_repeated(seed: u64, work: &Workdir, outcome: &mut Outcome) -> (Vec<f64>, Option<Setup>) {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let dir = work.path(&format!("corpus-{rep}"));
        let (built, seconds) = timed(|| setup(seed, &dir, outcome));
        setups.push(seconds);
        last = built;
    }
    (setups, last)
}

pub fn run(seed: u64, seconds: f64, work: &Workdir) -> Outcome {
    let mut outcome = Outcome::default();
    let (setups, setup) = setup_repeated(seed, work, &mut outcome);
    let Some(setup) = setup else { return outcome };
    let mut first: Option<JobResult> = None;
    let mut ops_ms = Vec::new();
    let walls = run_jobs(seconds, MIN_JOBS, |_| {
        let (result, wall) = timed(|| job(&setup, &mut outcome, None));
        ops_ms.push(result.eval_ms.clone());
        match &first {
            None => {
                check_rows(&result.rows, &mut outcome);
                first = Some(result);
            }
            Some(first) => outcome.check(first.rows == result.rows, || {
                "a repeated job produced a different report".to_string()
            }),
        }
        wall
    });
    if let Some(first) = &first {
        check_live_sample(seed, &setup, &first.rows, &mut outcome);
        counts(first, &setup, &mut outcome);
    }
    end_to_end(&mut outcome, &setups, &walls, &ops_ms);
    outcome
}

/// The traced run: one untraced job, one traced job (a span per load and per
/// evaluation call), then traced probes of the layers inside them — `.qtr`
/// encode/decode of every loaded shot, and the shot pipeline driven by hand
/// with the lookup decoder on every d=3 cell, checked bit for bit against
/// `BatchEngine`.
pub fn traced(seed: u64, work: &Workdir) -> Traced {
    let mut outcome = Outcome::default();
    let Some(setup) = setup(seed, &work.path("corpus-traced"), &mut outcome) else {
        return Traced { outcome, untraced_wall_s: 0.0, traced_wall_s: 0.0 };
    };
    let (untraced, untraced_wall_s) = timed(|| job(&setup, &mut outcome, None));
    check_rows(&untraced.rows, &mut outcome);
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let traced = job(&setup, &mut outcome, Some(&mut tracer));
    let traced_wall_s = start.elapsed().as_secs_f64();
    outcome.check(traced.rows == untraced.rows, || "the traced job's report differs".to_string());
    counts(&traced, &setup, &mut outcome);

    // Probes: `.qtr` encode/decode per shot and the hand-driven pipeline.
    let mut payload_bytes = 0u64;
    let mut encoded_shots = 0u64;
    let mut lookup = ShotTotals::default();
    for cell in &setup.cells {
        let Some(loaded) = outcome.op("load_entry", load_entry(&setup.corpus, &cell.entry)) else {
            continue;
        };
        for shot in &loaded.shots {
            let payload = tracer.span("trace.encode", || shot.encode());
            let decoded =
                tracer.span("trace.decode", || ShotTrace::decode(&payload, &loaded.header));
            outcome.check(matches!(&decoded, Ok(d) if d == shot), || {
                format!("{}: shot {} does not survive encode/decode", cell.entry.key, shot.shot)
            });
            payload_bytes += payload.len() as u64;
            encoded_shots += 1;
        }
        if let Some((_, decoder)) = cell.decoders.iter().find(|(k, _)| *k == DecoderKind::Lookup) {
            probe_pipeline(&loaded, cell, decoder, &mut tracer, &mut lookup, &mut outcome);
        }
    }

    let stats = tracer.stats();
    let stat = |name: &str| stats.get(name).copied().unwrap_or_default();
    let members: u64 = stat("experiments.eval_set").count * PolicyKind::ALL.len() as u64;
    let shots_evaluated: u64 = traced.rows.iter().map(|r| r.shots as u64).sum();
    let divergent: u64 = traced.rows.iter().map(|r| r.divergent_shots as u64).sum();
    outcome.metric("decoder.lookup_us_per_shot", stat("decoder.lookup").mean_us(), "us");
    outcome.metric("trace.encode_us_per_shot", stat("trace.encode").mean_us(), "us");
    outcome.metric("trace.decode_us_per_shot", stat("trace.decode").mean_us(), "us");
    outcome.metric("trace.bytes_per_shot", payload_bytes as f64 / encoded_shots.max(1) as f64, "B");
    outcome.metric("trace.load_ms", stat("trace.load").mean_ms(), "ms");
    outcome.metric(
        "experiments.replay_ms_per_eval",
        stat("experiments.eval_set").total_ns as f64 / 1e6 / members.max(1) as f64,
        "ms",
    );
    outcome.metric(
        "experiments.divergent_shot_ratio",
        divergent as f64 / shots_evaluated.max(1) as f64,
        "ratio",
    );
    outcome.metric("experiments.shared_passes", traced.forced_passes as f64, "count");
    outcome.count("replay.traced_lookup_shots", lookup.shots);
    outcome.count("replay.traced_lookup_detection_events", lookup.detection_events);
    tracer.write_out("policy-replay");
    Traced { outcome, untraced_wall_s, traced_wall_s }
}

/// Re-simulates every recorded shot of a d=3 cell through the hand-driven
/// pipeline with the lookup decoder, and checks it against `BatchEngine`.
fn probe_pipeline(
    loaded: &LoadedCell,
    cell: &Cell,
    decoder: &Arc<dyn DecoderBackend>,
    tracer: &mut Tracer,
    totals: &mut ShotTotals,
    outcome: &mut Outcome,
) {
    let recorded = PolicyKind::from_label(&loaded.header.policy).expect("recorded policy parses");
    let spec = spec_from_header(&loaded.header, recorded, true);
    let mut pipeline =
        ShotPipeline::new(&loaded.code, &spec, &cell.factory, Some(Arc::clone(decoder)));
    let shots: Vec<_> = (0..spec.shots as u64)
        .map(|shot| {
            let result = pipeline.run_shot(shot, tracer);
            totals.add(&result);
            result.metrics
        })
        .collect();
    let engine =
        BatchEngine::with_shared(&spec, Arc::clone(&cell.factory), Some(Arc::clone(decoder)));
    outcome.check(engine.score_range(0, spec.shots as u64) == shots, || {
        format!("{}: hand-driven lookup shots differ from BatchEngine", cell.entry.key)
    });
}
