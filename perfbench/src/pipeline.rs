//! The shot pipeline driven by hand, one layer call at a time, for the traced
//! run: simulator rounds, policy planning, decoding and scoring each get their
//! own span. It must reproduce `BatchEngine`'s per-shot results bit for bit;
//! callers compare the two on every cell they trace.

use std::sync::Arc;

use leakage_speculation::PolicyFactory;
use leaky_sim::{GroundTruth, LeakagePolicy, PolicyContext, Simulator};
use qec_codes::{Code, DataAdjacency};
use qec_decoder::{logical_failure, DecoderBackend, MemoryBasis};
use qec_experiments::{ExperimentSpec, RunMetrics};

use crate::spans::Tracer;

/// The per-shot stages: the engine's `simulate` + `score`, split by layer.
pub struct ShotPipeline {
    spec: ExperimentSpec,
    code: Code,
    adjacency: DataAdjacency,
    sim: Simulator,
    policy: Box<dyn LeakagePolicy + Send>,
    decoder: Option<Arc<dyn DecoderBackend>>,
    decode_span: &'static str,
}

/// One traced shot: the engine's per-shot result plus the decoder's input
/// size.
pub struct Shot {
    pub metrics: RunMetrics,
    pub detection_events: usize,
}

impl ShotPipeline {
    pub fn new(
        code: &Code,
        spec: &ExperimentSpec,
        factory: &PolicyFactory,
        decoder: Option<Arc<dyn DecoderBackend>>,
    ) -> ShotPipeline {
        let decode_span = match decoder.as_ref().map(|d| d.label()) {
            Some("lookup") => "decoder.lookup",
            _ => "decoder.uf",
        };
        ShotPipeline {
            spec: spec.clone(),
            code: code.clone(),
            adjacency: code.data_adjacency(),
            sim: Simulator::new(code, spec.noise, spec.seed),
            policy: factory.build(spec.policy),
            decoder,
            decode_span,
        }
    }

    /// Runs shot `shot` (seed `spec.seed + shot`), with one span per layer
    /// call. A checkpoint is taken and restored half-way through each shot,
    /// which leaves the simulator bit-for-bit where it was.
    pub fn run_shot(&mut self, shot: u64, tracer: &mut Tracer) -> Shot {
        let rounds = self.spec.rounds;
        let sim_span = tracer.enter("sim.shot");
        self.sim.reseed_for_shot(self.spec.seed, shot, self.spec.leakage_sampling);
        let policy = &mut self.policy;
        tracer.span("speculation.plan", || policy.reset());
        let mut history = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let data_leaked = self.sim.frames().data_leak_flags();
            let ancilla_leaked = self.sim.frames().ancilla_leak_flags();
            let ctx = PolicyContext {
                round,
                code: &self.code,
                adjacency: &self.adjacency,
                history: &history,
                ground_truth: GroundTruth {
                    data_leaked: &data_leaked,
                    ancilla_leaked: &ancilla_leaked,
                },
            };
            let plan = tracer.enter("speculation.plan");
            let request = self.policy.plan_lrcs(&ctx);
            tracer.exit(plan);
            let sim = &mut self.sim;
            let record = tracer.span("sim.round", || sim.run_round(&request));
            history.push(record);
            if round + 1 == rounds / 2 {
                tracer.span("sim.checkpoint", || {
                    let checkpoint = sim.checkpoint();
                    sim.restore(&checkpoint);
                });
            }
        }
        // Every round already ran, so resuming only finalizes the run.
        let sim = &mut self.sim;
        let run = tracer.span("sim.finalize", || {
            sim.resume_with_policy(&mut leaky_sim::policy::NeverLrc, history, rounds)
        });
        tracer.exit(sim_span);
        let mut detection_events = 0;
        let correction = self.decoder.as_ref().map(|decoder| {
            tracer.span(self.decode_span, || {
                let events = decoder.detection_events(&run);
                detection_events = events.len();
                decoder.decode(&events)
            })
        });
        let code = &self.code;
        let lrc_time_ns = self.spec.noise.lrc_time_ns;
        let metrics = tracer.span("experiments.score", || {
            let mut metrics = RunMetrics::score(&run, lrc_time_ns);
            if let Some(correction) = &correction {
                metrics.logical_error =
                    Some(logical_failure(code, &run, correction, MemoryBasis::Z));
            }
            metrics
        });
        Shot { metrics, detection_events }
    }
}

/// Exact per-shot speculation counters over a set of traced shots.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShotTotals {
    pub shots: u64,
    pub rounds: u64,
    pub data_lrcs: u64,
    pub ancilla_lrcs: u64,
    pub false_positives: u64,
    pub detection_events: u64,
    pub decoded: u64,
}

impl ShotTotals {
    pub fn add(&mut self, shot: &Shot) {
        self.shots += 1;
        self.rounds += shot.metrics.rounds as u64;
        self.data_lrcs += shot.metrics.data_lrcs as u64;
        self.ancilla_lrcs += shot.metrics.ancilla_lrcs as u64;
        self.false_positives += shot.metrics.false_positives as u64;
        self.detection_events += shot.detection_events as u64;
        self.decoded += u64::from(shot.metrics.logical_error.is_some());
    }
}
