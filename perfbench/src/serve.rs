//! `routed-serve`: the serving path. Set-up records a corpus, shards it over
//! two replica daemons and fronts them with the router — all in-process on
//! threads (`Server::bind`/`run`, `Router::bind`/`run`) — then warms every
//! cell into its replica's cache. Two closed-loop client connections each
//! send a fixed, seeded script: open-loop `eval`s with decoding off, spread
//! across all policies, plus a fixed share of `batch-eval`s that the router
//! splits across both replicas. One job is one pass of both scripts.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_cluster::{shard_corpus, Router, RouterConfig, ShardOptions};
use qec_experiments::replay::{calibration_for, load_entry};
use qec_experiments::{evaluate_cell, evaluation_row, CodeFamily, ReplayCellResult, ReplayMode};
use qec_serve::client::{Client, ClientConfig};
use qec_serve::{
    parse_request, parse_response, request_line, response_line, EvalSpec, Request, RequestKind,
    ResponseKind, ServeConfig, Server, ServerStats,
};
use qec_trace::cluster::{ClusterMap, CLUSTER_FILE};
use qec_trace::format::fnv1a_str;
use qec_trace::Corpus;

use crate::common::{
    derive, end_to_end, median, mix, run_jobs, timed, Outcome, Traced, Workdir, SETUP_REPEATS,
};
use crate::replay::{record_corpus, RECORD_POLICY};
use crate::spans::Tracer;

/// `(family, distance, p)` of every corpus cell.
const CELLS: [(CodeFamily, usize, f64); 8] = [
    (CodeFamily::Surface, 3, 1e-3),
    (CodeFamily::Surface, 3, 2e-3),
    (CodeFamily::Surface, 3, 3e-3),
    (CodeFamily::Surface, 3, 4e-3),
    (CodeFamily::Surface, 5, 1e-3),
    (CodeFamily::Surface, 5, 2e-3),
    (CodeFamily::Color, 3, 1e-3),
    (CodeFamily::Color, 3, 2e-3),
];
const SHOTS: usize = 256;
const REPLICAS: usize = 2;
const CLIENTS: usize = 2;
/// Requests per client script.
const SCRIPT_LEN: usize = 500;
/// Every `BATCH_EVERY`-th request is a `batch-eval` of `BATCH_ITEMS` pairings,
/// half a period apart on the two clients so their batches do not line up.
const BATCH_EVERY: usize = 8;
const BATCH_ITEMS: usize = 2;
const MIN_PASSES: usize = 3;
/// Distinct `eval`s the traced run times in-process, direct and routed.
const PROBES: usize = 22;

struct Daemon {
    addr: String,
    handle: JoinHandle<()>,
}

fn shutdown(addr: &str, handle: JoinHandle<()>) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    match client.request(RequestKind::Shutdown)? {
        ResponseKind::ShuttingDown => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    handle.join().map_err(|_| "daemon thread panicked".to_string())
}

/// One client's answers to its script in one pass.
#[derive(Default)]
struct Answers {
    /// FNV-1a digest of every response, in script order.
    digests: Vec<u64>,
    /// The responses themselves, when the pass keeps them.
    texts: Vec<String>,
    /// Script indices of the responses that carry a typed error, with them.
    errors: Vec<(usize, String)>,
    /// The transport error that cut the script short, if any.
    transport: Option<String>,
}

/// One request of a script, pre-serialized.
struct Line {
    /// The request's envelope `id`; the traced run's spans for it share it.
    id: u64,
    text: String,
    /// The `(key, policy)` pairings it evaluates, in answer order.
    pairings: Vec<(String, String)>,
    batch: bool,
}

/// The running cluster plus everything the checks need.
struct Cluster {
    corpus_dir: std::path::PathBuf,
    keys: Vec<String>,
    /// Owning replica of each key.
    owners: Vec<usize>,
    replicas: Vec<Daemon>,
    router: Daemon,
    clients: Vec<Client>,
    scripts: Vec<Vec<Line>>,
    /// Evaluations answered so far (the `evals` stat must match).
    evals_sent: u64,
}

impl Cluster {
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        shutdown(&self.router.addr, self.router.handle)?;
        for replica in self.replicas {
            shutdown(&replica.addr, replica.handle)?;
        }
        Ok(())
    }
}

fn eval_spec(key: &str, policy: &str) -> EvalSpec {
    EvalSpec {
        key: key.to_string(),
        policy: policy.to_string(),
        mode: Some(ReplayMode::OpenLoop.label().to_string()),
        decode: Some(false),
        decoder: None,
    }
}

/// The seeded scripts: solo evals cycle through a seeded permutation of
/// every `(cell, policy)` pairing; each batch takes one cell of each
/// replica, so the router splits it.
fn scripts(seed: u64, keys: &[String], owners: &[usize]) -> Vec<Vec<Line>> {
    let policies: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.label()).collect();
    let mut pairings: Vec<(usize, usize)> =
        (0..keys.len()).flat_map(|k| (0..policies.len()).map(move |p| (k, p))).collect();
    (0..CLIENTS)
        .map(|client| {
            let mut state = derive(seed, 0xC11E_0000 + client as u64);
            let mut next = |bound: usize| {
                state = mix(state);
                (state % bound as u64) as usize
            };
            for i in (1..pairings.len()).rev() {
                pairings.swap(i, next(i + 1));
            }
            let mut solo = pairings.iter().cycle();
            (0..SCRIPT_LEN)
                .map(|i| {
                    let id = (client * SCRIPT_LEN + i) as u64;
                    if (i + 1 + client * BATCH_EVERY / 2) % BATCH_EVERY == 0 {
                        let mut chosen = Vec::new();
                        for replica in 0..REPLICAS {
                            let owned: Vec<usize> =
                                (0..keys.len()).filter(|&k| owners[k] == replica).collect();
                            for _ in 0..BATCH_ITEMS / REPLICAS {
                                let key = &keys[owned[next(owned.len())]];
                                chosen.push((
                                    key.clone(),
                                    policies[next(policies.len())].to_string(),
                                ));
                            }
                        }
                        let evals = chosen.iter().map(|(k, p)| eval_spec(k, p)).collect();
                        let request = Request {
                            id: Some(id),
                            request: RequestKind::BatchEval { evals, per_item: Some(true) },
                        };
                        Line { id, text: request_line(&request), pairings: chosen, batch: true }
                    } else {
                        let &(k, p) = solo.next().expect("cycle never ends");
                        let pairing = (keys[k].clone(), policies[p].to_string());
                        let request = Request {
                            id: Some(id),
                            request: RequestKind::Eval(eval_spec(&pairing.0, &pairing.1)),
                        };
                        let text = request_line(&request);
                        Line { id, text, pairings: vec![pairing], batch: false }
                    }
                })
                .collect()
        })
        .collect()
}

fn record(seed: u64, dir: &Path, attempt: u64) -> Result<Vec<String>, String> {
    let corpus =
        record_corpus(dir, &CELLS, SHOTS, |i| derive(seed, 0x5E5E_0000 + attempt * 64 + i as u64))?;
    Ok(corpus.entries().iter().map(|entry| entry.key.clone()).collect())
}

/// Records the corpus (re-drawing cell seeds until both replicas own at
/// least two cells), shards it, starts both replicas and the router on
/// threads, connects the clients and warms every cell into its cache.
fn start(seed: u64, dir: &Path) -> Result<Cluster, String> {
    let corpus_dir = dir.join("corpus");
    let mut attempt = 0;
    let keys = loop {
        let _ = std::fs::remove_dir_all(&corpus_dir);
        let keys = record(seed, &corpus_dir, attempt)?;
        let owned = |r: usize| {
            keys.iter().filter(|k| ClusterMap::assign(Corpus::cell_hash(k), REPLICAS) == r).count()
        };
        if (0..REPLICAS).all(|r| owned(r) >= 2) {
            break keys;
        }
        attempt += 1;
    };
    let owners: Vec<usize> =
        keys.iter().map(|k| ClusterMap::assign(Corpus::cell_hash(k), REPLICAS)).collect();
    let sharded = dir.join("sharded");
    let map = shard_corpus(&corpus_dir, &sharded, REPLICAS, &ShardOptions::default())?;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_cells: CELLS.len(),
        pool_threads: 1,
        max_connections: 4,
        queue_limit: 256,
    };
    let mut replicas = Vec::new();
    for replica in &map.replicas {
        let server = Server::bind(&sharded.join(&replica.dir), &config)?;
        let addr = server.local_addr().to_string();
        replicas.push(Daemon { addr, handle: std::thread::spawn(move || server.run()) });
    }
    let overrides: Vec<(usize, String)> =
        replicas.iter().enumerate().map(|(i, d)| (i, d.addr.clone())).collect();
    let router_config = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: 4,
        replica_timeout: Some(Duration::from_secs(30)),
        replica_retries: 1,
    };
    let router = Router::bind(&sharded.join(CLUSTER_FILE), &overrides, &router_config)?;
    let router = Daemon {
        addr: router.local_addr().to_string(),
        handle: std::thread::spawn(move || router.run()),
    };
    let client_config = ClientConfig::with_timeout(Duration::from_secs(30));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect_with(&router.addr, client_config)?);
    }
    let scripts = scripts(seed, &keys, &owners);
    let mut cluster =
        Cluster { corpus_dir, keys, owners, replicas, router, clients, scripts, evals_sent: 0 };
    for key in cluster.keys.clone() {
        let request = RequestKind::Eval(eval_spec(&key, RECORD_POLICY.label()));
        match cluster.clients[0].request(request)? {
            ResponseKind::Eval(_) => cluster.evals_sent += 1,
            other => return Err(format!("warm-up eval of {key} answered {other:?}")),
        }
    }
    Ok(cluster)
}

/// One pass: both clients send their whole scripts concurrently, each closed
/// loop. Returns the pass wall time, every request's latency in ms, and each
/// client's answers; `keep` keeps the response texts, not just digests.
fn pass(
    cluster: &mut Cluster,
    keep: bool,
    tracers: Option<&mut Vec<Tracer>>,
) -> (f64, Vec<f64>, Vec<Answers>) {
    let start = Instant::now();
    let scripts = &cluster.scripts;
    let mut tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(tracers) => tracers.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    let results: Vec<(Vec<f64>, Answers)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cluster
            .clients
            .iter_mut()
            .zip(scripts)
            .zip(tracer_slots.iter_mut())
            .map(|((client, script), tracer)| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(script.len());
                    let mut answers = Answers::default();
                    for (i, line) in script.iter().enumerate() {
                        let open = tracer
                            .as_deref_mut()
                            .map(|t| t.enter_id("serve.request", Some(line.id)));
                        let sent = Instant::now();
                        let response = client.send_raw(&line.text);
                        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
                            t.exit(open);
                        }
                        let response = match response {
                            Ok(response) => response,
                            Err(e) => {
                                answers.transport = Some(e);
                                break;
                            }
                        };
                        answers.digests.push(fnv1a_str(&response));
                        // Error answers, solo or per batch item, are tagged
                        // `{"error": ...}` by the frozen protocol.
                        if response.contains("\"error\"") {
                            answers.errors.push((i, response.clone()));
                        }
                        if keep {
                            answers.texts.push(response);
                        }
                    }
                    (latencies, answers)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    for (lat, client_answers) in results {
        latencies.extend(lat);
        answers.push(client_answers);
    }
    (wall, latencies, answers)
}

/// Counts a pass's requests as operations: transport errors and typed error
/// answers fail them. Returns the evaluations it answered.
fn account(cluster: &Cluster, answers: &[Answers], outcome: &mut Outcome) -> u64 {
    let mut evals = 0;
    for (script, client) in cluster.scripts.iter().zip(answers) {
        for (i, line) in script.iter().enumerate().take(client.digests.len()) {
            match client.errors.iter().find(|(index, _)| *index == i) {
                Some((_, error)) => {
                    outcome.op::<()>("request", Err(error.clone()));
                }
                None => {
                    outcome.op("request", Ok(()));
                    evals += line.pairings.len() as u64;
                }
            }
        }
        if let Some(error) = &client.transport {
            outcome.op::<()>("client", Err(error.clone()));
        }
    }
    evals
}

/// Whether two passes answered every request with the same bytes.
fn same_answers(a: &[Answers], b: &[Answers]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.digests == b.digests && a.transport == b.transport)
}

/// The in-process answer for every `(key, policy)` pairing: the same entry
/// points the daemon calls, on the unsharded corpus.
fn expected_rows(
    cluster: &Cluster,
    outcome: &mut Outcome,
) -> Vec<(String, String, ReplayCellResult)> {
    let mut rows = Vec::new();
    let Some(corpus) = outcome
        .op("Corpus::open", Corpus::open_existing(&cluster.corpus_dir).map_err(|e| e.to_string()))
    else {
        return rows;
    };
    for entry in corpus.entries() {
        let Some(cell) = outcome.op("load_entry", load_entry(&corpus, entry)) else { continue };
        let factory =
            std::sync::Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        for policy in PolicyKind::ALL {
            let replay = evaluate_cell(&cell, &factory, policy, None, ReplayMode::OpenLoop);
            if let Some(replay) = outcome.op("evaluate_cell", replay) {
                let row = evaluation_row(&entry.key, &cell, policy, None, &replay);
                rows.push((entry.key.clone(), policy.label().to_string(), row));
            }
        }
    }
    rows
}

/// Every routed answer of a pass must equal the in-process row: solo evals
/// directly, batch items in order.
fn check_answers(
    cluster: &Cluster,
    responses: &[Answers],
    expected: &[(String, String, ReplayCellResult)],
    outcome: &mut Outcome,
) {
    let row_for = |key: &str, policy: &str| {
        expected.iter().find(|(k, p, _)| k == key && p == policy).map(|(_, _, row)| row)
    };
    for (script, client) in cluster.scripts.iter().zip(responses) {
        for (line, answer) in script.iter().zip(&client.texts) {
            let results = match parse_response(answer).map(|r| r.response) {
                Ok(ResponseKind::Eval(result)) if !line.batch => vec![Ok(result)],
                Ok(ResponseKind::BatchItems(items)) if line.batch => items
                    .into_iter()
                    .map(|item| item.into_result().map_err(|e| e.to_string()))
                    .collect(),
                other => {
                    outcome
                        .check(false, || format!("unexpected answer {other:?} to {}", line.text));
                    continue;
                }
            };
            outcome.check(results.len() == line.pairings.len(), || {
                format!("{} answers to {} pairings", results.len(), line.pairings.len())
            });
            for ((key, policy), result) in line.pairings.iter().zip(results) {
                let Ok(result) = result else { continue };
                outcome
                    .check(result.cached, || format!("{key} {policy}: answered from a cold cache"));
                outcome.check(row_for(key, policy) == Some(&result.result), || {
                    format!("{key} {policy}: routed row differs from the in-process evaluation_row")
                });
            }
        }
    }
}

fn stats(client: &mut Client) -> Result<ServerStats, String> {
    match client.request(RequestKind::Stats)? {
        ResponseKind::Stats(stats) => Ok(stats),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// The final `stats` must account for exactly the work sent.
fn check_stats(cluster: &mut Cluster, outcome: &mut Outcome) -> Option<ServerStats> {
    let stats = outcome.op("stats", stats(&mut cluster.clients[0]))?;
    let cells = CELLS.len() as u64;
    outcome.check(stats.evals == cluster.evals_sent, || {
        format!("stats.evals {} != evals sent {}", stats.evals, cluster.evals_sent)
    });
    outcome.check(stats.replica_errors == 0, || format!("{} replica errors", stats.replica_errors));
    outcome.check(stats.cache_misses == cells, || {
        format!("stats.cache_misses {} != {cells} cells", stats.cache_misses)
    });
    outcome.check(stats.cache_hits + stats.cache_misses == cluster.evals_sent, || {
        format!(
            "cache hits {} + misses {} != evals {}",
            stats.cache_hits, stats.cache_misses, cluster.evals_sent
        )
    });
    Some(stats)
}

fn script_counts(cluster: &Cluster, outcome: &mut Outcome) {
    let lines = cluster.scripts.iter().flatten();
    let (mut solo, mut batches, mut items) = (0u64, 0u64, 0u64);
    for line in lines {
        if line.batch {
            batches += 1;
            items += line.pairings.len() as u64;
        } else {
            solo += 1;
        }
    }
    outcome.count("serve.pass_evals", solo);
    outcome.count("serve.pass_batches", batches);
    outcome.count("serve.pass_batch_items", items);
    outcome.count("serve.pass_cache_hits", solo + items);
    outcome.count("serve.cells", cluster.keys.len() as u64);
    let bytes: u64 = cluster.scripts.iter().flatten().map(|l| l.text.len() as u64).sum();
    outcome.count("serve.pass_request_bytes", bytes);
}

pub fn run(seed: u64, seconds: f64, work: &Workdir) -> Outcome {
    let mut outcome = Outcome::default();
    // Earlier set-ups stay up, idle, until the end: stopping a cluster's
    // threads while the next one starts makes the allocator's arena reuse,
    // and so peak RSS, differ from run to run.
    let mut setups = Vec::new();
    let mut clusters = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let (started, seconds) = timed(|| start(seed, &work.path(&format!("cluster-{rep}"))));
        setups.push(seconds);
        clusters.extend(outcome.op("start cluster", started));
    }
    let Some(mut cluster) = clusters.pop() else { return outcome };
    let expected = expected_rows(&cluster, &mut outcome);
    let mut latencies = Vec::new();
    let mut first: Option<Vec<Answers>> = None;
    let walls = run_jobs(seconds, MIN_PASSES, |k| {
        let (wall, lat, answers) = pass(&mut cluster, k == 0, None);
        latencies.push(lat);
        cluster.evals_sent += account(&cluster, &answers, &mut outcome);
        match &first {
            None => {
                check_answers(&cluster, &answers, &expected, &mut outcome);
                first = Some(answers);
            }
            Some(first) => outcome.check(same_answers(first, &answers), || {
                "a repeated pass answered different bytes".to_string()
            }),
        }
        wall
    });
    if let Some(stats) = check_stats(&mut cluster, &mut outcome) {
        outcome.count("serve.fanout_hwm", stats.fanout_hwm);
        outcome.count("serve.cache_misses", stats.cache_misses);
    }
    script_counts(&cluster, &mut outcome);
    end_to_end(&mut outcome, &setups, &walls, &latencies);
    for cluster in clusters.into_iter().chain([cluster]) {
        outcome.op("shutdown", cluster.stop());
    }
    outcome
}

/// The traced run: one untraced pass, one traced pass (a span per request,
/// keyed by its envelope id), then probes sharing each probed request's id:
/// the in-process evaluation, the round trip to the owning replica and the
/// routed round trip; plus cold loads, and protocol parse/serialize of the
/// script's own lines.
pub fn traced(seed: u64, work: &Workdir) -> Traced {
    let mut outcome = Outcome::default();
    let started = start(seed, &work.path("cluster-traced"));
    let Some(mut cluster) = outcome.op("start cluster", started) else {
        return Traced { outcome, untraced_wall_s: 0.0, traced_wall_s: 0.0 };
    };
    let expected = expected_rows(&cluster, &mut outcome);
    let (untraced_wall_s, _, responses) = pass(&mut cluster, true, None);
    cluster.evals_sent += account(&cluster, &responses, &mut outcome);
    check_answers(&cluster, &responses, &expected, &mut outcome);
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::with_origin(origin)).collect();
    let (traced_wall_s, _, traced_responses) = pass(&mut cluster, false, Some(&mut tracers));
    cluster.evals_sent += account(&cluster, &traced_responses, &mut outcome);
    outcome.check(same_answers(&traced_responses, &responses), || {
        "the traced pass answered different bytes".to_string()
    });
    let mut tracer = Tracer::with_origin(origin);
    for t in tracers {
        tracer.merge(t);
    }

    // Probes: in-process compute, direct replica and routed round trips for
    // the same request, sharing its id.
    let mut direct: Vec<Client> = Vec::new();
    for replica in &cluster.replicas {
        if let Some(client) = outcome.op("connect replica", Client::connect(&replica.addr)) {
            direct.push(client);
        }
    }
    let Some(corpus) = outcome
        .op("Corpus::open", Corpus::open_existing(&cluster.corpus_dir).map_err(|e| e.to_string()))
    else {
        return Traced { outcome, untraced_wall_s, traced_wall_s };
    };
    let mut loaded = Vec::new();
    for entry in corpus.entries() {
        let cell = tracer.span("serve.load", || load_entry(&corpus, entry));
        if let Some(cell) = outcome.op("load_entry", cell) {
            let factory =
                std::sync::Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
            loaded.push((entry.key.clone(), cell, factory));
        }
    }
    let probes: Vec<&Line> = cluster.scripts[0].iter().filter(|l| !l.batch).take(PROBES).collect();
    for (i, line) in probes.iter().enumerate() {
        let id = Some(line.id);
        let (key, policy) = &line.pairings[0];
        let Some((_, cell, factory)) = loaded.iter().find(|(k, _, _)| k == key) else { continue };
        let kind = PolicyKind::from_label(policy).expect("script policies parse");
        let open = tracer.enter_id("serve.compute", id);
        let row = evaluate_cell(cell, factory, kind, None, ReplayMode::OpenLoop)
            .map(|replay| evaluation_row(key, cell, kind, None, &replay));
        tracer.exit(open);
        outcome.op("evaluate_cell", row);
        let owner =
            cluster.owners[cluster.keys.iter().position(|k| k == key).expect("script keys exist")];
        // Alternate which round trip goes first, so neither always follows
        // the other's warm-up of the replica.
        for routed in [i % 2 == 0, i % 2 == 1] {
            let (name, client) = if routed {
                ("serve.routed", Some(&mut cluster.clients[0]))
            } else {
                ("serve.direct", direct.get_mut(owner))
            };
            let Some(client) = client else { continue };
            let open = tracer.enter_id(name, id);
            let answer = client.send_raw(&line.text);
            tracer.exit(open);
            if outcome.op(name, answer).is_some() {
                cluster.evals_sent += 1;
            }
        }
    }
    drop(direct);
    // Protocol parse and serialize of the workload's own lines.
    for line in cluster.scripts.iter().flatten() {
        let parsed = tracer.span("serve.parse", || parse_request(&line.text));
        outcome.op("parse_request", parsed.map_err(|e| e.to_string()));
    }
    for answer in responses.iter().flat_map(|client| &client.texts) {
        if let Some(response) =
            outcome.op("parse_response", parse_response(answer).map_err(|e| e.to_string()))
        {
            let encoded = tracer.span("serve.encode", || response_line(&response));
            outcome.check(&encoded == answer, || {
                "a response does not re-serialize to its bytes".to_string()
            });
        }
    }
    let stats = check_stats(&mut cluster, &mut outcome);
    script_counts(&cluster, &mut outcome);
    outcome.op("shutdown", cluster.stop());

    let ms = |name: &str| median(&tracer.durations_ms(name));
    let span_stats = tracer.stats();
    let stat = |name: &str| span_stats.get(name).copied().unwrap_or_default();
    outcome.metric("serve.compute_ms", ms("serve.compute"), "ms");
    outcome.metric("serve.direct_ms", ms("serve.direct"), "ms");
    outcome.metric("serve.overhead_ms", ms("serve.direct") - ms("serve.compute"), "ms");
    outcome.metric("serve.load_ms", stat("serve.load").mean_ms(), "ms");
    outcome.metric("serve.parse_us", stat("serve.parse").mean_us(), "us");
    outcome.metric("serve.encode_us", stat("serve.encode").mean_us(), "us");
    outcome.metric("serve.request_ms", ms("serve.request"), "ms");
    outcome.metric("cluster.route_overhead_ms", ms("serve.routed") - ms("serve.direct"), "ms");
    if let Some(stats) = stats {
        let lookups = (stats.cache_hits + stats.cache_misses).max(1);
        outcome.metric("serve.cache_hit_ratio", stats.cache_hits as f64 / lookups as f64, "ratio");
        outcome.metric("serve.queue_depth_hwm", stats.queue_depth_hwm as f64, "count");
        outcome.metric("cluster.fanout_hwm", stats.fanout_hwm as f64, "count");
        outcome.metric("cluster.routed_requests", stats.routed_requests as f64, "count");
    }
    tracer.write_out("routed-serve");
    Traced { outcome, untraced_wall_s, traced_wall_s }
}
