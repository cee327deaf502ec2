//! The `serve` workload: an in-process `Server` under open-loop load.
//!
//! One sender thread submits on a fixed schedule (request `i` is due at
//! `t0 + i / rate`) and one collector thread waits on each `Pending` in
//! order. Every request is timed from when it was due, so a stalled
//! generator or server charges its wait to every later request, and the
//! generator's own lateness is reported separately.
//!
//! The timed run reports the median latency at a fixed reference rate and
//! the saturation throughput of bursts submitted at once. The traced run
//! adds the p99 at the reference rate and the highest sustained ladder
//! rate. On a shared 2-vCPU host all of these moved two- to several-fold
//! with the neighbours' load, too much for a regression bound, so `serve`
//! is not one of the bounded workloads; the traced run of every workload
//! still measures it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use aimts::{Executor, FineTuned};
use aimts_data::MultiSeries;
use aimts_serve::{BatchPolicy, ModelRegistry, Pending, ServeError, Server, SubmitOptions};

use crate::report::{results_dir, Report};
use crate::setup::{self, finetune_config, repeat_setup};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Reference rate for the latency metrics, about a third of the knee.
const REF_RATE: f64 = 500.0;
/// Requests per reference-rate window (1.5 s at the reference rate).
const WINDOW: usize = 750;
/// Requests per saturation burst (well inside the default queue capacity,
/// so nothing is shed).
const BURST: usize = 2000;
/// Minimum rounds of one window plus one burst, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Ladder of offered rates for the traced max-rate search:
/// `REF_RATE * LADDER_STEP^k` for k in 0..=LADDER_TOP (500 to 3200 req/s).
const LADDER_STEP: f64 = 1.08;
const LADDER_TOP: i32 = 24;
/// Seconds per ladder probe.
const LADDER_PROBE_S: f64 = 1.0;
/// Latency limit on the p99 for a rate to count as sustained.
const SLO_P99_MS: f64 = 50.0;

/// A running server plus everything needed to check its answers.
struct ServeState {
    server: Server,
    requests: Vec<MultiSeries>,
    /// Offline `FineTuned::predict` answer for each request.
    offline: Vec<usize>,
    accuracy: f64,
    final_loss: f64,
    bundle_load_ms: f64,
    tuned: FineTuned,
}

fn bundle_path(seed: u64) -> PathBuf {
    results_dir()
        .join("tmp")
        .join(format!("serve-{}-{seed}.aimts", std::process::id()))
}

/// Set-up: data, base pre-training, the serving fine-tune, bundle save and
/// load, server start, and a warm-up burst at the reference rate.
fn start(seed: u64) -> ServeState {
    let ds = setup::serve_dataset(seed);
    let (base, base_loss) = setup::base_model(seed);
    let tuned = base.fine_tune(&ds, &finetune_config(seed));
    let offline = tuned.predict(&ds.test);
    let accuracy = tuned.evaluate(&ds.test);
    let path = bundle_path(seed);
    std::fs::create_dir_all(path.parent().expect("bundle path has a parent"))
        .expect("create the bundle scratch directory");
    tuned.save_bundle(&path).expect("save the serving bundle");
    let t = Instant::now();
    let registry =
        ModelRegistry::from_bundle(&path, Executor::Eager).expect("load the serving bundle");
    let bundle_load_ms = t.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(&path).ok();
    let server = Server::start(registry, BatchPolicy::default());
    let st = ServeState {
        server,
        requests: ds.test.samples.iter().map(|s| s.vars.clone()).collect(),
        offline,
        accuracy,
        final_loss: base_loss as f64,
        bundle_load_ms,
        tuned,
    };
    let warm = probe(&st, REF_RATE, 100, None);
    assert!(warm.clean(), "warm-up requests failed");
    st
}

/// Outcome of one open-loop phase at one rate.
#[derive(Default)]
struct Probe {
    sent: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    mismatched: u64,
    aborted: bool,
    /// Due-to-answer latency per completed request, in send order.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    batch: Vec<f64>,
    /// First due time to last answer.
    span_s: f64,
}

impl Probe {
    fn failures(&self) -> u64 {
        self.shed + self.errors + self.lost + self.mismatched
    }

    fn clean(&self) -> bool {
        self.failures() == 0 && self.completed == self.sent
    }

    /// Sustained: every request answered correctly, the p99 within the
    /// limit, and no growing backlog (the last quarter's median latency is
    /// within 10 ms of the first quarter's).
    fn sustained(&self) -> bool {
        if self.aborted || !self.clean() || self.latency_ms.len() < 8 {
            return false;
        }
        let q = self.latency_ms.len() / 4;
        let first = median(&self.latency_ms[..q]);
        let last = median(&self.latency_ms[self.latency_ms.len() - q..]);
        percentile(&self.latency_ms, 99.0) <= SLO_P99_MS && last <= first + 10.0
    }

    fn achieved_rate(&self) -> f64 {
        self.completed as f64 / self.span_s.max(1e-9)
    }
}

/// One request handed from the sender to the collector.
struct InFlight {
    i: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    pending: Pending,
}

/// Offer `n` requests at `rate` per second, open loop. The sender stops
/// early when more than a quarter second of requests is outstanding (the
/// rate then cannot meet the limit), which keeps the queue far from full.
/// An infinite `rate` submits all `n` at once (a saturation burst) and
/// never stops early.
fn probe(st: &ServeState, rate: f64, n: usize, tr: Option<&Tracer>) -> Probe {
    let max_backlog = if rate.is_finite() {
        ((rate * 0.25) as u64).clamp(64, 2048)
    } else {
        u64::MAX
    };
    let sent = AtomicU64::new(0);
    let collected = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = Probe::default();
    let (shed, errors, submit_us, late_ms) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let (mut shed, mut errors) = (0u64, 0u64);
            let (mut submit_us, mut late_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for i in 0..n {
                if sent.load(Ordering::Relaxed) - collected.load(Ordering::Relaxed) > max_backlog {
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let series = st.requests[i % st.requests.len()].clone();
                let t_send = Instant::now();
                let res = st.server.submit_with(series, SubmitOptions::default());
                let t_done = Instant::now();
                sent.fetch_add(1, Ordering::Relaxed);
                submit_us.push((t_done - t_send).as_secs_f64() * 1e6);
                late_ms.push((t_send - due).as_secs_f64() * 1e3);
                match res {
                    Ok(pending) => {
                        let msg = InFlight {
                            i,
                            due,
                            sent: t_send,
                            submitted: t_done,
                            pending,
                        };
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(ServeError::Overloaded { .. } | ServeError::CircuitOpen { .. }) => {
                        shed += 1;
                        collected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        errors += 1;
                        collected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            drop(tx);
            (shed, errors, submit_us, late_ms)
        });
        let mut last_done = t0;
        for msg in rx {
            let outcome = msg.pending.wait();
            let done = Instant::now();
            last_done = done;
            collected.fetch_add(1, Ordering::Relaxed);
            match outcome {
                Ok(resp) => {
                    out.completed += 1;
                    out.latency_ms.push((done - msg.due).as_secs_f64() * 1e3);
                    out.queue_ms.push(resp.queue_us as f64 / 1e3);
                    out.batch.push(resp.batch_size as f64);
                    if resp.class != st.offline[msg.i % st.offline.len()] {
                        out.mismatched += 1;
                    }
                }
                Err(ServeError::DeadlineExceeded | ServeError::InferenceFailed(_)) => {
                    out.errors += 1;
                }
                // An accepted request answered `Closed` was dropped.
                Err(_) => out.lost += 1,
            }
            if let Some(tr) = tr {
                let ns = |t: Instant| tr.ns_at(t);
                let req = msg.i as u64;
                let root = tr.record("serve.request", ns(msg.due), ns(done), None, req);
                tr.record("loadgen.late", ns(msg.due), ns(msg.sent), Some(root), req);
                tr.record(
                    "serve.submit",
                    ns(msg.sent),
                    ns(msg.submitted),
                    Some(root),
                    req,
                );
                tr.record("serve.wait", ns(msg.submitted), ns(done), Some(root), req);
            }
        }
        out.span_s = (last_done - t0).as_secs_f64();
        sender.join().expect("load sender thread panicked")
    });
    out.sent = sent.load(Ordering::Relaxed);
    out.shed = shed;
    out.errors += errors;
    out.submit_us = submit_us;
    out.late_ms = late_ms;
    out.aborted = abort.load(Ordering::Relaxed);
    out
}

fn ladder_rate(k: i32) -> f64 {
    REF_RATE * LADDER_STEP.powi(k)
}

/// End-to-end run: rounds of one reference-rate window and one saturation
/// burst. Each metric is the median over rounds, and the rounds spread both
/// phases over the whole run, so a few seconds of heavy load on the shared
/// host decide neither.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (st, setup_s) = repeat_setup(|| start(seed));

    aimts_bench::memprof::reset_peak();
    let started = Instant::now();
    let mut probes = Vec::new();
    let (mut p50s, mut rates) = (Vec::new(), Vec::new());
    while rates.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let window = probe(&st, REF_RATE, WINDOW, None);
        p50s.push(median(&window.latency_ms));
        probes.push(window);
        let burst = probe(&st, f64::INFINITY, BURST, None);
        rates.push(burst.achieved_rate());
        probes.push(burst);
    }
    let peak = setup::peak_heap_mb();
    account(report, &probes);
    report.note(format!(
        "serve: {} rounds; p50_ms is the median over rounds of the p50 of {WINDOW} requests \
         at {REF_RATE}/s ({p50s:.3?}); samples_per_s is the median over rounds of the \
         completion rate of {BURST} requests submitted at once ({rates:.0?}); peak_heap_mb \
         covers all rounds",
        rates.len()
    ));
    report.note(
        "serve: final_loss is the base encoder's final pre-training loss; test_accuracy is \
         the served answers' accuracy on the request pool (the test split)",
    );
    report.metric("samples_per_s", median(&rates), "1/s");
    report.metric("p50_ms", median(&p50s), "ms");
    report.metric("final_loss", st.final_loss, "loss");
    report.metric("test_accuracy", st.accuracy, "fraction");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_heap_mb", peak, "MiB");
}

/// The highest sustained ladder rate, by bisection over the fixed ladder
/// (its lowest rung is the reference rate, taken as sustained). Returns the
/// measured completion rate at that rung and every probe made.
fn max_sustained_rate(st: &ServeState, report: &mut Report) -> (f64, Vec<Probe>) {
    let (mut lo, mut hi) = (0i32, LADDER_TOP + 1);
    let mut best = REF_RATE;
    let mut probes = Vec::new();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = ladder_rate(mid);
        let p = probe(st, rate, (rate * LADDER_PROBE_S).round() as usize, None);
        report.note(format!(
            "serve: ladder rate {rate:.0}/s: {} sent, sustained {}, p99 {:.2} ms, aborted {}",
            p.sent,
            p.sustained(),
            if p.latency_ms.is_empty() {
                f64::NAN
            } else {
                percentile(&p.latency_ms, 99.0)
            },
            p.aborted
        ));
        if p.sustained() {
            lo = mid;
            best = p.achieved_rate();
        } else {
            hi = mid;
        }
        probes.push(p);
    }
    (best, probes)
}

/// Count every request against `attempted`; sheds, errors, lost requests
/// and answers that differ from offline `predict` are failures.
fn account(report: &mut Report, probes: &[Probe]) {
    let sent: u64 = probes.iter().map(|p| p.sent).sum();
    let failures: u64 = probes.iter().map(Probe::failures).sum();
    let lost: u64 = probes.iter().map(|p| p.lost).sum();
    let mismatched: u64 = probes.iter().map(|p| p.mismatched).sum();
    report.attempted += sent;
    report.failed += failures;
    report.check(
        "serve.lost_is_zero",
        lost == 0,
        format!("{lost} lost of {sent}"),
    );
    report.check(
        "serve.served_classes_equal_offline_predict",
        mismatched == 0,
        format!("{mismatched} mismatched of {sent}"),
    );
}

/// Traced pass: the reference-rate phase with a span per request, plus
/// direct `classify` timings at batch 1 and at the policy's max batch.
pub fn traced(seed: u64, tr: &Tracer, report: &mut Report) {
    let st = start(seed);
    let reference = probe(&st, REF_RATE, (REF_RATE * 3.0) as usize, Some(tr));
    let (max_rate, mut probes) = max_sustained_rate(&st, report);
    let bursts: Vec<Probe> = (0..MIN_ROUNDS)
        .map(|_| probe(&st, f64::INFINITY, BURST, None))
        .collect();
    let saturation = median(&bursts.iter().map(Probe::achieved_rate).collect::<Vec<_>>());
    probes.extend(bursts);
    probes.push(reference);
    account(report, &probes);
    let reference = probes.last().expect("reference probe was pushed");
    let model = &st.server.registry().current().model;
    let max_batch = st.server.policy().max_batch;
    let batch: Vec<&MultiSeries> = (0..max_batch)
        .map(|i| &st.requests[i % st.requests.len()])
        .collect();
    let time_ms = |xs: &[&MultiSeries]| {
        let reps: Vec<f64> = (0..30)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(model.classify(xs));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&reps[5..])
    };
    let b1 = time_ms(&batch[..1]);
    let bmax = time_ms(&batch);
    let offline = st.tuned.predict(&aimts_data::Split::new(
        batch
            .iter()
            .map(|s| aimts_data::Sample::new((*s).clone(), 0))
            .collect(),
    ));
    report.check(
        "serve.classify_equals_offline_predict",
        model.classify(&batch) == offline,
        format!("batch of {max_batch}"),
    );
    let agg = tr.aggregate_under("serve.request");
    let per_req = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ms());
    report.metric("serve.loadgen.p50_ms", median(&reference.latency_ms), "ms");
    report.metric(
        "serve.loadgen.p99_ms",
        percentile(&reference.latency_ms, 99.0),
        "ms",
    );
    report.metric("serve.loadgen.max_rate_rps", max_rate, "1/s");
    report.metric("serve.loadgen.saturation_rps", saturation, "1/s");
    report.metric("serve.serve.submit_us", median(&reference.submit_us), "us");
    report.metric("serve.serve.wait_ms", per_req("serve.wait"), "ms");
    report.metric(
        "serve.serve.queue_ms_p50",
        median(&reference.queue_ms),
        "ms",
    );
    report.metric(
        "serve.serve.queue_ms_p99",
        percentile(&reference.queue_ms, 99.0),
        "ms",
    );
    report.metric(
        "serve.serve.batch_size_mean",
        mean(&reference.batch),
        "requests",
    );
    report.metric("serve.infer.classify_ms_b1", b1, "ms");
    report.metric("serve.infer.classify_ms_bmax", bmax, "ms");
    report.metric(
        "serve.loadgen.late_ms_p99",
        percentile(&reference.late_ms, 99.0),
        "ms",
    );
    report.metric("serve.registry.bundle_load_ms", st.bundle_load_ms, "ms");
    report.note(format!(
        "serve: traced phase {} requests at {REF_RATE}/s (loadgen.p99_ms has {} samples \
         beyond it); loadgen.max_rate_rps is the measured completion rate at the highest \
         ladder rate ({REF_RATE}/s x {LADDER_STEP}^k, {LADDER_PROBE_S} s probes) whose p99 is \
         <= {SLO_P99_MS} ms with no growing backlog and no shed or failed request; \
         loadgen.saturation_rps is the median completion rate of {MIN_ROUNDS} bursts of \
         {BURST} requests submitted at once; classify timings are medians of 25 calls at \
         batch 1 and batch {max_batch}",
        reference.sent,
        reference.latency_ms.len() / 100
    ));
}
