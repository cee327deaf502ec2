//! Synthetic load generator: many client threads, 10⁴–10⁶ queued
//! requests, per-outcome accounting, a JSON report written wherever the
//! caller asks.
//!
//! The generator distinguishes every overload outcome so saturation runs
//! are measurable: `completed` (answered with a class), `shed`
//! (admission rejected: overloaded or breaker open), `deadline_exceeded`,
//! `inference_failures`, `errors` (everything else typed), and `lost` —
//! requests that were *accepted* but never answered. `lost` must be zero
//! under any schedule, including saturation and shutdown races; the CLI
//! and the chaos suite both fail a run with `lost > 0`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aimts_data::MultiSeries;
use serde::Serialize;

use crate::batcher::Pending;
use crate::deadline::{Deadline, SubmitOptions};
use crate::server::Server;
use crate::ServeError;

/// Load-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Per-request relative deadline, if any.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 10_000,
            clients: 4,
            deadline_ms: None,
        }
    }
}

/// The recorded outcome of one load run (flat so the vendored serde shim
/// serializes it directly).
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    pub requests: u64,
    pub clients: u64,
    pub completed: u64,
    /// Admission-shed submissions (overloaded / circuit open).
    pub shed: u64,
    /// Requests answered `DeadlineExceeded` (admitted or at admission).
    pub deadline_exceeded: u64,
    /// Requests answered `InferenceFailed` (poison isolation).
    pub inference_failures: u64,
    /// Other typed rejections (bad request, model not found, closed at
    /// submit time).
    pub errors: u64,
    /// Accepted requests that never got an answer — the drain contract
    /// makes this zero always.
    pub lost: u64,
    pub breaker_trips: u64,
    pub max_batch: u64,
    pub max_delay_us: u64,
    pub queue_cap: u64,
    pub wall_s: f64,
    pub throughput_rps: f64,
    pub batches: u64,
    pub mean_batch: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_latency_us: u64,
    pub mean_latency_us: f64,
    pub queue_p50_us: u64,
    pub queue_p99_us: u64,
    pub generations_observed: u64,
}

/// Drive `cfg.requests` classification requests through `server` from
/// `cfg.clients` threads, drawing inputs round-robin from `pool`.
///
/// Every accepted request's response is awaited; the function returns
/// only after the last outcome (or server shutdown). Panics if `pool` is
/// empty.
pub fn run_loadgen(server: &Server, pool: &[MultiSeries], cfg: &LoadgenConfig) -> LoadReport {
    assert!(!pool.is_empty(), "loadgen needs a non-empty request pool");
    assert!(cfg.requests >= 1 && cfg.clients >= 1);
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let inference_failures = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let generations = AtomicU64::new(0);
    // aimts-lint: allow(A003, the load generator measures real latency distributions; determinism is not a goal here)
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let completed = &completed;
            let shed = &shed;
            let deadline_exceeded = &deadline_exceeded;
            let inference_failures = &inference_failures;
            let errors = &errors;
            let lost = &lost;
            let generations = &generations;
            scope.spawn(move || {
                // Client c sends requests c, c + clients, c + 2*clients, ...
                let mut pending: Vec<Pending> = Vec::new();
                let mut i = client;
                while i < cfg.requests {
                    let opts = SubmitOptions {
                        deadline: cfg.deadline_ms.map(Deadline::in_ms),
                        ..SubmitOptions::default()
                    };
                    match server.submit_with(pool[i % pool.len()].clone(), opts) {
                        Ok(p) => pending.push(p),
                        Err(ServeError::Overloaded { .. } | ServeError::CircuitOpen { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::DeadlineExceeded) => {
                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += cfg.clients;
                }
                let mut seen_gen = 0u64;
                for p in pending {
                    match p.wait() {
                        Ok(resp) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            seen_gen = seen_gen.max(resp.generation);
                        }
                        Err(ServeError::DeadlineExceeded) => {
                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::InferenceFailed(_)) => {
                            inference_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        // An accepted request answered `Closed` (or any
                        // other post-admission error) was dropped: the
                        // drain contract failed.
                        Err(_) => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                generations.fetch_max(seen_gen, Ordering::Relaxed);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let snap = server.metrics();
    let policy = server.policy();
    LoadReport {
        requests: cfg.requests as u64,
        clients: cfg.clients as u64,
        completed: completed.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        deadline_exceeded: deadline_exceeded.load(Ordering::Relaxed),
        inference_failures: inference_failures.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        lost: lost.load(Ordering::Relaxed),
        breaker_trips: snap.breaker_trips,
        max_batch: policy.max_batch as u64,
        max_delay_us: policy.max_delay.as_micros() as u64,
        queue_cap: policy.queue_cap as u64,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            completed.load(Ordering::Relaxed) as f64 / wall_s
        } else {
            0.0
        },
        batches: snap.batches,
        mean_batch: snap.mean_batch,
        p50_us: snap.latency.p50_us,
        p95_us: snap.latency.p95_us,
        p99_us: snap.latency.p99_us,
        max_latency_us: snap.latency.max_us,
        mean_latency_us: snap.latency.mean_us,
        queue_p50_us: snap.queue_wait.p50_us,
        queue_p99_us: snap.queue_wait.p99_us,
        generations_observed: generations.load(Ordering::Relaxed),
    }
}

/// Write `report` to `path` as pretty JSON, creating missing parent
/// directories.
pub fn write_report(report: &LoadReport, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(report).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}
