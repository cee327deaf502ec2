//! Command implementations for `aimts-cli`.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use aimts::{
    AimTs, AimTsConfig, CheckpointPolicy, Executor, FineTuneConfig, FineTuned, HealthPolicy,
    PretrainConfig,
};
use aimts_data::archives::{monash_like_pool, ucr_like_archive, uea_like_archive};
use aimts_data::loader::load_ucr_tsv_with;
use aimts_data::special;
use aimts_data::{Dataset, MissingValuePolicy};
use aimts_eval::ConfusionMatrix;
use aimts_imaging::{render_sample, ImageConfig};
use aimts_serve::{
    run_loadgen, write_report, BatchPolicy, LoadgenConfig, ModelRegistry, NetPolicy, Server,
};

use crate::args::Args;

pub const USAGE: &str = "aimts-cli — AimTS (ICDE 2025) reproduction CLI

USAGE:
  aimts-cli generate --archive <ucr|uea> [--n 4] [--seed 42] --out <dir>
      Generate a synthetic archive and write univariate datasets as UCR TSVs.
  aimts-cli pretrain [--pool-per-source 8] [--epochs 2] [--lr 0.001]
                     [--hidden 16] [--repr 32] [--seed 3407] [--workers 0]
                     [--checkpoint-dir <dir>] [--checkpoint-every 1]
                     [--keep-last 3] [--resume <ckpt.aimts|dir>]
                     [--clip-norm <f32>] [--max-bad-steps 5]
                     [--max-rollbacks 2] [--executor eager|compiled]
                     --out <ckpt.json>
      Multi-source pre-train AimTS on a Monash-like pool, save a checkpoint.
      --workers 0 (default) resolves the data-parallel thread count from the
      AIMTS_THREADS environment variable, then available cores; 1 is serial.
      --checkpoint-dir enables fault-tolerant training checkpoints
      (ckpt-NNNNNN.aimts: params + Adam moments + scheduler + RNG stream,
      CRC32-checked, written atomically) every --checkpoint-every epochs,
      keeping the newest --keep-last. --resume restores such a checkpoint
      (or the newest one in a directory) and continues the interrupted run
      bit-exactly; it must use the same --seed and worker topology.
      Self-healing knobs: --clip-norm enables global-norm gradient clipping
      (off by default); a non-finite loss or gradient always skips the step;
      --max-bad-steps consecutive skips roll back to the last good epoch
      boundary, and training aborts only after --max-rollbacks rollbacks.
      --executor compiled traces each step shape once and replays it as a
      flat compiled plan (bit-identical to eager, lower per-step overhead).
  aimts-cli finetune --ckpt <ckpt.json> --data-dir <dir> --name <Dataset>
                     [--epochs 40] [--hidden 16] [--repr 32]
                     [--missing-values reject|impute-linear|impute-zero]
                     [--clip-norm <f32>] [--executor eager|compiled]
      Fine-tune a checkpoint on a UCR-TSV dataset; prints accuracy + confusion.
      --missing-values controls NaN/inf cells in the TSV: reject (default)
      fails the load naming the exact cell; the impute policies repair gaps
      by linear interpolation or zero-filling before training.
  aimts-cli demo --dataset <ecg200|starlight|epilepsy|fdb|gesture|emg>
                 [--epochs 40] [--seed 3407] [--executor eager|compiled]
      Fine-tune from random init on a built-in synthetic dataset.
  aimts-cli render --dataset <name as in demo> [--index 0] --out <img.ppm>
      Render a sample as the RGB line chart the image encoder sees.
  aimts-cli info --archive <ucr|uea> [--n 4] [--seed 42]
      Print summary statistics of a synthetic archive.
  aimts-cli export-json --dataset <name as in demo> [--seed 3407] --out <ds.json>
      Export a built-in dataset (incl. multivariate) as a JSON file that
      `aimts_data::loader::load_json` reads back.
  aimts-cli serve [--model <bundle.aimts>] [--addr 127.0.0.1:7878]
                  [--dataset ecg200] [--epochs 5] [--max-batch 64]
                  [--max-delay-us 2000] [--queue-cap 4096]
                  [--admission-timeout-ms 1000] [--default-deadline-ms <ms>]
                  [--max-inflight 2] [--inference-threads 1]
                  [--breaker-threshold 3] [--breaker-cooldown-ms 500]
                  [--read-timeout-ms 30000] [--write-timeout-ms 10000]
                  [--max-frame-bytes 1048576] [--executor eager|compiled]
      Start the micro-batching inference server on a JSON-lines TCP socket.
      --model loads a serving bundle (write one with `demo --save-bundle` or
      `finetune --save-bundle`); without it a demo model is trained in
      process on --dataset first. Overload protection: a full queue sheds
      with a typed `overloaded` reply (after --admission-timeout-ms of
      back-pressure; low-priority requests shed early and never block),
      requests past their deadline answer `deadline_exceeded`, and
      --breaker-threshold consecutive inference panics trip a circuit
      breaker that rejects with `circuit_open` until --breaker-cooldown-ms
      elapses. The frontend drops clients that idle past the read/write
      timeouts or send a line over --max-frame-bytes (typed
      `frame_too_large` reply first). One JSON object per line:
        {\"series\": [[...], ...], \"deadline_ms\": 50,
         \"priority\": \"high|normal|low\", \"model\": \"name\"}   classify
        {\"cmd\":\"metrics\"}                   latency/overload snapshot
        {\"cmd\":\"models\"}                    list registry slots
        {\"cmd\":\"swap\",\"path\":\"new.aimts\"[,\"model\":\"name\"]}  hot-swap
        {\"cmd\":\"shutdown\"}                  drain, answer, then stop
  aimts-cli loadgen [--model <bundle.aimts>] [--dataset ecg200]
                    [--requests 10000] [--clients 4] [--epochs 5]
                    [--deadline-ms <ms>] [--min-sheds 0]
                    [--max-batch 64] [--max-delay-us 2000]
                    [--queue-cap 4096] [--admission-timeout-ms 1000]
                    [--max-inflight 2] [--inference-threads 1]
                    [--executor eager|compiled]
                    [--report bench_results/serve_load.json]
      Drive the in-process server with synthetic load and write latency
      percentiles + throughput + overload outcomes (shed / deadline /
      failed / lost) to the --report JSON file. Fails if any
      accepted request was lost, or fewer than --min-sheds submissions
      were shed (saturation smoke tests assert sheds happen).
      `demo` and `finetune` accept --save-bundle <path> to produce the
      serving bundle both commands load with --model.
  aimts-cli help
";

/// Parse `--executor eager|compiled` (default eager).
fn executor(args: &Args) -> Result<Executor, String> {
    match args.str_or("executor", "eager") {
        "eager" => Ok(Executor::Eager),
        "compiled" => Ok(Executor::Compiled),
        other => Err(format!("unknown executor `{other}` (use eager|compiled)")),
    }
}

fn model_config(args: &Args) -> Result<AimTsConfig, String> {
    let hidden = args.parse_or("hidden", 16usize)?;
    let repr = args.parse_or("repr", 32usize)?;
    Ok(AimTsConfig {
        hidden,
        repr_dim: repr,
        proj_dim: (repr / 2).max(4),
        ..AimTsConfig::default()
    })
}

fn named_dataset(name: &str, seed: u64) -> Result<Dataset, String> {
    Ok(match name {
        "ecg200" => special::ecg200_like(seed),
        "starlight" => special::starlight_like(seed),
        "epilepsy" => special::epilepsy_like(seed),
        "fdb" => special::fdb_like(seed),
        "gesture" => special::gesture_like(seed),
        "emg" => special::emg_like(seed),
        other => return Err(format!("unknown dataset `{other}`")),
    })
}

/// `generate`: write a synthetic archive to disk in UCR TSV format.
pub fn generate(args: &Args) -> Result<(), String> {
    let archive = args.str_or("archive", "ucr");
    let n = args.parse_or("n", 4usize)?;
    let seed = args.parse_or("seed", 42u64)?;
    let out = PathBuf::from(args.required("out")?);
    fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let datasets = match archive {
        "ucr" => ucr_like_archive(n, seed),
        "uea" => uea_like_archive(n, seed),
        other => return Err(format!("unknown archive `{other}` (use ucr|uea)")),
    };
    for ds in &datasets {
        if ds.n_vars() != 1 {
            println!(
                "skipping `{}` (multivariate; the UCR TSV format is univariate)",
                ds.name
            );
            continue;
        }
        for (split, suffix) in [(&ds.train, "TRAIN"), (&ds.test, "TEST")] {
            let mut body = String::new();
            for s in &split.samples {
                write!(body, "{}", s.label).unwrap();
                for v in &s.vars[0] {
                    write!(body, "\t{v}").unwrap();
                }
                body.push('\n');
            }
            let path = out.join(format!("{}_{suffix}.tsv", ds.name));
            fs::write(&path, body).map_err(|e| e.to_string())?;
        }
        println!(
            "wrote `{}`: {} train / {} test, {} classes, length {}",
            ds.name,
            ds.train.len(),
            ds.test.len(),
            ds.n_classes,
            ds.series_len()
        );
    }
    Ok(())
}

/// Resolve `--resume`: a file is used as-is; a directory means "the newest
/// `ckpt-*.aimts` inside it".
fn resolve_resume(path: PathBuf) -> Result<PathBuf, String> {
    if path.is_dir() {
        aimts::latest_checkpoint(&path)
            .map_err(|e| format!("scanning {} failed: {e}", path.display()))?
            .ok_or_else(|| format!("no ckpt-*.aimts checkpoints in {}", path.display()))
    } else {
        Ok(path)
    }
}

/// `pretrain`: multi-source pre-training to a JSON checkpoint.
pub fn pretrain(args: &Args) -> Result<(), String> {
    let per_source = args.parse_or("pool-per-source", 8usize)?;
    let epochs = args.parse_or("epochs", 2usize)?;
    let lr = args.parse_or("lr", 1e-3f32)?;
    let seed = args.parse_or("seed", 3407u64)?;
    let workers = args.parse_or("workers", 0usize)?;
    let out = PathBuf::from(args.required("out")?);
    let cfg = model_config(args)?;
    let checkpoint = CheckpointPolicy {
        dir: args.get("checkpoint-dir").map(PathBuf::from),
        every: args.parse_or("checkpoint-every", 1usize)?,
        keep_last: args.parse_or("keep-last", 3usize)?,
        resume_from: match args.get("resume") {
            Some(p) => Some(resolve_resume(PathBuf::from(p))?),
            None => None,
        },
    };
    if let Some(from) = &checkpoint.resume_from {
        println!("resuming from {}", from.display());
    }
    let health = HealthPolicy {
        clip_norm: args.parse_opt("clip-norm")?,
        max_bad_steps: args.parse_or("max-bad-steps", HealthPolicy::default().max_bad_steps)?,
        max_rollbacks: args.parse_or("max-rollbacks", HealthPolicy::default().max_rollbacks)?,
        ..HealthPolicy::default()
    };

    let pool = monash_like_pool(per_source, 0);
    println!(
        "pre-training pool: {} unlabeled multi-domain samples",
        pool.len()
    );
    let mut model = AimTs::new(cfg, seed);
    println!("model: {} parameters", model.num_parameters());
    let report = model
        .pretrain(
            &pool,
            &PretrainConfig {
                epochs,
                batch_size: 8,
                lr,
                seed,
                workers,
                checkpoint,
                health,
                executor: executor(args)?,
                ..PretrainConfig::default()
            },
        )
        .map_err(|e| format!("pre-training failed: {e}"))?;
    println!(
        "done: {} steps on {} worker(s), loss per epoch {:?} (proto {:.3}, series-image {:.3})",
        report.steps,
        report.workers,
        report.epoch_losses,
        report.final_proto_loss,
        report.final_si_loss
    );
    println!("{}", report.health);
    model.save(&out).map_err(|e| e.to_string())?;
    println!("checkpoint saved to {}", out.display());
    Ok(())
}

fn finetune_and_report(
    model: &AimTs,
    ds: &Dataset,
    epochs: usize,
    health: HealthPolicy,
    executor: Executor,
) -> Result<FineTuned, String> {
    println!(
        "dataset `{}`: {} train / {} test, {} classes, {} vars x {} steps",
        ds.name,
        ds.train.len(),
        ds.test.len(),
        ds.n_classes,
        ds.n_vars(),
        ds.series_len()
    );
    let fcfg = FineTuneConfig {
        epochs,
        batch_size: 8,
        health,
        executor,
        ..FineTuneConfig::default()
    };
    let tuned = model.fine_tune(ds, &fcfg);
    if !tuned.health.is_clean() {
        println!("{}", tuned.health);
    }
    let preds = tuned.predict(&ds.test);
    let cm = ConfusionMatrix::new(&preds, &ds.test.labels(), ds.n_classes);
    println!(
        "\ntest accuracy: {:.3}   macro-F1: {:.3}",
        cm.accuracy(),
        cm.macro_f1()
    );
    println!("\n{}", cm.render());
    Ok(tuned)
}

/// Honor `--save-bundle <path>`: persist a self-describing serving bundle
/// (`aimts-cli serve --model <path>` loads it back).
fn maybe_save_bundle(tuned: &FineTuned, args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("save-bundle") {
        let path = PathBuf::from(path);
        tuned
            .save_bundle(&path)
            .map_err(|e| format!("saving bundle to {} failed: {e}", path.display()))?;
        println!("serving bundle written to {}", path.display());
    }
    Ok(())
}

/// Parse the fine-tuning health knobs shared by `finetune` and `demo`.
fn health_policy(args: &Args) -> Result<HealthPolicy, String> {
    Ok(HealthPolicy {
        clip_norm: args.parse_opt("clip-norm")?,
        ..HealthPolicy::default()
    })
}

/// `finetune`: load checkpoint + UCR-TSV dataset, fine-tune, report.
pub fn finetune(args: &Args) -> Result<(), String> {
    let ckpt = PathBuf::from(args.required("ckpt")?);
    let dir = PathBuf::from(args.required("data-dir")?);
    let name = args.required("name")?;
    let epochs = args.parse_or("epochs", 40usize)?;
    let missing = MissingValuePolicy::parse(args.str_or("missing-values", "reject"))?;
    let cfg = model_config(args)?;

    let mut model = AimTs::new(cfg, 3407);
    model.load(&ckpt).map_err(|e| {
        format!(
            "loading {} failed: {e} (check --hidden/--repr match)",
            ckpt.display()
        )
    })?;
    let ds = load_ucr_tsv_with(Path::new(&dir), name, missing).map_err(|e| e.to_string())?;
    let tuned = finetune_and_report(&model, &ds, epochs, health_policy(args)?, executor(args)?)?;
    maybe_save_bundle(&tuned, args)
}

/// `demo`: built-in synthetic dataset, fine-tune from random init.
pub fn demo(args: &Args) -> Result<(), String> {
    let name = args.str_or("dataset", "ecg200");
    let epochs = args.parse_or("epochs", 40usize)?;
    let seed = args.parse_or("seed", 3407u64)?;
    let ds = named_dataset(name, seed)?;
    let model = AimTs::new(model_config(args)?, seed);
    let tuned = finetune_and_report(&model, &ds, epochs, health_policy(args)?, executor(args)?)?;
    maybe_save_bundle(&tuned, args)
}

/// `info`: print archive summary statistics.
pub fn info(args: &Args) -> Result<(), String> {
    let archive = args.str_or("archive", "ucr");
    let n = args.parse_or("n", 4usize)?;
    let seed = args.parse_or("seed", 42u64)?;
    let datasets = match archive {
        "ucr" => ucr_like_archive(n, seed),
        "uea" => uea_like_archive(n, seed),
        other => return Err(format!("unknown archive `{other}` (use ucr|uea)")),
    };
    print!("{}", aimts_data::stats::archive_summary(&datasets));
    Ok(())
}

/// `export-json`: write a built-in dataset as JSON (supports multivariate).
pub fn export_json(args: &Args) -> Result<(), String> {
    let name = args.str_or("dataset", "gesture");
    let seed = args.parse_or("seed", 3407u64)?;
    let out = PathBuf::from(args.required("out")?);
    let ds = named_dataset(name, seed)?;
    aimts_data::loader::save_json(&out, &ds).map_err(|e| e.to_string())?;
    println!(
        "exported `{}` ({} train / {} test, {} vars) to {}",
        ds.name,
        ds.train.len(),
        ds.test.len(),
        ds.n_vars(),
        out.display()
    );
    Ok(())
}

/// Parse the micro-batching and overload knobs shared by `serve` and
/// `loadgen`.
fn batch_policy(args: &Args) -> Result<BatchPolicy, String> {
    let defaults = BatchPolicy::default();
    let policy = BatchPolicy {
        max_batch: args.parse_or("max-batch", defaults.max_batch)?,
        max_delay: std::time::Duration::from_micros(args.parse_or("max-delay-us", 2_000u64)?),
        queue_cap: args.parse_or("queue-cap", defaults.queue_cap)?,
        admission_timeout: std::time::Duration::from_millis(args.parse_or(
            "admission-timeout-ms",
            defaults.admission_timeout.as_millis() as u64,
        )?),
        default_deadline: args
            .parse_opt::<u64>("default-deadline-ms")?
            .map(std::time::Duration::from_millis),
        max_inflight_batches: args.parse_or("max-inflight", defaults.max_inflight_batches)?,
        inference_threads: args.parse_or("inference-threads", defaults.inference_threads)?,
        breaker_threshold: args.parse_or("breaker-threshold", defaults.breaker_threshold)?,
        breaker_cooldown: std::time::Duration::from_millis(args.parse_or(
            "breaker-cooldown-ms",
            defaults.breaker_cooldown.as_millis() as u64,
        )?),
    };
    if policy.max_batch == 0 || policy.queue_cap == 0 {
        return Err("--max-batch and --queue-cap must be >= 1".to_string());
    }
    if policy.max_inflight_batches == 0 || policy.inference_threads == 0 {
        return Err("--max-inflight and --inference-threads must be >= 1".to_string());
    }
    if policy.breaker_threshold == 0 {
        return Err("--breaker-threshold must be >= 1".to_string());
    }
    Ok(policy)
}

/// Parse the frontend hardening knobs for `serve`.
fn net_policy(args: &Args) -> Result<NetPolicy, String> {
    let defaults = NetPolicy::default();
    Ok(NetPolicy {
        read_timeout: std::time::Duration::from_millis(
            args.parse_or("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?,
        ),
        write_timeout: std::time::Duration::from_millis(args.parse_or(
            "write-timeout-ms",
            defaults.write_timeout.as_millis() as u64,
        )?),
        max_frame: args.parse_or("max-frame-bytes", defaults.max_frame)?,
    })
}

/// Build the model registry for `serve`/`loadgen`: load `--model <bundle>`
/// when given, otherwise fine-tune a demo model in process on `--dataset`.
fn serve_registry(args: &Args) -> Result<ModelRegistry, String> {
    let executor = executor(args)?;
    if let Some(path) = args.get("model") {
        let path = PathBuf::from(path);
        return ModelRegistry::from_bundle(&path, executor)
            .map_err(|e| format!("loading bundle {} failed: {e}", path.display()));
    }
    let name = args.str_or("dataset", "ecg200");
    let seed = args.parse_or("seed", 3407u64)?;
    let epochs = args.parse_or("epochs", 5usize)?;
    let ds = named_dataset(name, seed)?;
    println!("no --model given; fine-tuning a demo model on `{name}` ({epochs} epochs)...");
    let model = AimTs::new(model_config(args)?, seed);
    let tuned = model.fine_tune(
        &ds,
        &FineTuneConfig {
            epochs,
            batch_size: 8,
            executor,
            ..FineTuneConfig::default()
        },
    );
    Ok(ModelRegistry::from_tuned(
        &tuned,
        executor,
        &format!("demo:{name}"),
    ))
}

/// `serve`: micro-batching inference server on a JSON-lines TCP socket.
pub fn serve(args: &Args) -> Result<(), String> {
    let policy = batch_policy(args)?;
    let net = net_policy(args)?;
    let registry = serve_registry(args)?;
    let addr = args.str_or("addr", "127.0.0.1:7878");
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let server = std::sync::Arc::new(Server::start(registry, policy));
    println!(
        "serving generation {} on {addr} (max_batch {}, max_delay {:?}, queue_cap {}, \
         admission_timeout {:?}, inflight {}, workers {})",
        server.registry().generation(),
        policy.max_batch,
        policy.max_delay,
        policy.queue_cap,
        policy.admission_timeout,
        policy.max_inflight_batches,
        policy.inference_threads
    );
    println!("send {{\"cmd\":\"shutdown\"}} on a connection to stop (drains, then exits)");
    let connections = aimts_serve::net::serve_tcp(std::sync::Arc::clone(&server), listener, net)
        .map_err(|e| format!("serve loop failed: {e}"))?;
    server.shutdown();
    let snap = server.metrics();
    println!(
        "served {} request(s) over {connections} connection(s); p50 {}us p95 {}us p99 {}us",
        snap.completed, snap.latency.p50_us, snap.latency.p95_us, snap.latency.p99_us
    );
    Ok(())
}

/// `loadgen`: drive the in-process server with synthetic load and write
/// the report to `--report` (default: the repository's
/// `bench_results/serve_load.json`).
pub fn loadgen(args: &Args) -> Result<(), String> {
    let policy = batch_policy(args)?;
    let cfg = LoadgenConfig {
        requests: args.parse_or("requests", 10_000usize)?,
        clients: args.parse_or("clients", 4usize)?,
        deadline_ms: args.parse_opt("deadline-ms")?,
    };
    let min_sheds = args.parse_or("min-sheds", 0u64)?;
    let report_path = match args.get("report") {
        Some(p) => PathBuf::from(p),
        None => {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results/serve_load.json")
        }
    };
    if cfg.requests == 0 || cfg.clients == 0 {
        return Err("--requests and --clients must be >= 1".to_string());
    }
    let name = args.str_or("dataset", "ecg200");
    let seed = args.parse_or("seed", 3407u64)?;
    let pool: Vec<_> = named_dataset(name, seed)?
        .test
        .samples
        .iter()
        .map(|s| s.vars.clone())
        .collect();
    let registry = serve_registry(args)?;
    let server = Server::start(registry, policy);
    println!(
        "loadgen: {} requests from {} client(s), pool of {} samples",
        cfg.requests,
        cfg.clients,
        pool.len()
    );
    let report = run_loadgen(&server, &pool, &cfg);
    server.shutdown();
    write_report(&report, &report_path)
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    println!(
        "completed {}/{} (shed {}, deadline {}, failed {}, errors {}, lost {}) \
         in {:.2}s — {:.0} req/s, mean batch {:.1}",
        report.completed,
        report.requests,
        report.shed,
        report.deadline_exceeded,
        report.inference_failures,
        report.errors,
        report.lost,
        report.wall_s,
        report.throughput_rps,
        report.mean_batch
    );
    println!(
        "latency p50 {}us  p95 {}us  p99 {}us  max {}us; queue wait p50 {}us p99 {}us",
        report.p50_us,
        report.p95_us,
        report.p99_us,
        report.max_latency_us,
        report.queue_p50_us,
        report.queue_p99_us
    );
    println!("report written to {}", report_path.display());
    // Shed and expired requests are legitimate overload outcomes; a lost
    // request — accepted but never answered — is a drain-contract bug.
    if report.lost > 0 {
        return Err(format!(
            "lost requests: {} accepted but never answered",
            report.lost
        ));
    }
    if report.shed < min_sheds {
        return Err(format!(
            "expected at least {min_sheds} shed request(s) under this load, saw {}",
            report.shed
        ));
    }
    Ok(())
}

/// `render`: write one sample's RGB line chart as a PPM image.
pub fn render(args: &Args) -> Result<(), String> {
    let name = args.str_or("dataset", "ecg200");
    let index = args.parse_or("index", 0usize)?;
    let seed = args.parse_or("seed", 3407u64)?;
    let out = PathBuf::from(args.required("out")?);
    let ds = named_dataset(name, seed)?;
    let sample = ds
        .train
        .samples
        .get(index)
        .ok_or_else(|| format!("index {index} out of range (train has {})", ds.train.len()))?;
    let cfg = ImageConfig {
        standardize: false,
        ..ImageConfig::default()
    };
    let img = render_sample(&sample.vars, &cfg);
    let mut f = fs::File::create(&out).map_err(|e| e.to_string())?;
    writeln!(f, "P6\n{} {}\n255", img.width, img.height).map_err(|e| e.to_string())?;
    let hw = img.height * img.width;
    let mut bytes = Vec::with_capacity(hw * 3);
    for i in 0..hw {
        for c in 0..3 {
            bytes.push((img.data[c * hw + i] * 255.0) as u8);
        }
    }
    f.write_all(&bytes).map_err(|e| e.to_string())?;
    println!(
        "rendered sample {index} of `{}` (label {}) to {} ({}x{})",
        ds.name,
        sample.label,
        out.display(),
        img.width,
        img.height
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let flat: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(&flat).unwrap()
    }

    #[test]
    fn generate_then_finetune_roundtrip() {
        let dir = std::env::temp_dir().join("aimts_cli_test_data");
        let _ = fs::remove_dir_all(&dir);
        generate(&args(&[
            ("archive", "ucr"),
            ("n", "1"),
            ("out", dir.to_str().unwrap()),
        ]))
        .unwrap();
        // The first ucr-like dataset is univariate and must exist on disk.
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(entries.len() >= 2, "expected TRAIN and TEST files");
    }

    #[test]
    fn pretrain_demo_render_commands_run() {
        let ckpt = std::env::temp_dir().join("aimts_cli_test_ckpt.json");
        pretrain(&args(&[
            ("pool-per-source", "2"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("workers", "2"),
            ("out", ckpt.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(ckpt.exists());

        demo(&args(&[
            ("dataset", "ecg200"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
        ]))
        .unwrap();

        let ppm = std::env::temp_dir().join("aimts_cli_test.ppm");
        render(&args(&[
            ("dataset", "starlight"),
            ("out", ppm.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(ppm.exists());
    }

    #[test]
    fn pretrain_checkpoint_flags_roundtrip() {
        let dir = std::env::temp_dir().join("aimts_cli_test_ckpt_dir");
        let _ = fs::remove_dir_all(&dir);
        let out = std::env::temp_dir().join("aimts_cli_test_resume.json");
        let base = [
            ("pool-per-source", "2"),
            ("epochs", "2"),
            ("hidden", "8"),
            ("repr", "16"),
            ("workers", "1"),
            ("checkpoint-dir", dir.to_str().unwrap()),
        ];
        let mut first: Vec<(&str, &str)> = base.to_vec();
        first.push(("out", out.to_str().unwrap()));
        pretrain(&args(&first)).unwrap();
        assert!(
            dir.join("ckpt-000002.aimts").exists(),
            "final-epoch checkpoint missing"
        );

        // Resuming a finished run from the directory (latest checkpoint)
        // is a no-op train that still writes the JSON output.
        let _ = fs::remove_file(&out);
        let mut resumed: Vec<(&str, &str)> = base.to_vec();
        resumed.push(("resume", dir.to_str().unwrap()));
        resumed.push(("out", out.to_str().unwrap()));
        pretrain(&args(&resumed)).unwrap();
        assert!(out.exists());

        // A wrong seed is rejected with a clean error, not a panic.
        let mut bad: Vec<(&str, &str)> = base.to_vec();
        bad.push(("resume", dir.to_str().unwrap()));
        bad.push(("seed", "9999"));
        bad.push(("out", out.to_str().unwrap()));
        assert!(pretrain(&args(&bad)).is_err());
    }

    #[test]
    fn executor_flag_parses_and_runs() {
        let ckpt = std::env::temp_dir().join("aimts_cli_exec_ckpt.json");
        pretrain(&args(&[
            ("pool-per-source", "2"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("workers", "1"),
            ("executor", "compiled"),
            ("out", ckpt.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(ckpt.exists());

        demo(&args(&[
            ("dataset", "ecg200"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("executor", "compiled"),
        ]))
        .unwrap();

        // An unknown executor errors cleanly instead of panicking.
        let bad = std::env::temp_dir().join("aimts_cli_exec_bad.json");
        assert!(pretrain(&args(&[
            ("executor", "jit"),
            ("out", bad.to_str().unwrap()),
        ]))
        .is_err());
    }

    #[test]
    fn pretrain_health_flags_parse_and_run() {
        let ckpt = std::env::temp_dir().join("aimts_cli_health_ckpt.json");
        pretrain(&args(&[
            ("pool-per-source", "2"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("workers", "1"),
            ("clip-norm", "0.25"),
            ("max-bad-steps", "3"),
            ("max-rollbacks", "1"),
            ("out", ckpt.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(ckpt.exists());
        // A malformed clip-norm errors cleanly instead of panicking.
        let mut bad = std::env::temp_dir().join("aimts_cli_health_bad.json");
        bad.set_extension("json");
        assert!(pretrain(&args(&[
            ("clip-norm", "not-a-number"),
            ("out", bad.to_str().unwrap()),
        ]))
        .is_err());
    }

    #[test]
    fn finetune_missing_values_flag() {
        let dir = std::env::temp_dir().join("aimts_cli_missing_data");
        fs::create_dir_all(&dir).unwrap();
        let mk_row = |label: usize, base: f32, gap: bool| {
            let mut s = format!("{label}");
            for t in 0..8 {
                if gap && t == 3 {
                    s.push_str("\tNaN");
                } else {
                    s.push_str(&format!("\t{}", base + t as f32 * 0.1));
                }
            }
            s.push('\n');
            s
        };
        let train = mk_row(0, 0.0, true) + &mk_row(0, 0.1, false) + &mk_row(1, 5.0, false);
        let test = mk_row(0, 0.05, false) + &mk_row(1, 5.1, false);
        fs::write(dir.join("Gap_TRAIN.tsv"), train).unwrap();
        fs::write(dir.join("Gap_TEST.tsv"), test).unwrap();

        let cfg = model_config(&args(&[("hidden", "8"), ("repr", "16")])).unwrap();
        let ckpt = std::env::temp_dir().join("aimts_cli_missing_ckpt.json");
        AimTs::new(cfg, 1).save(&ckpt).unwrap();

        let base = [
            ("ckpt", ckpt.to_str().unwrap()),
            ("data-dir", dir.to_str().unwrap()),
            ("name", "Gap"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
        ];
        // Default policy rejects the NaN cell with a precise error.
        let err = finetune(&args(&base)).unwrap_err();
        assert!(
            err.contains("sample 0") && err.contains("position 3"),
            "{err}"
        );
        // Imputation repairs the gap and the run completes.
        let mut ok: Vec<(&str, &str)> = base.to_vec();
        ok.push(("missing-values", "impute-linear"));
        finetune(&args(&ok)).unwrap();
        // Unknown policies error cleanly.
        let mut bad: Vec<(&str, &str)> = base.to_vec();
        bad.push(("missing-values", "drop"));
        assert!(finetune(&args(&bad)).is_err());
    }

    #[test]
    fn export_json_roundtrip() {
        let out = std::env::temp_dir().join("aimts_cli_export.json");
        export_json(&args(&[
            ("dataset", "gesture"),
            ("out", out.to_str().unwrap()),
        ]))
        .unwrap();
        let ds = aimts_data::loader::load_json(&out).unwrap();
        assert!(ds.n_vars() > 1);
    }

    #[test]
    fn batch_policy_flags_parse() {
        let p = batch_policy(&args(&[
            ("max-batch", "8"),
            ("max-delay-us", "500"),
            ("queue-cap", "32"),
        ]))
        .unwrap();
        assert_eq!(p.max_batch, 8);
        assert_eq!(p.max_delay, std::time::Duration::from_micros(500));
        assert_eq!(p.queue_cap, 32);
        // Defaults apply when flags are absent; zero values error cleanly.
        assert_eq!(batch_policy(&args(&[])).unwrap().max_batch, 64);
        assert!(batch_policy(&args(&[("max-batch", "0")])).is_err());
        assert!(batch_policy(&args(&[("queue-cap", "0")])).is_err());
        // A missing bundle errors cleanly instead of panicking.
        assert!(serve_registry(&args(&[("model", "/nonexistent/x.aimts")])).is_err());
    }

    #[test]
    fn overload_flags_parse() {
        let p = batch_policy(&args(&[
            ("admission-timeout-ms", "0"),
            ("default-deadline-ms", "25"),
            ("max-inflight", "3"),
            ("inference-threads", "2"),
            ("breaker-threshold", "5"),
            ("breaker-cooldown-ms", "100"),
        ]))
        .unwrap();
        assert_eq!(p.admission_timeout, std::time::Duration::ZERO);
        assert_eq!(
            p.default_deadline,
            Some(std::time::Duration::from_millis(25))
        );
        assert_eq!(p.max_inflight_batches, 3);
        assert_eq!(p.inference_threads, 2);
        assert_eq!(p.breaker_threshold, 5);
        assert_eq!(p.breaker_cooldown, std::time::Duration::from_millis(100));
        // No deadline unless asked for; zero thread counts error cleanly.
        assert_eq!(batch_policy(&args(&[])).unwrap().default_deadline, None);
        assert!(batch_policy(&args(&[("inference-threads", "0")])).is_err());
        assert!(batch_policy(&args(&[("max-inflight", "0")])).is_err());
        assert!(batch_policy(&args(&[("breaker-threshold", "0")])).is_err());

        let n = net_policy(&args(&[
            ("read-timeout-ms", "250"),
            ("write-timeout-ms", "125"),
            ("max-frame-bytes", "4096"),
        ]))
        .unwrap();
        assert_eq!(n.read_timeout, std::time::Duration::from_millis(250));
        assert_eq!(n.write_timeout, std::time::Duration::from_millis(125));
        assert_eq!(n.max_frame, 4096);
        assert_eq!(net_policy(&args(&[])).unwrap().max_frame, 1 << 20);
    }

    #[test]
    fn loadgen_saturation_sheds_without_losing_accepted_requests() {
        let bundle = std::env::temp_dir().join("aimts_cli_saturation_bundle.aimts");
        let _ = fs::remove_file(&bundle);
        demo(&args(&[
            ("dataset", "ecg200"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("save-bundle", bundle.to_str().unwrap()),
        ]))
        .unwrap();
        let report = std::env::temp_dir().join("aimts_cli_saturation_load.json");
        let _ = fs::remove_file(&report);
        // Try-admit semantics (zero admission timeout) against a tiny
        // queue: sheds must happen, accepted requests must all answer.
        loadgen(&args(&[
            ("model", bundle.to_str().unwrap()),
            ("dataset", "ecg200"),
            ("requests", "400"),
            ("clients", "8"),
            ("max-batch", "4"),
            ("queue-cap", "2"),
            ("admission-timeout-ms", "0"),
            ("min-sheds", "1"),
            ("report", report.to_str().unwrap()),
        ]))
        .unwrap();
        let json = fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"requests\": 400"), "{json}");
    }

    #[test]
    fn save_bundle_then_loadgen_roundtrip() {
        let bundle = std::env::temp_dir().join("aimts_cli_demo_bundle.aimts");
        let _ = fs::remove_file(&bundle);
        demo(&args(&[
            ("dataset", "ecg200"),
            ("epochs", "1"),
            ("hidden", "8"),
            ("repr", "16"),
            ("save-bundle", bundle.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(bundle.exists());

        // Drive the served model with a small load; every request must
        // complete (loadgen errors otherwise).
        let report = std::env::temp_dir().join("aimts_cli_roundtrip_load.json");
        let _ = fs::remove_file(&report);
        loadgen(&args(&[
            ("model", bundle.to_str().unwrap()),
            ("dataset", "ecg200"),
            ("requests", "64"),
            ("clients", "2"),
            ("max-batch", "8"),
            ("report", report.to_str().unwrap()),
        ]))
        .unwrap();
        let json = fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"completed\": 64"), "{json}");

        // A report path that cannot be written is an error, not a panic.
        let unwritable = bundle.join("load.json");
        let err = loadgen(&args(&[
            ("model", bundle.to_str().unwrap()),
            ("requests", "4"),
            ("clients", "1"),
            ("report", unwritable.to_str().unwrap()),
        ]))
        .unwrap_err();
        assert!(err.starts_with("writing "), "{err}");
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(generate(&args(&[("archive", "nope"), ("out", "/tmp/x")])).is_err());
        assert!(demo(&args(&[("dataset", "nope")])).is_err());
        assert!(named_dataset("gesture", 0).is_ok());
    }
}
