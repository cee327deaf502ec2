//! Inputs and configurations shared by the workloads. Everything is a
//! pure function of the workload seed.

use std::collections::BTreeMap;

use aimts::{AimTs, AimTsConfig, FineTuneConfig, PretrainConfig};
use aimts_bench::runners::bench_aimts_config;
use aimts_data::archives::{monash_like_pool, ucr_like_archive, uea_like_archive};
use aimts_data::preprocess::{resample_sample, z_normalize_sample};
use aimts_data::{Dataset, DatasetSpec, MultiSeries, PatternFamily};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, process_cpu_s};

/// Data-parallel workers for pre-training.
pub const WORKERS: usize = 2;
/// Samples per source of the pre-training pool: 144 univariate samples
/// plus 48 each with M = 2, 3, 4 variables.
pub const POOL_PER_SOURCE: usize = 12;
/// Samples per source of the smaller pool (36 univariate samples plus 12
/// each with M = 2, 3, 4) that warms up `pretrain`.
pub const WARM_POOL_PER_SOURCE: usize = 4;
/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Pool samples per timed `pretrain` call.
pub const PART_SIZE: usize = 48;

pub fn model_config() -> AimTsConfig {
    bench_aimts_config()
}

/// `pretrain` settings: batch 8, one epoch per call, 2 workers.
pub fn pretrain_config(seed: u64) -> PretrainConfig {
    PretrainConfig {
        epochs: 1,
        batch_size: 8,
        lr: 1e-3,
        seed,
        workers: WORKERS,
        ..PretrainConfig::default()
    }
}

/// Fine-tuning settings: batch 8, 20 epochs.
pub fn finetune_config(seed: u64) -> FineTuneConfig {
    FineTuneConfig {
        epochs: 20,
        batch_size: 8,
        seed,
        ..FineTuneConfig::default()
    }
}

pub fn pool(seed: u64) -> Vec<MultiSeries> {
    monash_like_pool(POOL_PER_SOURCE, seed)
}

/// The pool cut into the parts that the timed `pretrain` calls train on:
/// grouped by M, as `AimTs::pretrain` batches it, and each group cut into
/// [`PART_SIZE`]-sample parts in pool order. The 144 / 48 / 48 / 48 pool
/// gives six parts (three with M = 1, one each with M = 2, 3, 4).
pub fn pool_parts(pool: &[MultiSeries]) -> Vec<Vec<MultiSeries>> {
    let mut groups: BTreeMap<usize, Vec<MultiSeries>> = BTreeMap::new();
    for s in pool {
        groups.entry(s.len()).or_default().push(s.clone());
    }
    groups
        .values()
        .flat_map(|g| g.chunks(PART_SIZE).map(<[MultiSeries]>::to_vec))
        .collect()
}

pub fn warm_pool(seed: u64) -> Vec<MultiSeries> {
    monash_like_pool(WARM_POOL_PER_SOURCE, seed)
}

/// What `AimTs::pretrain` does to each pool sample before batching.
pub fn prepare(cfg: &AimTsConfig, s: &MultiSeries) -> MultiSeries {
    let mut v = resample_sample(s, cfg.pretrain_len);
    z_normalize_sample(&mut v);
    v
}

/// The fine-tuning datasets: UCR-like 0-5 (M = 1; T = 64, 96, 128; 8, 12
/// and 16 training samples) and UEA-like 0-2 (T = 96; M = 2, 3, 4 with 8,
/// 18 and 16 training samples). Nine datasets, because the accuracy of a
/// model fine-tuned on 8 to 18 samples swings with the seed, and their mean
/// swings less.
pub fn finetune_datasets(seed: u64) -> Vec<Dataset> {
    let mut out = ucr_like_archive(6, seed);
    out.extend(uea_like_archive(3, seed));
    out
}

/// The served task: the sine-frequency family (M = 1, T = 96, 2 classes)
/// with 16 training and 100 test samples per class; the 200 test samples
/// are the request pool. An easy task, so the served accuracy is a steady
/// sanity figure across seeds (the sine-phase task reached 0.66 to 0.995).
pub fn serve_dataset(seed: u64) -> Dataset {
    DatasetSpec {
        name: "serve_sine_freq".to_string(),
        family: PatternFamily::SineFreq,
        n_classes: 2,
        length: 96,
        n_vars: 1,
        train_per_class: 16,
        test_per_class: 100,
        noise: 0.25,
        seed: StdRng::seed_from_u64(seed ^ 0x5E7E).gen(),
    }
    .generate()
}

/// Datasets for probing pre-trained representations: one univariate
/// dataset per pattern family (up to 3 classes), T = 96, 20 training and
/// 40 test samples per class.
pub fn probe_datasets(seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9B0BE);
    PatternFamily::ALL
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            DatasetSpec {
                name: format!("probe_{i:02}"),
                family,
                n_classes: family.max_classes().min(3),
                length: 96,
                n_vars: 1,
                train_per_class: 20,
                test_per_class: 40,
                noise: 0.2,
                seed: rng.gen(),
            }
            .generate()
        })
        .collect()
}

/// The base encoder shared by `finetune` and `serve`: one epoch of
/// pre-training on the whole pool, the model whose loss `pretrain` reports.
/// Returns the model and its final pre-training loss.
pub fn base_model(seed: u64) -> (AimTs, f32) {
    let cfg = model_config();
    let mut model = AimTs::new(cfg, seed);
    let report = model
        .pretrain(&pool(seed), &pretrain_config(seed))
        .expect("base pre-training failed");
    assert!(
        report.final_loss.is_finite() && report.health.is_clean(),
        "base pre-training was not clean: {}",
        report.health
    );
    (model, report.final_loss)
}

/// Run `setup` [`SETUP_REPEATS`] times and return the last state with the
/// median process CPU time in seconds.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous state first so set-ups do not overlap in memory.
        drop(last.take());
        let t = process_cpu_s();
        last = Some(setup());
        times.push(process_cpu_s() - t);
    }
    (last.expect("SETUP_REPEATS is at least 1"), median(&times))
}

/// Heap peak since the last `reset_peak`, in MiB.
pub fn peak_heap_mb() -> f64 {
    aimts_bench::memprof::peak_bytes() as f64 / (1024.0 * 1024.0)
}
