//! The `finetune` workload and the traced re-composition of its steps.

use std::hint::black_box;
use std::time::Instant;

use aimts::batch::{batch_indices, encode_channel_independent, samples_to_tensor};
use aimts::health::guard_and_clip;
use aimts::{copy_parameters, AimTs, FineTuneConfig, FineTuned, TsEncoder};
use aimts_data::preprocess::z_normalize_sample;
use aimts_data::{Dataset, MultiSeries};
use aimts_nn::{Activation, Adam, Mlp, Module, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::setup::{self, finetune_config, repeat_setup};
use crate::stats::{mean, median, process_cpu_s};
use crate::trace::Tracer;

/// Minimum timed fine-tunes per dataset, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// End-to-end run: `fine_tune` + `evaluate` of the nine datasets in turn,
/// each from the same pre-trained base encoder, cycling for `--seconds`.
/// `samples_per_s` is the training samples of one sweep over the sum of the
/// datasets' median process CPU times (see [`crate::stats::process_cpu_s`]);
/// the wall-clock rate goes to the notes.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let fcfg = finetune_config(seed);
    let ((base, base_loss, datasets), setup_s) = repeat_setup(|| {
        let datasets = setup::finetune_datasets(seed);
        let (base, base_loss) = setup::base_model(seed);
        // Warm-up: one untimed fine-tune of the smallest dataset.
        black_box(
            base.fine_tune(&datasets[0], &fcfg)
                .evaluate(&datasets[0].test),
        );
        (base, base_loss, datasets)
    });

    aimts_bench::memprof::reset_peak();
    let started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); datasets.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); datasets.len()];
    let mut accs: Vec<Option<f64>> = vec![None; datasets.len()];
    let mut repeatable = true;
    for k in (0..datasets.len()).cycle() {
        if walls[k].len() >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let ds = &datasets[k];
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let tuned = base.fine_tune(ds, &fcfg);
        let acc = tuned.evaluate(&ds.test);
        cpus[k].push(process_cpu_s() - cpu);
        walls[k].push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if !tuned.train_losses.iter().all(|l| l.is_finite()) || !tuned.health.is_clean() {
            report.failed += 1;
            report.note(format!(
                "fine-tune of {}: losses {:?}, health: {}",
                ds.name, tuned.train_losses, tuned.health
            ));
        }
        match accs[k] {
            None => accs[k] = Some(acc),
            Some(a) => repeatable &= a.to_bits() == acc.to_bits(),
        }
    }
    let peak = setup::peak_heap_mb();
    let calls: usize = walls.iter().map(Vec::len).sum();
    report.check(
        "finetune.test_accuracy_identical_across_repeats",
        repeatable,
        format!("{calls} fine-tunes over {} datasets", datasets.len()),
    );
    let accs: Vec<f64> = accs.into_iter().flatten().collect();
    report.note(format!(
        "finetune: {calls} fine-tunes; per dataset (name, M, T, train, accuracy, \
         median CPU ms, median wall ms): {}",
        datasets
            .iter()
            .zip(&accs)
            .zip(cpus.iter().zip(&walls))
            .map(|((d, a), (c, w))| format!(
                "({}, {}, {}, {}, {a:.4}, {:.1}, {:.1})",
                d.name,
                d.n_vars(),
                d.series_len(),
                d.train.len(),
                median(c) * 1e3,
                median(w) * 1e3
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.note("finetune: final_loss is the base encoder's final pre-training loss");
    let samples: usize = datasets.iter().map(|d| d.train.len() * fcfg.epochs).sum();
    let sweep_s: f64 = cpus.iter().map(|c| median(c)).sum();
    let wall_sweep_s: f64 = walls.iter().map(|w| median(w)).sum();
    report.note(format!(
        "finetune: samples_per_s is per second of process CPU time; per wall second it \
         was {:.1}",
        samples as f64 / wall_sweep_s
    ));
    report.metric("samples_per_s", samples as f64 / sweep_s, "1/s");
    report.metric("final_loss", base_loss as f64, "loss");
    report.metric("test_accuracy", mean(&accs), "fraction");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_heap_mb", peak, "MiB");
}

/// `FineTuned::fit` re-composed from public calls for one dataset, with a
/// span per layer around every step. Returns the per-epoch losses and the
/// trained encoder + head parameters in `FineTuned::named_parameters`
/// order.
fn recomposed_fit(
    base: &AimTs,
    ds: &Dataset,
    fcfg: &FineTuneConfig,
    tr: &Tracer,
) -> (Vec<f32>, Vec<Vec<f32>>) {
    let cfg = &base.cfg;
    let encoder = TsEncoder::new(cfg.hidden, cfg.repr_dim, &cfg.dilations, 0);
    copy_parameters(&base.ts_encoder, &encoder);
    let head = Mlp::new(
        &[cfg.repr_dim, fcfg.head_hidden, ds.n_classes],
        Activation::Gelu,
        fcfg.seed.wrapping_add(77),
    );
    let prepared: Vec<MultiSeries> = ds
        .train
        .samples
        .iter()
        .map(|s| {
            let mut v = s.vars.clone();
            z_normalize_sample(&mut v);
            v
        })
        .collect();
    let labels = ds.train.labels();
    let mut params = head.parameters();
    params.extend(encoder.parameters());
    let mut opt = Adam::new(params.clone(), fcfg.lr);
    let mut rng = StdRng::seed_from_u64(fcfg.seed);
    let mut epoch_losses = Vec::with_capacity(fcfg.epochs);
    let mut step = 0u64;
    for _ in 0..fcfg.epochs {
        let (mut sum, mut batches) = (0f32, 0usize);
        for batch in batch_indices(prepared.len(), fcfg.batch_size, &mut rng) {
            let root = tr.open("finetune.step", None, step);
            let p = Some(root);
            let x = tr.span("model.inputs", p, step, || {
                let samples: Vec<&MultiSeries> = batch.iter().map(|&i| &prepared[i]).collect();
                samples_to_tensor(&samples)
            });
            let targets: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let r = tr.span("encoder.ts_fwd", p, step, || {
                encode_channel_independent(&encoder, &x)
            });
            let loss = tr.span("model.head_loss", p, step, || {
                head.forward(&r).cross_entropy(&targets)
            });
            let loss_val = loss.item();
            tr.span("optim.adam", p, step, || opt.zero_grad());
            tr.span("autograd.backward", p, step, || loss.backward());
            tr.span("optim.adam", p, step, || {
                let (norm, _) = guard_and_clip(&params, fcfg.health.clip_norm);
                assert!(norm.is_finite(), "non-finite gradient norm in a clean run");
                opt.step();
            });
            tr.close(root);
            sum += loss_val;
            batches += 1;
            step += 1;
        }
        epoch_losses.push(sum / batches as f32);
    }
    let mut named = Vec::new();
    encoder.named_parameters("encoder", &mut named);
    head.named_parameters("head", &mut named);
    (
        epoch_losses,
        named.iter().map(|(_, t)| t.to_vec()).collect(),
    )
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Traced pass: every dataset's fine-tuning re-composed step by step and
/// checked bit for bit (per-epoch losses and final weights) against
/// `AimTs::fine_tune`, plus `FineTuned::predict` timing.
pub fn traced(seed: u64, tr: &Tracer, report: &mut Report) {
    let fcfg = finetune_config(seed);
    let datasets = setup::finetune_datasets(seed);
    let (base, _) = setup::base_model(seed);
    let warm: FineTuned = base.fine_tune(&datasets[0], &fcfg);
    black_box(warm.predict(&datasets[0].test));

    let (mut untraced_s, mut traced_s, mut samples) = (0f64, 0f64, 0usize);
    let mut exact = true;
    let mut predict_ms = Vec::new();
    for ds in &datasets {
        let t = Instant::now();
        let reference = base.fine_tune(ds, &fcfg);
        untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (losses, weights) = recomposed_fit(&base, ds, &fcfg, tr);
        traced_s += t.elapsed().as_secs_f64();
        samples += ds.train.len() * fcfg.epochs;
        let ref_weights = reference.named_parameters();
        exact &= bits(&losses) == bits(&reference.train_losses)
            && weights.len() == ref_weights.len()
            && weights
                .iter()
                .zip(&ref_weights)
                .all(|(w, (_, r))| bits(w) == bits(&r.to_vec()));
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(reference.predict(&ds.test));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        predict_ms.push(median(&reps));
    }
    report.check(
        "finetune.recomposed_steps_match_fine_tune_bitwise",
        exact,
        format!(
            "{} datasets: per-epoch losses and final encoder + head weights compared bit for bit",
            datasets.len()
        ),
    );
    let agg = tr.aggregate_under("finetune.step");
    let steps = agg.get("finetune.step").map_or(1, |a| a.count.max(1)) as f64;
    let per_step = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.self_ns as f64 / steps / 1e6)
    };
    report.metric(
        "finetune.model.step_ms",
        agg.get("finetune.step")
            .map_or(0.0, |a| a.total_ns as f64 / steps / 1e6),
        "ms",
    );
    report.metric("finetune.model.inputs_ms", per_step("model.inputs"), "ms");
    report.metric(
        "finetune.encoder.ts_fwd_ms",
        per_step("encoder.ts_fwd"),
        "ms",
    );
    report.metric(
        "finetune.model.head_loss_ms",
        per_step("model.head_loss"),
        "ms",
    );
    report.metric(
        "finetune.autograd.backward_ms",
        per_step("autograd.backward"),
        "ms",
    );
    report.metric("finetune.optim.adam_ms", per_step("optim.adam"), "ms");
    report.metric("finetune.infer.predict_ms", mean(&predict_ms), "ms");
    report.metric(
        "finetune.trace.overhead_samples_per_s",
        samples as f64 / untraced_s - samples as f64 / traced_s,
        "1/s",
    );
    report.note(format!(
        "finetune: {steps} traced steps; per-layer values are mean self time per step; \
         infer.predict_ms is the mean over datasets of the median of 5 predict calls on \
         the test split"
    ));
}
