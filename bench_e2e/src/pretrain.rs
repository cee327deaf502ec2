//! The `pretrain` workload and the traced re-composition of its step.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use aimts::batch::{batch_indices, encode_channel_independent, samples_to_tensor};
use aimts::health::guard_and_clip;
use aimts::mixup::{geodesic_mixup_t, sample_lambdas};
use aimts::parallel::{all_reduce_mean_guarded, microbatch_seed, with_worker_pool};
use aimts::{losses, AimTs, Executor, MicroGrad, PretrainReport};
use aimts_baselines::{Metric, OneNn};
use aimts_data::preprocess::z_normalize_sample;
use aimts_data::{Dataset, MultiSeries, Sample, Split};
use aimts_eval::Summary;
use aimts_imaging::render_sample;
use aimts_nn::{Adam, Module, Optimizer};
use aimts_tensor::ops::Conv1dSpec;
use aimts_tensor::{arena, no_grad, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::setup::{self, model_config, pretrain_config, repeat_setup, WORKERS};
use crate::stats::{median, percentile, process_cpu_s};
use crate::trace::{SpanId, Tracer};

/// Minimum timed calls per pool part, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// End-to-end run: one epoch over the pool, timed as six `AimTs::pretrain`
/// calls of [`setup::PART_SIZE`] samples each (see [`setup::pool_parts`]),
/// every call from the same initial model with 2 workers. The calls cycle
/// over the parts for `--seconds`; `samples_per_s` is the pool size over
/// the sum of the parts' median process CPU times (see
/// [`crate::stats::process_cpu_s`]), the wall-clock rate goes to the notes.
/// Two untimed whole-pool calls then give `final_loss` and the probed
/// model.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let cfg = model_config();
    let pcfg = pretrain_config(seed);
    let ((pool, parts, probe_sets), setup_s) = repeat_setup(|| {
        let pool = setup::pool(seed);
        let parts = setup::pool_parts(&pool);
        let probe_sets = setup::probe_datasets(seed);
        // Warm-up: one untimed call on the smaller pool (page faults,
        // allocator growth, every M shape once).
        let mut warm = AimTs::new(cfg.clone(), seed);
        black_box(
            warm.pretrain(&setup::warm_pool(seed), &pcfg)
                .expect("warm-up pre-training failed"),
        );
        (pool, parts, probe_sets)
    });

    aimts_bench::memprof::reset_peak();
    let started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); parts.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); parts.len()];
    let mut first: Vec<Option<(u32, Vec<u32>)>> = vec![None; parts.len()];
    let mut repeatable = true;
    for k in (0..parts.len()).cycle() {
        if walls[k].len() >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut model = AimTs::new(cfg.clone(), seed);
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let result = model.pretrain(&parts[k], &pcfg);
        let cpu = process_cpu_s() - cpu;
        let wall = t.elapsed().as_secs_f64();
        let Some(rep) = checked_call(report, &format!("part {k}"), result) else {
            break;
        };
        let bits = (rep.final_loss.to_bits(), param_bits(&model));
        match &first[k] {
            None => first[k] = Some(bits),
            Some(f) => repeatable &= *f == bits,
        }
        walls[k].push(wall);
        cpus[k].push(cpu);
    }

    // Two whole-pool calls: the reported loss, its repeatability, and the
    // model whose representations are probed.
    let mut whole = Vec::new();
    for _ in 0..2 {
        let mut model = AimTs::new(cfg.clone(), seed);
        let result = model.pretrain(&pool, &pcfg);
        if let Some(rep) = checked_call(report, "whole pool", result) {
            whole.push((rep.final_loss, param_bits(&model), model));
        }
    }
    let peak = setup::peak_heap_mb();
    let calls: usize = walls.iter().map(Vec::len).sum();
    let complete = walls.iter().all(|w| !w.is_empty()) && whole.len() == 2;
    report.check(
        "pretrain.final_loss_and_weights_bit_identical_across_calls",
        complete
            && repeatable
            && whole[0].0.to_bits() == whole[1].0.to_bits()
            && whole[0].1 == whole[1].1,
        format!("{calls} part calls, 2 whole-pool calls"),
    );
    if !complete {
        return;
    }
    let (final_loss, _, model) = &whole[0];
    let probe = probe_accuracy(model, &probe_sets);

    let epoch_s: f64 = cpus.iter().map(|c| median(c)).sum();
    let wall_epoch_s: f64 = walls.iter().map(|w| median(w)).sum();
    report.note(format!(
        "pretrain: {calls} calls of 1 epoch over {} parts of <= {} samples (pool {}), batch \
         {}, {} workers; median CPU / wall per part (ms): {}; samples_per_s is per second of \
         process CPU time, per wall second it was {:.2}",
        parts.len(),
        setup::PART_SIZE,
        pool.len(),
        pcfg.batch_size,
        WORKERS,
        cpus.iter()
            .zip(&walls)
            .map(|(c, w)| format!("{:.1} / {:.1}", median(c) * 1e3, median(w) * 1e3))
            .collect::<Vec<_>>()
            .join(", "),
        pool.len() as f64 / wall_epoch_s
    ));
    report.note(
        "pretrain: final_loss is the final epoch loss of a whole-pool call; test_accuracy \
         is the mean OneNn accuracy of its frozen representations on one probe dataset per \
         pattern family",
    );
    report.metric("samples_per_s", pool.len() as f64 / epoch_s, "1/s");
    report.metric("final_loss", *final_loss as f64, "loss");
    report.metric("test_accuracy", probe, "fraction");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_heap_mb", peak, "MiB");
}

/// Count one `pretrain` call and check its outputs: a finite loss every
/// epoch, a clean health report and the requested worker count.
fn checked_call(
    report: &mut Report,
    what: &str,
    result: Result<PretrainReport, impl std::fmt::Display>,
) -> Option<PretrainReport> {
    report.attempted += 1;
    let rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            report.failed += 1;
            report.note(format!("pretrain call on {what} failed: {e}"));
            return None;
        }
    };
    let finite = rep.epoch_losses.iter().all(|l| l.is_finite());
    if !finite || !rep.health.is_clean() || rep.workers != WORKERS {
        report.failed += 1;
        report.note(format!(
            "pretrain call on {what}: losses {:?}, workers {}, health: {}",
            rep.epoch_losses, rep.workers, rep.health
        ));
    }
    Some(rep)
}

fn param_bits(model: &AimTs) -> Vec<u32> {
    model
        .flat_parameters()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Mean accuracy over `sets` of 1-NN on the model's frozen representations.
/// `OneNn` z-normalizes each representation vector, so its Euclidean
/// distance ranks neighbours by Pearson correlation.
pub fn probe_accuracy(model: &AimTs, sets: &[Dataset]) -> f64 {
    let accs: Vec<f64> = sets
        .iter()
        .map(|ds| {
            let reprs = Dataset {
                name: ds.name.clone(),
                domain: ds.domain.clone(),
                n_classes: ds.n_classes,
                train: encoded(model, &ds.train),
                test: encoded(model, &ds.test),
            };
            OneNn::fit(&reprs, Metric::Euclidean).evaluate(&reprs.test)
        })
        .collect();
    crate::stats::mean(&accs)
}

/// `split` with every sample replaced by its representation (one variable
/// of length `repr_dim`), encoded from the z-normalized sample.
fn encoded(model: &AimTs, split: &Split) -> Split {
    let prepared: Vec<MultiSeries> = split
        .samples
        .iter()
        .map(|s| {
            let mut v = s.vars.clone();
            z_normalize_sample(&mut v);
            v
        })
        .collect();
    let refs: Vec<&MultiSeries> = prepared.iter().collect();
    let reprs = no_grad(|| model.encode(&refs));
    let j = reprs.shape()[1];
    Split::new(
        reprs
            .to_vec()
            .chunks(j)
            .zip(&split.samples)
            .map(|(r, s)| Sample::new(vec![r.to_vec()], s.label))
            .collect(),
    )
}

/// One epoch's micro-batch schedule exactly as the data-parallel
/// `AimTs::pretrain` draws it: shuffle per M group with one RNG seeded by
/// the run seed, micro-batch seeds from `microbatch_seed`.
fn epoch_schedule(prepared: &[MultiSeries], batch: usize, seed: u64) -> Vec<(u64, Vec<usize>)> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in prepared.iter().enumerate() {
        groups.entry(s.len()).or_default().push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = 0u64;
    let mut out = Vec::new();
    for idxs in groups.values() {
        for b in batch_indices(idxs.len(), batch, &mut rng) {
            out.push((
                microbatch_seed(seed, 0, counter),
                b.iter().map(|&k| idxs[k]).collect(),
            ));
            counter += 1;
        }
    }
    out
}

/// One pre-training micro-batch re-composed from public calls, in the
/// RNG order of the library's step (augment, adaptive temperatures,
/// render, mixup coefficients; then the loss graph), with a span around
/// each layer. Returns the loss and the flat gradient.
fn recomposed_microbatch(
    model: &AimTs,
    samples: &[&MultiSeries],
    rng_seed: u64,
    tr: &Tracer,
    root: SpanId,
    req: u64,
) -> (f32, Vec<f32>) {
    let cfg = &model.cfg;
    let ab = cfg.ablation;
    assert!(
        ab.inter && ab.intra && ab.si_naive && ab.si_mixup,
        "the benchmark re-composes the full objective only"
    );
    let p = Some(root);
    tr.span("model.zero_grad", p, req, || {
        for (_, t) in model.named_parameters() {
            t.zero_grad();
        }
    });
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let (b, g) = (samples.len(), cfg.g());

    // --- inputs (AimTs::step_inputs) ---------------------------------------
    let views = tr.span("augment.views", p, req, || {
        let mut views = [Vec::with_capacity(b), Vec::with_capacity(b)];
        for s in samples {
            for set in &mut views {
                let per_aug: Vec<MultiSeries> = cfg
                    .bank
                    .iter()
                    .map(|aug| aug.apply_multivariate(s, &mut rng))
                    .collect();
                set.push(per_aug);
            }
        }
        views
    });
    let (tau_w, tau_c) = tr.span("losses.adaptive_tau", p, req, || {
        let flat = |v: &MultiSeries| -> Vec<f32> { v.concat() };
        let mut d_within = vec![0f32; b * g * g];
        let mut d_cross = vec![0f32; b * g * g];
        for i in 0..b {
            let f0: Vec<Vec<f32>> = views[0][i].iter().map(flat).collect();
            let f1: Vec<Vec<f32>> = views[1][i].iter().map(flat).collect();
            for j in 0..g {
                for k in 0..g {
                    d_within[(i * g + j) * g + k] = aimts_augment::euclidean(&f0[j], &f0[k]);
                    d_cross[(i * g + j) * g + k] = aimts_augment::euclidean(&f0[j], &f1[k]);
                }
            }
        }
        (
            Tensor::from_vec(
                losses::adaptive_tau(&d_within, b, g, cfg.tau0, true),
                &[b, g, g],
            ),
            Tensor::from_vec(
                losses::adaptive_tau(&d_cross, b, g, cfg.tau0, true),
                &[b, g, g],
            ),
        )
    });
    let (view0, view1) = tr.span("augment.views", p, req, || {
        let stack = |set: &Vec<Vec<MultiSeries>>| {
            let refs: Vec<&MultiSeries> = set.iter().flatten().collect();
            samples_to_tensor(&refs)
        };
        (stack(&views[0]), stack(&views[1]))
    });
    let (img, orig) = tr.span("imaging.render", p, req, || {
        let imgs: Vec<Tensor> = samples
            .iter()
            .map(|s| {
                let img = render_sample(s, &cfg.image);
                Tensor::from_vec(img.data, &[1, 3, img.height, img.width])
            })
            .collect();
        (Tensor::concat(&imgs, 0), samples_to_tensor(samples))
    });
    let lam = tr.span("losses.si", p, req, || {
        Tensor::from_vec(sample_lambdas(b, cfg.gamma, &mut rng), &[b])
    });

    // --- loss graph (AimTs::step_graph) --------------------------------------
    let r = tr.span("encoder.ts_fwd", p, req, || {
        encode_channel_independent(&model.ts_encoder, &view0)
    });
    let rt = tr.span("encoder.ts_fwd", p, req, || {
        encode_channel_independent(&model.ts_encoder, &view1)
    });
    let proto = tr.span("losses.proto", p, req, || {
        let v = model
            .ts_proj
            .forward(&r)
            .l2_normalize(1)
            .reshape(&[b, g, cfg.proj_dim]);
        let vt = model
            .ts_proj
            .forward(&rt)
            .l2_normalize(1)
            .reshape(&[b, g, cfg.proj_dim]);
        let intra = losses::intra_prototype_loss(&v, &vt, &tau_w, &tau_c);
        let rbar = r.reshape(&[b, g, cfg.repr_dim]).mean_axis(1, false);
        let rtbar = rt.reshape(&[b, g, cfg.repr_dim]).mean_axis(1, false);
        let z = model.ts_proj.forward(&rbar).l2_normalize(1);
        let zt = model.ts_proj.forward(&rtbar).l2_normalize(1);
        let inter = losses::inter_prototype_loss(&z, &zt, cfg.tau_inter);
        losses::proto_loss(&inter, &intra, cfg.alpha)
    });
    let img_repr = tr.span("encoder.img_fwd", p, req, || {
        model.image_encoder.encode(&img)
    });
    let u = tr.span("losses.si", p, req, || {
        model.img_proj.forward(&img_repr).l2_normalize(1)
    });
    let r_orig = tr.span("encoder.ts_fwd", p, req, || {
        encode_channel_independent(&model.ts_encoder, &orig)
    });
    let total = tr.span("losses.si", p, req, || {
        let v_si = model.ts_proj.forward(&r_orig).l2_normalize(1);
        let naive = losses::series_image_naive(&u, &v_si, cfg.tau_si);
        let mixed = geodesic_mixup_t(&u, &v_si, &lam);
        let mix = losses::series_image_mixup(&u, &v_si, &mixed, cfg.tau_si);
        let si = losses::series_image_loss(&naive, &mix, cfg.beta);
        proto.add(&si)
    });
    let loss = total.item();
    tr.span("autograd.backward", p, req, || total.backward());
    let grad = tr.span("model.flat_grad", p, req, || model.flat_gradient());
    (loss, grad)
}

/// Dominant conv1d shape of the TS encoder: the hidden-to-hidden block
/// convolution (6 of its 8 convolutions, 16 -> 16 channels, kernel 3) on
/// the M = 4 view batch, rows = B * G * M = 8 * 5 * 4, T = 64. M = 4
/// micro-batches carry the largest share of conv FLOPs in an epoch.
const CONV_ROWS: usize = 160;

/// Forward and backward GFLOP/s of one conv1d at the dominant shape.
/// FLOPs are computed from the shapes: forward 2*N*Cout*Cin*K*T; backward
/// twice that (input and weight gradients).
fn conv1d_gflops(seed: u64, hidden: usize, t_len: usize) -> (f64, f64) {
    let k = 3;
    let x = Tensor::randn(&[CONV_ROWS, hidden, t_len], seed).requires_grad();
    let w = Tensor::randn(&[hidden, hidden, k], seed.wrapping_add(1)).requires_grad();
    let bias = Tensor::zeros(&[hidden]).requires_grad();
    let spec = Conv1dSpec::same(k, 1);
    let flops = 2.0 * (CONV_ROWS * hidden * hidden * k * t_len) as f64;
    let seed_grad = vec![1f32; CONV_ROWS * hidden * t_len];
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for rep in 0..25 {
        let t = Instant::now();
        let y = black_box(x.conv1d(&w, Some(&bias), spec));
        let f = t.elapsed().as_secs_f64();
        let t = Instant::now();
        y.backward_with(&seed_grad);
        let bk = t.elapsed().as_secs_f64();
        for p in [&x, &w, &bias] {
            p.zero_grad();
        }
        if rep >= 5 {
            fwd.push(flops / f / 1e9);
            bwd.push(2.0 * flops / bk / 1e9);
        }
    }
    (median(&fwd), median(&bwd))
}

/// What a worker reports for one data-parallel task.
struct TaskOut {
    grad: MicroGrad,
    busy_ns: u64,
    arena_hits: u64,
    arena_misses: u64,
}

/// Traced pass: (1) every micro-batch of one epoch, re-composed from
/// public calls and checked bit for bit against `microbatch_gradient`,
/// alternating with the untraced call to measure tracing overhead; (2) one
/// data-parallel epoch re-composed from `with_worker_pool`, the guarded
/// all-reduce and Adam, checked bit for bit against `AimTs::pretrain`;
/// (3) conv1d throughput at the encoder's dominant shape.
pub fn traced(seed: u64, tr: &Tracer, report: &mut Report) {
    let cfg = model_config();
    let pcfg = pretrain_config(seed);
    let pool = setup::pool(seed);
    let prepared: Vec<MultiSeries> = pool.iter().map(|s| setup::prepare(&cfg, s)).collect();
    let schedule = epoch_schedule(&prepared, pcfg.batch_size, seed);

    // (1) micro-batches ---------------------------------------------------
    let model = AimTs::new(cfg.clone(), seed);
    let _arena = arena::enable();
    for (mseed, idx) in schedule.iter().take(2) {
        let samples: Vec<&MultiSeries> = idx.iter().map(|&i| &prepared[i]).collect();
        black_box(model.microbatch_gradient(&samples, *mseed));
    }
    let mut untraced_ns = 0u64;
    let mut traced_ns = 0u64;
    let mut n_samples = 0usize;
    let mut by_m: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut exact = true;
    for (i, (mseed, idx)) in schedule.iter().enumerate() {
        let samples: Vec<&MultiSeries> = idx.iter().map(|&k| &prepared[k]).collect();
        let run_untraced = || {
            let t = Instant::now();
            let mg = model.microbatch_gradient(&samples, *mseed);
            (mg, t.elapsed().as_nanos() as u64)
        };
        let run_traced = || {
            let root = tr.open("model.microbatch", None, i as u64);
            let out = recomposed_microbatch(&model, &samples, *mseed, tr, root, i as u64);
            (out, tr.close(root))
        };
        let ((mg, u_ns), ((loss, grad), t_ns)) = if i % 2 == 0 {
            let a = run_untraced();
            (a, run_traced())
        } else {
            let b = run_traced();
            (run_untraced(), b)
        };
        exact &= mg.loss.to_bits() == loss.to_bits()
            && mg.gradient.len() == grad.len()
            && mg
                .gradient
                .iter()
                .zip(&grad)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        untraced_ns += u_ns;
        traced_ns += t_ns;
        n_samples += samples.len();
        by_m.entry(samples[0].len())
            .or_default()
            .push(u_ns as f64 / 1e6);
    }
    let n_mb = schedule.len() as f64;
    report.check(
        "pretrain.recomposed_microbatch_matches_microbatch_gradient_bitwise",
        exact,
        format!(
            "{} micro-batches, loss and flat gradient compared bit for bit",
            schedule.len()
        ),
    );
    let agg = tr.aggregate_under("model.microbatch");
    let per_mb = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ns as f64 / n_mb / 1e6);
    let layers = [
        ("augment.views", "pretrain.augment.views_ms"),
        ("losses.adaptive_tau", "pretrain.losses.adaptive_tau_ms"),
        ("imaging.render", "pretrain.imaging.render_ms"),
        ("encoder.ts_fwd", "pretrain.encoder.ts_fwd_ms"),
        ("encoder.img_fwd", "pretrain.encoder.img_fwd_ms"),
        ("losses.proto", "pretrain.losses.proto_ms"),
        ("losses.si", "pretrain.losses.si_ms"),
        ("autograd.backward", "pretrain.autograd.backward_ms"),
        ("model.zero_grad", "pretrain.model.zero_grad_ms"),
        ("model.flat_grad", "pretrain.model.flat_grad_ms"),
    ];
    let mut layer_sum = 0.0;
    for (span, metric) in layers {
        let v = per_mb(span);
        layer_sum += v;
        report.metric(metric, v, "ms");
    }
    let untraced_ms = untraced_ns as f64 / n_mb / 1e6;
    let traced_ms = traced_ns as f64 / n_mb / 1e6;
    let overhead_ms = traced_ms - untraced_ms;
    report.metric("pretrain.model.microbatch_ms_mean", untraced_ms, "ms");
    report.metric("pretrain.trace.layer_self_sum_ms", layer_sum, "ms");
    report.metric(
        "pretrain.trace.unattributed_ms",
        per_mb("model.microbatch"),
        "ms",
    );
    report.metric("pretrain.trace.overhead_ms", overhead_ms, "ms");
    let rate = |ns: u64| n_samples as f64 / (ns as f64 / 1e9);
    report.metric(
        "pretrain.trace.overhead_samples_per_s",
        rate(untraced_ns) - rate(traced_ns),
        "1/s",
    );
    let tolerance = overhead_ms.abs() + 0.03 * untraced_ms;
    report.check(
        "pretrain.layer_self_times_sum_to_microbatch_time",
        (layer_sum - untraced_ms).abs() <= tolerance,
        format!(
            "layer self sum {layer_sum:.3} ms vs untraced micro-batch {untraced_ms:.3} ms; \
             allowed |diff| <= |tracing overhead| {:.3} ms + 3%",
            overhead_ms.abs()
        ),
    );
    for (m, xs) in &by_m {
        report.metric(
            &format!("pretrain.model.microbatch_ms_p50.m{m}"),
            median(xs),
            "ms",
        );
        report.metric(
            &format!("pretrain.model.microbatch_ms_p99.m{m}"),
            percentile(xs, 99.0),
            "ms",
        );
        report.note(format!(
            "pretrain: {} untraced micro-batches with M = {m}",
            xs.len()
        ));
    }

    // (2) one data-parallel epoch -------------------------------------------
    let mut reference = AimTs::new(cfg.clone(), seed);
    let ref_report = reference
        .pretrain(&pool, &pcfg)
        .expect("reference pre-training failed");
    let master = AimTs::new(cfg.clone(), seed);
    let replicas: Vec<AimTs> = (0..WORKERS).map(|_| master.replicate()).collect();
    let params: Vec<Tensor> = master
        .named_parameters()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let mut opt = Adam::new(params.clone(), pcfg.lr);
    type Task = (u64, Vec<usize>, Arc<Vec<f32>>, u64);
    let (losses, busy_ns, hits, misses) = with_worker_pool(
        WORKERS,
        |slot, (mseed, idx, weights, req): Task| {
            let start = tr.now_ns();
            let before = arena::stats();
            let replica = &replicas[slot];
            replica.load_flat(&weights);
            let samples: Vec<&MultiSeries> = idx.iter().map(|&i| &prepared[i]).collect();
            let grad = replica.microbatch_gradient_ex(&samples, mseed, Executor::Eager, WORKERS);
            let after = arena::stats();
            let end = tr.now_ns();
            tr.record("parallel.task", start, end, None, req);
            TaskOut {
                grad,
                busy_ns: end - start,
                arena_hits: after.hits - before.hits,
                arena_misses: after.misses - before.misses,
            }
        },
        |pool| {
            let (mut losses, mut busy, mut hits, mut misses) = (Vec::new(), 0u64, 0u64, 0u64);
            for (r, round) in schedule.chunks(WORKERS).enumerate() {
                let req = r as u64;
                let root = tr.open("parallel.round", None, req);
                let weights = tr.span("model.flat_params", Some(root), req, || {
                    Arc::new(master.flat_parameters())
                });
                let tasks: Vec<Task> = round
                    .iter()
                    .map(|(s, idx)| (*s, idx.clone(), Arc::clone(&weights), req))
                    .collect();
                let results = tr.span("parallel.run_round", Some(root), req, || {
                    pool.run_round(tasks)
                });
                let mut grads = Vec::new();
                for out in results {
                    let out = out.expect("benchmark worker panicked");
                    busy += out.busy_ns;
                    hits += out.arena_hits;
                    misses += out.arena_misses;
                    losses.push(out.grad.loss as f64);
                    grads.push(out.grad.gradient);
                }
                let mean = tr.span("parallel.all_reduce", Some(root), req, || {
                    all_reduce_mean_guarded(&grads)
                        .expect("clean gradients are finite")
                        .0
                });
                tr.span("optim.adam", Some(root), req, || {
                    opt.zero_grad();
                    master.accumulate_flat_gradient(&mean);
                    let (norm, _) = guard_and_clip(&params, None);
                    assert!(norm.is_finite(), "non-finite gradient norm in a clean run");
                    opt.step();
                });
                tr.close(root);
            }
            (losses, busy, hits, misses)
        },
    );
    let epoch_loss = Summary::of(&losses).mean as f32;
    let same_weights = param_bits(&master) == param_bits(&reference);
    report.check(
        "pretrain.recomposed_parallel_epoch_matches_pretrain_bitwise",
        epoch_loss.to_bits() == ref_report.final_loss.to_bits() && same_weights,
        format!(
            "epoch loss {epoch_loss} vs {}; weights identical: {same_weights}",
            ref_report.final_loss
        ),
    );
    let ragg = tr.aggregate_under("parallel.round");
    let rounds = ragg.get("parallel.round").map_or(1, |a| a.count.max(1)) as f64;
    let mean_total = |name: &str| {
        ragg.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / rounds / 1e6)
    };
    let run_round_ns = ragg
        .get("parallel.run_round")
        .map_or(1, |a| a.total_ns.max(1));
    report.metric(
        "pretrain.parallel.round_ms",
        mean_total("parallel.round"),
        "ms",
    );
    report.metric(
        "pretrain.parallel.idle_share",
        1.0 - busy_ns as f64 / (WORKERS as f64 * run_round_ns as f64),
        "fraction",
    );
    report.metric(
        "pretrain.parallel.all_reduce_ms",
        mean_total("parallel.all_reduce"),
        "ms",
    );
    report.metric("pretrain.optim.adam_ms", mean_total("optim.adam"), "ms");
    report.metric(
        "pretrain.arena.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );

    // (3) conv1d kernel throughput -----------------------------------------
    let (fwd, bwd) = conv1d_gflops(seed, cfg.hidden, cfg.pretrain_len);
    report.metric("pretrain.ops.conv1d_fwd_gflops", fwd, "GFLOP/s");
    report.metric("pretrain.ops.conv1d_bwd_gflops", bwd, "GFLOP/s");
    report.note(format!(
        "pretrain: conv1d GFLOP/s at [{CONV_ROWS}, {h}, {t}] x [{h}, {h}, 3]; FLOPs are \
         computed from the shapes (forward 2*N*Cout*Cin*K*T, backward twice that)",
        h = cfg.hidden,
        t = cfg.pretrain_len
    ));
}
