//! The three workloads, each with an end-to-end (untraced) run and a
//! traced per-layer run.

use crate::models::{request_input, Model};
use crate::probe::{kernel_probe, OwnKeys, TimedBackend};
use crate::report::Report;
use crate::service::{
    build_session, factory, open_loop, tenant_weights, timed_factory, Outcome, ServeProbe,
    TimedService,
};
use crate::stats::{
    argmax, jittered_schedule, max_abs_diff, median, peak_rss_mb, poisson_schedule, tail,
    TAIL_BEYOND,
};
use crate::trace::{self_ms_by_name, Tracer};
use crate::Args;
use smartpaf::{serve_sessions_packed, CompiledSession};
use smartpaf_ckks::{par, CkksParams};
use smartpaf_heinfer::{ServeConfig, ServeStats, Server, TenantId, TraceReport};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest |served − infer_plain| accepted as a correct answer. CKKS
/// at a 2^40 scale with refreshes measures a few 1e-3 on these models.
pub const CKKS_TOLERANCE: f64 = 5e-2;
/// Seeded inputs the top-1 agreement of the served pipelines is
/// measured on, spread evenly over the tenants served.
const ACCURACY_INPUTS: usize = 2048;

/// `cnn_seq`: the tenant whose weights the closed-loop client uses.
const CNN_TENANT: TenantId = 7;
/// `cnn_seq`: set-ups per run (the median is reported).
const CNN_SETUPS: usize = 3;
/// `cnn_seq`: fewest requests a run measures (the tail needs > 10).
const CNN_MIN_REQUESTS: usize = 12;
/// `cnn_seq`: latency limit of `slo_ok_frac`.
const CNN_SLO_MS: f64 = 4000.0;

/// `serve_packed`: interleaved tenants.
const PACKED_TENANTS: u64 = 2;
/// `serve_packed`: offered rate, requests per second.
const PACKED_RATE: f64 = 8.0;
/// `serve_packed`: latency limit of `slo_ok_frac`.
const PACKED_SLO_MS: f64 = 3000.0;
/// `serve_packed`: same-tenant batch sizes sent while warming, one
/// per lane layout the timed phase can use.
const PACKED_WARM: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// `tenant_churn`: offered rate, requests per second.
const CHURN_RATE: f64 = 0.75;
/// `tenant_churn`: arrival jitter. Gaps stay within 0.7–1.3 of the
/// mean 1.33 s, longer than a cold request (~0.9 s), so the workload
/// measures the set-up path rather than queueing behind it.
const CHURN_JITTER: f64 = 0.3;
/// `tenant_churn`: latency limit of `slo_ok_frac`.
const CHURN_SLO_MS: f64 = 3000.0;
/// `tenant_churn`: cold tenants served one at a time during set-up.
const CHURN_SETUPS: usize = 3;

/// Fewest requests a traced run pushes through the timed backend (the
/// first one builds the lazy keys; the rest are profiled warm).
const PROFILE_REQUESTS: usize = 3;
/// Calls per kernel in the CKKS probe.
const KERNEL_REPS: usize = 5;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_batch: 2,
        batch_deadline: Duration::from_millis(5),
        pack_lanes: true,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Checks answers: against `infer_plain` of the served pipeline within
/// [`CKKS_TOLERANCE`], and argmax against the exact-activation model.
struct Checker {
    model: Model,
    /// Per tenant: its plan (re-planned deterministically, no key
    /// generation), whose pipeline is the served one, and the exact
    /// model.
    refs: HashMap<TenantId, (smartpaf::Plan, crate::models::ExactModel)>,
    max_err: f64,
    /// Answers `max_err` covers, in check order: a closed loop covers a
    /// fixed prefix so the figure repeats exactly for a seed.
    err_window: usize,
    /// Largest |served| entry (the scale `max_err` compares against).
    max_out: f64,
    agree: usize,
    checked: usize,
    /// Largest |infer_plain − exact| over the accuracy inputs.
    paf_dev: f64,
}

impl Checker {
    fn new(model: Model, err_window: usize) -> Self {
        Checker {
            model,
            refs: HashMap::new(),
            max_err: 0.0,
            err_window,
            max_out: 0.0,
            agree: 0,
            checked: 0,
            paf_dev: 0.0,
        }
    }

    /// Plans the tenant's reference unless it exists already.
    fn prepare(&mut self, tenant: TenantId) -> Result<(), String> {
        if !self.refs.contains_key(&tenant) {
            let w = tenant_weights(tenant);
            let plan = self.model.builder(w).plan().map_err(err)?;
            self.refs.insert(tenant, (plan, self.model.exact(w)));
        }
        Ok(())
    }

    /// True when the answer is right; records accuracy either way.
    fn check(&mut self, tenant: TenantId, x: &[f64], served: &[f64]) -> Result<bool, String> {
        self.prepare(tenant)?;
        let (reference, exact) = self.refs.get_mut(&tenant).expect("inserted above");
        let plain = reference.pipeline().eval_plain(x);
        let exact_out = exact.forward(x);
        self.checked += 1;
        if served.len() != plain.len() || served.iter().any(|v| !v.is_finite()) {
            self.max_err = f64::INFINITY;
            return Ok(false);
        }
        let e = max_abs_diff(served, &plain);
        if self.checked <= self.err_window {
            self.max_err = self.max_err.max(e);
        }
        self.max_out = served.iter().fold(self.max_out, |m, v| m.max(v.abs()));
        if argmax(served) == argmax(&exact_out) {
            self.agree += 1;
        }
        Ok(e <= CKKS_TOLERANCE)
    }

    /// Share of served answers whose argmax matches the exact model.
    fn served_agree_frac(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.agree as f64 / self.checked as f64
        }
    }

    /// Top-1 agreement of the served pipelines (`infer_plain`, which
    /// every served answer matched within tolerance) with the exact
    /// model, on [`ACCURACY_INPUTS`] inputs drawn from `seed` and split
    /// evenly over the tenants checked.
    fn pipeline_agree_frac(&mut self, seed: u64) -> f64 {
        let per = ACCURACY_INPUTS.div_ceil(self.refs.len().max(1));
        let len = self.model.input_len();
        let (mut agree, mut total) = (0usize, 0usize);
        let mut dev = 0.0f64;
        let mut tenants: Vec<_> = self.refs.keys().copied().collect();
        tenants.sort_unstable();
        for t in tenants {
            let (plan, exact) = self.refs.get_mut(&t).expect("listed above");
            for i in 0..per {
                let x = request_input(seed ^ 0xacc0, (t << 20) ^ i as u64, len);
                let y = plan.pipeline().eval_plain(&x);
                let e = exact.forward(&x);
                dev = dev.max(max_abs_diff(&y, &e));
                agree += usize::from(argmax(&y) == argmax(&e));
                total += 1;
            }
        }
        self.paf_dev = dev;
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }
}

/// Fills the end-to-end metrics every workload reports.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    r: &mut Report,
    latencies_ms: &mut [f64],
    setup_s: &[f64],
    throughput_rps: f64,
    slo_ok: usize,
    checker: &mut Checker,
    slo_ms: f64,
    seed: u64,
) {
    latencies_ms.sort_by(f64::total_cmp);
    let t = if latencies_ms.is_empty() {
        None
    } else {
        Some(tail(latencies_ms, TAIL_BEYOND))
    };
    let attempted = r.attempted.max(1) as f64;
    r.metric("setup_s", median(setup_s), "s");
    r.metric(
        "latency_p50_ms",
        if latencies_ms.is_empty() {
            f64::NAN
        } else {
            crate::stats::percentile(latencies_ms, 50.0)
        },
        "ms",
    );
    r.metric("latency_tail_ms", t.map_or(f64::NAN, |t| t.value), "ms");
    r.metric("throughput_rps", throughput_rps, "1/s");
    r.metric("slo_ok_frac", slo_ok as f64 / attempted, "frac");
    r.metric("top1_agree_frac", checker.pipeline_agree_frac(seed), "frac");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.meta_num("max_abs_err", checker.max_err);
    r.meta_num("samples", latencies_ms.len() as f64);
    r.meta_num("tail_percentile", t.map_or(f64::NAN, |t| t.percentile));
    r.meta_num("error_frac", r.failed as f64 / attempted);
    r.meta_num("slo_ms", slo_ms);
    r.meta_num("ckks_tolerance", CKKS_TOLERANCE);
    r.meta_num("served_top1_agree_frac", checker.served_agree_frac());
    r.meta_num("accuracy_inputs", ACCURACY_INPUTS as f64);
    r.meta_num("max_abs_out", checker.max_out);
    r.meta_num("paf_max_abs_dev", checker.paf_dev);
    r.meta_num("setups", setup_s.len() as f64);
    r.correct = r.failed == 0 && r.correct;
}

fn params_meta(r: &mut Report, threads: usize, label: &str) {
    let p = CkksParams::default_params();
    r.meta_num("nproc", nproc() as f64);
    r.meta_num("thread_budget", threads as f64);
    r.meta_num("ring_n", p.n as f64);
    r.meta_num("depth", p.depth as f64);
    r.meta_num("ks_digit_limbs", p.ks_digit_limbs as f64);
    r.meta_str("plan", label);
}

// ---------------------------------------------------------------- cnn_seq

/// `cnn_seq`, closed loop with one client.
pub fn cnn_seq(args: &Args) -> Result<Report, String> {
    let threads = nproc();
    par::with_thread_budget(threads, || {
        if args.trace {
            cnn_seq_traced(args, threads)
        } else {
            cnn_seq_e2e(args, threads)
        }
    })
}

/// Plans, compiles and warms one session; returns it with its set-up
/// time in seconds.
fn cnn_setup(seed: u64) -> Result<(CompiledSession, f64), String> {
    let t = Instant::now();
    let (mut s, _) = build_session(Model::ConvPoolHead, CNN_TENANT, 1).map_err(err)?;
    // Galois keys are built lazily: the first request builds them.
    s.infer(&request_input(seed ^ 0x5e7u64, 0, 64))
        .map_err(err)?;
    Ok((s, t.elapsed().as_secs_f64()))
}

fn cnn_seq_e2e(args: &Args, threads: usize) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..CNN_SETUPS {
        let (s, secs) = cnn_setup(args.seed)?;
        setups.push(secs);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    params_meta(&mut r, threads, &session.chosen_label());
    let mut checker = Checker::new(Model::ConvPoolHead, CNN_MIN_REQUESTS);
    checker.prepare(CNN_TENANT)?;
    let mut latencies = Vec::new();
    let mut slo_ok = 0;
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || (i as usize) < CNN_MIN_REQUESTS {
        let x = request_input(args.seed, i, 64);
        i += 1;
        r.attempted += 1;
        let t = Instant::now();
        let out = session.infer(&x);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(y) if checker.check(CNN_TENANT, &x, &y)? => {
                latencies.push(ms);
                if ms <= CNN_SLO_MS {
                    slo_ok += 1;
                }
            }
            _ => r.failed += 1,
        }
    }
    let throughput = latencies.len() as f64 / start.elapsed().as_secs_f64();
    end_to_end(
        &mut r,
        &mut latencies,
        &setups,
        throughput,
        slo_ok,
        &mut checker,
        CNN_SLO_MS,
        args.seed,
    );
    r.meta_num("offered_rate_rps", 0.0);
    Ok(r)
}

/// What a traced pass of requests through [`TimedBackend`] measured.
#[derive(Default)]
struct StageProfile {
    /// Per warm request: self ms per stage kind.
    affine_ms: Vec<f64>,
    relu_ms: Vec<f64>,
    max_ms: Vec<f64>,
    /// Per warm request: interpreter time outside the stage calls.
    unattributed_ms: Vec<f64>,
    /// Per warm request: whole request (encrypt → decrypt).
    request_ms: Vec<f64>,
    /// First request (lazy Galois keys).
    cold_ms: f64,
    galois_keys: usize,
    ct_mults: usize,
    rotations: usize,
    stage_levels: usize,
    stage_bootstraps: usize,
    keygen_ms: f64,
    pool_reuse_frac: f64,
    /// Every per-stage count matched the dry run.
    counts_match: bool,
    mismatch: Option<String>,
    requests: usize,
    failed: usize,
}

/// Runs requests through `session.pipeline().run(..)` on a key chain
/// of the benchmark's own, until `until` says stop, comparing every
/// stage's levels, bootstraps and rotations against `dry_run()` and
/// every answer against the checker.
fn stage_profile(
    session: &CompiledSession,
    tenant: TenantId,
    seed: u64,
    tracer: &Tracer,
    checker: &mut Checker,
    mut until: impl FnMut(usize) -> bool,
) -> Result<StageProfile, String> {
    let pipe = session.pipeline();
    let (dry, _): (TraceReport, _) = session.dry_run().map_err(err)?;
    let mut own = OwnKeys::new(&CkksParams::default_params(), pipe.dim(), seed ^ 0x0e1);
    let mut p = StageProfile {
        keygen_ms: own.keygen.as_secs_f64() * 1e3,
        ct_mults: dry.total_ct_mults(),
        rotations: dry.total_rotations(),
        stage_levels: dry.total_levels(),
        stage_bootstraps: dry.total_bootstraps(),
        counts_match: true,
        ..StageProfile::default()
    };
    checker.prepare(tenant)?;
    let ev = own.pe.evaluator().clone();
    let mut i = 0usize;
    while !until(i) {
        if i == 1 {
            par::reset_aggregated_pool_stats();
        }
        let req = i as u64;
        let x = request_input(seed ^ 0x7ace, req, pipe.input_dim());
        let root = tracer.open("request", None, Some(req));
        let t0 = Instant::now();
        let ct = tracer.scope("ckks.encrypt", Some(root), Some(req), |_| {
            ev.encrypt_replicated(&pipe.pad_input(&x), &mut own.rng)
        });
        let run_span = tracer.open("heinfer.run", Some(root), Some(req));
        let mut backend = TimedBackend::new(&own.pe, Some(&own.bootstrapper));
        let run = pipe.run(&mut backend, ct);
        tracer.close(run_span);
        for c in &backend.calls {
            tracer.record(
                &format!("heinfer.{}", c.kind),
                Some(run_span),
                Some(req),
                c.start,
                c.end,
            );
        }
        let out = match run {
            Ok((out_ct, stats)) => {
                let y = tracer.scope("ckks.decrypt", Some(root), Some(req), |_| {
                    ev.decrypt_values(&out_ct, pipe.output_dim())
                });
                for (k, s) in dry.stages.iter().enumerate() {
                    let got = (
                        stats.stage_levels.get(k).copied(),
                        backend.calls.get(k).map(|c| c.bootstraps),
                        backend.calls.get(k).map(|c| c.rotations),
                    );
                    if got != (Some(s.levels), Some(s.bootstraps), Some(s.rotations)) {
                        p.counts_match = false;
                        p.mismatch = Some(format!(
                            "stage {} ({}): measured levels/bootstraps/rotations {:?}, dry run {:?}",
                            k,
                            s.label,
                            got,
                            (s.levels, s.bootstraps, s.rotations)
                        ));
                    }
                }
                Some(y)
            }
            Err(_) => None,
        };
        tracer.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        p.requests += 1;
        match out {
            Some(y) if checker.check(tenant, &x, &y)? => {}
            _ => p.failed += 1,
        }
        if i == 0 {
            p.cold_ms = ms;
            p.galois_keys = backend.galois_keys.len();
        } else {
            let by_kind = |kind: &str| -> f64 {
                backend
                    .calls
                    .iter()
                    .filter(|c| c.kind == kind)
                    .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
                    .fold(0.0, |a, b| a + b)
            };
            let spans = tracer.spans();
            let run_self = crate::trace::self_times_ns(&spans)[run_span] as f64 / 1e6;
            p.affine_ms.push(by_kind("affine"));
            p.relu_ms.push(by_kind("paf_relu"));
            p.max_ms.push(by_kind("paf_max"));
            p.unattributed_ms.push(run_self);
            p.request_ms.push(ms);
        }
        i += 1;
    }
    let pool = par::aggregated_pool_stats();
    let uses = pool.reuses + pool.fresh_allocs;
    p.pool_reuse_frac = if uses == 0 {
        0.0
    } else {
        pool.reuses as f64 / uses as f64
    };
    Ok(p)
}

/// Adds the stage profile and the CKKS kernel probe to a traced report.
fn profile_metrics(r: &mut Report, p: &StageProfile, priced_ms: f64, tracer: &Tracer) {
    let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    r.metric("heinfer.affine_ms", m(&p.affine_ms), "ms");
    r.metric("heinfer.paf_relu_ms", m(&p.relu_ms), "ms");
    r.metric("heinfer.paf_max_ms", m(&p.max_ms), "ms");
    r.metric("heinfer.unattributed_ms", m(&p.unattributed_ms), "ms");
    r.metric("heinfer.stage_levels", p.stage_levels as f64, "count");
    r.metric(
        "heinfer.stage_bootstraps",
        p.stage_bootstraps as f64,
        "count",
    );
    r.metric("heinfer.ct_mults", p.ct_mults as f64, "count");
    r.metric("heinfer.rotations", p.rotations as f64, "count");
    r.metric("smartpaf.priced_ms", priced_ms, "ms");
    r.metric(
        "smartpaf.price_ratio",
        m(&p.request_ms) / priced_ms,
        "ratio",
    );
    let mut own = OwnKeys::new(&CkksParams::default_params(), 64, 0x6e7);
    let t = tracer.scope("ckks.kernel_probe", None, None, |_| {
        kernel_probe(&mut own, 64, 10, KERNEL_REPS)
    });
    r.metric("ckks.mul_relin_ms", t.mul_relin_ms, "ms");
    r.metric("ckks.rescale_ms", t.rescale_ms, "ms");
    r.metric("ckks.rotate_ms", t.rotate_ms, "ms");
    r.metric("ckks.refresh_ms", t.refresh_ms, "ms");
    r.metric("ckks.encrypt_ms", t.encrypt_ms, "ms");
    r.metric("ckks.decrypt_ms", t.decrypt_ms, "ms");
    r.metric("ckks.pool_reuse_frac", p.pool_reuse_frac, "frac");
    r.metric("ckks.keygen_ms", p.keygen_ms, "ms");
    r.metric("ckks.galois_keygen_ms", t.galois_keygen_ms, "ms");
    r.metric("ckks.galois_keys", p.galois_keys as f64, "count");
    r.meta_num("profile_requests", p.requests as f64);
    r.meta_num("profile_cold_request_ms", p.cold_ms);
    r.meta_str(
        "stage_counts_vs_dry_run",
        p.mismatch.as_deref().unwrap_or("match"),
    );
    r.attempted += p.requests;
    r.failed += p.failed;
    r.correct = r.correct && p.counts_match && p.failed == 0;
}

/// Serving metrics; zero on a workload without the serving layer.
#[derive(Default)]
struct ServeLayer {
    queue_wait_ms: f64,
    service_ms: f64,
    busy_frac: f64,
    mean_fill: f64,
    max_queue_depth: f64,
    rejected: f64,
    mean_slot_fill: f64,
    slot_batches: f64,
    cache_hits: f64,
    cache_misses: f64,
    plan_ms: f64,
    dry_runs: f64,
    compile_ms: f64,
    sent: f64,
    late_max_ms: f64,
}

fn serve_metrics(r: &mut Report, s: &ServeLayer, overhead_frac: f64) {
    r.metric("smartpaf.plan_ms", s.plan_ms, "ms");
    r.metric("smartpaf.dry_runs", s.dry_runs, "count");
    r.metric("smartpaf.compile_ms", s.compile_ms, "ms");
    r.metric("smartpaf.cache_hits", s.cache_hits, "count");
    r.metric("smartpaf.cache_misses", s.cache_misses, "count");
    r.metric("heinfer.serve.queue_wait_ms", s.queue_wait_ms, "ms");
    r.metric("heinfer.serve.service_ms", s.service_ms, "ms");
    r.metric("heinfer.serve.busy_frac", s.busy_frac, "frac");
    r.metric("heinfer.serve.mean_fill", s.mean_fill, "count");
    r.metric("heinfer.serve.max_queue_depth", s.max_queue_depth, "count");
    r.metric("heinfer.serve.rejected", s.rejected, "count");
    r.metric("heinfer.pack.mean_slot_fill", s.mean_slot_fill, "count");
    r.metric("heinfer.pack.slot_batches", s.slot_batches, "count");
    r.metric("loadgen.sent", s.sent, "count");
    r.metric("loadgen.late_max_ms", s.late_max_ms, "ms");
    r.metric("trace.overhead_frac", overhead_frac, "frac");
}

fn cnn_seq_traced(args: &Args, threads: usize) -> Result<Report, String> {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let plan = tracer.scope("smartpaf.plan", None, None, |_| {
        Model::ConvPoolHead
            .builder(tenant_weights(CNN_TENANT))
            .plan()
    });
    let plan = plan.map_err(err)?;
    let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let priced_ms = plan.chosen().priced_ms;
    let dry_runs = plan.dry_runs_used();
    let t1 = Instant::now();
    let session = tracer
        .scope("smartpaf.compile", None, None, |_| plan.compile())
        .map_err(err)?;
    let compile_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    params_meta(&mut r, threads, &session.chosen_label());
    let mut checker = Checker::new(Model::ConvPoolHead, CNN_MIN_REQUESTS);
    let start = Instant::now();
    let secs = args.seconds;
    let p = stage_profile(
        &session,
        CNN_TENANT,
        args.seed,
        &tracer,
        &mut checker,
        |i| start.elapsed().as_secs_f64() >= secs && i >= PROFILE_REQUESTS,
    )?;
    let overhead = tracer.cost().as_secs_f64() / start.elapsed().as_secs_f64();
    profile_metrics(&mut r, &p, priced_ms, &tracer);
    let layer = ServeLayer {
        plan_ms,
        compile_ms,
        dry_runs: dry_runs as f64,
        sent: p.requests as f64,
        ..ServeLayer::default()
    };
    serve_metrics(&mut r, &layer, overhead);
    finish_trace(&mut r, &tracer, args)?;
    Ok(r)
}

/// Writes the spans and adds the per-layer self-time summary to the
/// meta line.
fn finish_trace(r: &mut Report, tracer: &Tracer, args: &Args) -> Result<(), String> {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    tracer.write_json(&path).map_err(err)?;
    for (name, ms) in self_ms_by_name(&tracer.spans()) {
        r.meta_num(&format!("self_ms.{name}"), ms);
    }
    r.meta_str("trace_file", &path.to_string_lossy());
    Ok(())
}

// ---------------------------------------------------------- serving runs

/// What the serving workloads share.
struct ServingSpec {
    model: Model,
    rate: f64,
    /// Due offsets in seconds from the start of timing.
    schedule: Vec<f64>,
    slo_ms: f64,
    /// Tenant and input of request `i`.
    request: Box<dyn Fn(u64) -> (TenantId, Vec<f64>) + Sync>,
}

fn serve_packed_spec(args: &Args) -> ServingSpec {
    let seed = args.seed;
    ServingSpec {
        model: Model::Mlp,
        rate: PACKED_RATE,
        schedule: poisson_schedule(seed, PACKED_RATE, args.seconds),
        slo_ms: PACKED_SLO_MS,
        request: Box::new(move |i| (i % PACKED_TENANTS, request_input(seed, i, 8))),
    }
}

fn churn_spec(args: &Args) -> ServingSpec {
    let seed = args.seed;
    // One new tenant per request, far from the set-up tenants. The
    // tenant population is the same for every seed (cold-build cost
    // differs from tenant to tenant); the seed draws inputs and arrivals.
    let base = 1_000_000;
    ServingSpec {
        model: Model::Mlp,
        rate: CHURN_RATE,
        schedule: jittered_schedule(seed, CHURN_RATE, args.seconds, CHURN_JITTER),
        slo_ms: CHURN_SLO_MS,
        request: Box::new(move |i| (base + i, request_input(seed, i, 8))),
    }
}

/// Warms `serve_packed`'s tenants through the server: one staged
/// same-tenant burst per lane layout. Returns set-up seconds per tenant.
fn warm_packed<S>(server: &Server<S>, seed: u64) -> Result<Vec<f64>, String>
where
    S: smartpaf_heinfer::BatchService + 'static,
    S::Error: std::fmt::Display,
{
    let mut per_tenant = Vec::new();
    for tenant in 0..PACKED_TENANTS {
        let t = Instant::now();
        for (b, &k) in PACKED_WARM.iter().enumerate() {
            server.pause();
            let tickets: Vec<_> = (0..k)
                .map(|j| {
                    let x = request_input(seed ^ 0x3a7, (b * 100 + j) as u64, 8);
                    server.submit(tenant, x).map_err(err)
                })
                .collect::<Result<_, _>>()?;
            server.resume();
            for t in tickets {
                t.wait().map_err(err)?;
            }
        }
        per_tenant.push(t.elapsed().as_secs_f64());
    }
    Ok(per_tenant)
}

/// Serves `CHURN_SETUPS` cold tenants one at a time; returns seconds
/// from submit to answer for each.
fn warm_churn<S>(server: &Server<S>, seed: u64) -> Result<Vec<f64>, String>
where
    S: smartpaf_heinfer::BatchService + 'static,
    S::Error: std::fmt::Display,
{
    (0..CHURN_SETUPS as u64)
        .map(|k| {
            let t = Instant::now();
            let x = request_input(seed ^ 0x3a7, k, 8);
            server
                .submit(900_000 + k, x)
                .map_err(err)?
                .wait()
                .map_err(err)?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Scores open-loop outcomes into the report.
fn score(
    r: &mut Report,
    spec: &ServingSpec,
    outcomes: &[Outcome],
    start: Instant,
    window: f64,
    checker: &mut Checker,
) -> Result<(Vec<f64>, usize, f64), String> {
    let mut latencies = Vec::new();
    let mut slo_ok = 0;
    let mut last = start;
    for o in outcomes {
        r.attempted += 1;
        let (tenant, x) = (spec.request)(o.index);
        match (&o.answer, o.latency_ms) {
            (Ok(y), Some(ms)) if checker.check(tenant, &x, y)? => {
                latencies.push(ms);
                if ms <= spec.slo_ms {
                    slo_ok += 1;
                }
            }
            _ => r.failed += 1,
        }
        if let Some(a) = o.answered {
            last = last.max(a);
        }
    }
    // Answers per second over the measurement window, or until the
    // last answer when a backlog outlived the window.
    let wall = (last - start).as_secs_f64().max(window);
    let thr = latencies.len() as f64 / wall;
    Ok((latencies, slo_ok, thr))
}

fn serving_e2e(args: &Args, spec: ServingSpec, packed: bool) -> Result<Report, String> {
    let threads = nproc();
    let server = serve_sessions_packed(factory(spec.model, threads), serve_config());
    let setups = if packed {
        warm_packed(&server, args.seed)?
    } else {
        warm_churn(&server, args.seed)?
    };
    let (outcomes, start) = open_loop(&server, &spec.schedule, &spec.request, |_, _, _| {});
    let stats = server.shutdown();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let mut checker = Checker::new(spec.model, usize::MAX);
    let (mut lat, slo_ok, thr) =
        score(&mut r, &spec, &outcomes, start, args.seconds, &mut checker)?;
    let label = spec
        .model
        .builder(tenant_weights((spec.request)(0).0))
        .plan()
        .map_err(err)?
        .chosen_label();
    params_meta(&mut r, threads, &label);
    end_to_end(
        &mut r,
        &mut lat,
        &setups,
        thr,
        slo_ok,
        &mut checker,
        spec.slo_ms,
        args.seed,
    );
    serving_meta(&mut r, &spec, &stats, &outcomes);
    Ok(r)
}

fn serving_meta(r: &mut Report, spec: &ServingSpec, stats: &ServeStats, outcomes: &[Outcome]) {
    r.meta_num("offered_rate_rps", spec.rate);
    r.meta_num("sent", outcomes.len() as f64);
    r.meta_num("mean_fill", stats.mean_fill());
    r.meta_num("mean_slot_fill", stats.mean_slot_fill());
    r.meta_num(
        "late_max_ms",
        outcomes.iter().map(|o| o.late_ms).fold(0.0, f64::max),
    );
}

fn serving_traced(args: &Args, spec: ServingSpec, packed: bool) -> Result<Report, String> {
    let threads = nproc();
    let probe = ServeProbe::new();
    let service = TimedService::new(
        timed_factory(spec.model, threads, Arc::clone(&probe)),
        Arc::clone(&probe),
    );
    let server = Server::start(service, serve_config());
    if packed {
        warm_packed(&server, args.seed)?;
    } else {
        warm_churn(&server, args.seed)?;
    }
    // Timing starts here: forget the warm-up's counters.
    let (hits0, misses0, batches0) = {
        let c = probe.counters.lock().expect("probe poisoned");
        (c.cache_hits, c.cache_misses, c.service_ms.len())
    };
    let stats0 = server.stats();
    let p2 = Arc::clone(&probe);
    let (outcomes, start) = open_loop(&server, &spec.schedule, &spec.request, move |i, x, at| {
        p2.note_submit(i, x, at)
    });
    let stats = server.shutdown();
    let wall = outcomes
        .iter()
        .filter_map(|o| o.answered)
        .max()
        .map_or(0.0, |a| (a - start).as_secs_f64());
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let mut checker = Checker::new(spec.model, usize::MAX);
    score(&mut r, &spec, &outcomes, start, args.seconds, &mut checker)?;
    let c = probe.counters.lock().expect("probe poisoned");
    // Builds of the warm-up count too: on serve_packed they are the
    // whole set-up.
    let builds = &c.builds;
    let timed_batches = &c.service_ms[batches0..];
    let m = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let slot_batches = (stats.slot_batches - stats0.slot_batches) as f64;
    let slot_requests: usize = stats.served + stats.failed - stats0.served - stats0.failed;
    let layer = ServeLayer {
        queue_wait_ms: m(c.queue_wait_ms()),
        service_ms: m(timed_batches.to_vec()),
        busy_frac: if wall > 0.0 {
            timed_batches.iter().sum::<f64>() / 1e3 / wall
        } else {
            0.0
        },
        mean_fill: {
            let b = (stats.batches - stats0.batches) as f64;
            if b > 0.0 {
                slot_requests as f64 / b
            } else {
                0.0
            }
        },
        max_queue_depth: c.max_queue_depth() as f64,
        rejected: stats.rejected as f64,
        mean_slot_fill: if slot_batches > 0.0 {
            slot_requests as f64 / slot_batches
        } else {
            0.0
        },
        slot_batches,
        cache_hits: (c.cache_hits - hits0) as f64,
        cache_misses: (c.cache_misses - misses0) as f64,
        plan_ms: m(builds.iter().map(|b| b.plan.as_secs_f64() * 1e3).collect()),
        dry_runs: m(builds.iter().map(|b| b.dry_runs as f64).collect()),
        compile_ms: m(builds
            .iter()
            .map(|b| b.compile.as_secs_f64() * 1e3)
            .collect()),
        sent: outcomes.len() as f64,
        late_max_ms: outcomes.iter().map(|o| o.late_ms).fold(0.0, f64::max),
    };
    let overhead = if wall > 0.0 {
        (c.bookkeeping + probe.tracer.cost()).as_secs_f64() / wall
    } else {
        0.0
    };
    drop(c);
    // Stage profile of one tenant's served pipeline, plus its plan's
    // price, for the heinfer and ckks layers.
    let tenant = (spec.request)(0).0;
    let plan = spec
        .model
        .builder(tenant_weights(tenant))
        .plan()
        .map_err(err)?;
    let priced_ms = plan.chosen().priced_ms;
    let session = plan.compile().map_err(err)?;
    params_meta(&mut r, threads, &session.chosen_label());
    let p = stage_profile(
        &session,
        tenant,
        args.seed,
        &probe.tracer,
        &mut checker,
        |i| i >= PROFILE_REQUESTS,
    )?;
    profile_metrics(&mut r, &p, priced_ms, &probe.tracer);
    serve_metrics(&mut r, &layer, overhead);
    serving_meta(&mut r, &spec, &stats, &outcomes);
    finish_trace(&mut r, &probe.tracer, args)?;
    Ok(r)
}

/// `serve_packed`: open loop, two interleaved tenants, slot packing.
pub fn serve_packed(args: &Args) -> Result<Report, String> {
    let spec = serve_packed_spec(args);
    if args.trace {
        serving_traced(args, spec, true)
    } else {
        serving_e2e(args, spec, true)
    }
}

/// `tenant_churn`: open loop, a never-seen tenant per request.
pub fn tenant_churn(args: &Args) -> Result<Report, String> {
    let spec = churn_spec(args);
    if args.trace {
        serving_traced(args, spec, false)
    } else {
        serving_e2e(args, spec, false)
    }
}
