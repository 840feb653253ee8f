//! The serving path: the tenant factory, the open-loop generator, and
//! [`TimedService`], a `BatchService` that wraps `SessionCache` and
//! timestamps batches and session builds without touching
//! `heinfer::serve`.

use crate::models::Model;
use crate::trace::Tracer;
use smartpaf::{CompiledSession, SessionCache, SessionError};
use smartpaf_heinfer::{BatchRunner, BatchService, Server, TenantId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Weight seed of a tenant: every tenant owns its weights and keys.
pub fn tenant_weights(tenant: TenantId) -> u64 {
    tenant.wrapping_mul(0x9e37_79b9).wrapping_add(101)
}

/// Timing of one session build.
#[derive(Debug, Clone, Copy)]
pub struct BuildTiming {
    /// `SessionBuilder::plan`.
    pub plan: Duration,
    /// Trace dry runs the planner spent.
    pub dry_runs: usize,
    /// `Plan::compile` (key generation included).
    pub compile: Duration,
}

/// Plans and compiles a tenant's session with the batch runner pinned
/// to `threads` workers; returns the build timing alongside.
pub fn build_session(
    model: Model,
    tenant: TenantId,
    threads: usize,
) -> Result<(CompiledSession, BuildTiming), SessionError> {
    let t0 = Instant::now();
    let plan = model.builder(tenant_weights(tenant)).plan()?;
    let t1 = Instant::now();
    let dry_runs = plan.dry_runs_used();
    let mut session = plan.compile()?;
    let t2 = Instant::now();
    session.set_batch_runner(BatchRunner::new(threads));
    Ok((
        session,
        BuildTiming {
            plan: t1 - t0,
            dry_runs,
            compile: t2 - t1,
        },
    ))
}

/// Counters the traced serving run collects.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Per timed request: (submitted, its batch started).
    pub queued: Vec<(Instant, Instant)>,
    /// Per batch: `run_batch` wall time.
    pub service_ms: Vec<f64>,
    /// Session builds.
    pub builds: Vec<BuildTiming>,
    /// `SessionCache` hits, read after every call.
    pub cache_hits: usize,
    /// `SessionCache` misses, read after every call.
    pub cache_misses: usize,
    /// Time spent in the probe's own bookkeeping.
    pub bookkeeping: Duration,
}

impl ServeCounters {
    /// Queue wait of every timed request, in ms.
    pub fn queue_wait_ms(&self) -> Vec<f64> {
        self.queued
            .iter()
            .map(|(at, start)| start.saturating_duration_since(*at).as_secs_f64() * 1e3)
            .collect()
    }

    /// Most timed requests waiting at once.
    pub fn max_queue_depth(&self) -> usize {
        let mut events: Vec<(Instant, i64)> = self
            .queued
            .iter()
            .flat_map(|&(at, start)| [(at, 1), (start, -1)])
            .collect();
        // Leaving before arriving at equal instants keeps the count exact.
        events.sort();
        let (mut depth, mut max) = (0i64, 0i64);
        for (_, d) in events {
            depth += d;
            max = max.max(depth);
        }
        usize::try_from(max).unwrap_or(0)
    }
}

/// State shared by the generator, the factory and the wrapper.
pub struct ServeProbe {
    /// Span store.
    pub tracer: Tracer,
    /// Submitted inputs by bit pattern → (request id, submit instant).
    pub submitted: Mutex<HashMap<Vec<u64>, (u64, Instant)>>,
    /// Counters.
    pub counters: Mutex<ServeCounters>,
}

impl ServeProbe {
    /// Empty probe.
    pub fn new() -> Arc<Self> {
        Arc::new(ServeProbe {
            tracer: Tracer::new(),
            submitted: Mutex::new(HashMap::new()),
            counters: Mutex::new(ServeCounters::default()),
        })
    }

    /// Notes a submission so the batch that carries it can find it.
    pub fn note_submit(&self, request: u64, input: &[f64], at: Instant) {
        let t = Instant::now();
        self.submitted
            .lock()
            .expect("probe poisoned")
            .insert(key(input), (request, at));
        self.counters.lock().expect("probe poisoned").bookkeeping += t.elapsed();
    }
}

fn key(input: &[f64]) -> Vec<u64> {
    input.iter().map(|v| v.to_bits()).collect()
}

/// The plain session factory: what `serve_sessions_packed` runs.
pub fn factory(
    model: Model,
    threads: usize,
) -> impl FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send + 'static {
    move |tenant| build_session(model, tenant, threads).map(|(s, _)| s)
}

/// The factory with its plan and compile calls timed into `probe`.
pub fn timed_factory(
    model: Model,
    threads: usize,
    probe: Arc<ServeProbe>,
) -> impl FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send + 'static {
    move |tenant| {
        let start = Instant::now();
        let (session, timing) = build_session(model, tenant, threads)?;
        let t = Instant::now();
        let tr = &probe.tracer;
        let parent = tr.record(
            "smartpaf.build",
            None,
            None,
            start,
            start + timing.plan + timing.compile,
        );
        tr.record(
            "smartpaf.plan",
            Some(parent),
            None,
            start,
            start + timing.plan,
        );
        tr.record(
            "smartpaf.compile",
            Some(parent),
            None,
            start + timing.plan,
            start + timing.plan + timing.compile,
        );
        let mut c = probe.counters.lock().expect("probe poisoned");
        c.builds.push(timing);
        c.bookkeeping += t.elapsed();
        Ok(session)
    }
}

/// `SessionCache` behind a stopwatch.
pub struct TimedService<F> {
    cache: SessionCache<F>,
    probe: Arc<ServeProbe>,
}

impl<F> TimedService<F>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send,
{
    /// Wraps a slot-packing cache around `build`.
    pub fn new(build: F, probe: Arc<ServeProbe>) -> Self {
        TimedService {
            cache: SessionCache::new(build).with_packing(true),
            probe,
        }
    }

    fn note_cache(&self, c: &mut ServeCounters) {
        c.cache_hits = self.cache.hits();
        c.cache_misses = self.cache.misses();
    }
}

impl<F> BatchService for TimedService<F>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send,
{
    type Error = SessionError;

    fn run_batch(
        &mut self,
        tenant: TenantId,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, SessionError> {
        let start = Instant::now();
        let result = self.cache.run_batch(tenant, inputs);
        let end = Instant::now();
        let book = Instant::now();
        let tr = &self.probe.tracer;
        let batch = tr.record("heinfer.serve.batch", None, None, start, end);
        let mut queued = Vec::with_capacity(inputs.len());
        {
            let submitted = self.probe.submitted.lock().expect("probe poisoned");
            for x in inputs {
                if let Some(&(req, at)) = submitted.get(&key(x)) {
                    tr.record("heinfer.serve.queue", None, Some(req), at, start);
                    tr.record("heinfer.serve.service", Some(batch), Some(req), start, end);
                    queued.push((at, start));
                }
            }
        }
        let mut c = self.probe.counters.lock().expect("probe poisoned");
        c.queued.extend(queued);
        c.service_ms.push((end - start).as_secs_f64() * 1e3);
        self.note_cache(&mut c);
        c.bookkeeping += book.elapsed();
        result
    }

    fn lane_capacity(&mut self, tenant: TenantId) -> usize {
        let start = Instant::now();
        let lanes = self.cache.lane_capacity(tenant);
        let end = Instant::now();
        self.probe
            .tracer
            .record("smartpaf.session_lookup", None, None, start, end);
        let mut c = self.probe.counters.lock().expect("probe poisoned");
        self.note_cache(&mut c);
        lanes
    }
}

/// One open-loop request as the client saw it.
#[derive(Debug)]
pub struct Outcome {
    /// Request index (also its input index).
    pub index: u64,
    /// Due time → answer, in ms (`None` when refused or failed).
    pub latency_ms: Option<f64>,
    /// How late the generator submitted it, in ms.
    pub late_ms: f64,
    /// The answer or the error text.
    pub answer: Result<Vec<f64>, String>,
    /// When it was answered.
    pub answered: Option<Instant>,
}

/// Sends `schedule` (offsets in seconds from now) to `server` from one
/// generator thread; one waiter thread per ticket records its answer
/// time. Returns the outcomes in request order and the start instant.
pub fn open_loop<S>(
    server: &Server<S>,
    schedule: &[f64],
    request: impl Fn(u64) -> (TenantId, Vec<f64>),
    on_submit: impl Fn(u64, &[f64], Instant),
) -> (Vec<Outcome>, Instant)
where
    S: BatchService + 'static,
    S::Error: std::fmt::Display,
{
    let start = Instant::now();
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, &offset) in schedule.iter().enumerate() {
            let index = i as u64;
            let (tenant, input) = request(index);
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            on_submit(index, &input, sent);
            let late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
            match server.submit(tenant, input) {
                Ok(ticket) => {
                    let outcomes = &outcomes;
                    scope.spawn(move || {
                        let answer = ticket.wait().map_err(|e| e.to_string());
                        let answered = Instant::now();
                        let latency_ms =
                            answer.is_ok().then(|| (answered - due).as_secs_f64() * 1e3);
                        outcomes.lock().expect("outcomes poisoned").push(Outcome {
                            index,
                            latency_ms,
                            late_ms,
                            answer,
                            answered: Some(answered),
                        });
                    });
                }
                Err(e) => outcomes.lock().expect("outcomes poisoned").push(Outcome {
                    index,
                    latency_ms: None,
                    late_ms,
                    answer: Err(e.to_string()),
                    answered: None,
                }),
            }
        }
    });
    let mut out = outcomes.into_inner().expect("outcomes poisoned");
    out.sort_by_key(|o| o.index);
    (out, start)
}
