//! The serving workload: open-loop `POST /render` traffic over loopback
//! HTTP to a `gs-cluster` coordinator (prober and replication loops
//! running) in front of two in-process `gs-serve` replicas.
//!
//! Traffic comes from `gs_trace::synth` (Zipf scene popularity, per-client
//! camera tours with dwell, so the coordinator's frame cache gets hits).
//! The coldest scene is larger than one replica's budget and is sharded
//! across both, so it renders through the relay composite. Requests are
//! sent at a fixed ladder of rates (`light`, `heavy`, `over`: one step
//! above the capacity of a 2-core host), each timed from its scheduled
//! send time, so a stall is charged to every request it delays.
//!
//! The traced run replays the heavy step's requests one at a time through
//! four entry points, each on a fresh stack (HTTP, `Coordinator::render`,
//! `RenderServer::render_blocking`, the kernel); a layer's self time is
//! the per-request difference between consecutive entry points.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_cluster::{ClusterConfig, Coordinator, HealthProber, ReplicaTransport, ReplicationManager};
use gs_core::gaussian::GaussianParams;
use gs_core::image::Image;
use gs_render::pipeline::{render_layer, render_tiled};
use gs_render::rasterize::FrameLayer;
use gs_serve::http::client;
use gs_serve::{
    shard_scene, visible_shards, wire, Aabb, HttpConfig, HttpServer, RenderServer, SceneRegistry,
    SceneSpec, ServeConfig, ShardSource, WireRequest,
};
use gs_trace::{generate, scene_name, SynthConfig};

use crate::report::{peak_rss_mib, RunResult};
use crate::spans::Spans;
use crate::stats::{
    lateness_ms, max_rate_rps, mean, median, percentile, windowed, windowed_rate, LadderStep,
    WINDOWS,
};
use crate::{SETUPS, SETUPS_BEFORE};

/// Bytes of one Gaussian's parameters (59 `f32`s).
const GAUSSIAN_BYTES: u64 = 59 * 4;

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Name used as the metric prefix.
    pub name: &'static str,
    /// Offered rate, requests per second.
    pub rate_rps: f64,
    /// Scheduled duration, seconds.
    pub seconds: f64,
}

/// The serving workload's inputs, minus the seed.
#[derive(Debug, Clone)]
pub struct ZipfSpec {
    /// Number of scenes (`scene-00` is the most popular).
    pub scenes: usize,
    /// Gaussians of each whole scene.
    pub gaussians: usize,
    /// Gaussians of the coldest scene, sharded across both replicas.
    pub sharded_gaussians: usize,
    /// Frame width and height.
    pub size: (u32, u32),
    /// Client sessions in the synthetic trace.
    pub clients: usize,
    /// Probability a client repeats its previous view.
    pub dwell: f64,
    /// The rate ladder, lowest first.
    pub ladder: Vec<Rung>,
    /// Client-side p99 latency limit for `max_rate_rps`.
    pub limit_ms: f64,
    /// Requests sent one at a time before the ladder, to fill caches.
    pub warmup: usize,
    /// Requests of the heavy step replayed through the coordinator, the
    /// replica and the kernel in the traced run.
    pub replay: usize,
}

/// `serve-zipf` sized for `seconds` of scheduled traffic.
pub fn zipf_spec(seconds: u64) -> ZipfSpec {
    let s = seconds as f64;
    ZipfSpec {
        scenes: 6,
        gaussians: 2500,
        sharded_gaussians: 24_000,
        size: (64, 48),
        clients: 16,
        dwell: 0.2,
        ladder: vec![
            Rung {
                name: "light",
                rate_rps: 100.0,
                seconds: 0.5 * s,
            },
            Rung {
                name: "heavy",
                rate_rps: 200.0,
                seconds: 0.25 * s,
            },
            Rung {
                name: "over",
                rate_rps: 450.0,
                seconds: 0.25 * s,
            },
        ],
        limit_ms: 50.0,
        warmup: 200,
        replay: 600,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The generated scenes, indexed by popularity rank.
struct Scenes {
    params: Vec<Arc<GaussianParams>>,
    background: [f32; 3],
    sharded: usize,
}

fn make_scenes(spec: &ZipfSpec, seed: u64) -> Scenes {
    let sharded = spec.scenes - 1;
    let mut background = [0.0; 3];
    let params = (0..spec.scenes)
        .map(|rank| {
            let mut scene = SceneSpec::new(if rank == sharded {
                spec.sharded_gaussians
            } else {
                spec.gaussians
            });
            scene.seed = crate::mix(seed, rank as u64 + 1);
            // Inside the synthetic camera tours (radius 8..13 around the
            // origin, looking at it). The sharded scene is denser but
            // finer, so a frame of it costs about as much as any other and
            // the latency distribution stays unimodal.
            scene.extent = [7.0, 3.0, 7.0];
            scene.scale = if rank == sharded {
                [0.01, 0.05]
            } else {
                [0.04, 0.22]
            };
            background = scene.background;
            Arc::new(scene.build())
        })
        .collect();
    Scenes {
        params,
        background,
        sharded,
    }
}

/// Replica budget: the whole sharded scene does not fit one replica, half
/// of everything plus room for a replicated copy does.
fn replica_budget(spec: &ZipfSpec) -> u64 {
    let small = spec.gaussians as u64 * GAUSSIAN_BYTES;
    let big = spec.sharded_gaussians as u64 * GAUSSIAN_BYTES;
    let budget = (big + (spec.scenes as u64 - 1) * small) / 2 + 3 * small / 2;
    assert!(
        budget < big,
        "the sharded scene must exceed one replica's budget"
    );
    budget
}

/// Render threads per replica: the two replicas together use at most
/// `nproc` threads.
fn replica_workers() -> usize {
    (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
}

fn replica_config() -> ServeConfig {
    ServeConfig {
        workers: replica_workers(),
        queue_depth: 64,
        max_batch: 8,
        // The coordinator's frame cache answers repeats before routing.
        cache_bytes: 0,
        tile_parallel: 1,
        ..ServeConfig::default()
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        // Holds every distinct frame of a run: no capacity evictions, so
        // the hit ratio follows the traffic and peak RSS is repeatable
        // (with evictions it jumped between two levels 7 MiB apart).
        cache_bytes: 256 << 20,
        ..ClusterConfig::default()
    }
}

/// A coordinator with two in-process replicas, its background loops and
/// (optionally) its HTTP front-end.
struct Stack {
    coordinator: Arc<Coordinator>,
    replicas: Vec<Arc<RenderServer>>,
    http: Option<HttpServer>,
    prober: HealthProber,
    replication: ReplicationManager,
}

impl Stack {
    fn build(spec: &ZipfSpec, scenes: &Scenes, with_http: bool) -> Stack {
        let coordinator = Arc::new(Coordinator::new(cluster_config()));
        let budget = replica_budget(spec);
        let replicas: Vec<Arc<RenderServer>> = (0..2)
            .map(|_| {
                Arc::new(RenderServer::new(
                    replica_config(),
                    SceneRegistry::with_budget(budget),
                ))
            })
            .collect();
        for (i, replica) in replicas.iter().enumerate() {
            coordinator
                .add_replica(
                    format!("replica-{i}"),
                    ReplicaTransport::InProcess(Arc::clone(replica)),
                )
                .expect("attach replica");
        }
        // The sharded scene first, so its shards land on both replicas.
        let placed = coordinator
            .load_scene_sharded(
                scene_name(scenes.sharded),
                Arc::clone(&scenes.params[scenes.sharded]),
                scenes.background,
                2,
            )
            .expect("place the sharded scene");
        assert_eq!(placed, 2);
        for (rank, params) in scenes.params.iter().enumerate() {
            if rank != scenes.sharded {
                coordinator
                    .load_scene(scene_name(rank), Arc::clone(params), scenes.background)
                    .expect("place a whole scene");
            }
        }
        let http = with_http.then(|| {
            gs_cluster::bind_http(HttpConfig::default(), Arc::clone(&coordinator))
                .expect("bind the loopback front-end")
        });
        let prober = HealthProber::start(Arc::clone(&coordinator), Duration::from_millis(250));
        let replication =
            ReplicationManager::start(Arc::clone(&coordinator), Duration::from_millis(500));
        Stack {
            coordinator,
            replicas,
            http,
            prober,
            replication,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.http
            .as_ref()
            .expect("stack has a front-end")
            .local_addr()
    }

    /// Stops every thread the stack started and waits for them.
    fn shut_down(self) {
        self.prober.stop();
        self.replication.stop();
        if let Some(http) = self.http {
            http.shutdown();
        }
        drop(self.coordinator);
        for replica in self.replicas {
            if let Ok(server) = Arc::try_unwrap(replica) {
                server.shutdown();
            }
        }
    }
}

/// One request of a step: its wire form and when it is due.
struct Planned {
    request: WireRequest,
    body: Vec<u8>,
    due_ns: u64,
}

fn plan(spec: &ZipfSpec, seed: u64, requests: usize, seconds: f64) -> Vec<Planned> {
    let trace = generate(&SynthConfig {
        scenes: spec.scenes,
        zipf_exponent: 1.0,
        clients: spec.clients,
        requests,
        duration_s: seconds,
        dwell: spec.dwell,
        width: spec.size.0,
        height: spec.size.1,
        sh_degree: 3,
        deadline_ms: 0,
        seed,
        shape: gs_trace::LoadShape::Constant,
    });
    trace
        .events
        .iter()
        .map(|event| {
            let request = WireRequest::from_trace_event(event);
            Planned {
                body: request.to_body().into_bytes(),
                request,
                due_ns: event.at_us * 1000,
            }
        })
        .collect()
}

/// User plus system CPU time of this process so far, all threads
/// (exited ones included), in seconds: `/proc/self/stat` fields 14 and
/// 15, in the kernel's fixed 100 Hz user-visible clock ticks.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// What the client saw for one request.
#[derive(Debug, Clone, Copy, Default)]
struct Answer {
    sent_ns: u64,
    done_ns: u64,
    status: u16,
    hit: bool,
    frame_len: usize,
    frame_hash: u64,
}

/// Sends `plan` open-loop from `threads` client threads, each with its own
/// keep-alive connection: a request is sent at its due time, or as soon as
/// a connection frees up after it. Returns the step's start and the
/// answers (indexed like the plan; `status` 0 marks a transport failure).
fn drive(addr: SocketAddr, plan: &[Planned], threads: usize) -> (Instant, Vec<Answer>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut answers = vec![Answer::default(); plan.len()];
    let per_thread: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut stream = connect(addr);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= plan.len() {
                            break;
                        }
                        let due = start + Duration::from_nanos(plan[i].due_ns);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let response = match stream.as_mut() {
                            Some(s) => client::request(s, "POST", "/render", &plan[i].body).ok(),
                            None => None,
                        };
                        let done = Instant::now();
                        let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
                        let answer = match response {
                            Some(r) => Answer {
                                sent_ns: ns(sent),
                                done_ns: ns(done),
                                status: r.status,
                                hit: r.header("x-cache-hit") == Some("1"),
                                frame_len: r.body.len(),
                                frame_hash: fnv1a(&r.body),
                            },
                            None => {
                                stream = connect(addr);
                                Answer {
                                    sent_ns: ns(sent),
                                    done_ns: ns(done),
                                    ..Answer::default()
                                }
                            }
                        };
                        mine.push((i, answer));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (i, answer) in per_thread.into_iter().flatten() {
        answers[i] = answer;
    }
    (start, answers)
}

/// Records one step's request spans (due to answer, split into the wait
/// for a free connection and the HTTP round trip), after the step so
/// recording cannot delay a request. Returns the recording cost per
/// request in milliseconds: the serving run's tracing overhead.
fn record_spans(
    spans: &mut Spans,
    start: Instant,
    first_id: u64,
    plan: &[Planned],
    answers: &[Answer],
) -> f64 {
    let t = Instant::now();
    let origin = spans.at(start);
    for (i, (p, a)) in plan.iter().zip(answers).enumerate() {
        let group = first_id + i as u64;
        let due = origin + p.due_ns;
        let root = spans.push(group, "request", None, due, origin + a.done_ns);
        let sent = origin + a.sent_ns.max(p.due_ns);
        spans.push(group, "gen.wait", Some(root), due, sent);
        spans.push(
            group,
            "http.round_trip",
            Some(root),
            sent,
            origin + a.done_ns,
        );
    }
    t.elapsed().as_secs_f64() * 1e3 / plan.len().max(1) as f64
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    Some(stream)
}

/// The direct kernel path: the scenes, and the sharded scene cut once with
/// the partition the serving tier uses.
struct Kernel<'a> {
    scenes: &'a Scenes,
    shards: Vec<ShardSource>,
    aabbs: Vec<Aabb>,
    scales: Vec<f32>,
}

impl<'a> Kernel<'a> {
    fn new(scenes: &'a Scenes) -> Self {
        let shards = shard_scene(&scenes.params[scenes.sharded], 2);
        Self {
            scenes,
            aabbs: shards.iter().map(|s| s.aabb).collect(),
            scales: shards.iter().map(|s| s.max_scale).collect(),
            shards,
        }
    }

    /// The frame a direct kernel render gives for `request`: the whole
    /// scene through `render_tiled`, or the sharded scene's shards
    /// composited front-to-back exactly as the single-node sharded render
    /// does.
    fn frame(&self, request: &WireRequest) -> Image {
        let rank: usize = request.scene["scene-".len()..]
            .parse()
            .expect("synthetic scene id");
        let r = request.to_render_request();
        let background = self.scenes.background;
        if rank != self.scenes.sharded {
            let params = &self.scenes.params[rank];
            return render_tiled(params, &r.camera, r.sh_degree, &r.viewport, background, 1).image;
        }
        let mut layer = FrameLayer::new(r.viewport.width(), r.viewport.height());
        for k in visible_shards(&self.aabbs, &self.scales, &r.camera, &r.viewport) {
            let shard = &self.shards[k].params;
            render_layer(shard, &r.camera, r.sh_degree, &r.viewport, &mut layer);
        }
        layer.finish(background)
    }
}

/// Checks every miss frame against a direct kernel render of the same
/// request (by hash of the raw `f32` bytes), rendering each distinct
/// request once, on `threads` threads. Returns the number of mismatches.
fn verify_misses(kernel: &Kernel<'_>, misses: &[(&WireRequest, u64)], threads: usize) -> usize {
    let mut unique: HashMap<String, (&WireRequest, Vec<u64>)> = HashMap::new();
    for &(request, hash) in misses {
        unique
            .entry(request.to_body())
            .or_insert_with(|| (request, Vec::new()))
            .1
            .push(hash);
    }
    let work: Vec<(&WireRequest, Vec<u64>)> = unique.into_values().collect();
    let chunk = work.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(request, hashes)| {
                            let expected = fnv1a(&wire::encode_raw_f32(&kernel.frame(request)));
                            hashes.iter().filter(|&&h| h != expected).count()
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .sum()
    })
}

/// A measured ladder step.
struct StepResult {
    rung: Rung,
    /// Latency of each request, in due order.
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    ok: usize,
    failed: usize,
    /// Completions per second, median over windows of the step.
    throughput_rps: f64,
    /// Completions per second of process CPU time (all threads, the
    /// load generator's included).
    per_cpu_s: f64,
}

fn summarize(
    rung: Rung,
    plan: &[Planned],
    answers: &[Answer],
    frame_bytes: usize,
    cpu_s: f64,
) -> StepResult {
    let due_s: Vec<f64> = plan.iter().map(|p| p.due_ns as f64 / 1e9).collect();
    let sent_s: Vec<f64> = answers.iter().map(|a| a.sent_ns as f64 / 1e9).collect();
    let latency_ms = answers
        .iter()
        .zip(plan)
        .map(|(a, p)| (a.done_ns.saturating_sub(p.due_ns)) as f64 / 1e6)
        .collect();
    let ok = answers
        .iter()
        .filter(|a| a.status == 200 && a.frame_len == frame_bytes)
        .count();
    let done_s: Vec<f64> = answers.iter().map(|a| a.done_ns as f64 / 1e9).collect();
    StepResult {
        rung,
        latency_ms,
        lateness_ms: lateness_ms(&due_s, &sent_s),
        ok,
        failed: plan.len() - ok,
        throughput_rps: windowed_rate(&done_s, WINDOWS),
        per_cpu_s: plan.len() as f64 / cpu_s.max(1e-9),
    }
}

/// One entry point's replay: per request its latency, whether a cache
/// answered, and the hash of the frame's raw bytes.
#[derive(Default)]
struct Replay {
    latency_ms: Vec<f64>,
    hit: Vec<bool>,
    hash: Vec<u64>,
}

impl Replay {
    /// Times `call` inside a span, then records what `frame` reads off its
    /// result (cache hit, frame hash) outside the timed interval.
    fn record<T>(
        &mut self,
        spans: &mut Spans,
        (group, name): (u64, &'static str),
        call: impl FnOnce() -> T,
        frame: impl FnOnce(T) -> (bool, u64),
    ) {
        let t = Instant::now();
        let out = call();
        let elapsed = t.elapsed();
        let start = spans.at(t);
        spans.push(group, name, None, start, start + elapsed.as_nanos() as u64);
        self.latency_ms.push(elapsed.as_secs_f64() * 1e3);
        let (hit, hash) = frame(out);
        self.hit.push(hit);
        self.hash.push(hash);
    }
}

/// Runs the serving workload and returns what it measured.
pub fn run(spec: &ZipfSpec, seed: u64, traced: bool) -> RunResult {
    let mut result = RunResult::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    result.setting("scenes", spec.scenes);
    result.setting("scene_gaussians", spec.gaussians);
    result.setting(
        "sharded_scene",
        format!(
            "{} ({} Gaussians, 2 shards)",
            scene_name(spec.scenes - 1),
            spec.sharded_gaussians
        ),
    );
    result.setting("replica_budget_bytes", replica_budget(spec));
    result.setting("replica_workers", replica_workers());
    result.setting("client_threads", threads);
    result.setting("frame", format!("{}x{}", spec.size.0, spec.size.1));
    result.setting(
        "ladder",
        spec.ladder
            .iter()
            .map(|r| format!("{} {} rps x {:.1} s", r.name, r.rate_rps, r.seconds))
            .collect::<Vec<_>>()
            .join(", "),
    );
    result.setting("limit_ms", spec.limit_ms);

    let mut setup_s = Vec::new();
    let mut built: Option<(Scenes, Stack)> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((_, stack)) = built.take() {
            stack.shut_down();
        }
        let t = Instant::now();
        let scenes = make_scenes(spec, seed);
        let stack = Stack::build(spec, &scenes, true);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((scenes, stack));
    }
    let (scenes, stack) = built.expect("at least one set-up");
    let frame_bytes = 12 * spec.size.0 as usize * spec.size.1 as usize;

    // Warm-up: fill the caches and let lazy set-up finish.
    let warm = plan(spec, crate::mix(seed, 100), spec.warmup, 1.0);
    let mut stream = connect(stack.addr()).expect("connect to the front-end");
    let warm_failed = warm
        .iter()
        .filter(|p| {
            client::request(&mut stream, "POST", "/render", &p.body)
                .map_or(true, |r| r.status != 200 || r.body.len() != frame_bytes)
        })
        .count();
    drop(stream);

    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let mut steps = Vec::new();
    let mut plans = Vec::new();
    let mut all_answers = Vec::new();
    let mut books_ok = true;
    let mut record_ms = Vec::new();
    let mut ladder_cpu_s = 0.0;
    for (k, rung) in spec.ladder.iter().enumerate() {
        let n = (rung.rate_rps * rung.seconds).round().max(1.0) as usize;
        let plan = plan(spec, crate::mix(seed, 200 + k as u64), n, rung.seconds);
        let before = stack.coordinator.stats();
        let cpu_before = process_cpu_s();
        let (start, answers) = drive(stack.addr(), &plan, threads);
        let cpu_s = process_cpu_s() - cpu_before;
        ladder_cpu_s += cpu_s;
        let after = stack.coordinator.stats();
        if traced {
            let first_id = (k as u64) << 32;
            record_ms.push(record_spans(&mut spans, start, first_id, &plan, &answers));
        }
        let step = summarize(*rung, &plan, &answers, frame_bytes, cpu_s);
        // The books balance: every request sent got exactly one outcome
        // at the client, and the coordinator counted each one.
        let counted = (after.completed + after.errors) - (before.completed + before.errors);
        let balanced = step.ok + step.failed == plan.len() && counted == plan.len() as u64;
        if !balanced {
            eprintln!(
                "{}: {} planned, {} ok + {} failed at the client, {} counted by the coordinator",
                rung.name,
                plan.len(),
                step.ok,
                step.failed,
                counted
            );
        }
        books_ok &= balanced;
        steps.push(step);
        plans.push(plan);
        all_answers.push(answers);
    }
    let cluster_stats = stack.coordinator.stats();
    let mean_batch = {
        let stats: Vec<_> = stack.replicas.iter().map(|r| r.stats()).collect();
        let completed: u64 = stats.iter().map(|s| s.completed).sum();
        stats
            .iter()
            .map(|s| s.mean_batch_size() * s.completed as f64)
            .sum::<f64>()
            / completed.max(1) as f64
    };
    stack.shut_down();
    let peak_rss = peak_rss_mib();
    for _ in SETUPS_BEFORE..SETUPS {
        let t = Instant::now();
        let extra = Stack::build(spec, &make_scenes(spec, seed), true);
        setup_s.push(t.elapsed().as_secs_f64());
        extra.shut_down();
    }

    // Output checks.
    let mut misses = Vec::new();
    let mut hits = 0usize;
    let mut requests = 0usize;
    for (plan, answers) in plans.iter().zip(&all_answers) {
        for (p, a) in plan.iter().zip(answers) {
            requests += 1;
            if a.status == 200 && !a.hit {
                misses.push((&p.request, a.frame_hash));
            } else if a.hit {
                hits += 1;
            }
        }
    }
    let failed_requests = warm_failed + steps.iter().map(|s| s.failed).sum::<usize>();
    result.attempted += (warm.len() + requests) as u64;
    result.failed += failed_requests as u64;
    result.check(
        "every response is 200 with a full frame",
        failed_requests == 0,
    );
    result.check("sent = sum of outcomes at every rate step", books_ok);
    let kernel = Kernel::new(&scenes);
    let mismatched = verify_misses(&kernel, &misses, threads);
    result.check(
        format!(
            "{} miss frames byte-identical to a direct kernel render",
            misses.len()
        ),
        mismatched == 0 && !misses.is_empty(),
    );

    // End-to-end.
    let served: usize = plans.iter().map(Vec::len).sum();
    result.e2e("setup_s", median(&setup_s), setup_s.len());
    result.e2e("peak_rss_mib", peak_rss, 1);
    result.e2e(
        "ok_ratio",
        1.0 - result.failed as f64 / result.attempted.max(1) as f64,
        result.attempted as usize,
    );
    // Frames per second of process CPU time over the whole ladder: the
    // serving cost a user pays per frame, unmoved by time a shared host
    // takes away from the process (the wall-clock capacity of the `over`
    // step swung by ±15% between runs on a 2-vCPU VM; it is recorded as
    // `over.throughput_rps`).
    result.e2e(
        "images_per_s",
        served as f64 / ladder_cpu_s.max(1e-9),
        served,
    );

    let light = &steps[0];
    let n_light = light.latency_ms.len();

    // Workload-specific end-to-end figures (recorded, not gated).
    result.record(
        "light.p50_windowed_ms",
        windowed(&light.latency_ms, WINDOWS, median),
        "ms",
        "lower",
        n_light,
    );
    result.record(
        "failed_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
        "lower",
        result.attempted as usize,
    );
    let ladder: Vec<LadderStep> = steps
        .iter()
        .map(|s| LadderStep {
            rate_rps: s.rung.rate_rps,
            p99_ms: percentile(&s.latency_ms, 0.99),
            lateness_p99_ms: percentile(&s.lateness_ms, 0.99),
            all_ok: s.failed == 0,
        })
        .collect();
    for (s, l) in steps.iter().zip(&ladder) {
        let n = s.latency_ms.len();
        result.record(
            &format!("{}.p50_ms", s.rung.name),
            median(&s.latency_ms),
            "ms",
            "lower",
            n,
        );
        result.record(
            &format!("{}.p99_ms", s.rung.name),
            l.p99_ms,
            "ms",
            "lower",
            n,
        );
        result.record(
            &format!("{}.lateness_p99_ms", s.rung.name),
            l.lateness_p99_ms,
            "ms",
            "lower",
            n,
        );
        result.record(
            &format!("{}.throughput_rps", s.rung.name),
            s.throughput_rps,
            "1/s",
            "higher",
            n,
        );
        result.record(
            &format!("{}.per_cpu_s", s.rung.name),
            s.per_cpu_s,
            "1/s",
            "higher",
            n,
        );
    }
    result.record(
        "max_rate_rps",
        max_rate_rps(&ladder, spec.limit_ms),
        "1/s",
        "higher",
        ladder.len(),
    );

    // Per-layer.
    let lateness = steps[..steps.len() - 1]
        .iter()
        .map(|s| percentile(&s.lateness_ms, 0.99))
        .fold(0.0, f64::max);
    result.layer("gen.lateness_ms", lateness, requests);
    result.layer(
        "serve.cache_hit_ratio",
        hits as f64 / requests.max(1) as f64,
        requests,
    );
    result.layer("serve.mean_batch", mean_batch, requests);
    result.layer("cluster.replications", cluster_stats.replications as f64, 1);
    result.layer("cluster.shed", cluster_stats.shed as f64, 1);
    result.layer("cluster.brownouts", cluster_stats.brownouts as f64, 1);
    result.layer("cluster.failovers", cluster_stats.failovers as f64, 1);

    if traced {
        trace_layers(
            spec,
            &kernel,
            &plans[1],
            &all_answers[1],
            &mut spans,
            &mut result,
        );
        result.layer("trace.overhead_ms", mean(&record_ms), requests);
        crate::write_spans("serve-zipf", seed, &spans);
    }
    result
}

/// The traced run's sequential replays: each of the heavy step's
/// requests, one at a time, through HTTP and then (for the first
/// `spec.replay`) through `Coordinator::render`,
/// `RenderServer::render_blocking` and the kernel, each entry point on a
/// fresh stack of its own. Visiting the four entry points request by
/// request keeps a drift in the host's speed out of their differences.
fn trace_layers(
    spec: &ZipfSpec,
    kernel: &Kernel<'_>,
    heavy: &[Planned],
    heavy_answers: &[Answer],
    spans: &mut Spans,
    result: &mut RunResult,
) {
    let scenes = kernel.scenes;
    let http_stack = Stack::build(spec, scenes, true);
    let cluster_stack = Stack::build(spec, scenes, false);
    let server = RenderServer::new(
        ServeConfig {
            cache_bytes: cluster_config().cache_bytes,
            ..replica_config()
        },
        SceneRegistry::with_budget(u64::MAX / 4),
    );
    for (rank, params) in scenes.params.iter().enumerate() {
        let id = scene_name(rank);
        let params = Arc::clone(params);
        if rank == scenes.sharded {
            server
                .load_scene_sharded(id, params, scenes.background, 2)
                .expect("load the sharded scene");
        } else {
            server
                .load_scene(id, params, scenes.background)
                .expect("load a whole scene");
        }
    }

    let mut stream = connect(http_stack.addr()).expect("connect to the front-end");
    let prefix = &heavy[..spec.replay.min(heavy.len())];
    let mut http = Replay::default();
    let mut coordinator = Replay::default();
    let mut serve = Replay::default();
    let mut direct = Replay::default();
    for (i, p) in heavy.iter().enumerate() {
        // Same ids as the heavy step's request spans (step 1).
        let group = (1 << 32) + i as u64;
        Replay::record(
            &mut http,
            spans,
            (group, "replay.http"),
            || client::request(&mut stream, "POST", "/render", &p.body).expect("replay over HTTP"),
            |r| (r.header("x-cache-hit") == Some("1"), fnv1a(&r.body)),
        );
        if i >= prefix.len() {
            continue;
        }
        let raw = |image: &Image| fnv1a(&wire::encode_raw_f32(image));
        Replay::record(
            &mut coordinator,
            spans,
            (group, "replay.coordinator"),
            || {
                cluster_stack
                    .coordinator
                    .render(&p.request)
                    .expect("coordinator replay")
            },
            |f| (f.cache_hit, raw(&f.image)),
        );
        Replay::record(
            &mut serve,
            spans,
            (group, "replay.serve"),
            || {
                server
                    .render_blocking(p.request.to_render_request())
                    .expect("replica replay")
            },
            |f| (f.cache_hit, raw(&f.image)),
        );
        Replay::record(
            &mut direct,
            spans,
            (group, "replay.kernel"),
            || kernel.frame(&p.request),
            |image| (false, raw(&image)),
        );
    }
    drop(stream);
    http_stack.shut_down();
    cluster_stack.shut_down();
    server.shutdown();

    let sharded = scene_name(scenes.sharded);
    let mut http_self = Vec::new();
    let mut cluster_self = Vec::new();
    let mut relay = Vec::new();
    let mut serve_self = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut identical = true;
    for (i, p) in prefix.iter().enumerate() {
        if http.hit[i] || coordinator.hit[i] || serve.hit[i] {
            continue;
        }
        identical &= http.hash[i] == direct.hash[i]
            && coordinator.hash[i] == direct.hash[i]
            && serve.hash[i] == direct.hash[i];
        http_self.push(http.latency_ms[i] - coordinator.latency_ms[i]);
        if p.request.scene == sharded {
            relay.push(coordinator.latency_ms[i] - serve.latency_ms[i]);
        } else {
            cluster_self.push(coordinator.latency_ms[i] - serve.latency_ms[i]);
        }
        serve_self.push(serve.latency_ms[i] - direct.latency_ms[i]);
        kernel_ms.push(direct.latency_ms[i]);
    }
    result.check(
        "replayed miss frames identical at all four entry points",
        identical && !kernel_ms.is_empty(),
    );
    let queue_wait: Vec<f64> = heavy
        .iter()
        .enumerate()
        .filter(|&(i, _)| !heavy_answers[i].hit && !http.hit[i])
        .map(|(i, p)| {
            (heavy_answers[i].done_ns.saturating_sub(p.due_ns)) as f64 / 1e6 - http.latency_ms[i]
        })
        .collect();

    result.layer("http.self_ms", median(&http_self), http_self.len());
    result.layer("cluster.self_ms", median(&cluster_self), cluster_self.len());
    result.layer("cluster.relay_ms", median(&relay), relay.len());
    result.layer("serve.self_ms", median(&serve_self), serve_self.len());
    result.layer("kernel.render_ms", median(&kernel_ms), kernel_ms.len());
    result.layer("serve.queue_wait_ms", median(&queue_wait), queue_wait.len());
}
