//! `serve_mix`: two closed-loop clients on two connections to an
//! in-process `sixg_bench::serve::Server` over loopback, its pool pinned to
//! one thread per connection so busy threads equal the two cores. It is the
//! only workload through `wire`, `serve` and the executor's scenario cache,
//! which hits and misses use in two different ways.
//!
//! Each client sends whole blocks of 20 requests over
//! `specs/klagenfurt.json`, shuffled per block, with exact shares: 2
//! `validate`, 11 analytic runs with a seeded `campaign_seed` (cache hit),
//! 6 event-backend runs (cache hit) and 1 analytic run with a fresh
//! scenario `seed` (cache miss: a compile under the cache lock). With exact
//! shares the median lies inside the analytic class and p90 inside the
//! event class, never on a class boundary.

use crate::ledger::{self, Extras};
use crate::replay::same_bits;
use crate::trace::Tracer;
use crate::{median, percentile, repeated_setup, secs, Args, Metrics, Outcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use sixg_bench::serve::{read_frame, write_frame, FrameKind, Server, HEADER_LEN};
use sixg_measure::campaign::{CampaignConfig, MobileCampaign, Shard};
use sixg_measure::event_backend::EventCampaign;
use sixg_measure::exec::DEFAULT_CACHE_CAPACITY;
use sixg_measure::exec::{ExecAction, ExecReport, ExecRequest, Executor, ScenarioCache};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::spec::{parse_backend, ScenarioSpec};
use sixg_measure::sweep::DEFAULT_REQUIREMENT_MS;
use sixg_measure::CellField;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC: &str = "specs/klagenfurt.json";
const CLIENTS: usize = 2;
/// Whole blocks each client sends even when `--seconds` has elapsed:
/// 2 × 3 × 20 = 120 requests, so at least 12 lie beyond p90.
const MIN_BLOCKS: usize = 3;
const SOCKET_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Validate,
    Hit,
    Event,
    Miss,
}

/// Requests of each class in one block of 20.
const BLOCK: [(Class, usize); 4] =
    [(Class::Validate, 2), (Class::Hit, 11), (Class::Event, 6), (Class::Miss, 1)];

/// One client's generated input: its distinct request documents and the
/// block sequence of `(class, document index)`.
struct Plan {
    texts: Vec<String>,
    blocks: Vec<Vec<(Class, usize)>>,
}

fn plans(seed: u64, blocks: usize) -> Vec<Plan> {
    let text = std::fs::read_to_string(SPEC).unwrap_or_else(|e| panic!("read {SPEC}: {e}"));
    let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{SPEC}: {e}"));
    let mut scenario_seeds = BTreeSet::from([spec.seed]);
    (0..CLIENTS as u64)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut texts = vec![ExecRequest::validate_spec(spec.clone()).to_json()];
            let mut pool = |rng: &mut SmallRng, n: usize, backend: Option<&str>| {
                (0..n)
                    .map(|_| {
                        let mut req = ExecRequest::run(spec.clone());
                        req.campaign_seed = Some(rng.gen_range(1..1u64 << 40));
                        req.backend = backend.map(str::to_string);
                        texts.push(req.to_json());
                        texts.len() - 1
                    })
                    .collect::<Vec<_>>()
            };
            let hits = pool(&mut rng, BLOCK[1].1, None);
            let events = pool(&mut rng, BLOCK[2].1, Some("event"));
            let blocks = (0..blocks)
                .map(|_| {
                    let scenario_seed = loop {
                        let s = rng.gen_range(1..1u64 << 40);
                        if scenario_seeds.insert(s) {
                            break s;
                        }
                    };
                    let mut miss = ExecRequest::run(spec.clone());
                    miss.seed = Some(scenario_seed);
                    texts.push(miss.to_json());
                    let mut block: Vec<(Class, usize)> = vec![(Class::Validate, 0); BLOCK[0].1];
                    block.extend(hits.iter().map(|&k| (Class::Hit, k)));
                    block.extend(events.iter().map(|&k| (Class::Event, k)));
                    block.push((Class::Miss, texts.len() - 1));
                    for i in (1..block.len()).rev() {
                        block.swap(i, rng.gen_range(0..i + 1));
                    }
                    block
                })
                .collect();
            Plan { texts, blocks }
        })
        .collect()
}

/// The daemon and its connected clients, warmed up.
struct Daemon {
    plans: Vec<Plan>,
    addr: SocketAddr,
    executor: Arc<Executor>,
    streams: Vec<TcpStream>,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    s.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    Ok(s)
}

fn setup(seed: u64, seconds: f64) -> Daemon {
    // Enough blocks for 20 requests per second per client; a client that
    // runs out stops early.
    let plans = plans(seed, MIN_BLOCKS + seconds.ceil() as usize);
    let server = Server::bind("127.0.0.1:0", DEFAULT_CACHE_CAPACITY, Some(1)).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let executor = Arc::clone(server.executor());
    // The daemon's accept loop has no shutdown: it blocks in `accept`
    // until the process exits.
    std::thread::spawn(move || server.run());
    let mut streams: Vec<TcpStream> =
        (0..CLIENTS).map(|_| connect(addr).expect("connect to the daemon")).collect();
    // Warm-up: one hit request per connection compiles the base scenario
    // into the cache and starts each connection's thread.
    std::thread::scope(|s| {
        for (stream, plan) in streams.iter_mut().zip(&plans) {
            let text =
                &plan.texts[plan.blocks[0].iter().find(|r| r.0 == Class::Hit).expect("hit").1];
            s.spawn(move || exchange(stream, text, None).expect("warm-up request"));
        }
    });
    Daemon { plans, addr, executor, streams }
}

/// One request/response exchange. `Ok(Err(payload))` is an ERROR frame.
fn exchange(
    stream: &mut TcpStream,
    text: &str,
    mut tr: Option<&mut Tracer>,
) -> io::Result<Result<Vec<u8>, Vec<u8>>> {
    let id = tr.as_deref_mut().map(|t| t.open("wire.write"));
    write_frame(stream, FrameKind::Request, text.as_bytes())?;
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
        t.close(id);
        t.add("wire.bytes_out", (HEADER_LEN + text.len()) as f64);
    }
    loop {
        // Wait for the response to arrive first, so `wire.read` times the
        // frame decode rather than the server's work.
        stream.peek(&mut [0u8; 1])?;
        let id = tr.as_deref_mut().map(|t| t.open("wire.read"));
        let frame = read_frame(stream)?;
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
            t.close(id);
            let len = frame.as_ref().map_or(0, |(_, p)| HEADER_LEN + p.len());
            t.add("wire.bytes_in", len as f64);
        }
        match frame {
            Some((FrameKind::Report, payload)) => return Ok(Ok(payload)),
            Some((FrameKind::Error, payload)) => return Ok(Err(payload)),
            Some((FrameKind::Variant, _)) => continue,
            Some((kind, _)) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{kind:?} frame")))
            }
            None => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")),
        }
    }
}

/// One completed request of the timed window.
struct Record {
    client: usize,
    block: usize,
    class: Class,
    key: usize,
    latency_ms: f64,
    /// Completion time, seconds since the window opened.
    done_s: f64,
    /// The REPORT payload; `None` for an ERROR frame or a dead connection.
    report: Option<Vec<u8>>,
}

/// A closed-loop client: each request is sent when the previous reply has
/// arrived. Sends whole blocks until `seconds` have passed since `start`
/// and at least [`MIN_BLOCKS`] are done.
fn client(
    c: usize,
    mut stream: TcpStream,
    addr: SocketAddr,
    plan: &Plan,
    start: Instant,
    seconds: f64,
    mut tr: Option<Tracer>,
) -> (Vec<Record>, Option<Tracer>) {
    let mut records = Vec::new();
    'blocks: for (b, block) in plan.blocks.iter().enumerate() {
        if b >= MIN_BLOCKS && secs(start) >= seconds {
            break;
        }
        for &(class, key) in block {
            if let Some(t) = tr.as_mut() {
                t.set_op(records.len() as u32);
            }
            let id = tr.as_mut().map(|t| t.open("serve.request"));
            let t0 = Instant::now();
            let result = exchange(&mut stream, &plan.texts[key], tr.as_mut());
            let latency_ms = secs(t0) * 1e3;
            if let (Some(t), Some(id)) = (tr.as_mut(), id) {
                t.close(id);
            }
            let report = match result {
                Ok(Ok(payload)) => Some(payload),
                Ok(Err(payload)) => {
                    eprintln!("serve_mix: ERROR frame: {}", String::from_utf8_lossy(&payload));
                    None
                }
                Err(e) => {
                    eprintln!("serve_mix: client {c}: {e}; reconnecting");
                    if let Some(t) = tr.as_mut() {
                        t.add("wire.reconnects", 1.0);
                    }
                    match connect(addr) {
                        Ok(s) => stream = s,
                        Err(e) => {
                            eprintln!("serve_mix: client {c}: reconnect failed: {e}");
                            records.push(Record {
                                client: c,
                                block: b,
                                class,
                                key,
                                latency_ms: f64::INFINITY,
                                done_s: secs(start),
                                report: None,
                            });
                            break 'blocks;
                        }
                    }
                    None
                }
            };
            let latency_ms = if report.is_some() { latency_ms } else { f64::INFINITY };
            records.push(Record {
                client: c,
                block: b,
                class,
                key,
                latency_ms,
                done_s: secs(start),
                report,
            });
        }
    }
    (records, tr)
}

/// What a window produced.
struct Window {
    /// Every request's record, client 0 first.
    records: Vec<Record>,
    /// The clients' merged spans (empty when untraced).
    tr: Tracer,
    /// Seconds until the first client finished: the span over which both
    /// clients kept the daemon loaded, the base of the throughput metrics.
    loaded_s: f64,
    plans: Vec<Plan>,
    executor: Arc<Executor>,
}

/// Runs both clients over the window.
fn window(d: Daemon, seconds: f64, trace: Option<Instant>) -> Window {
    let Daemon { plans, addr, executor, streams } = d;
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let plan = &plans[c];
                let tr = trace.map(|epoch| Tracer::new(epoch, c as u32));
                s.spawn(move || client(c, stream, addr, plan, start, seconds, tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut tr = Tracer::new(trace.unwrap_or(start), CLIENTS as u32);
    let mut records = Vec::new();
    let mut loaded_s = f64::INFINITY;
    for (r, t) in results {
        loaded_s = loaded_s.min(r.last().map_or(0.0, |r| r.done_s));
        records.extend(r);
        if let Some(t) = t {
            tr.absorb(t);
        }
    }
    Window { records, tr, loaded_s, plans, executor }
}

/// In-process reference of every request document the window sent:
/// `(client, key) → (report bytes, total samples)`.
fn references(plans: &[Plan], records: &[Record]) -> BTreeMap<(usize, usize), (String, u64)> {
    let executor = Executor::new();
    let used: BTreeSet<(usize, usize)> = records.iter().map(|r| (r.client, r.key)).collect();
    with_thread_count(2, || {
        used.into_iter()
            .map(|(c, key)| {
                let req = ExecRequest::from_json(&plans[c].texts[key]).expect("request parses");
                let report = executor.execute(&req).expect("reference request runs");
                let samples = match &report {
                    ExecReport::Run(out) => out.report.total_samples,
                    _ => 0,
                };
                ((c, key), (report.to_json(), samples))
            })
            .collect()
    })
}

/// Checks every record against its reference; returns the failed count,
/// the samples of the successful runs and the successful run count.
fn check<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    refs: &BTreeMap<(usize, usize), (String, u64)>,
) -> (u64, u64, u64) {
    let (mut failed, mut samples, mut runs) = (0, 0, 0);
    for r in records {
        let (text, n) = &refs[&(r.client, r.key)];
        if r.report.as_deref() == Some(text.as_bytes()) {
            if r.class != Class::Validate {
                samples += n;
                runs += 1;
            }
        } else {
            failed += 1;
        }
    }
    (failed, samples, runs)
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (daemon, setup_s) = repeated_setup(|| setup(args.seed, args.seconds));
    let (hits0, misses0, _) = daemon.executor.cache_stats();
    crate::reset_peak_rss();
    let Window { records, loaded_s, plans, executor, .. } = window(daemon, args.seconds, None);
    let (hits, misses, _) = executor.cache_stats();
    let peak_rss_mb = crate::peak_rss_mb();
    let refs = references(&plans, &records);
    let (failed, _, _) = check(&records, &refs);
    let loaded: Vec<&Record> = records.iter().filter(|r| r.done_s <= loaded_s).collect();
    let (_, samples, runs) = check(loaded.iter().copied(), &refs);
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("req_per_s", loaded.len() as f64 / loaded_s, "1/s");
    m.put("latency_p50_ms", percentile(&latencies, 50.0), "ms");
    m.put("latency_p90_ms", percentile(&latencies, 90.0), "ms");
    m.put("msamples_per_s", samples as f64 / loaded_s / 1e6, "Msamples/s");
    m.put("variants_per_s", runs as f64 / loaded_s, "1/s");
    let mut info = class_info(&records);
    info.extend([
        ("clients".into(), Value::U64(CLIENTS as u64)),
        ("threads_per_connection".into(), Value::U64(1)),
        ("loaded_s".into(), Value::F64(loaded_s)),
        ("requests_while_loaded".into(), Value::U64(loaded.len() as u64)),
        ("cache_hits".into(), Value::U64(hits - hits0)),
        ("cache_misses".into(), Value::U64(misses - misses0)),
    ]);
    Outcome { attempted: records.len() as u64, failed, metrics: m, info }
}

/// Request count and median latency per class.
fn class_info(records: &[Record]) -> Vec<(String, Value)> {
    let mut by: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for r in records {
        by.entry(r.class).or_default().push(r.latency_ms);
    }
    by.into_iter()
        .map(|(class, lat)| {
            let v = Value::Object(vec![
                ("requests".into(), Value::U64(lat.len() as u64)),
                ("p50_ms".into(), Value::F64(median(&lat).min(f64::MAX))),
            ]);
            (format!("{class:?}").to_lowercase(), v)
        })
        .collect()
}

/// Replays one request document stage by stage through the public API,
/// with `cache` standing in for the daemon's scenario cache. Returns the
/// run's field (`None` for a validate request).
fn replay_request(
    tr: &mut Tracer,
    text: &str,
    cache: &mut ScenarioCache,
) -> Result<Option<CellField>, String> {
    let req = tr.span("spec.parse", || ExecRequest::from_json(text)).map_err(|e| e.to_string())?;
    let id = tr.open("spec.validate");
    let mut spec = req.spec.clone().ok_or("request without a spec")?;
    if req.action == ExecAction::Run {
        if let Some(b) = &req.backend {
            spec.backend = b.clone();
        }
        if let Some(s) = req.seed {
            spec.seed = s;
        }
        if let Some(s) = req.campaign_seed {
            spec.campaign.seed = s;
        }
    }
    let valid = req.validate().is_ok() && spec.validate().is_empty();
    tr.close(id);
    if !valid {
        return Err("request does not validate".into());
    }
    if req.action == ExecAction::Validate {
        return Ok(None);
    }
    let misses = cache.misses();
    let id = tr.open("exec.cache");
    let scenario = cache.get_or_compile(&spec);
    tr.close_as(id, if cache.misses() > misses { "scenario.compile" } else { "exec.cache" });
    let scenario = scenario.map_err(|e| e.to_string())?;
    let backend = parse_backend(&spec.backend)?;
    let config = CampaignConfig {
        seed: spec.campaign.seed,
        sample_interval_s: spec.campaign.sample_interval_s,
        passes: spec.campaign.passes,
    };
    let requirement_ms = req.requirement_ms.unwrap_or(DEFAULT_REQUIREMENT_MS);
    let (field, _) = crate::replay::run(tr, &scenario, config, backend, requirement_ms);
    Ok(Some(field))
}

/// Sequential sample cost of the event backend over the analytic one, per
/// sample, on the same Klagenfurt shards; returns `(ratio, samples)`.
fn event_cost_ratio(cache: &mut ScenarioCache) -> (f64, f64) {
    let text = std::fs::read_to_string(SPEC).unwrap_or_else(|e| panic!("read {SPEC}: {e}"));
    let spec = ScenarioSpec::from_json(&text).expect("spec parses");
    let scenario = cache.get_or_compile(&spec).expect("spec compiles");
    let config = CampaignConfig {
        seed: spec.campaign.seed,
        sample_interval_s: spec.campaign.sample_interval_s,
        passes: spec.campaign.passes,
    };
    let analytic = MobileCampaign::new(&scenario, config);
    let event = EventCampaign::new(&scenario, config);
    let shards = analytic.shards();
    let mut buf = Vec::new();
    let mut ms_per_sample = |collect: &dyn Fn(Shard, &mut Vec<f64>)| {
        let t = Instant::now();
        let mut n = 0;
        for &shard in &shards {
            collect(shard, &mut buf);
            n += buf.len();
        }
        (secs(t) * 1e3 / n as f64, n as f64)
    };
    let (a, n) = ms_per_sample(&|s, buf| analytic.collect_shard_into(s, buf));
    let (e, _) = ms_per_sample(&|s, buf| event.collect_shard_into(s, buf));
    (e / a, n)
}

/// The traced run: the closed-loop window with client-side wire spans,
/// then an uncontended replay of client 0's first block — each request
/// executed in process (untraced) and replayed stage by stage (traced),
/// whose fields must match — and the event/analytic cost ratio.
fn traced(args: &Args) -> Outcome {
    let epoch = Instant::now();
    let daemon = setup(args.seed, args.seconds);
    let (hits0, misses0, _) = daemon.executor.cache_stats();
    let Window { records, mut tr, plans, executor, .. } = window(daemon, args.seconds, Some(epoch));
    let (hits, misses, _) = executor.cache_stats();
    let refs = references(&plans, &records);
    let (mut failed, _, _) = check(&records, &refs);
    let mut attempted = records.len() as u64;

    let local = Executor::new();
    let mut cache = ScenarioCache::new(DEFAULT_CACHE_CAPACITY);
    let (cost_ratio, cost_base) = with_thread_count(1, || event_cost_ratio(&mut cache));
    let plan = &plans[0];
    let warm = plan.blocks[0].iter().find(|r| r.0 == Class::Hit).expect("hit").1;
    local.execute(&ExecRequest::from_json(&plan.texts[warm]).expect("parses")).expect("warm-up");

    let (mut execute_ms, mut replay_ms, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &(_, key)) in plan.blocks[0].iter().enumerate() {
        tr.set_op(i as u32);
        attempted += 1;
        let text = &plan.texts[key];
        let req = ExecRequest::from_json(text).expect("request parses");
        let t = Instant::now();
        let report = with_thread_count(1, || local.execute(&req));
        let exec_ms = secs(t) * 1e3;
        let Ok(report) = report else {
            failed += 1;
            continue;
        };
        let id = tr.open("exec.serialise");
        let bytes = report.to_json();
        tr.close(id);
        tr.add("exec.report_bytes", bytes.len() as f64);
        let uncontended_ms = secs(t) * 1e3;
        execute_ms.push(exec_ms);

        let t = Instant::now();
        let replayed = with_thread_count(1, || replay_request(&mut tr, text, &mut cache));
        replay_ms.push(secs(t) * 1e3);
        let same = match (&replayed, &report) {
            (Ok(Some(field)), ExecReport::Run(out)) => same_bits(field, &out.field),
            (Ok(None), ExecReport::Valid { .. }) => true,
            _ => false,
        };
        if !same {
            failed += 1;
        }
        if let Some(r) = records.iter().filter(|r| r.client == 0 && r.block == 0).nth(i) {
            waits.push(r.latency_ms - uncontended_ms);
        }
    }
    if let Some(path) = &args.spans {
        tr.write_jsonl(path).expect("write spans");
    }
    let (overhead_ms, overhead_pct) = ledger::overhead(&execute_ms, &replay_ms);
    let extras = Extras {
        ops: replay_ms.len() as f64,
        requests: records.len() as f64,
        cache_hits: (hits - hits0) as f64,
        cache_lookups: (hits - hits0 + misses - misses0) as f64,
        serve_wait_ms: if waits.is_empty() { 0.0 } else { median(&waits) },
        cost_ratio,
        cost_ratio_base: cost_base,
        overhead_ms,
        overhead_pct,
        ..Extras::default()
    };
    Outcome {
        attempted,
        failed,
        metrics: ledger::metrics(&tr, &extras),
        info: class_info(&records),
    }
}
