//! The layer ladder of a traced run: per-layer metrics from spans around
//! the benchmark's own calls into each layer's public functions, plus
//! what the workload's traced window measured itself.
//!
//! Every per-layer metric is printed on every workload, because the
//! result line of a traced run must carry all of them. A layer the
//! workload's path exercises is measured on that path (for example the
//! fleet hop on `fleet-proxy`); a layer it bypasses is measured by a
//! small standalone probe of the same layer, so each number is always a
//! measurement and never a placeholder. The run names the probe-sourced
//! metrics on stderr, and `NOTES.md` says which source each metric has
//! on each workload: a probe-sourced figure describes the probe's load,
//! not the workload's.

use crate::rig::{Bins, Rig, Topology};
use crate::serve::{self, Inputs, Kind, ServeSpec, GROUPS};
use crate::spans::{self, Tracer};
use crate::stats::{quantile, skew};
use crate::{Args, Report};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use symbio::Error;
use symbio_allocator::{
    AllocationPolicy, InterferenceGraphPolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy,
};
use symbio_cache::{Address, CacheGeometry, ReplacementPolicy, SetAssocCache};
use symbio_cbf::{
    CacheEventSink, HashKind, LineLocation, Sampling, SignatureConfig, SignatureUnit,
};
use symbio_fleet::{RouteEntry, RoutingTable, DEFAULT_BYTES_PER_GROUP};
use symbio_machine::{Mapping, SigSnapshot};
use symbio_online::{JournalWriter, OnlineConfig, OnlineEngine};
use symbio_serve::{Encoding, Request, Response};

/// Every per-layer metric, in print order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.v1.decode_us", "us"),
    ("proto.v1.encode_us", "us"),
    ("proto.v2.decode_us", "us"),
    ("proto.v2.encode_us", "us"),
    ("proto.request_bytes", "B"),
    ("online.ingest_us", "us"),
    ("online.remap_ratio", "fraction"),
    ("online.journal_us", "us"),
    ("online.journal_bytes_per_op", "B"),
    ("online.recovery_s", "s"),
    ("online.whatif_us", "us"),
    ("online.whatif_memo_hit_ratio", "fraction"),
    ("serve.rtt_floor_us", "us"),
    ("serve.shard_skew", "ratio"),
    ("serve.remainder_us", "us"),
    ("allocator.allocate_us.weight-sort", "us"),
    ("allocator.allocate_us.graph", "us"),
    ("allocator.allocate_us.weighted-graph", "us"),
    ("eval.predicted_gain_us", "us"),
    ("fleet.coordinator_cpu_us_per_op", "us"),
    ("fleet.backend_cpu_us_per_op", "us"),
    ("fleet.backend_skew", "ratio"),
    ("fleet.route_ns", "ns"),
    ("core.profile_s", "s"),
    ("core.measure_s", "s"),
    ("core.other_s", "s"),
    ("core.memo_hit_ratio", "fraction"),
    ("machine.sim_mcycles_per_s", "Mcycles/s"),
    ("cache.access_ns", "ns"),
    ("cbf.event_ns", "ns"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.cpu_us_per_op", "us"),
    ("trace.overhead_cpu_us_per_op", "us"),
    ("trace.overhead_p50_us", "us"),
    ("error_rate", "fraction"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("host.probe_us", "us"),
];

/// Ingests the in-process engine rungs replay.
const LADDER_OPS: usize = 8_192;
/// Of those, ingests the journal rungs replay (recovery parses the whole
/// journal, which is slow enough to dominate a traced run otherwise).
const JOURNAL_OPS: usize = 1_024;

/// Per-layer values a workload's traced run measured on its own path,
/// plus what the remainder needs.
#[derive(Debug, Default)]
pub struct Measured {
    /// Metric values already known, by name.
    pub known: BTreeMap<&'static str, f64>,
    /// Untraced end-to-end CPU per op of the processes under test.
    pub cpu_us_per_op: f64,
    /// Shares of the workload's ops that are ingests and what-ifs.
    pub mix: (f64, f64),
}

impl Measured {
    /// Record a measured value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.known.insert(name, value);
    }
}

/// Ops per shard of a `symbiod` with `shards` shards: max over mean.
pub fn shard_skew(names: impl Iterator<Item = String>, shards: usize) -> f64 {
    let mut counts = vec![0u64; shards];
    for n in names {
        counts[symbio::shard_of(&n, shards)] += 1;
    }
    skew(&counts)
}

/// Record the serving window's own per-layer numbers.
pub fn from_windows(
    m: &mut Measured,
    spec: &ServeSpec,
    inputs: &Inputs,
    plans: &[serve::ConnPlan],
    untraced: &serve::Window,
    traced: &serve::Window,
) {
    m.cpu_us_per_op = untraced.cpu_us_per_op();
    m.put(
        "trace.overhead_cpu_us_per_op",
        traced.cpu_us_per_op() - untraced.cpu_us_per_op(),
    );
    m.put(
        "trace.overhead_p50_us",
        traced.latency_q_us(0.5) - untraced.latency_q_us(0.5),
    );
    m.put(
        "loadgen.lag_p99_us",
        quantile(&mut traced.lag_us.clone(), 0.99),
    );
    m.put(
        "loadgen.cpu_us_per_op",
        traced.generator_cpu_s * 1e6 / traced.answered.max(1) as f64,
    );
    let (hits, misses) = (
        untraced.memo.0 + traced.memo.0,
        untraced.memo.1 + traced.memo.1,
    );
    m.put(
        "online.whatif_memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let ops = plans.iter().flat_map(|p| {
        p.frames[..traced.range.end]
            .iter()
            .flat_map(|f| p.ops[f.ops.clone()].iter())
    });
    let (mut ingest, mut whatif) = (0f64, 0f64);
    let mut names = Vec::new();
    for op in ops {
        match op.kind {
            Kind::Ingest => ingest += 1.0,
            Kind::WhatIf => whatif += 1.0,
            Kind::Map => {}
        }
        names.push(inputs.names[op.group as usize].clone());
    }
    let total = names.len().max(1) as f64;
    m.mix = (ingest / total, whatif / total);
    match spec.topology {
        Topology::Symbiod { shards, .. } => {
            m.put("serve.shard_skew", shard_skew(names.into_iter(), shards));
        }
        Topology::Fleet { .. } => {
            let answered = traced.answered.max(1) as f64;
            let coordinator = *traced.cpu_s.last().expect("fleetd is accounted");
            let backends: f64 = traced.cpu_s[..traced.cpu_s.len() - 1].iter().sum();
            m.put(
                "fleet.coordinator_cpu_us_per_op",
                coordinator * 1e6 / answered,
            );
            m.put("fleet.backend_cpu_us_per_op", backends * 1e6 / answered);
            let s = skew(&traced.proxied_delta);
            m.put("fleet.backend_skew", s);
            // Each backend is one engine shard.
            m.put("serve.shard_skew", s);
        }
    }
}

/// Run `f`, which handles `items` items, inside one span; mean
/// microseconds per item.
fn per_item_us(tracer: &mut Tracer, name: &'static str, items: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    tracer.time(name, f);
    t.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64
}

/// The ingest sequence the engine rungs replay: every group's next epoch
/// in turn.
fn ladder_snapshots(inputs: &Inputs) -> Vec<SigSnapshot> {
    (0..LADDER_OPS)
        .map(|i| {
            inputs.snapshot(&serve::Op {
                group: (i % GROUPS) as u16,
                kind: Kind::Ingest,
                epoch: (i / GROUPS) as u32,
            })
        })
        .collect()
}

fn policy(name: &str) -> Box<dyn AllocationPolicy + Send> {
    match name {
        "graph" => Box::new(InterferenceGraphPolicy::default()),
        "weighted-graph" => Box::new(WeightedInterferenceGraphPolicy::default()),
        _ => Box::new(WeightSortPolicy),
    }
}

/// In-process rungs: codec, engine, journal, what-if, allocator, eval,
/// routing, cache and signature kernels.
fn in_process(
    inputs: &Inputs,
    batch: usize,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> symbio::Result<()> {
    let snaps = ladder_snapshots(inputs);

    // Engine without and with a journal, same ingest sequence.
    let mut engine = OnlineEngine::new(policy("weight-sort"), OnlineConfig::default())?;
    let mut decisions = Vec::with_capacity(snaps.len());
    let t = Instant::now();
    for s in &snaps {
        tracer.enter("OnlineEngine::ingest");
        decisions.push(engine.ingest(s)?);
        tracer.exit();
    }
    out.insert(
        "online.ingest_us",
        t.elapsed().as_secs_f64() * 1e6 / snaps.len() as f64,
    );
    let remaps = decisions.iter().filter(|d| d.changed).count();
    out.entry("online.remap_ratio")
        .or_insert(remaps as f64 / decisions.len() as f64);

    let journal = dir.join("ladder.journal");
    let mut plain = OnlineEngine::new(policy("weight-sort"), OnlineConfig::default())?;
    let mut durable = OnlineEngine::new(policy("weight-sort"), OnlineConfig::default())?
        .with_journal(JournalWriter::open(&journal, 256)?);
    let (mut without, mut with) = (0.0, 0.0);
    for s in &snaps[..JOURNAL_OPS] {
        let t = Instant::now();
        black_box(plain.ingest(s)?);
        without += t.elapsed().as_secs_f64();
        let t = Instant::now();
        tracer.enter("OnlineEngine::ingest+JournalWriter::append");
        black_box(durable.ingest(s)?);
        tracer.exit();
        with += t.elapsed().as_secs_f64();
    }
    drop(durable);
    out.insert(
        "online.journal_us",
        (with - without) * 1e6 / JOURNAL_OPS as f64,
    );
    out.insert(
        "online.journal_bytes_per_op",
        std::fs::metadata(&journal)?.len() as f64 / JOURNAL_OPS as f64,
    );
    let mut recovered = OnlineEngine::new(policy("weight-sort"), OnlineConfig::default())?;
    let t = Instant::now();
    tracer.time("OnlineEngine::recover_from", || {
        recovered.recover_from(&journal)
    })?;
    out.insert("online.recovery_s", t.elapsed().as_secs_f64());

    // What-if on each group's next epoch.
    let next: Vec<SigSnapshot> = (0..GROUPS)
        .map(|g| {
            inputs.snapshot(&serve::Op {
                group: g as u16,
                kind: Kind::WhatIf,
                epoch: (LADDER_OPS / GROUPS) as u32,
            })
        })
        .collect();
    let t = Instant::now();
    for s in &next {
        tracer.enter("OnlineEngine::what_if");
        black_box(engine.what_if(s)?);
        tracer.exit();
    }
    out.insert(
        "online.whatif_us",
        t.elapsed().as_secs_f64() * 1e6 / next.len() as f64,
    );

    // Codec: what a daemon does per op — decode the request, encode the
    // reply — in both encodings.
    let v1 = Encoding::JsonLines.codec();
    let v2 = Encoding::Binary.codec();
    let lone: Vec<Vec<u8>> = snaps[..256]
        .iter()
        .map(|s| {
            let mut req = Vec::new();
            v1.encode_request(&Request::Ingest(s.clone()), &mut req)
                .expect("encodes");
            req
        })
        .collect();
    let payloads: Vec<&[u8]> = lone
        .iter()
        .map(|req| v1.split_frame(req).expect("frames").expect("whole").1)
        .collect();
    out.insert(
        "proto.v1.decode_us",
        per_item_us(
            tracer,
            "FrameCodec::decode_request/v1",
            payloads.len(),
            || {
                for p in &payloads {
                    black_box(v1.decode_request(p).expect("decodes"));
                }
            },
        ),
    );
    let replies: Vec<Response> = decisions[..256]
        .iter()
        .map(|d| Response::Decision(d.clone()))
        .collect();
    let mut buf = Vec::new();
    out.insert(
        "proto.v1.encode_us",
        per_item_us(tracer, "FrameCodec::encode_reply/v1", replies.len(), || {
            for r in &replies {
                buf.clear();
                v1.encode_reply(r, &mut buf).expect("encodes");
                black_box(&buf);
            }
        }),
    );
    let frames: Vec<Vec<u8>> = snaps[..256]
        .chunks(batch)
        .map(|c| {
            let mut out = Vec::new();
            v2.encode_request(&Request::IngestBatch(c.to_vec()), &mut out)
                .expect("encodes");
            out
        })
        .collect();
    let payloads: Vec<&[u8]> = frames
        .iter()
        .map(|f| v2.split_frame(f).expect("frames").expect("whole").1)
        .collect();
    out.insert(
        "proto.v2.decode_us",
        per_item_us(tracer, "FrameCodec::decode_request/v2", 256, || {
            for p in &payloads {
                black_box(v2.decode_request(p).expect("decodes"));
            }
        }),
    );
    let batches: Vec<Response> = replies
        .chunks(batch)
        .map(|c| Response::Batch(c.to_vec()))
        .collect();
    out.insert(
        "proto.v2.encode_us",
        per_item_us(tracer, "FrameCodec::encode_reply/v2", 256, || {
            for r in &batches {
                buf.clear();
                v2.encode_reply(r, &mut buf).expect("encodes");
                black_box(&buf);
            }
        }),
    );
    out.entry("proto.request_bytes")
        .or_insert(frames.iter().map(Vec::len).sum::<usize>() as f64 / 256.0);

    // Allocation policies and the gain model on the trace's views.
    let trace = &inputs.trace.snaps;
    for (name, metric, span) in [
        (
            "weight-sort",
            "allocator.allocate_us.weight-sort",
            "AllocationPolicy::allocate/weight-sort",
        ),
        (
            "graph",
            "allocator.allocate_us.graph",
            "AllocationPolicy::allocate/graph",
        ),
        (
            "weighted-graph",
            "allocator.allocate_us.weighted-graph",
            "AllocationPolicy::allocate/weighted-graph",
        ),
    ] {
        let mut p = policy(name);
        let t = Instant::now();
        for _ in 0..4 {
            for s in trace {
                tracer.enter(span);
                black_box(p.allocate(&s.procs, s.cores));
                tracer.exit();
            }
        }
        out.entry(metric)
            .or_insert(t.elapsed().as_secs_f64() * 1e6 / (4 * trace.len()) as f64);
    }
    let cfg = OnlineConfig::default();
    let mut ws = WeightSortPolicy;
    let pairs: Vec<(Mapping, Mapping)> = trace
        .iter()
        .map(|s| {
            let threads = s.thread_count();
            (
                Mapping::round_robin(threads, s.cores),
                ws.allocate(&s.procs, s.cores),
            )
        })
        .collect();
    let t = Instant::now();
    for _ in 0..4 {
        for (s, (inc, chal)) in trace.iter().zip(&pairs) {
            let threads = s.threads();
            tracer.enter("symbio_eval::predicted_gain");
            black_box(symbio_eval::predicted_gain(
                cfg.gain_metric,
                cfg.weighted_gain,
                &threads,
                inc,
                chal,
            ));
            tracer.exit();
        }
    }
    out.insert(
        "eval.predicted_gain_us",
        t.elapsed().as_secs_f64() * 1e6 / (4 * trace.len()) as f64,
    );

    // Routing-table lookups for the workload's groups.
    let mut table = RoutingTable::new(DEFAULT_BYTES_PER_GROUP);
    let keys: Vec<u64> = inputs
        .names
        .iter()
        .map(|n| RoutingTable::key_of(n))
        .collect();
    for (i, &k) in keys.iter().enumerate() {
        table.upsert(
            k,
            RouteEntry {
                owner: (i % 2) as u16,
                tenant: 0,
                moved: false,
            },
        );
    }
    const LOOKUPS: usize = 400;
    let ns = per_item_us(tracer, "RoutingTable::get", LOOKUPS * keys.len(), || {
        for _ in 0..LOOKUPS {
            for &k in &keys {
                black_box(table.get(black_box(k)));
            }
        }
    }) * 1e3;
    out.insert("fleet.route_ns", ns);

    // Cache and signature kernels: an access storm over 4× the L2.
    let geo = CacheGeometry::scaled_l2();
    let mut cache = SetAssocCache::new(geo, ReplacementPolicy::Lru, 2, 1);
    let region = geo.size_bytes * 4;
    const KERNEL_OPS: u64 = 2_000_000;
    let ns = per_item_us(tracer, "SetAssocCache::access", KERNEL_OPS as usize, || {
        let mut x = 0x9E37_79B9u64;
        for i in 0..KERNEL_OPS {
            x = symbio::mix64(x);
            let addr = Address((x % region) & !63);
            black_box(cache.access((i & 1) as usize, addr, i % 5 == 0));
        }
    }) * 1e3;
    out.insert("cache.access_ns", ns);
    let mut unit = SignatureUnit::new(SignatureConfig {
        cores: 2,
        sets: geo.sets(),
        ways: geo.ways,
        line_shift: geo.line_shift(),
        counter_bits: 8,
        hash: HashKind::Xor,
        sampling: Sampling::FULL,
    });
    let ns = per_item_us(
        tracer,
        "SignatureUnit::on_fill/on_evict",
        KERNEL_OPS as usize,
        || {
            let mut x = 0x5151_7A7Au64;
            for i in 0..KERNEL_OPS {
                x = symbio::mix64(x);
                let block = x >> 6;
                let loc = LineLocation {
                    set: (block % u64::from(geo.sets())) as u32,
                    way: (i % u64::from(geo.ways)) as u32,
                };
                if i % 3 == 2 {
                    unit.on_evict(block, loc);
                } else {
                    unit.on_fill((i & 1) as usize, block, loc);
                }
            }
        },
    ) * 1e3;
    out.insert("cbf.event_ns", ns);
    Ok(())
}

/// The fleet hop measured standalone: a `fleetd` in front of two
/// `symbiod`s at the fleet-proxy workload's load, for workloads whose own path
/// has no coordinator.
fn hop_probe(
    args: &Args,
    bins: &Bins,
    inputs: &Inputs,
    tracer: &mut Tracer,
    dir: &Path,
    out: &mut BTreeMap<&'static str, f64>,
) -> symbio::Result<()> {
    let spec = crate::serve_spec("fleet-proxy", dir).expect("fleet-proxy is a serving workload");
    let frames = spec.frames_for_rounds(8);
    let mut plans = serve::plan(inputs, &spec, args.seed ^ 0x40B, 0, frames);
    let rig = Rig::start(bins, &spec.topology)?;
    let mut t = Tracer::new(tracer.enabled(), tracer.epoch());
    let w = serve::connect_all(&rig, &plans, spec.encoding).and_then(|mut streams| {
        serve::run_window(
            &rig,
            &mut streams,
            &mut plans,
            0..frames,
            spec.encoding,
            &mut t,
        )
    });
    let rtt = serve::rtt_floor_us(rig.daemons[0].addr, &mut t);
    rig.shutdown()?;
    let (w, rtt) = (w?, rtt?);
    tracer.absorb(t);
    if w.failed > 0 {
        return Err(Error::Protocol(format!(
            "fleet hop probe: {} of {} ops failed",
            w.failed, w.attempted
        )));
    }
    let answered = w.answered.max(1) as f64;
    let coordinator = *w.cpu_s.last().expect("fleetd is accounted");
    let backends: f64 = w.cpu_s[..w.cpu_s.len() - 1].iter().sum();
    out.entry("fleet.coordinator_cpu_us_per_op")
        .or_insert(coordinator * 1e6 / answered);
    out.entry("fleet.backend_cpu_us_per_op")
        .or_insert(backends * 1e6 / answered);
    out.entry("fleet.backend_skew")
        .or_insert(skew(&w.proxied_delta));
    out.entry("loadgen.lag_p99_us")
        .or_insert(quantile(&mut w.lag_us.clone(), 0.99));
    out.entry("loadgen.cpu_us_per_op")
        .or_insert(w.generator_cpu_s * 1e6 / answered);
    out.entry("serve.rtt_floor_us").or_insert(rtt);
    // Each backend is one engine shard.
    out.entry("serve.shard_skew")
        .or_insert(skew(&w.proxied_delta));
    Ok(())
}

/// The two-phase pipeline measured standalone on one small fig13 mix,
/// for workloads whose own path does not run it.
fn core_probe(tracer: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) -> symbio::Result<()> {
    let s = crate::sweep::core_probe(tracer)?;
    out.entry("core.profile_s").or_insert(s.profile_s);
    out.entry("core.measure_s").or_insert(s.measure_s);
    out.entry("core.other_s").or_insert(s.other_s);
    out.entry("core.memo_hit_ratio").or_insert(s.memo_hit_ratio);
    out.entry("machine.sim_mcycles_per_s")
        .or_insert(s.sim_mcycles_per_s);
    Ok(())
}

/// Run every rung the workload did not measure itself, compute the
/// remainder, print a span summary, write the spans out, and add every
/// per-layer metric to `report`.
#[allow(clippy::too_many_arguments)] // one call site; the bundle is the run
pub fn finish(
    args: &Args,
    bins: &Bins,
    inputs: &Inputs,
    batch: usize,
    mut m: Measured,
    tracer: &mut Tracer,
    dir: &Path,
    report: &mut Report,
) -> symbio::Result<()> {
    let out = &mut m.known;
    in_process(inputs, batch, dir, tracer, out)?;
    let own: Vec<&'static str> = out.keys().copied().collect();
    if !out.contains_key("fleet.coordinator_cpu_us_per_op")
        || !out.contains_key("loadgen.lag_p99_us")
    {
        hop_probe(args, bins, inputs, tracer, dir, out)?;
    }
    if !out.contains_key("core.profile_s") {
        core_probe(tracer, out)?;
    }
    let probed: Vec<&str> = out.keys().copied().filter(|k| !own.contains(k)).collect();
    if !probed.is_empty() {
        eprintln!(
            "perfbench: from standalone probes, not this workload's path: {}",
            probed.join(", ")
        );
    }
    // Nothing served a what-if: no memo lookups happened.
    out.entry("online.whatif_memo_hit_ratio").or_insert(0.0);

    let get = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let (ingest, whatif) = m.mix;
    let layers = match args.workload.as_str() {
        "ingest-batch-durable" => {
            get("proto.v2.decode_us")
                + get("proto.v2.encode_us")
                + get("online.ingest_us")
                + get("online.journal_us")
        }
        "json-mixed" => {
            get("proto.v1.decode_us")
                + get("proto.v1.encode_us")
                + ingest * get("online.ingest_us")
                + whatif * get("online.whatif_us")
        }
        "fleet-proxy" => {
            // Coordinator: decode the batch item, encode the lone
            // request, decode the backend's reply, encode the batch
            // reply item; backend: the same codec pair plus the engine.
            2.0 * (get("proto.v2.decode_us") + get("proto.v2.encode_us"))
                + get("online.ingest_us")
                + get("fleet.route_ns") / 1e3
        }
        // The sweep reports its own layer sum (profile + measure per op).
        _ => get("sweep.layers_us_per_op"),
    };
    out.insert("serve.remainder_us", m.cpu_us_per_op - layers);

    let summary = spans::summarize(tracer.spans());
    eprintln!("perfbench: spans (name: count, mean self us, total ms)");
    for (name, s) in &summary {
        eprintln!(
            "perfbench:   {name}: {}, {:.3}, {:.3}",
            s.count,
            s.mean_self_us(),
            s.total_ns as f64 / 1e6
        );
    }
    let spans_dir = Path::new(".bench_run");
    std::fs::create_dir_all(spans_dir)?;
    let path = spans_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    spans::write_jsonl(&path, tracer.spans())?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );

    for (name, unit) in PER_LAYER {
        let v = out
            .get(name)
            .copied()
            .ok_or_else(|| Error::Protocol(format!("per-layer metric {name} was not measured")))?;
        report.put(name, v, unit);
    }
    Ok(())
}
