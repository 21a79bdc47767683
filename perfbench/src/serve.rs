//! The three serving workloads: a seeded signature trace replayed by 256
//! groups through the real daemons, open loop, with the replies checked
//! against an in-process engine.

use crate::procfs;
use crate::rig::{Bins, Rig, Topology, CONTROL_TIMEOUT};
use crate::spans::Tracer;
use crate::stats::{quantile, Rng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};
use symbio::obs::CounterSnapshot;
use symbio::Error;
use symbio_allocator::WeightSortPolicy;
use symbio_machine::{Machine, MachineConfig, SigSnapshot};
use symbio_online::{DecisionReason, OnlineConfig, OnlineEngine};
use symbio_serve::proto::FrameCodec;
use symbio_serve::{Encoding, Hello, Request, Response, WireClient};
use symbio_workloads::spec2006;

/// Process groups replaying the trace.
pub const GROUPS: usize = 256;
/// Client connections (and generator threads): the box's CPU count.
pub const CONNS: usize = 2;
/// Trace epochs recorded per phase; the trace has two phases.
const PHASE_EPOCHS: usize = 32;
/// Machine cycles between recorded snapshots.
const INTERVAL_CYCLES: u64 = 1_000_000;
/// An op answered later than this after its due time counts as failed
/// (one allocator interval in the paper).
pub const LATE_S: f64 = 0.100;
/// How long the generator waits for stragglers after the last due time.
const DRAIN_S: f64 = 10.0;

/// The signature trace every group replays.
pub struct Trace {
    /// Snapshots in epoch order (group and seq are set per op).
    pub snaps: Vec<SigSnapshot>,
    /// Simulated machine cycles spent recording.
    pub sim_cycles: u64,
    /// Wall seconds spent recording.
    pub record_s: f64,
}

/// The two phases' mixes, cycled to two processes per core.
const PHASES: [[&str; 4]; 2] = [
    ["gobmk", "hmmer", "libquantum", "povray"],
    ["mcf", "omnetpp", "bzip2", "soplex"],
];

/// Record the trace from the seeded 2-domain, 8-process scaled machine.
/// The two phases run different mixes, so replaying groups see a phase
/// change mid-trace and again at every wrap. The mixes are fixed so the
/// seed varies the signatures, not how much work they are.
pub fn record_trace(seed: u64) -> symbio::Result<Trace> {
    let t0 = Instant::now();
    let cfg = MachineConfig::scaled_multidomain(seed, 2);
    let mut snaps = Vec::with_capacity(2 * PHASE_EPOCHS);
    let mut sim_cycles = 0;
    for mix in PHASES {
        let mut machine = Machine::new(cfg);
        for i in 0..2 * cfg.cores {
            let name = mix[i % 4];
            let spec = spec2006::by_name(name, cfg.l2.size_bytes).expect("pool name");
            machine.add_process(&spec);
        }
        machine.start(None);
        for _ in 0..PHASE_EPOCHS {
            machine.run_for(INTERVAL_CYCLES);
            let seq = snaps.len() as u64;
            snaps.push(
                machine
                    .export_snapshot("trace", seq)
                    .map_err(|e| Error::Protocol(format!("trace export failed: {e:?}")))?,
            );
        }
        sim_cycles += machine.now();
    }
    Ok(Trace {
        snaps,
        sim_cycles,
        record_s: t0.elapsed().as_secs_f64(),
    })
}

/// What one op asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ingest the group's next epoch.
    Ingest,
    /// Ask what the engine would do with the group's next epoch.
    WhatIf,
    /// Ask for the group's committed mapping.
    Map,
}

/// One op of a group's stream.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Group index.
    pub group: u16,
    /// What is asked.
    pub kind: Kind,
    /// The group's epoch number: the seq of an ingest, or the epoch a
    /// what-if looks at.
    pub epoch: u32,
}

/// The seeded inputs shared by every serving workload.
pub struct Inputs {
    /// The recorded trace.
    pub trace: Trace,
    /// Group names.
    pub names: Vec<String>,
    /// Each group's starting offset into the trace.
    pub offsets: Vec<usize>,
}

impl Inputs {
    /// Record the trace and draw the group offsets from `seed`.
    pub fn new(seed: u64) -> symbio::Result<Inputs> {
        let trace = record_trace(seed)?;
        let mut rng = Rng::new(seed ^ 0x0FF5E7);
        let offsets = (0..GROUPS)
            .map(|_| rng.below(trace.snaps.len() as u64) as usize)
            .collect();
        let names = (0..GROUPS).map(|g| format!("g{g:03}")).collect();
        Ok(Inputs {
            trace,
            names,
            offsets,
        })
    }

    /// The snapshot op `op` carries.
    pub fn snapshot(&self, op: &Op) -> SigSnapshot {
        let mut s = self.trace.snaps[self.pos(op)].clone();
        s.group = self.names[op.group as usize].clone();
        s.seq = u64::from(op.epoch);
        s
    }

    fn pos(&self, op: &Op) -> usize {
        (self.offsets[op.group as usize] + op.epoch as usize) % self.trace.snaps.len()
    }

    /// The request op `op` sends on its own.
    pub fn request(&self, op: &Op) -> Request {
        match op.kind {
            Kind::Ingest => Request::Ingest(self.snapshot(op)),
            Kind::WhatIf => Request::WhatIf(self.snapshot(op)),
            Kind::Map => Request::Map {
                group: self.names[op.group as usize].clone(),
            },
        }
    }
}

/// A serving workload's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Wire encoding.
    pub encoding: Encoding,
    /// Ops per request frame (1 = lone requests).
    pub batch: usize,
    /// Offered load, ops per second over all connections.
    pub rate: f64,
    /// Share of ops that are reads (what-if or map).
    pub reads: bool,
    /// Rounds (epochs per group) ingested by the untimed pre-phase whose
    /// journal the measured daemon replays at start-up; 0 = none.
    pub prephase_rounds: u32,
    /// Daemons under test.
    pub topology: Topology,
}

impl ServeSpec {
    /// Frames per second each connection sends.
    pub fn frames_per_conn_s(&self) -> f64 {
        self.rate / CONNS as f64 / self.batch as f64
    }

    /// Frames per connection that carry `rounds` epochs of every group
    /// (batched workloads).
    pub fn frames_for_rounds(&self, rounds: u32) -> usize {
        rounds as usize * GROUPS / CONNS / self.batch
    }
}

/// One request frame of a connection's schedule.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    /// Due time, seconds after the schedule starts.
    pub due: f64,
    /// The frame's ops, as a range of the connection's op list.
    pub ops: std::ops::Range<usize>,
}

/// A connection's pre-encoded schedule.
pub struct ConnPlan {
    /// Ops in send order.
    pub ops: Vec<Op>,
    /// Frames in send order.
    pub frames: Vec<FrameSpec>,
    bytes: FrameBytes,
}

/// Pre-encoded request bytes. Batched binary frames repeat their content
/// up to the seq field (every item of a frame carries the same round),
/// so they are kept as per-content templates with the seq offsets found
/// at set-up and patched at send time; anything else is encoded whole.
enum FrameBytes {
    Whole(Vec<Vec<u8>>),
    Patched {
        templates: Vec<Vec<u8>>,
        /// Byte offsets of the seq fields in each template.
        offsets: Vec<Vec<usize>>,
        /// Per frame: template index and the seq to write.
        picks: Vec<(usize, u64)>,
    },
}

impl ConnPlan {
    /// The bytes of frame `j`.
    pub fn frame_bytes(&mut self, j: usize) -> &[u8] {
        match &mut self.bytes {
            FrameBytes::Whole(v) => &v[j],
            FrameBytes::Patched {
                templates,
                offsets,
                picks,
            } => {
                let (t, seq) = picks[j];
                let buf = &mut templates[t];
                for &o in &offsets[t] {
                    buf[o..o + 8].copy_from_slice(&seq.to_le_bytes());
                }
                &templates[t]
            }
        }
    }

    /// Mean request bytes per op.
    pub fn bytes_per_op(&mut self) -> f64 {
        let n = self.frames.len().min(64);
        let mut bytes = 0usize;
        let mut ops = 0usize;
        for j in 0..n {
            ops += self.frames[j].ops.len();
            bytes += self.frame_bytes(j).len();
        }
        bytes as f64 / ops.max(1) as f64
    }
}

fn frame_request(inputs: &Inputs, ops: &[Op], batch: usize) -> Request {
    if batch == 1 {
        inputs.request(&ops[0])
    } else {
        Request::IngestBatch(ops.iter().map(|o| inputs.snapshot(o)).collect())
    }
}

fn encode(codec: &dyn FrameCodec, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    codec
        .encode_request(req, &mut out)
        .expect("benchmark requests encode");
    out
}

/// Find each sentinel seq's little-endian bytes in `buf`, exactly once.
fn sentinel_offsets(buf: &[u8], sentinels: &[u64]) -> Option<Vec<usize>> {
    sentinels
        .iter()
        .map(|s| {
            let needle = s.to_le_bytes();
            let mut hits = buf.windows(8).enumerate().filter(|(_, w)| *w == needle);
            let first = hits.next()?.0;
            hits.next().is_none().then_some(first)
        })
        .collect()
}

/// Encode a connection's frames: templates with patched seqs where the
/// encoding allows it (checked against a whole encoding of every
/// template's first use), whole frames otherwise.
fn encode_plan(inputs: &Inputs, spec: &ServeSpec, ops: &[Op], frames: &[FrameSpec]) -> FrameBytes {
    let codec = spec.encoding.codec();
    let whole = || {
        FrameBytes::Whole(
            frames
                .iter()
                .map(|f| {
                    encode(
                        codec,
                        &frame_request(inputs, &ops[f.ops.clone()], spec.batch),
                    )
                })
                .collect(),
        )
    };
    if spec.batch == 1 || spec.encoding != Encoding::Binary {
        return whole();
    }
    // Content key: the frame's groups and trace positions.
    let mut index: HashMap<Vec<(u16, usize)>, usize> = HashMap::new();
    let mut templates = Vec::new();
    let mut offsets = Vec::new();
    let mut picks = Vec::with_capacity(frames.len());
    for f in frames {
        let fops = &ops[f.ops.clone()];
        let key: Vec<(u16, usize)> = fops.iter().map(|o| (o.group, inputs.pos(o))).collect();
        let seq = u64::from(fops[0].epoch);
        if fops.iter().any(|o| u64::from(o.epoch) != seq) {
            return whole();
        }
        let t = match index.get(&key) {
            Some(&t) => t,
            None => {
                let sentinels: Vec<u64> = (0..fops.len() as u64)
                    .map(|i| 0x5E9C_A11B_0000_0000 | (templates.len() as u64) << 16 | i)
                    .collect();
                let marked = Request::IngestBatch(
                    fops.iter()
                        .zip(&sentinels)
                        .map(|(o, &s)| {
                            let mut snap = inputs.snapshot(o);
                            snap.seq = s;
                            snap
                        })
                        .collect(),
                );
                let mut buf = encode(codec, &marked);
                let Some(offs) = sentinel_offsets(&buf, &sentinels) else {
                    return whole();
                };
                for &o in &offs {
                    buf[o..o + 8].copy_from_slice(&seq.to_le_bytes());
                }
                if buf != encode(codec, &frame_request(inputs, fops, spec.batch)) {
                    return whole();
                }
                templates.push(buf);
                offsets.push(offs);
                index.insert(key, templates.len() - 1);
                templates.len() - 1
            }
        };
        picks.push((t, seq));
    }
    FrameBytes::Patched {
        templates,
        offsets,
        picks,
    }
}

/// Build every connection's schedule: `rounds_before` epochs per group
/// already sent, then `frames_n` frames per connection due at the
/// spec's rate.
///
/// Group `g` lives on connection `g % CONNS`, so each group's ops stay
/// in order on one stream. Batched workloads send, per frame, the next
/// epoch of `batch` different groups; lone-request workloads cycle
/// through the connection's groups one op at a time, and with `reads`
/// one op in four is a read (half what-if on the group's next epoch,
/// half map).
pub fn plan(
    inputs: &Inputs,
    spec: &ServeSpec,
    seed: u64,
    rounds_before: u32,
    frames_n: usize,
) -> Vec<ConnPlan> {
    let per_conn = GROUPS / CONNS;
    let fps = spec.frames_per_conn_s();
    (0..CONNS)
        .map(|c| {
            let groups: Vec<u16> = (0..per_conn).map(|i| (i * CONNS + c) as u16).collect();
            let mut rng = Rng::new(seed ^ ((0xC0 + c as u64) << 32));
            let mut next_epoch = vec![rounds_before; GROUPS];
            let mut ops = Vec::new();
            let mut frames = Vec::with_capacity(frames_n);
            let sets = per_conn / spec.batch;
            for j in 0..frames_n {
                let start = ops.len();
                if spec.batch > 1 {
                    let round = rounds_before + (j / sets) as u32;
                    let set = j % sets;
                    for &g in &groups[set * spec.batch..(set + 1) * spec.batch] {
                        ops.push(Op {
                            group: g,
                            kind: Kind::Ingest,
                            epoch: round,
                        });
                    }
                } else {
                    let g = groups[j % per_conn];
                    let kind = match (spec.reads, rng.below(8)) {
                        (true, 0) => Kind::WhatIf,
                        (true, 1) => Kind::Map,
                        _ => Kind::Ingest,
                    };
                    let epoch = next_epoch[g as usize];
                    if kind == Kind::Ingest {
                        next_epoch[g as usize] += 1;
                    }
                    ops.push(Op {
                        group: g,
                        kind,
                        epoch,
                    });
                }
                frames.push(FrameSpec {
                    due: (j as f64 + c as f64 / CONNS as f64) / fps,
                    ops: start..ops.len(),
                });
            }
            let bytes = encode_plan(inputs, spec, &ops, &frames);
            ConnPlan { ops, frames, bytes }
        })
        .collect()
}

/// A connection after the handshake.
fn connect(addr: std::net::SocketAddr, encoding: Encoding) -> symbio::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    // Every connection opens with `Hello`, in json-lines; the `Welcome`
    // comes back in json-lines and the chosen encoding applies after it.
    let v1 = Encoding::JsonLines.codec();
    stream.write_all(&encode(v1, &Request::Hello(Hello::preferring(encoding))))?;
    let mut rx = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some((_, payload)) = v1.split_frame(&rx)? {
            return match v1.decode_reply(payload)? {
                Response::Welcome(w) if w.encoding == encoding.name() => Ok(stream),
                other => Err(Error::Protocol(format!("negotiation failed: {other:?}"))),
            };
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(Error::Protocol("daemon closed during negotiation".into()));
        }
        rx.extend_from_slice(&buf[..n]);
    }
}

/// What happened to one frame.
#[derive(Debug, Clone, Default)]
pub struct FrameResult {
    /// Seconds after the schedule start it was written.
    pub sent: f64,
    /// Seconds after the schedule start its reply was complete.
    pub done: Option<f64>,
    /// The decoded reply.
    pub reply: Option<Response>,
}

/// Drive one connection's frames `range` open loop from `t0`.
fn drive(
    stream: &mut TcpStream,
    plan: &mut ConnPlan,
    range: std::ops::Range<usize>,
    encoding: Encoding,
    t0: Instant,
    tracer: &mut Tracer,
) -> symbio::Result<Vec<FrameResult>> {
    let codec = encoding.codec();
    let base = plan.frames[range.start].due;
    let n = range.len();
    let mut results = vec![FrameResult::default(); n];
    let mut payloads: Vec<(usize, std::ops::Range<usize>)> = Vec::with_capacity(n);
    let mut rx: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut parsed = 0usize;
    let mut store: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut sent = 0usize;
    let mut done = 0usize;
    let last_due = plan.frames[range.end - 1].due - base;
    while done < n {
        let now = t0.elapsed().as_secs_f64();
        while sent < n && plan.frames[range.start + sent].due - base <= now {
            let bytes = plan.frame_bytes(range.start + sent);
            stream.write_all(bytes)?;
            results[sent].sent = t0.elapsed().as_secs_f64();
            sent += 1;
        }
        let now = t0.elapsed().as_secs_f64();
        if now > last_due + DRAIN_S {
            break;
        }
        let wait = if sent < n {
            (plan.frames[range.start + sent].due - base - now).max(0.0)
        } else {
            5e-3
        };
        if crate::sys::readable(stream.as_raw_fd(), Duration::from_secs_f64(wait))? {
            match stream.read(&mut buf) {
                Ok(0) => return Err(Error::Protocol("daemon closed mid-window".into())),
                Ok(k) => rx.extend_from_slice(&buf[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        while let Some((used, payload)) = codec.split_frame(&rx[parsed..])? {
            if done >= sent {
                return Err(Error::Protocol("reply for a frame not sent".into()));
            }
            let at = store.len();
            store.extend_from_slice(payload);
            payloads.push((done, at..store.len()));
            results[done].done = Some(t0.elapsed().as_secs_f64());
            parsed += used;
            done += 1;
        }
        if parsed > (1 << 19) {
            rx.drain(..parsed);
            parsed = 0;
        }
    }
    for r in &results {
        if let Some(d) = r.done {
            tracer.record(
                "generator.round_trip",
                t0 + Duration::from_secs_f64(r.sent),
                t0 + Duration::from_secs_f64(d),
            );
        }
    }
    for (i, range) in payloads {
        tracer.enter("FrameCodec::decode_reply");
        let reply = codec.decode_reply(&store[range]);
        tracer.exit();
        results[i].reply = Some(reply?);
    }
    Ok(results)
}

/// Counters of the rig: a `symbiod`'s `Metrics` or a `fleetd`'s
/// fleet-wide aggregate plus per-backend proxied counts.
fn rig_counters(rig: &Rig) -> symbio::Result<(CounterSnapshot, Vec<u64>)> {
    let mut client = WireClient::connect(rig.front(), CONTROL_TIMEOUT)?;
    if rig.fleet {
        match client.exchange(&Request::FleetMetrics)? {
            Response::FleetMetrics(f) => {
                Ok((f.aggregate, f.backends.iter().map(|b| b.proxied).collect()))
            }
            other => Err(Error::Protocol(format!("FleetMetrics answered {other:?}"))),
        }
    } else {
        match client.exchange(&Request::Metrics)? {
            Response::Metrics(c) => Ok((c, Vec::new())),
            other => Err(Error::Protocol(format!("Metrics answered {other:?}"))),
        }
    }
}

/// Length of the sub-windows a window's end-to-end figures are taken
/// over. Run-to-run speed on a shared two-CPU box swings by tens of
/// percent over seconds; the median over sub-windows keeps a slow spell
/// from moving the figure.
pub const SUB_WINDOW: Duration = Duration::from_millis(500);

/// One sub-window of a measured window (ops binned by due time).
#[derive(Debug, Default, Clone)]
pub struct SubWindow {
    /// Ops due in the sub-window that were answered.
    pub ops: u64,
    /// Daemon CPU seconds spent during the sub-window.
    pub cpu_s: f64,
    /// Latencies of those ops, microseconds.
    pub latency_us: Vec<f64>,
}

/// One measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops scheduled.
    pub attempted: u64,
    /// Ops answered (any reply).
    pub answered: u64,
    /// Ops failed, refused, unanswered, or answered too late.
    pub failed: u64,
    /// Per-op latency from due time, microseconds.
    pub latency_us: Vec<f64>,
    /// Per-frame send lag behind the due time, microseconds.
    pub lag_us: Vec<f64>,
    /// CPU seconds of each daemon during the window (rig order).
    pub cpu_s: Vec<f64>,
    /// CPU seconds of the generator during the window.
    pub generator_cpu_s: f64,
    /// Counter deltas checked against the client's own counts.
    pub epochs_delta: u64,
    /// Per-backend proxied-request deltas (fleet only).
    pub proxied_delta: Vec<u64>,
    /// Daemon what-if memo hits and misses during the window.
    pub memo: (u64, u64),
    /// Failed ops by cause.
    pub failures: std::collections::BTreeMap<String, u64>,
    /// Whole sub-windows, in order.
    pub subs: Vec<SubWindow>,
    /// The frames of each connection's plan this window sent.
    pub range: std::ops::Range<usize>,
    /// Per connection, per frame outcome (index 0 = `range.start`).
    pub frames: Vec<Vec<FrameResult>>,
}

impl Window {
    /// Consecutive windows of one run as one: their sub-windows, latencies
    /// and per-daemon CPU together (what the end-to-end figures read).
    pub fn pooled(windows: &[Window]) -> Window {
        let mut all = Window::default();
        for w in windows {
            all.subs.extend(w.subs.iter().cloned());
            all.latency_us.extend(&w.latency_us);
            all.cpu_s.resize(w.cpu_s.len(), 0.0);
            for (a, b) in all.cpu_s.iter_mut().zip(&w.cpu_s) {
                *a += b;
            }
        }
        all
    }

    fn over_subs(&self, f: impl Fn(&SubWindow) -> f64) -> f64 {
        let mut v: Vec<f64> = self.subs.iter().filter(|s| s.ops > 0).map(f).collect();
        crate::stats::median(&mut v)
    }

    /// Daemon CPU microseconds per answered op (median over
    /// sub-windows).
    pub fn cpu_us_per_op(&self) -> f64 {
        self.over_subs(|s| s.cpu_s * 1e6 / s.ops as f64)
    }

    /// Latency quantile `q` in microseconds (median over sub-windows).
    pub fn latency_q_us(&self, q: f64) -> f64 {
        self.over_subs(|s| quantile(&mut s.latency_us.clone(), q))
    }
}

/// One connection per plan to `rig`'s front daemon. The caller keeps
/// them open across its windows and until their closing CPU sample: a
/// daemon thread serving one (fleetd runs a thread per connection) exits
/// when it closes, and an exited thread's CPU time leaves the live-thread
/// sum.
pub fn connect_all(
    rig: &Rig,
    plans: &[ConnPlan],
    encoding: Encoding,
) -> symbio::Result<Vec<TcpStream>> {
    plans
        .iter()
        .map(|_| connect(rig.front(), encoding))
        .collect()
}

/// Run frames `range` of every connection's plan against `rig` over
/// `streams` (one per plan), open loop, and account for it.
pub fn run_window(
    rig: &Rig,
    streams: &mut [TcpStream],
    plans: &mut [ConnPlan],
    range: std::ops::Range<usize>,
    encoding: Encoding,
    tracer: &mut Tracer,
) -> symbio::Result<Window> {
    let (before, proxied_before) = rig_counters(rig)?;
    let pids = rig.pids();
    let cpu0: Vec<f64> = pids
        .iter()
        .map(|&p| procfs::cpu_sum(&[p]))
        .collect::<symbio::Result<_>>()?;
    let gen0 = crate::sys::process_cpu_ns();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut samples = Vec::new();
    let enabled = tracer.enabled();
    let epoch = tracer.epoch();
    let outcomes: Vec<symbio::Result<(Vec<FrameResult>, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(plan, stream)| {
                let range = range.clone();
                s.spawn(move || {
                    let mut t = Tracer::new(enabled, epoch);
                    drive(stream, plan, range, encoding, t0, &mut t).map(|r| (r, t))
                })
            })
            .collect();
        // Sample the daemons' CPU at every sub-window boundary while the
        // generators run.
        let mut k = 0u32;
        while handles.iter().any(|h| !h.is_finished()) {
            let at = t0 + SUB_WINDOW * k;
            if let Some(d) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
            samples.push(procfs::cpu_sum(&pids));
            k += 1;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let samples = samples.into_iter().collect::<symbio::Result<Vec<f64>>>()?;
    let gen1 = crate::sys::process_cpu_ns();
    let cpu1: Vec<f64> = pids
        .iter()
        .map(|&p| procfs::cpu_sum(&[p]))
        .collect::<symbio::Result<_>>()?;
    let (after, proxied_after) = rig_counters(rig)?;

    let mut w = Window {
        cpu_s: cpu1.iter().zip(&cpu0).map(|(a, b)| a - b).collect(),
        generator_cpu_s: (gen1 - gen0) as f64 / 1e9,
        epochs_delta: after.online_epochs - before.online_epochs,
        proxied_delta: proxied_after
            .iter()
            .zip(proxied_before.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect(),
        memo: (
            after.memo_hits - before.memo_hits,
            after.memo_misses - before.memo_misses,
        ),
        range: range.clone(),
        ..Window::default()
    };
    let window_s = plans[0].frames[range.end - 1].due - plans[0].frames[range.start].due;
    let full = ((window_s / SUB_WINDOW.as_secs_f64()) as usize)
        .max(1)
        .min(samples.len().saturating_sub(1));
    w.subs = (0..full)
        .map(|k| SubWindow {
            cpu_s: samples[k + 1] - samples[k],
            ..SubWindow::default()
        })
        .collect();
    let mut answered_ingests = 0u64;
    for (plan, outcome) in plans.iter().zip(outcomes) {
        let (results, t) = outcome?;
        tracer.absorb(t);
        let base = plan.frames[range.start].due;
        for (f, r) in plan.frames[range.clone()].iter().zip(&results) {
            let due = f.due - base;
            let n = f.ops.len() as u64;
            w.attempted += n;
            w.lag_us.push((r.sent - due).max(0.0) * 1e6);
            let (Some(done), Some(reply)) = (r.done, &r.reply) else {
                w.failed += n;
                *w.failures.entry("unanswered".into()).or_default() += n;
                continue;
            };
            w.answered += n;
            let late = done - due > LATE_S;
            for _ in 0..n {
                w.latency_us.push((done - due) * 1e6);
            }
            if let Some(sub) = w.subs.get_mut((due / SUB_WINDOW.as_secs_f64()) as usize) {
                sub.ops += n;
                for _ in 0..n {
                    sub.latency_us.push((done - due) * 1e6);
                }
            }
            let items: Vec<&Response> = match reply {
                Response::Batch(items) => items.iter().collect(),
                one => vec![one],
            };
            for (op, item) in plan.ops[f.ops.clone()].iter().zip(items) {
                let ok = match (op.kind, item) {
                    (Kind::Ingest, Response::Decision(_)) => {
                        answered_ingests += 1;
                        true
                    }
                    (Kind::WhatIf, Response::WhatIf { .. }) => true,
                    (Kind::Map, Response::Map { .. }) => true,
                    _ => false,
                };
                if !ok || late {
                    w.failed += 1;
                    let cause = match item {
                        _ if ok => "late".to_string(),
                        Response::Error { code, .. } => code.clone(),
                        Response::Degraded { .. } => "degraded".to_string(),
                        Response::Recovering { .. } => "recovering".to_string(),
                        _ => "unexpected reply".to_string(),
                    };
                    *w.failures.entry(cause).or_default() += 1;
                }
            }
        }
        w.frames.push(results);
    }
    if w.epochs_delta != answered_ingests {
        return Err(Error::Protocol(format!(
            "daemon counted {} ingested epochs, the client {} decisions",
            w.epochs_delta, answered_ingests
        )));
    }
    // The closing FleetMetrics itself fetches every backend's Metrics
    // through the proxy pool, one exchange each.
    let proxied = w.proxied_delta.iter().sum::<u64>();
    if rig.fleet && proxied != w.answered + w.proxied_delta.len() as u64 {
        return Err(Error::Protocol(format!(
            "fleetd proxied {proxied} requests to {} backends, the client saw {} answered ops",
            w.proxied_delta.len(),
            w.answered
        )));
    }
    if !w.failures.is_empty() {
        eprintln!("perfbench: failed ops by cause: {:?}", w.failures);
    }
    Ok(w)
}

/// Median round trip of an idle `Metrics` exchange with `addr`,
/// microseconds.
pub fn rtt_floor_us(addr: std::net::SocketAddr, tracer: &mut Tracer) -> symbio::Result<f64> {
    let mut client = WireClient::connect(addr, CONTROL_TIMEOUT)?;
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        tracer.enter("WireClient::exchange");
        let reply = client.exchange(&Request::Metrics)?;
        tracer.exit();
        if !matches!(reply, Response::Metrics(_)) {
            return Err(Error::Protocol(format!("Metrics answered {reply:?}")));
        }
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(quantile(&mut rtts, 0.5))
}

/// The reply the daemon must have sent for `op`, computed in process.
fn expected(engine: &mut OnlineEngine, inputs: &Inputs, op: &Op, snap: &SigSnapshot) -> Response {
    match op.kind {
        Kind::Ingest => match engine.ingest(snap) {
            Ok(d) if d.reason == DecisionReason::Quarantined => Response::Recovering {
                group: d.group,
                seq: d.seq,
                mapping: d.mapping,
            },
            Ok(d) => Response::Decision(d),
            Err(e) => Response::from_error(&e),
        },
        Kind::WhatIf => match engine.what_if(snap) {
            Ok(a) => Response::WhatIf {
                group: a.group,
                mapping: a.mapping,
                delta: a.delta,
                held: a.held,
                memo_hit: false,
            },
            Err(e) => Response::from_error(&e),
        },
        Kind::Map => {
            let group = &inputs.names[op.group as usize];
            Response::Map {
                mapping: engine.mapping(group).cloned(),
                epochs: engine.epochs(group),
                remaps: engine.remaps(group),
                group: group.clone(),
            }
        }
    }
}

/// Canonical bytes of a reply for digesting: the wire encoding, with the
/// what-if memo flag (a property of the daemon's cache, not of the
/// answer) cleared.
fn canonical(codec: &dyn FrameCodec, reply: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    let reply = match reply {
        Response::WhatIf {
            group,
            mapping,
            delta,
            held,
            ..
        } => Response::WhatIf {
            group: group.clone(),
            mapping: mapping.clone(),
            delta: *delta,
            held: *held,
            memo_hit: false,
        },
        other => other.clone(),
    };
    codec
        .encode_reply(&reply, &mut out)
        .expect("replies encode");
    out
}

/// Result of checking a run against the in-process engine.
pub struct OracleReport {
    /// Groups whose reply digests differ.
    pub mismatched_groups: usize,
    /// Remaps committed per ingested epoch in the replay.
    pub remap_ratio: f64,
}

/// Replay every op each group's daemon applied, in order, through a
/// fresh in-process engine with the daemon's policy and configuration,
/// and compare per-group digests of the daemon's replies (mapping,
/// changed, seq, reason, gain, what-if answers, map replies) with the
/// engine's.
pub fn oracle(
    inputs: &Inputs,
    encoding: Encoding,
    runs: &[(&[ConnPlan], &Window)],
) -> symbio::Result<OracleReport> {
    let codec = encoding.codec();
    // The op sequence with the daemon's reply for each.
    let mut seq: Vec<(Op, &Response)> = Vec::new();
    for (plans, window) in runs {
        for (plan, results) in plans.iter().zip(&window.frames) {
            for (f, r) in plan.frames[window.range.clone()].iter().zip(results) {
                let reply = r
                    .reply
                    .as_ref()
                    .ok_or_else(|| Error::Protocol("unanswered frame: cannot check".into()))?;
                let items: Vec<&Response> = match reply {
                    Response::Batch(items) => items.iter().collect(),
                    one => vec![one],
                };
                if items.len() != f.ops.len() {
                    return Err(Error::Protocol("batch reply length mismatch".into()));
                }
                seq.extend(plan.ops[f.ops.clone()].iter().copied().zip(items));
            }
        }
    }
    let mut got = vec![symbio::fnv1a_64(b""); GROUPS];
    for (op, reply) in &seq {
        let g = op.group as usize;
        got[g] = symbio::mix64(got[g] ^ symbio::fnv1a_64(&canonical(codec, reply)));
    }
    let replies = replay(
        inputs,
        &mut engine(),
        seq.iter().map(|(op, daemon)| (op, *daemon)),
    );
    let mut want = vec![symbio::fnv1a_64(b""); GROUPS];
    let (mut epochs, mut remaps) = (0u64, 0u64);
    for ((op, _), r) in seq.iter().zip(&replies) {
        let g = op.group as usize;
        want[g] = symbio::mix64(want[g] ^ symbio::fnv1a_64(&canonical(codec, r)));
        if let Response::Decision(d) = r {
            epochs += 1;
            remaps += u64::from(d.changed);
        }
    }
    Ok(OracleReport {
        mismatched_groups: got.iter().zip(&want).filter(|(a, b)| a != b).count(),
        remap_ratio: remaps as f64 / epochs.max(1) as f64,
    })
}

/// A fresh in-process engine with the daemons' policy and configuration.
fn engine() -> OnlineEngine {
    OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default())
        .expect("the default configuration is valid")
}

/// Replay `ops` in order through `engine`, returning the reply each
/// would get. An ingest the daemon shed (its reply is `Degraded`) was
/// never applied and is skipped.
fn replay<'a>(
    inputs: &Inputs,
    engine: &mut OnlineEngine,
    ops: impl Iterator<Item = (&'a Op, &'a Response)>,
) -> Vec<Response> {
    let mut work: Vec<SigSnapshot> = inputs.trace.snaps.clone();
    let mut replies = Vec::new();
    for (op, daemon) in ops {
        if let shed @ Response::Degraded { .. } = daemon {
            replies.push(shed.clone());
            continue;
        }
        let snap = &mut work[inputs.pos(op)];
        snap.group.clear();
        snap.group.push_str(&inputs.names[op.group as usize]);
        snap.seq = u64::from(op.epoch);
        replies.push(expected(engine, inputs, op, snap));
    }
    replies
}

/// Pre-phase: fill a journal with `rounds` epochs per group at the
/// workload's rate, through a daemon that is then drained.
pub fn prephase(bins: &Bins, spec: &ServeSpec, plans: &mut [ConnPlan]) -> symbio::Result<Window> {
    let rig = Rig::start(bins, &spec.topology)?;
    let n = plans[0].frames.len();
    let mut untraced = Tracer::new(false, Instant::now());
    let w = connect_all(&rig, plans, spec.encoding).and_then(|mut streams| {
        run_window(
            &rig,
            &mut streams,
            plans,
            0..n,
            spec.encoding,
            &mut untraced,
        )
    });
    rig.shutdown()?;
    let w = w?;
    if w.failed > 0 {
        return Err(Error::Protocol(format!(
            "pre-phase: {} of {} ops failed",
            w.failed, w.attempted
        )));
    }
    Ok(w)
}

/// Remove a run directory, ignoring a missing one.
pub fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
