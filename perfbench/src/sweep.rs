//! The offline workload: the paper's two-phase pipeline (profile under
//! each policy, then measure candidate mappings) on the fig13 mixes at
//! one cache domain and one 8-process point at two domains, run in a
//! child process so its CPU and memory are accounted like a daemon's.
//!
//! The parent starts the child several times to account its start-up
//! (exec, then configs, pool and memo); each child builds those, reports
//! `ready` and waits. Every child but the last is then told to quit by
//! closing its stdin. The last repeats whole passes (fresh measurement
//! memo each time) until the run's seconds are spent, checks every pass
//! against digests stored in `sweep.digests`, and reports to the parent
//! over stdout:
//!
//! ```text
//! ready                then waits for "go" on stdin (quits on EOF)
//! op <s> <cpu_s> <probe_s>
//!                      wall and process CPU time of each evaluation,
//!                      and the speed probe around it
//! pass <s> <cpu_s> <ops> <traced>
//! metric <name> <v>    per-layer values (traced passes)
//! done                 then waits for stdin to close
//! ```

use crate::ladder::{self, Measured};
use crate::procfs;
use crate::serve::Inputs;
use crate::spans::{self, Tracer};
use crate::stats::{median, quantile, Rng};
use crate::{Args, Report};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use symbio::{Error, ExperimentConfig, ExperimentConfigBuilder, MeasureCache, MixResult, Pipeline};
use symbio_allocator::{
    AllocationPolicy, InterferenceGraphPolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy,
};
use symbio_machine::{MachineConfig, Mapping, ProcView};
use symbio_workloads::{spec2006, WorkloadSpec};

/// Machine seed of every sweep configuration (the inputs the stored
/// digests were taken on).
const CFG_SEED: u64 = 2011;
/// Benchmark work is divided by this so one pass takes about a second.
const WORK_DIV: u64 = 4;
/// Random balanced placements in the 2-domain reference set.
const N_REFERENCE: usize = 3;

/// The fig13 representative mixes (gcc stands in for perlbench, which
/// the synthetic pool lacks).
const MIXES: [[&str; 4]; 5] = [
    ["gobmk", "hmmer", "libquantum", "povray"],
    ["mcf", "hmmer", "libquantum", "omnetpp"],
    ["gcc", "gobmk", "libquantum", "omnetpp"],
    ["bzip2", "gcc", "mcf", "soplex"],
    ["astar", "milc", "omnetpp", "sjeng"],
];
/// The policies compared on every 1-domain mix.
const POLICIES: [&str; 3] = ["weight-sort", "graph", "weighted-graph"];
/// Stored digests: `1d <hex>` for the 1-domain results, `2d <r> <hex>`
/// for the 2-domain point with reference set `r`.
const DIGESTS: &str = include_str!("../sweep.digests");

fn policy(name: &str) -> Box<dyn AllocationPolicy> {
    match name {
        "graph" => Box::new(InterferenceGraphPolicy::default()),
        "weighted-graph" => Box::new(WeightedInterferenceGraphPolicy::default()),
        _ => Box::new(WeightSortPolicy),
    }
}

fn spec(name: &str, l2: u64) -> WorkloadSpec {
    let mut s = spec2006::by_name(name, l2).expect("pool name");
    s.work /= WORK_DIV;
    s
}

/// One evaluation: a mix under one policy.
struct Job {
    specs: Vec<WorkloadSpec>,
    policy: &'static str,
    /// Two-domain point: measure a reference set, not every candidate.
    reference: Option<u64>,
}

/// Everything a pass needs, built before its first mix.
struct Setup {
    one: Pipeline,
    two: Pipeline,
    jobs: Vec<Job>,
    memo: Arc<MeasureCache>,
}

fn configs() -> (ExperimentConfig, ExperimentConfig) {
    let one = ExperimentConfigBuilder::fast(CFG_SEED)
        .build()
        .expect("fast preset is valid");
    let two = ExperimentConfigBuilder::fast(CFG_SEED)
        .machine(MachineConfig::scaled_multidomain(CFG_SEED, 2).with_step_threads(2))
        .build()
        .expect("2-domain fast preset is valid");
    (one, two)
}

/// Build configs, the spec pool and a fresh memo. The jobs and their
/// order are fixed (the order decides which evaluation pays for a
/// shared measurement); the seed picks the 2-domain reference set.
fn setup(reference: u64) -> Setup {
    let (c1, c2) = configs();
    let memo = Arc::new(MeasureCache::new());
    let mut jobs = Vec::new();
    for mix in MIXES {
        for p in POLICIES {
            jobs.push(Job {
                specs: mix
                    .iter()
                    .map(|n| spec(n, c1.machine.l2.size_bytes))
                    .collect(),
                policy: p,
                reference: None,
            });
        }
    }
    jobs.push(Job {
        specs: (0..2 * c2.machine.cores)
            .map(|i| spec(MIXES[0][i % 4], c2.machine.l2.size_bytes))
            .collect(),
        policy: "weight-sort",
        reference: Some(reference),
    });
    Setup {
        one: Pipeline::new(c1).with_memo(Arc::clone(&memo)),
        two: Pipeline::new(c2).with_memo(Arc::clone(&memo)),
        jobs,
        memo,
    }
}

/// Round-robin, `N_REFERENCE` seeded random balanced placements
/// (distinct partitions), and every mapping that tied for the most
/// profiling votes (the policy's choice is one of them).
fn reference_set(seed: u64, threads: usize, cores: usize, top: &[&Mapping]) -> Vec<Mapping> {
    let mut set = vec![Mapping::round_robin(threads, cores)];
    let mut rng = Rng::new(seed ^ 0x002D_0A11);
    while set.len() < 1 + N_REFERENCE {
        let mut order: Vec<usize> = (0..threads).collect();
        rng.shuffle(&mut order);
        let mut cores_by_tid = vec![0; threads];
        for (rank, &t) in order.iter().enumerate() {
            cores_by_tid[t] = rank % cores;
        }
        let m = Mapping::new(cores_by_tid);
        if set
            .iter()
            .all(|x| x.partition_key(cores) != m.partition_key(cores))
        {
            set.push(m);
        }
    }
    let mut top: Vec<&Mapping> = top.to_vec();
    top.sort_by_key(|m| m.partition_key(cores));
    for m in top {
        if set
            .iter()
            .all(|x| x.partition_key(cores) != m.partition_key(cores))
        {
            set.push(m.clone());
        }
    }
    set
}

/// Stage times of a pass.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    profile_s: f64,
    measure_s: f64,
}

/// One evaluated mix: the pipeline's result and the indices of every
/// mapping that tied for the most profiling votes.
struct Evaluated {
    result: MixResult,
    top_voted: Vec<usize>,
}

/// Profile `job` under its policy, measure its mappings, locate the
/// choice.
fn evaluate(
    pipeline: &Pipeline,
    job: &Job,
    tracer: &mut Tracer,
    stages: &mut Stages,
    views: &mut Vec<(Vec<ProcView>, usize)>,
) -> Evaluated {
    let cores = pipeline.cfg.machine.cores;
    let mut p = policy(job.policy);
    let t = Instant::now();
    tracer.enter("Pipeline::profile");
    let profile = pipeline.profile(&job.specs, p.as_mut());
    tracer.exit();
    stages.profile_s += t.elapsed().as_secs_f64();
    let most = profile.votes.iter().map(|v| v.1).max().unwrap_or(0);
    let top: Vec<&Mapping> = profile
        .votes
        .iter()
        .filter(|v| v.1 == most)
        .map(|(m, _)| m)
        .collect();
    let mappings = match job.reference {
        Some(seed) => reference_set(seed, job.specs.len(), cores, &top),
        None => pipeline.candidates(job.specs.len()),
    };
    let t = Instant::now();
    let user_cycles = mappings
        .iter()
        .map(|m| {
            tracer.enter("Pipeline::measure");
            let out = pipeline.measure(&job.specs, m);
            tracer.exit();
            out.procs.iter().map(|p| p.user_cycles).collect()
        })
        .collect();
    stages.measure_s += t.elapsed().as_secs_f64();
    let chosen = Pipeline::locate(&mappings, &profile.winner, cores);
    let predicted = Pipeline::predicted_scores(&profile.views, &mappings);
    let mut top_voted: Vec<usize> = top
        .iter()
        .map(|m| Pipeline::locate(&mappings, m, cores))
        .collect();
    top_voted.sort_unstable();
    views.push((profile.views, cores));
    Evaluated {
        result: MixResult {
            names: job.specs.iter().map(|s| s.name.clone()).collect(),
            mappings,
            user_cycles,
            chosen,
            policy: p.name().to_string(),
            predicted,
        },
        top_voted,
    }
}

/// Digest of the measured outcome: names, user cycles per mapping, and
/// the chosen index. When several mappings tie for the most profiling
/// votes, `Pipeline::profile` picks among them in hash-map order, which
/// differs between runs; the digest then pins the tied set, and the
/// chosen index must be one of its members.
fn digest(results: &[&Evaluated]) -> symbio::Result<u64> {
    results.iter().try_fold(symbio::fnv1a_64(b"sweep"), |h, e| {
        let r = &e.result;
        if !e.top_voted.contains(&r.chosen) {
            return Err(Error::Protocol(format!(
                "{:?} under {}: chosen mapping {} is not a majority vote {:?}",
                r.names, r.policy, r.chosen, e.top_voted
            )));
        }
        let chosen = if e.top_voted.len() == 1 {
            format!("{}", r.chosen)
        } else {
            format!("tie {:?}", e.top_voted)
        };
        let text = format!("{:?}|{:?}|{chosen}", r.names, r.user_cycles);
        Ok(symbio::mix64(h ^ symbio::fnv1a_64(text.as_bytes())))
    })
}

fn stored(key: &str) -> symbio::Result<u64> {
    DIGESTS
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| Error::InvalidConfig(format!("no stored sweep digest `{key}`")))
}

/// Reference sets the 2-domain point draws from (`seed mod REFERENCES`),
/// one stored digest each.
const REFERENCES: u64 = 12;

/// Check a pass's results against the stored digests.
fn check(results: &[Evaluated], reference: u64) -> symbio::Result<(u64, u64)> {
    let (two, one) = results.split_last().expect("a pass has jobs");
    let one: Vec<&Evaluated> = one.iter().collect();
    let two = [two];
    let (d1, d2) = (digest(&one)?, digest(&two)?);
    if d1 != stored("1d ")? || d2 != stored(&format!("2d {reference} "))? {
        return Err(Error::Protocol(format!(
            "sweep results differ from the stored digests (1d {d1:016x}, 2d {reference} {d2:016x})"
        )));
    }
    Ok((d1, d2))
}

/// The child process: what a sweep builds before its first mix, then
/// (unless told to quit) passes until the seconds are spent.
pub fn child(args: &Args) -> symbio::Result<()> {
    let reference = args.seed % REFERENCES;
    drop(setup(reference));
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line)? == 0 {
        // A start-up the parent only accounted.
        return Ok(());
    }
    let mut speed = crate::speed::Speed::new();

    let epoch = Instant::now();
    let mut spans_all = Tracer::new(args.trace, epoch);
    let mut traced_stages = Vec::new();
    let mut alloc_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut memo_ratio = Vec::new();
    let mut sim_rate = Vec::new();
    let mut passes = 0usize;
    let t_all = Instant::now();
    while passes < 2 || t_all.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes % 2 == 1;
        let mut tracer = Tracer::new(traced, epoch);
        let cpu0 = crate::sys::process_cpu_ns();
        let t_pass = Instant::now();
        let s = setup(reference);
        let mut stages = Stages::default();
        let mut views = Vec::new();
        let mut results = Vec::with_capacity(s.jobs.len());
        for job in &s.jobs {
            let pipeline = if job.reference.is_some() {
                &s.two
            } else {
                &s.one
            };
            let before = speed.probe();
            let t = Instant::now();
            let c = crate::sys::process_cpu_ns();
            let r = evaluate(pipeline, job, &mut tracer, &mut stages, &mut views);
            let cpu = (crate::sys::process_cpu_ns() - c) as f64 / 1e9;
            let probe = (before + speed.probe()) / 2.0;
            writeln!(out, "op {} {cpu} {probe}", t.elapsed().as_secs_f64())?;
            results.push(r);
        }
        let wall = t_pass.elapsed().as_secs_f64();
        let cpu = (crate::sys::process_cpu_ns() - cpu0) as f64 / 1e9;
        check(&results, reference)?;
        writeln!(
            out,
            "pass {wall} {cpu} {} {}",
            results.len(),
            u8::from(traced)
        )?;
        if traced {
            traced_stages.push((wall, stages, results.len()));
            let (h, m) = (s.memo.hits(), s.memo.misses());
            memo_ratio.push(h as f64 / (h + m).max(1) as f64);
            let sim =
                s.one.counters().snapshot().sim_cycles + s.two.counters().snapshot().sim_cycles;
            sim_rate.push(sim as f64 / (stages.profile_s + stages.measure_s) / 1e6);
            // The allocator on the views the profiles ended with.
            for name in POLICIES {
                let span = match name {
                    "graph" => "AllocationPolicy::allocate/graph",
                    "weighted-graph" => "AllocationPolicy::allocate/weighted-graph",
                    _ => "AllocationPolicy::allocate/weight-sort",
                };
                let mut p = policy(name);
                let t = Instant::now();
                let mut n = 0;
                for (v, cores) in &views {
                    for _ in 0..20 {
                        tracer.enter(span);
                        std::hint::black_box(p.allocate(v, *cores));
                        tracer.exit();
                        n += 1;
                    }
                }
                alloc_us
                    .entry(match name {
                        "graph" => "allocator.allocate_us.graph",
                        "weighted-graph" => "allocator.allocate_us.weighted-graph",
                        _ => "allocator.allocate_us.weight-sort",
                    })
                    .or_default()
                    .push(t.elapsed().as_secs_f64() * 1e6 / n as f64);
            }
        }
        spans_all.absorb(tracer);
        passes += 1;
    }
    if args.trace {
        let n = traced_stages.len() as f64;
        let ops: usize = traced_stages.iter().map(|(_, _, o)| o).sum();
        let profile: f64 = traced_stages.iter().map(|(_, s, _)| s.profile_s).sum();
        let measure: f64 = traced_stages.iter().map(|(_, s, _)| s.measure_s).sum();
        let wall: f64 = traced_stages.iter().map(|(w, _, _)| w).sum();
        writeln!(out, "metric core.profile_s {}", profile / n)?;
        writeln!(out, "metric core.measure_s {}", measure / n)?;
        writeln!(
            out,
            "metric core.other_s {}",
            (wall - profile - measure) / n
        )?;
        writeln!(
            out,
            "metric core.memo_hit_ratio {}",
            median(&mut memo_ratio)
        )?;
        writeln!(
            out,
            "metric machine.sim_mcycles_per_s {}",
            median(&mut sim_rate)
        )?;
        writeln!(
            out,
            "metric sweep.layers_us_per_op {}",
            (profile + measure) * 1e6 / ops as f64
        )?;
        for (name, mut v) in alloc_us {
            writeln!(out, "metric {name} {}", median(&mut v))?;
        }
        let dir = Path::new(".bench_run");
        std::fs::create_dir_all(dir)?;
        spans::write_jsonl(
            &dir.join(format!("spans-sweep-child-{}.jsonl", args.seed)),
            spans_all.spans(),
        )?;
    }
    writeln!(out, "done")?;
    out.flush()?;
    // Stay alive until the parent has read this process's accounting.
    std::io::stdin().lock().read_line(&mut line)?;
    Ok(())
}

/// What the parent read from one child run.
#[derive(Default)]
struct ChildRun {
    /// Start-up CPU seconds.
    setups: Vec<f64>,
    /// (wall, cpu, probe) seconds per evaluation, pass after pass.
    ops: Vec<(f64, f64, f64)>,
    /// (wall, cpu, ops, traced) per pass.
    passes: Vec<(f64, f64, u64, bool)>,
    metrics: BTreeMap<String, f64>,
    peak_rss_mb: f64,
}

impl ChildRun {
    /// Per evaluation (in job order), the fastest of its passes that
    /// match `traced`: (wall, cpu) seconds, raw, and scaled to the
    /// reference speed by the probe taken before it. The sweep is
    /// deterministic work, so slower repeats measure interference from
    /// outside the process (other tenants of the box), not the program.
    fn best(&self, traced: bool, scaled: bool) -> Vec<(f64, f64)> {
        let n = self.passes[0].2 as usize;
        let mut best = vec![(f64::INFINITY, f64::INFINITY); n];
        for (p, pass) in self.passes.iter().enumerate() {
            if pass.3 != traced {
                continue;
            }
            for (b, op) in best.iter_mut().zip(&self.ops[p * n..(p + 1) * n]) {
                let f = if scaled {
                    crate::speed::factor(op.2)
                } else {
                    1.0
                };
                b.0 = b.0.min(op.0 * f);
                b.1 = b.1.min(op.1 * f);
            }
        }
        best
    }
}

/// A child process that has reported `ready`; killed and reaped when
/// dropped, so no error path leaves it behind.
struct Started {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Lines<BufReader<ChildStdout>>,
}

impl Started {
    fn spawn(args: &Args) -> symbio::Result<Started> {
        let mut child = Command::new(std::env::current_exe()?)
            .args([
                "--sweep-child",
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut started = Started {
            child,
            stdin,
            lines: BufReader::new(stdout).lines(),
        };
        match started.lines.next() {
            Some(Ok(line)) if line == "ready" => Ok(started),
            other => Err(Error::Protocol(format!(
                "sweep child did not start: {other:?}"
            ))),
        }
    }

    /// Close stdin and wait for a clean exit.
    fn finish(&mut self) -> symbio::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if !status.success() {
            return Err(Error::Protocol(format!("sweep child failed ({status})")));
        }
        Ok(())
    }
}

impl Drop for Started {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_child(args: &Args) -> symbio::Result<ChildRun> {
    let mut run = ChildRun::default();
    let (mut c, setups) = crate::rig::startups(
        || {
            let c = Started::spawn(args)?;
            let cpu_s = crate::rig::startup_cpu_s(&[c.child.id()])?;
            Ok((c, cpu_s))
        },
        |mut c| c.finish(),
    )?;
    run.setups = setups;
    let pid = c.child.id();
    let stdin = c.stdin.as_mut().expect("stdin was piped");
    stdin.write_all(b"go\n")?;
    stdin.flush()?;
    let parse = |v: Option<&str>| -> symbio::Result<f64> {
        v.and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::Protocol("malformed sweep child line".into()))
    };
    let mut finished = false;
    for line in c.lines.by_ref() {
        let line = line?;
        let mut it = line.split_whitespace();
        match it.next() {
            Some("op") => run
                .ops
                .push((parse(it.next())?, parse(it.next())?, parse(it.next())?)),
            Some("pass") => run.passes.push((
                parse(it.next())?,
                parse(it.next())?,
                parse(it.next())? as u64,
                parse(it.next())? != 0.0,
            )),
            Some("metric") => {
                let name = it.next().unwrap_or_default().to_string();
                run.metrics.insert(name, parse(it.next())?);
            }
            Some("done") => {
                run.peak_rss_mb = procfs::rss_sum(&[pid])?;
                finished = true;
                break;
            }
            _ => {
                return Err(Error::Protocol(format!(
                    "unexpected sweep child line {line:?}"
                )))
            }
        }
    }
    c.finish()?;
    if !finished {
        return Err(Error::Protocol("sweep child stopped early".into()));
    }
    Ok(run)
}

/// The `sweep` workload.
pub fn run(args: &Args, dir: &Path) -> symbio::Result<Report> {
    let run = spawn_child(args)?;
    let n = run.passes[0].2;
    if run.passes.iter().any(|p| p.2 != n) || run.ops.len() as u64 != n * run.passes.len() as u64 {
        return Err(Error::Protocol("sweep passes differ in size".into()));
    }
    let mut report = Report {
        attempted: run.ops.len() as u64,
        failed: 0,
        ..Report::default()
    };
    eprintln!(
        "perfbench: sweep {} passes of {n} evaluations, error_rate 0",
        run.passes.len()
    );
    let cpu_per_op = |b: &[(f64, f64)]| b.iter().map(|x| x.1).sum::<f64>() * 1e6 / n as f64;
    let raw = run.best(false, false);
    let scaled = run.best(false, true);
    let mut probes: Vec<f64> = run.ops.iter().map(|o| o.2).collect();
    eprintln!(
        "perfbench: raw cpu {:.1} us/op, raw sweep {:.4} s, median probe {:.1} us",
        cpu_per_op(&raw),
        raw.iter().map(|b| b.0).sum::<f64>(),
        median(&mut probes) * 1e6
    );
    eprintln!(
        "perfbench: {} start-ups, CPU fastest {:.6} s, median {:.6} s",
        run.setups.len(),
        crate::rig::setup_s(&run.setups),
        median(&mut run.setups.clone())
    );
    if !args.trace {
        report.put("setup_s", crate::rig::setup_s(&run.setups), "s");
        report.put("cpu_us_per_op", cpu_per_op(&scaled), "us");
        report.put("peak_rss_mb", run.peak_rss_mb, "MB");
        return Ok(report);
    }
    let best = raw;
    let traced = run.best(true, false);
    let q = |b: &[(f64, f64)], q: f64| {
        quantile(&mut b.iter().map(|x| x.0 * 1e6).collect::<Vec<_>>(), q)
    };
    let p50 =
        |b: &[(f64, f64)]| quantile(&mut b.iter().map(|x| x.0 * 1e6).collect::<Vec<_>>(), 0.5);
    let mut m = Measured {
        cpu_us_per_op: cpu_per_op(&best),
        ..Measured::default()
    };
    m.put(
        "trace.overhead_cpu_us_per_op",
        cpu_per_op(&traced) - cpu_per_op(&best),
    );
    m.put("trace.overhead_p50_us", p50(&traced) - p50(&best));
    m.put("error_rate", 0.0);
    m.put("p50_us", q(&best, 0.5));
    m.put("p99_us", q(&best, 0.99));
    m.put("host.probe_us", median(&mut probes) * 1e6);
    for (k, v) in &run.metrics {
        if let Some((name, _)) = ladder::PER_LAYER.iter().find(|(n, _)| n == k) {
            m.put(name, *v);
        }
    }
    if let Some(v) = run.metrics.get("sweep.layers_us_per_op") {
        m.put("sweep.layers_us_per_op", *v);
    }
    let bins = crate::rig::build()?;
    let inputs = Inputs::new(args.seed)?;
    let mut tracer = Tracer::new(true, Instant::now());
    ladder::finish(args, &bins, &inputs, 32, m, &mut tracer, dir, &mut report)?;
    Ok(report)
}

/// Core-pipeline stage split on one small mix (for workloads that do not
/// run the sweep): profile and measure the first fig13 mix under two
/// policies sharing a memo.
pub struct CoreProbe {
    /// Profiling seconds.
    pub profile_s: f64,
    /// Measurement seconds.
    pub measure_s: f64,
    /// Everything else.
    pub other_s: f64,
    /// Memo hits over lookups.
    pub memo_hit_ratio: f64,
    /// Simulated Mcycles per second of profile + measure.
    pub sim_mcycles_per_s: f64,
}

/// Run the core probe.
pub fn core_probe(tracer: &mut Tracer) -> symbio::Result<CoreProbe> {
    let t = Instant::now();
    let (c1, _) = configs();
    let memo = Arc::new(MeasureCache::new());
    let pipeline = Pipeline::new(c1).with_memo(Arc::clone(&memo));
    let mut stages = Stages::default();
    let mut views = Vec::new();
    for p in ["weight-sort", "graph"] {
        let job = Job {
            specs: MIXES[0]
                .iter()
                .map(|n| spec(n, c1.machine.l2.size_bytes))
                .collect(),
            policy: p,
            reference: None,
        };
        evaluate(&pipeline, &job, tracer, &mut stages, &mut views);
    }
    let wall = t.elapsed().as_secs_f64();
    let (h, m) = (memo.hits(), memo.misses());
    let sim = pipeline.counters().snapshot().sim_cycles;
    Ok(CoreProbe {
        profile_s: stages.profile_s,
        measure_s: stages.measure_s,
        other_s: wall - stages.profile_s - stages.measure_s,
        memo_hit_ratio: h as f64 / (h + m).max(1) as f64,
        sim_mcycles_per_s: sim as f64 / (stages.profile_s + stages.measure_s) / 1e6,
    })
}
