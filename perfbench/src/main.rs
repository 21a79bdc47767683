//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/NOTES.md` for why each exists):
//!
//! * `ingest-batch-durable` — v2 `IngestBatch` frames of 32 into a
//!   journaling two-shard `symbiod` that restarted on a pre-filled
//!   journal, open loop;
//! * `json-mixed` — v1 json-lines, one op per frame, one in four a read
//!   (`WhatIf` or `Map`), open loop;
//! * `fleet-proxy` — v2 batches of 8 through a `fleetd` in front of two
//!   single-shard `symbiod`s, open loop;
//! * `sweep` — the offline two-phase pipeline on the fig13 mixes and one
//!   8-process 2-domain point, in a child process.
//!
//! The daemons are the real binaries, built from the checkout with cargo
//! and driven over TCP; the sweep is the public pipeline API. Every run
//! checks its outputs (an in-process engine replay for the daemons,
//! stored digests for the sweep) and exits nonzero without printing
//! numbers when they are wrong. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

mod ladder;
mod procfs;
mod rig;
mod serve;
mod spans;
mod speed;
mod stats;
mod sweep;
mod sys;

use rig::Topology;
use serve::{Inputs, ServeSpec};
use spans::Tracer;
use stats::median;
use std::path::{Path, PathBuf};
use std::time::Instant;
use symbio::Error;
use symbio_serve::Encoding;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<(Args, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--sweep-child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| "sweep".into()),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((args, child))
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (error, refusal, no answer, or answered too late).
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut body = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

fn main() {
    let (args, child) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if child {
        if let Err(e) = sweep::child(&args) {
            eprintln!("perfbench sweep child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(Error::from)
        .and_then(|()| run(&args, &dir));
    serve::clean(&dir);
    match outcome.map_err(|e| e.to_string()).and_then(|r| {
        let line = r.json()?;
        Ok((r, line))
    }) {
        Ok((report, line)) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("perfbench: {name} = {value} {unit}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {} failed: {e}",
                args.workload, args.seed
            );
            std::process::exit(1);
        }
    }
}

pub(crate) fn serve_spec(workload: &str, dir: &Path) -> Option<ServeSpec> {
    Some(match workload {
        "ingest-batch-durable" => ServeSpec {
            encoding: Encoding::Binary,
            batch: 32,
            rate: 4_000.0,
            reads: false,
            prephase_rounds: 4,
            topology: Topology::Symbiod {
                shards: 2,
                journal: Some(dir.join("journal")),
            },
        },
        "json-mixed" => ServeSpec {
            encoding: Encoding::JsonLines,
            batch: 1,
            rate: 1_500.0,
            reads: true,
            prephase_rounds: 0,
            topology: Topology::Symbiod {
                shards: 2,
                journal: None,
            },
        },
        "fleet-proxy" => ServeSpec {
            encoding: Encoding::Binary,
            batch: 8,
            rate: 1_000.0,
            reads: false,
            prephase_rounds: 0,
            topology: Topology::Fleet { backends: 2 },
        },
        _ => return None,
    })
}

fn run(args: &Args, dir: &Path) -> symbio::Result<Report> {
    if args.workload == "sweep" {
        return sweep::run(args, dir);
    }
    let spec = serve_spec(&args.workload, dir).ok_or_else(|| {
        Error::InvalidConfig(format!(
            "unknown workload {} (expected ingest-batch-durable | json-mixed | fleet-proxy | sweep)",
            args.workload
        ))
    })?;
    run_serve(args, &spec, dir)
}

/// Parts an untraced serving window is measured in. Between parts the
/// daemons are idle and the box's speed is probed: a single probe is off
/// by up to 40 % now and then, and five spread over the run outvote it.
const SEGMENTS: usize = 4;

/// A serving workload end to end: inputs, pre-phase, timed start-ups,
/// the open-loop window, accounting, and the oracle.
fn run_serve(args: &Args, spec: &ServeSpec, dir: &Path) -> symbio::Result<Report> {
    let bins = rig::build()?;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let inputs = Inputs::new(args.seed)?;
    let mut pre_plans = if spec.prephase_rounds > 0 {
        serve::plan(
            &inputs,
            spec,
            args.seed,
            0,
            spec.frames_for_rounds(spec.prephase_rounds),
        )
    } else {
        Vec::new()
    };
    let frames_n = (args.seconds * spec.frames_per_conn_s()).ceil().max(2.0) as usize;
    let mut plans = serve::plan(
        &inputs,
        spec,
        args.seed ^ 0x5EED,
        spec.prephase_rounds,
        frames_n,
    );
    let pre = if pre_plans.is_empty() {
        None
    } else {
        Some(serve::prephase(&bins, spec, &mut pre_plans)?)
    };

    let (rig, mut setups) = rig::startups(
        || {
            let r = rig::Rig::start(&bins, &spec.topology)?;
            let cpu_s = r.setup_cpu_s;
            Ok((r, cpu_s))
        },
        rig::Rig::shutdown,
    )?;
    // A traced run measures the first half of the window untraced and
    // the second half traced, so the tracing overhead is the difference.
    // An untraced run measures the window in `SEGMENTS` parts.
    let parts: Vec<(std::ops::Range<usize>, bool)> = if args.trace {
        vec![(0..frames_n / 2, false), (frames_n / 2..frames_n, true)]
    } else {
        let n = SEGMENTS.min(frames_n / 2);
        (0..n)
            .map(|i| (i * frames_n / n..(i + 1) * frames_n / n, false))
            .collect()
    };
    // The box's speed, probed with the daemons idle before, between and
    // after the parts; the median of those probes scales the window.
    let mut speed = speed::Speed::new();
    let mut probes = vec![speed.probe()];
    let mut streams = serve::connect_all(&rig, &plans, spec.encoding)?;
    let mut windows = Vec::new();
    for (range, traced) in parts {
        let mut t = Tracer::new(traced, tracer.epoch());
        windows.push(serve::run_window(
            &rig,
            &mut streams,
            &mut plans,
            range,
            spec.encoding,
            &mut t,
        )?);
        tracer.absorb(t);
        probes.push(speed.probe());
    }
    drop(streams);
    let window_probe = median(&mut probes);
    let peak_rss_mb = procfs::rss_sum(&rig.pids())?;
    let rtt_floor = if args.trace {
        serve::rtt_floor_us(rig.front(), &mut tracer)?
    } else {
        0.0
    };
    let pids = rig.pids();
    rig.shutdown()?;

    let mut runs: Vec<(&[serve::ConnPlan], &serve::Window)> = Vec::new();
    if let Some(w) = &pre {
        runs.push((&pre_plans, w));
    }
    for w in &windows {
        runs.push((&plans, w));
    }
    let oracle = serve::oracle(&inputs, spec.encoding, &runs)?;
    if oracle.mismatched_groups > 0 {
        return Err(Error::Protocol(format!(
            "correctness oracle: {} of {} groups' replies differ from the in-process engine",
            oracle.mismatched_groups,
            serve::GROUPS
        )));
    }

    let mut report = Report {
        attempted: windows.iter().map(|w| w.attempted).sum(),
        failed: windows.iter().map(|w| w.failed).sum(),
        ..Report::default()
    };
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    let pooled;
    let main = if args.trace {
        windows.first().expect("untraced half")
    } else {
        pooled = serve::Window::pooled(&windows);
        &pooled
    };
    eprintln!(
        "perfbench: {} ops, {} failed (error_rate {error_rate}), {} daemon processes, \
         remap ratio {:.4}; p50 {:.1} us, p99 {:.1} us over {} latency samples; \
         raw cpu {:.3} us/op at probe {:.1} us",
        report.attempted,
        report.failed,
        pids.len(),
        oracle.remap_ratio,
        main.latency_q_us(0.5),
        main.latency_q_us(0.99),
        main.latency_us.len(),
        main.cpu_us_per_op(),
        window_probe * 1e6,
    );
    eprintln!(
        "perfbench: daemon CPU over the window, s (rig order, front last): {:?}",
        main.cpu_s
    );
    eprintln!(
        "perfbench: {} start-ups, CPU fastest {:.6} s, median {:.6} s",
        setups.len(),
        rig::setup_s(&setups),
        median(&mut setups),
    );
    if !args.trace {
        report.put("setup_s", rig::setup_s(&setups), "s");
        report.put(
            "cpu_us_per_op",
            main.cpu_us_per_op() * speed::factor(window_probe),
            "us",
        );
        report.put("peak_rss_mb", peak_rss_mb, "MB");
        return Ok(report);
    }

    let traced = windows.last().expect("traced half");
    let mut m = ladder::Measured::default();
    ladder::from_windows(&mut m, spec, &inputs, &plans, main, traced);
    m.put("serve.rtt_floor_us", rtt_floor);
    m.put("p50_us", main.latency_q_us(0.5));
    m.put("p99_us", main.latency_q_us(0.99));
    m.put("host.probe_us", window_probe * 1e6);
    m.put("online.remap_ratio", oracle.remap_ratio);
    m.put("error_rate", error_rate);
    m.put("proto.request_bytes", plans[0].bytes_per_op());
    m.put(
        "machine.sim_mcycles_per_s",
        inputs.trace.sim_cycles as f64 / inputs.trace.record_s / 1e6,
    );
    ladder::finish(
        args,
        &bins,
        &inputs,
        spec.batch,
        m,
        &mut tracer,
        dir,
        &mut report,
    )?;
    Ok(report)
}
