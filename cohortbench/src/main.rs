//! The cohort benchmark: runs one named workload of the cohort engine on
//! a seeded population, checks the outputs, and prints every metric by
//! name and unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cohortbench --workload <mixed|cs_dense|record_replay> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` runs the traced mirror (see `trace.rs`) and prints the
//! per-layer metrics. README.md documents the workloads and metrics.

#![forbid(unsafe_code)]

mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Ledger;
use wbsn::archive::reader::read_archive;
use wbsn::archive::{ArchiveBlock, ArchiveWriter, CodecStats, EpochItem, RunTrailer};
use wbsn::cohort::{CohortReport, CohortRunConfig, CohortRunner, SessionPlan};
use wbsn::ecg_synth::cohort::{AgeBand, CohortConfig, CohortGenerator, NoiseProfile, RhythmBurden};
use wbsn::replay::CohortReplayer;

/// Gateway decode workers of every timed run.
const WORKERS: usize = 2;
/// Sessions pumped in lockstep per batch (the closed-loop width).
const BATCH_SESSIONS: usize = 16;
/// Seconds spent repeating the plan build before the first round;
/// `setup_s` is the median build.
const SETUP_SECONDS: f64 = 1.0;
/// Seconds spent repeating the plan build after each round.
const SETUP_SECONDS_PER_ROUND: f64 = 0.2;
/// Profiles drawn at most while filling the population quotas.
const MAX_DRAWS: usize = 1_000_000;

/// One benchmark workload: a population shape plus whether the timed
/// cohort run records its archive.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    sessions: usize,
    hours: u32,
    segment_s: f64,
    cs_fraction: f64,
    /// Time `run_plans_recorded` (into memory) instead of `run_plans`.
    recorded: bool,
}

/// Why each workload exists is in README.md.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mixed",
        sessions: 48,
        hours: 8,
        segment_s: 75.0,
        cs_fraction: 0.06,
        recorded: false,
    },
    Workload {
        name: "cs_dense",
        sessions: 16,
        hours: 4,
        segment_s: 75.0,
        cs_fraction: 1.0,
        recorded: false,
    },
    Workload {
        name: "record_replay",
        sessions: 24,
        hours: 4,
        segment_s: 60.0,
        cs_fraction: 0.5,
        recorded: true,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_config(w: &Workload, seed: u64) -> CohortRunConfig {
    CohortRunConfig {
        cohort: CohortConfig {
            cohort_seed: seed,
            sessions: w.sessions,
            modeled_hours: w.hours,
            segment_s: w.segment_s,
            cs_fraction: w.cs_fraction,
            ..CohortConfig::full()
        },
        workers: WORKERS,
        batch_sessions: BATCH_SESSIONS,
        ..CohortRunConfig::default()
    }
}

/// Largest-remainder apportionment of `n` over `weights`.
fn quotas(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut q: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = n - q.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        q[i] += 1;
    }
    q
}

/// The workload's population, as session indices of the cohort
/// generator seeded with `--seed`: each profile is kept only while its
/// stratum has room. The strata are age band, rhythm burden and, nested,
/// uplink (CS, 3-lead, 1-lead) by noise profile, each apportioned from
/// the configured weights. Every seed then runs the same mix. Over ten
/// seeds, `CohortRunner::plans` (sessions `0..n`) gave `mixed` a
/// `cohort_s` spread of 0.35, more than any allowed bound, and these
/// strata 0.09 (README.md, "The load").
fn population(generator: &CohortGenerator) -> Result<Vec<usize>, String> {
    let c = generator.config();
    let n = c.sessions;
    let mut age = quotas(&c.age_weights, n);
    let mut burden = quotas(&c.burden_weights, n);
    let cs = (c.cs_fraction * n as f64).round() as usize;
    let three = (c.three_lead_fraction * (n - cs) as f64).round() as usize;
    let mut noise: Vec<Vec<usize>> = [cs, three, n - cs - three]
        .iter()
        .map(|&k| quotas(&c.noise_weights, k))
        .collect();
    let mut sessions = Vec::with_capacity(n);
    for i in 0..MAX_DRAWS {
        if sessions.len() == n {
            break;
        }
        let p = generator.profile(i);
        let a = AgeBand::ALL
            .iter()
            .position(|&x| x == p.age_band)
            .expect("a profile's age band is one of AgeBand::ALL");
        let b = RhythmBurden::ALL
            .iter()
            .position(|&x| x == p.burden)
            .expect("a profile's burden is one of RhythmBurden::ALL");
        let u = match (p.cs_uplink, p.n_leads) {
            (true, _) => 0,
            (false, 3) => 1,
            _ => 2,
        };
        let z = NoiseProfile::ALL
            .iter()
            .position(|&x| x == p.noise)
            .expect("a profile's noise is one of NoiseProfile::ALL");
        if age[a] == 0 || burden[b] == 0 || noise[u][z] == 0 {
            continue;
        }
        age[a] -= 1;
        burden[b] -= 1;
        noise[u][z] -= 1;
        sessions.push(i);
    }
    if sessions.len() == n {
        Ok(sessions)
    } else {
        Err(format!(
            "population quotas unfilled after {MAX_DRAWS} draws"
        ))
    }
}

/// The session plans of `sessions`, built the way `CohortRunner::plans`
/// builds its own: a profile and its segment scripts per session.
fn build_plans(runner: &CohortRunner, sessions: &[usize]) -> Vec<SessionPlan> {
    let generator = CohortGenerator::new(runner.config().cohort.clone());
    sessions
        .iter()
        .map(|&i| {
            let profile = generator.profile(i);
            let scripts = generator.session_scripts(&profile);
            SessionPlan { profile, scripts }
        })
        .collect()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a 64 of the report's JSON: a digest to compare runs by eye.
fn digest(report: &CohortReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.to_json().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The host's (steal, total) CPU jiffies from `/proc/stat`. Time a
/// hypervisor gives to other guests shows as steal; it lengthens every
/// wall-clock figure, so each run prints its share.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let counts: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*counts.get(7)?, counts.iter().sum()))
}

/// Output checks that hold on any seed; each failure is one line.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Invariants of one live report.
    fn report(&mut self, r: &CohortReport, planned: usize) {
        self.check(r.sessions == planned as u64, || {
            format!("report has {} sessions, {planned} planned", r.sessions)
        });
        self.check(r.link.recovered <= r.link.lost, || {
            format!("recovered {} > lost {}", r.link.recovered, r.link.lost)
        });
        self.check(
            r.prd.mean_percent.is_finite() && r.prd.p95_percent.is_finite(),
            || "non-finite PRD summary".into(),
        );
    }

    /// Invariants only a recording shows: every session ends with a
    /// `SessionReport`, and every scored PRD is finite. Returns the
    /// number of sessions without a report.
    fn recording(&mut self, blocks: &[ArchiveBlock], planned: usize) -> u64 {
        let mut reported = 0u64;
        let mut ended = 0u64;
        for block in blocks {
            match block {
                ArchiveBlock::SessionEnd { end, .. } => {
                    ended += 1;
                    reported += u64::from(end.report.is_some());
                }
                ArchiveBlock::Epoch(rec) => {
                    for item in &rec.items {
                        if let EpochItem::CsWindow { prd: Some(p), .. } = item {
                            self.check(p.is_finite(), || {
                                format!("session {} has a non-finite PRD", rec.session)
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        self.check(ended == planned as u64, || {
            format!("{ended} sessions ended in the recording, {planned} planned")
        });
        self.check(reported == planned as u64, || {
            format!("{reported} of {planned} sessions have a SessionReport")
        });
        planned as u64 - reported.min(planned as u64)
    }
}

/// Re-writes the blocks of `bytes` through `ArchiveWriter`. Returns the
/// read and write times, the writer's codec statistics and the number
/// of epoch blocks; the gate fails unless the bytes come back exactly.
fn archive_round_trip(
    bytes: &[u8],
    gate: &mut Gate,
) -> Result<(Duration, Duration, CodecStats, u64), String> {
    let t = Instant::now();
    let (meta, blocks) = read_archive(bytes).map_err(|e| e.to_string())?;
    let read = t.elapsed();
    let t = Instant::now();
    let mut w =
        ArchiveWriter::new(Vec::with_capacity(bytes.len()), &meta).map_err(|e| e.to_string())?;
    let mut trailer: Option<RunTrailer> = None;
    let mut epochs = 0u64;
    for block in &blocks {
        match block {
            ArchiveBlock::SessionMeta { session, meta } => w.session_meta(*session, meta),
            ArchiveBlock::Epoch(rec) => {
                epochs += 1;
                w.epoch(rec)
            }
            ArchiveBlock::SessionEnd { session, end } => w.session_end(*session, end),
            ArchiveBlock::Trailer(t) => {
                trailer = Some(*t);
                Ok(())
            }
        }
        .map_err(|e| e.to_string())?;
    }
    let stats = w.codec_stats();
    let trailer = trailer.ok_or("recording has no trailer")?;
    let out = w.finish(&trailer).map_err(|e| e.to_string())?;
    let write = t.elapsed();
    gate.check(out == bytes, || {
        format!(
            "archive round trip differs: {} bytes re-written, {} recorded",
            out.len(),
            bytes.len()
        )
    });
    Ok((read, write, stats, epochs))
}

/// One replay of a recording: parse, `report()`, solver replay at the
/// archived settings. Returns the three phase times and the solver
/// replay's window and iteration counts.
fn replay(
    bytes: &[u8],
    live: &CohortReport,
    gate: &mut Gate,
) -> Result<([Duration; 3], u64, u64), String> {
    let t = Instant::now();
    let replayer = CohortReplayer::from_bytes(bytes).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let t = Instant::now();
    let replayed = replayer.report().map_err(|e| e.to_string())?;
    let report = t.elapsed();
    let t = Instant::now();
    let solver = replayer
        .solver_replay_archived()
        .map_err(|e| e.to_string())?;
    let solve = t.elapsed();
    gate.check(&replayed == live, || {
        "replayed report != live report".into()
    });
    gate.check(replayed.to_json() == live.to_json(), || {
        "replayed report JSON != live report JSON".into()
    });
    gate.check(solver.bit_identical, || {
        "solver replay at archived settings is not bit-identical".into()
    });
    Ok((
        [parse, report, solve],
        solver.windows_solved,
        solver.solver_iters,
    ))
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The report's quality figures other than `prd_mean_pct`. Deterministic
/// in the seed, but they swing by more than any allowed bound from one
/// population to the next, so they are per-layer figures of the traced
/// run rather than bounded end-to-end metrics (README.md, "Quality").
fn quality(r: &CohortReport) -> Metrics {
    let d = &r.detection;
    let link = &r.link;
    vec![
        (
            "af_recall_pct",
            100.0 * d.detected as f64 / d.episodes.max(1) as f64,
            "%",
        ),
        ("false_alerts_per_day", d.false_alerts_per_day, "1/d"),
        ("alert_latency_p95_s", d.latency_p95_s, "s"),
        ("prd_p95_pct", r.prd.p95_percent, "%"),
        (
            "link_residual_loss_pct",
            100.0 * (link.lost - link.recovered) as f64 / link.messages.max(1) as f64,
            "%",
        ),
    ]
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The untraced run: every end-to-end metric.
fn measure(args: &Args, gate: &mut Gate) -> Result<Outcome, String> {
    let w = &args.workload;
    let runner = CohortRunner::new(run_config(w, args.seed));

    // Choosing the population's sessions is the benchmark's own work, so
    // it is untimed; `setup_s` times what `CohortRunner::plans` does.
    // The build is timed again after every round: on a shared virtual
    // machine its time swings by 2x from one second to the next, so
    // samples spread over the run see the host the cohort runs see.
    let sessions = population(&CohortGenerator::new(runner.config().cohort.clone()))?;
    let mut setup = Vec::new();
    let mut set_up = |seconds: f64| {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let plans = build_plans(&runner, &sessions);
            setup.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                return plans;
            }
        }
    };
    let plans = set_up(SETUP_SECONDS);
    let planned = plans.len();

    // Cohort runs and replays alternate, so a slow spell on a shared
    // machine lands on both metrics instead of on whichever ran then. On
    // a live workload the replay only feeds `replay_s`, and on `cs_dense`
    // it takes longer than the cohort run it follows; there a round
    // replays only while replays have had at most half the cohort runs'
    // time, so most of the budget buys `cohort_s` samples.
    let replays = |cohort: f64, replay: f64| w.recorded || replay <= cohort / 2.0;
    let jiffies = cpu_jiffies();
    let start = Instant::now();
    let mut cohort_s: Vec<f64> = Vec::new();
    let mut replay_s: Vec<f64> = Vec::new();
    let mut archive: Option<(CohortReport, Vec<u8>)> = None;
    let mut missing = 0u64;
    let mut peak_rss = None;
    let mut runs = 0u64;
    let mut errored = 0u64;
    loop {
        let t = Instant::now();
        let result = if w.recorded {
            runner
                .run_plans_recorded(&plans, Vec::new())
                .map(|(r, b)| (r, Some(b)))
        } else {
            runner.run_plans(&plans).map(|r| (r, None))
        };
        let took = t.elapsed().as_secs_f64();
        runs += 1;
        let (report, recorded) = match result {
            Ok(ok) => ok,
            Err(e) => {
                errored += 1;
                gate.check(false, || format!("cohort run failed: {e}"));
                break;
            }
        };
        cohort_s.push(took);
        gate.report(&report, planned);
        if let Some((r0, b0)) = &archive {
            gate.check(&report == r0, || {
                "a repeated run gave a different report".into()
            });
            gate.check(recorded.as_ref().is_none_or(|b| b == b0), || {
                "a repeated run recorded different bytes".into()
            });
        } else {
            // A live workload records once, untimed, for the replay half.
            let bytes = match recorded {
                Some(b) => b,
                None => {
                    let (r, b) = runner
                        .run_plans_recorded(&plans, Vec::new())
                        .map_err(|e| e.to_string())?;
                    gate.check(r == report, || {
                        "the recorded run's report != the live report".into()
                    });
                    b
                }
            };
            let (_, blocks) = read_archive(bytes.as_slice()).map_err(|e| e.to_string())?;
            missing = gate.recording(&blocks, planned);
            drop(blocks);
            archive_round_trip(&bytes, gate)?;
            archive = Some((report, bytes));
        }
        let cohort_total: f64 = cohort_s.iter().sum();
        if replay_s.is_empty() || replays(cohort_total, replay_s.iter().sum()) {
            let (live, bytes) = archive.as_ref().expect("recorded above");
            let (phases, _, _) = replay(bytes, live, gate)?;
            replay_s.push(phases.iter().sum::<Duration>().as_secs_f64());
        }
        // The first round holds everything a run keeps resident: a
        // cohort run, the recording and a replay. Later rounds repeat it,
        // and how many fit depends on the machine's speed.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        set_up(SETUP_SECONDS_PER_ROUND);
        // Stop before a further round would overrun the budget.
        let next_cohort = median(&cohort_s);
        let next_replay = if replays(cohort_total + next_cohort, replay_s.iter().sum()) {
            median(&replay_s)
        } else {
            0.0
        };
        let next = next_cohort + next_replay + SETUP_SECONDS_PER_ROUND;
        if start.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
    }
    let Some((live, bytes)) = archive else {
        return Err(gate.failures.join("; "));
    };

    println!("report_digest={} report={}", digest(&live), live.to_json());
    let steal_pct = jiffies.zip(cpu_jiffies()).map(|((s0, t0), (s1, t1))| {
        100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
    });
    println!(
        "cohort_runs={} replays={} cohort_s={:?} replay_s={:?} host_steal_pct={}",
        cohort_s.len(),
        replay_s.len(),
        cohort_s,
        replay_s,
        steal_pct.map_or("n/a".into(), |p| format!("{p:.1}"))
    );

    let attempted = runs * planned as u64;
    let failed = errored * planned as u64 + (runs - errored) * missing;
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("cohort_s", median(&cohort_s), "s"),
        ("replay_s", median(&replay_s), "s"),
        (
            "peak_rss_mib",
            peak_rss.expect("set in the first round"),
            "MiB",
        ),
        ("archive_bytes", bytes.len() as f64, "bytes"),
        ("battery_days_mean", live.battery_days_mean, "d"),
        ("prd_mean_pct", live.prd.mean_percent, "%"),
        (
            "sessions_ok_pct",
            100.0 * (attempted - failed) as f64 / attempted as f64,
            "%",
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: every per-layer metric.
fn measure_traced(args: &Args, gate: &mut Gate) -> Result<Outcome, String> {
    let w = &args.workload;
    let runner = CohortRunner::new(run_config(w, args.seed));
    let cfg = runner.config().clone();
    let sessions = population(&CohortGenerator::new(cfg.cohort.clone()))?;
    let plans = build_plans(&runner, &sessions);
    let planned = plans.len();

    // Untraced reference, traced mirror at the timed worker count, and
    // the single-worker baseline, repeated while the budget lasts.
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut w2: Vec<Ledger> = Vec::new();
    let mut w1: Vec<Ledger> = Vec::new();
    let mut live: Option<CohortReport> = None;
    let mut passes = Vec::new();
    let mut reference: Option<[u64; 15]> = None;
    loop {
        let pass = Instant::now();
        let t = Instant::now();
        let report = runner.run_plans(&plans).map_err(|e| e.to_string())?;
        untraced_s.push(t.elapsed().as_secs_f64());
        gate.report(&report, planned);
        if let Some(first) = &live {
            gate.check(&report == first, || {
                "a repeated run gave a different report".into()
            });
        }
        let report = live.get_or_insert(report);
        for (workers, ledgers) in [(WORKERS, &mut w2), (1, &mut w1)] {
            let led = trace::mirror(&cfg, &plans, workers).map_err(|e| e.to_string())?;
            for line in led.faithful(report, planned) {
                gate.check(false, || format!("{workers} worker(s): {line}"));
            }
            let counts = *reference.get_or_insert(led.counts());
            gate.check(led.counts() == counts, || {
                format!("{workers} worker(s): traced work counts differ between passes")
            });
            ledgers.push(led);
        }
        passes.push(pass.elapsed().as_secs_f64());
        // Leave room for the recording and the replay that follow.
        let pass = median(&passes);
        let tail = 2.0 * median(&untraced_s);
        if start.elapsed().as_secs_f64() + pass + tail > args.seconds {
            break;
        }
    }
    if !gate.failures.is_empty() {
        return Err(format!(
            "the traced mirror is not faithful: {}",
            gate.failures.join("; ")
        ));
    }
    let live = live.expect("the loop runs at least once");

    let (recorded, bytes) = runner
        .run_plans_recorded(&plans, Vec::new())
        .map_err(|e| e.to_string())?;
    gate.check(recorded == live, || {
        "the recorded run's report != the live report".into()
    });
    let (_, blocks) = read_archive(bytes.as_slice()).map_err(|e| e.to_string())?;
    gate.recording(&blocks, planned);
    drop(blocks);
    let (read, write, codec, epochs) = archive_round_trip(&bytes, gate)?;
    let (phases, replay_windows, replay_iters) = replay(&bytes, &live, gate)?;

    let med = |f: &dyn Fn(&Ledger) -> f64| median(&w2.iter().map(f).collect::<Vec<_>>());
    let secs = |d: Duration| d.as_secs_f64();
    let wall = med(&|l| secs(l.wall));
    let share = |busy: f64| 100.0 * busy / wall;
    // Counts are identical across passes (the faithfulness check and the
    // determinism of the runner pin them); read them from the first.
    let c = &w2[0];
    let calls_us: Vec<f64> = c
        .ingest_calls
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let patient_hours = (planned as f64) * f64::from(w.hours);
    let synth_s = med(&|l| secs(l.synth));
    let node_s = med(&|l| secs(l.node));
    let ingest_s = med(&|l| secs(l.ingest));
    let ingest_w1 = median(&w1.iter().map(|l| secs(l.ingest)).collect::<Vec<_>>());
    let g = &c.gateway;
    let lookups = c.cache.hits + c.cache.misses;

    println!(
        "traced_passes={} untraced_s={:?} traced_wall_s={:?}",
        w2.len(),
        untraced_s,
        w2.iter().map(|l| secs(l.wall)).collect::<Vec<_>>()
    );
    println!("report_digest={}", digest(&live));
    if plans.iter().all(|p| p.profile.cs_uplink) {
        println!(
            "not applicable on {}: af_recall_pct, false_alerts_per_day and \
             alert_latency_p95_s read 0 because CS nodes uplink no rhythm events, \
             so the gateway raises no AF alerts",
            w.name
        );
    }

    let mut metrics = quality(&live);
    metrics.extend([
        ("synth.busy_s", synth_s, "s"),
        ("synth.share_pct", share(synth_s), "%"),
        ("synth.samples", c.synth_samples as f64, "count"),
        (
            "synth.ns_per_sample",
            synth_s * 1e9 / c.synth_samples as f64,
            "ns",
        ),
        ("node.busy_s", node_s, "s"),
        ("node.share_pct", share(node_s), "%"),
        ("node.frames", c.node_frames as f64, "count"),
        ("node.payloads", c.node_payloads as f64, "count"),
        (
            "node.ns_per_frame",
            node_s * 1e9 / c.node_frames as f64,
            "ns",
        ),
        ("link.busy_s", med(&|l| secs(l.link)), "s"),
        ("link.packets", c.link_packets as f64, "count"),
        ("link.wire_bytes", c.link_wire_bytes as f64, "bytes"),
        (
            "link.wire_bytes_per_patient_hour",
            c.link_wire_bytes as f64 / patient_hours,
            "bytes",
        ),
        ("link.retransmits", c.link_retransmits as f64, "count"),
        ("link.expired", c.link_expired as f64, "count"),
        ("channel.busy_s", med(&|l| secs(l.channel)), "s"),
        ("channel.offered", c.channel_offered as f64, "count"),
        ("channel.dropped", c.channel_dropped as f64, "count"),
        ("gateway.ingest_busy_s", ingest_s, "s"),
        ("gateway.share_pct", share(ingest_s), "%"),
        ("gateway.ingest_calls", calls_us.len() as f64, "count"),
        ("gateway.ingest_p50_us", percentile(&calls_us, 50.0), "us"),
        ("gateway.ingest_p99_us", percentile(&calls_us, 99.0), "us"),
        ("gateway.packets", g.packets as f64, "count"),
        ("gateway.payloads", g.payloads as f64, "count"),
        (
            "gateway.windows_solved",
            g.windows_reconstructed as f64,
            "count",
        ),
        ("gateway.windows_skipped", g.windows_skipped as f64, "count"),
        ("gateway.solver_iters", g.solver_iters as f64, "count"),
        (
            "gateway.iters_per_window",
            g.solver_iters as f64 / g.windows_reconstructed.max(1) as f64,
            "count",
        ),
        (
            "gateway.cache_hit_pct",
            100.0 * c.cache.hits as f64 / lookups.max(1) as f64,
            "%",
        ),
        (
            "gateway.lost_event_gap",
            live.link.lost_events as f64 - live.link.lost as f64,
            "count",
        ),
        ("downlink.busy_s", med(&|l| secs(l.downlink)), "s"),
        ("downlink.frames", c.downlink_frames as f64, "count"),
        ("gateway.control_busy_s", med(&|l| secs(l.control)), "s"),
        ("archive.read_busy_s", secs(read), "s"),
        ("archive.write_busy_s", secs(write), "s"),
        ("archive.epochs", epochs as f64, "count"),
        (
            "archive.window_coded_bytes",
            codec.window_coded as f64,
            "bytes",
        ),
        (
            "archive.measurement_coded_bytes",
            codec.measurement_coded as f64,
            "bytes",
        ),
        (
            "archive.reference_coded_bytes",
            codec.reference_coded as f64,
            "bytes",
        ),
        ("replay.parse_s", secs(phases[0]), "s"),
        ("replay.report_s", secs(phases[1]), "s"),
        ("replay.solver_s", secs(phases[2]), "s"),
        ("replay.windows_solved", replay_windows as f64, "count"),
        ("replay.solver_iters", replay_iters as f64, "count"),
        (
            "replay.us_per_window",
            secs(phases[2]) * 1e6 / replay_windows.max(1) as f64,
            "us",
        ),
        (
            "harness.self_s",
            med(&|l| secs(l.wall.saturating_sub(l.busy()))),
            "s",
        ),
        (
            "trace.overhead_pct",
            100.0 * (wall - median(&untraced_s)) / median(&untraced_s),
            "%",
        ),
        ("gateway.w1_over_w2", ingest_w1 / ingest_s, "ratio"),
    ]);
    Ok(Outcome {
        attempted: (w2.len() + w1.len()) as u64 * planned as u64,
        failed: 0,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cohortbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "cohortbench workload={} seed={} seconds={} trace={} cores={} workers={WORKERS} \
         sessions={} hours={} segment_s={} cs_fraction={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.sessions,
        w.hours,
        w.segment_s,
        w.cs_fraction
    );
    let mut gate = Gate::default();
    let outcome = if args.trace {
        measure_traced(&args, &mut gate)
    } else {
        measure(&args, &mut gate)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cohortbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &gate.failures {
        println!("check failed: {f}");
    }
    let mut bad = Vec::new();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            if !value.is_finite() {
                bad.push(*name);
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for name in &bad {
        println!("check failed: {name} is not finite");
    }
    let correct = gate.failures.is_empty() && bad.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
