//! The `superfe` command-line tool.
//!
//! ```text
//! superfe apps                          # list the built-in Table 3 policies
//! superfe list                          # bundled policy names, one per line
//! superfe show <policy>                 # print a policy's source
//! superfe check <p1> [<p2> ...] [opts]  # static analysis: lints + feasibility;
//!                                       # ≥2 policies adds the SF07xx fusion report
//! superfe explain <p1> [<p2> ...]       # cost model, overflow proofs, rewrites;
//!                                       # ≥2 policies adds the SF07xx fusion report
//! superfe compile <policy>              # show the switch/NIC split + resources
//! superfe run <policy> [options]        # extract features from a synthetic trace
//! superfe serve <p1> [<p2> ...] [opts]  # N tenants on one shared switch/NIC
//!
//! <policy> is a built-in name (kitsune, npod, tf, ...) or a path to a .sfe
//! policy file in the paper's DSL.
//!
//! run options:
//!   --trace mawi|enterprise|campus      workload preset       [enterprise]
//!   --packets N                         trace size            [100000]
//!   --seed S                            RNG seed              [1]
//!   --csv PATH                          write feature vectors as CSV
//!   --limit N                           print at most N vectors [5]
//!
//! check options:
//!   --headroom PCT                      warn above this utilization [90]
//!   --cache-slots N                     switch short-buffer slots [16384]
//!   --groups N                          concurrent groups per level [5000]
//!   --format text|json                  output rendering [text]
//!
//! explain options:
//!   --groups N                          concurrent groups per level [5000]
//!   --group-packets N                   batch bound for overflow proofs [10000]
//!   --format text|json                  output rendering [text]
//! ```
//!
//! `check` exits non-zero when any error-severity diagnostic is found, so it
//! slots into CI pipelines ahead of deployment.
//!
//! The library half exists so the argument parser and command logic are unit
//! testable; `main.rs` is a thin wrapper.

use std::fmt::Write as _;

use superfe_apps::all_apps;
use superfe_core::{analyze, AnalyzeConfig, SuperFe};
use superfe_nic::{
    cycles_from_cost, resources as nic_resources, solve_placement, CycleModel, NfpModel, OptFlags,
};
use superfe_policy::analyze::cost::policy_cost;
use superfe_policy::ir::opt::optimize;
use superfe_policy::{compile, dsl, Policy};
use superfe_switch::{resources as switch_resources, MgpvConfig, TofinoBudget};
use superfe_trafficgen::{Workload, WorkloadPreset};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List built-in application policies.
    Apps,
    /// Print a policy's DSL source.
    Show {
        /// Built-in name or file path.
        policy: String,
    },
    /// Compile a policy and print the deployment split.
    Compile {
        /// Built-in name or file path.
        policy: String,
    },
    /// Statically analyze one or more policies: lints plus hardware
    /// feasibility; with several policies, also the SF07xx cross-policy
    /// fusion report.
    Check {
        /// Built-in names or file paths (at least one).
        policies: Vec<String>,
        /// Headroom warning threshold in percent.
        headroom: f64,
        /// Switch short-buffer slot count (overrides the §7 default).
        cache_slots: Option<usize>,
        /// Expected concurrent groups per granularity level.
        groups: usize,
        /// Output rendering.
        format: OutputFormat,
    },
    /// Explain one or more policies: typed IR, value-range proofs, static
    /// cost model, optimizer rewrites, and a pre-placement cycle estimate;
    /// with several policies, also the SF07xx cross-policy fusion report.
    Explain {
        /// Built-in names or file paths (at least one).
        policies: Vec<String>,
        /// Expected concurrent groups per granularity level.
        groups: usize,
        /// Per-group packet batch bound for the overflow proofs.
        group_packets: u64,
        /// Output rendering.
        format: OutputFormat,
    },
    /// Run a policy over a synthetic trace.
    Run {
        /// Built-in name or file path.
        policy: String,
        /// Workload preset.
        trace: WorkloadPreset,
        /// Trace size in packets.
        packets: usize,
        /// RNG seed.
        seed: u64,
        /// Optional CSV output path.
        csv: Option<String>,
        /// Max vectors to print.
        limit: usize,
        /// Save the generated trace to this path (SFET format).
        save_trace: Option<String>,
        /// Load the trace from this path instead of generating.
        load_trace: Option<String>,
    },
    /// Measure streaming-pipeline throughput (the `BENCH_pipeline.json`
    /// smoke).
    Bench {
        /// Trace size in packets.
        packets: usize,
        /// Worker counts to sweep.
        workers: Vec<usize>,
        /// Workload RNG seed.
        seed: u64,
        /// Also write the JSON document to this path.
        out: Option<String>,
    },
    /// Train, calibrate, and serve a detector online (the
    /// `BENCH_detect.json` smoke).
    Detect {
        /// The benchmark configuration.
        cfg: superfe_bench::experiments::detect::DetectConfig,
        /// Also write the JSON document to this path.
        out: Option<String>,
    },
    /// List bundled policy names, machine-readable (one per line).
    List,
    /// Serve several policies concurrently on one shared switch/NIC pair.
    Serve {
        /// Built-in names or file paths, one per tenant.
        policies: Vec<String>,
        /// Workload preset.
        trace: WorkloadPreset,
        /// Trace size in packets.
        packets: usize,
        /// RNG seed.
        seed: u64,
        /// NIC shard count.
        workers: usize,
        /// `(tenant index, packet)` pairs: attach late instead of at start.
        attach_at: Vec<(usize, usize)>,
        /// `(tenant index, packet)` pairs: hot-detach mid-stream.
        detach_at: Vec<(usize, usize)>,
        /// `(tenant index, slots)` pairs: per-tenant cache quota (switch
        /// short-buffer slot count) overriding the §7 default.
        cache_slots: Vec<(usize, usize)>,
        /// Re-run every tenant alone and fail unless the shared-plane
        /// output is bitwise identical.
        verify_solo: bool,
        /// Analysis-certified cross-policy fusion (disable with --no-fuse,
        /// which also disables SF08xx prefix sharing).
        fuse: bool,
        /// SF08xx cross-tenant prefix sharing (disable with --no-cse).
        cse: bool,
        /// Write a live plane snapshot to this path mid-stream.
        snapshot: Option<String>,
        /// Packet index at which the snapshot is taken (with `--snapshot`;
        /// defaults to the middle of the trace).
        snapshot_at: Option<usize>,
        /// Restore the plane from a snapshot file and serve the remainder
        /// of the trace (resumes at the saved packet position).
        restore: Option<String>,
        /// Pin group-table eviction to `RandomWay` with this seed so
        /// eviction sequences are reproducible run to run.
        evict_seed: Option<u64>,
    },
    /// Corpus-scale state-management sweep (the `BENCH_scale.json` smoke).
    BenchScale {
        /// Flow counts to sweep.
        flows: Vec<usize>,
        /// Workload RNG seed.
        seed: u64,
        /// `RandomWay` eviction-victim seed (reproducible eviction runs).
        evict_seed: u64,
        /// Warmup runs per cell.
        warmup: usize,
        /// Measured runs per cell.
        runs: usize,
        /// Also write the JSON document to this path.
        out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Errors surfaced to the user.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError {
    /// The text to print.
    pub message: String,
    /// When set, `message` is machine-readable output (the `--format json`
    /// rendering of a failing report) that belongs on stdout so scripts can
    /// parse it; prose errors go to stderr.
    pub machine: bool,
}

impl CliError {
    /// A prose (stderr) error.
    pub fn text(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            machine: false,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError::text(msg)
}

/// Output format of the analysis commands (`check`, `explain`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// A single JSON object for machine consumption.
    Json,
}

fn parse_format(s: &str) -> Result<OutputFormat, CliError> {
    match s {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        other => Err(err(format!(
            "--format expects 'text' or 'json', got '{other}'"
        ))),
    }
}

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "apps" => Ok(Command::Apps),
        "list" => Ok(Command::List),
        "serve" => {
            let rest: Vec<String> = it.cloned().collect();
            let mut policies = Vec::new();
            let mut i = 0;
            while i < rest.len() && !rest[i].starts_with("--") {
                policies.push(rest[i].clone());
                i += 1;
            }
            if policies.is_empty() {
                return Err(err("usage: superfe serve <policy> [<policy>...] [options]"));
            }
            let mut trace = WorkloadPreset::Enterprise;
            let mut packets = 20_000usize;
            let mut seed = 1u64;
            let mut workers = 2usize;
            let mut attach_at = Vec::new();
            let mut detach_at = Vec::new();
            let mut cache_slots = Vec::new();
            let mut verify_solo = false;
            let mut fuse = true;
            let mut cse = true;
            let mut snapshot = None;
            let mut snapshot_at = None;
            let mut restore = None;
            let mut evict_seed = None;
            let parse_epoch = |flag: &str, v: &str| -> Result<(usize, usize), CliError> {
                let bad = || err(format!("{flag} expects TENANT:VALUE, got '{v}'"));
                let (idx, pkt) = v.split_once(':').ok_or_else(bad)?;
                Ok((
                    idx.parse().map_err(|_| bad())?,
                    pkt.parse().map_err(|_| bad())?,
                ))
            };
            while i < rest.len() {
                let flag = rest[i].clone();
                i += 1;
                let mut value = || -> Result<String, CliError> {
                    let v = rest
                        .get(i)
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")));
                    i += 1;
                    v
                };
                match flag.as_str() {
                    "--trace" => {
                        trace = match value()?.as_str() {
                            "mawi" => WorkloadPreset::MawiIxp,
                            "enterprise" => WorkloadPreset::Enterprise,
                            "campus" => WorkloadPreset::Campus,
                            other => return Err(err(format!("unknown trace '{other}'"))),
                        }
                    }
                    "--packets" => {
                        packets = value()?
                            .parse()
                            .map_err(|_| err("--packets expects an integer"))?;
                    }
                    "--seed" => {
                        seed = value()?
                            .parse()
                            .map_err(|_| err("--seed expects an integer"))?;
                    }
                    "--workers" => {
                        workers = value()?
                            .parse()
                            .map_err(|_| err("--workers expects an integer"))?;
                        if workers == 0 {
                            return Err(err("--workers expects a positive count"));
                        }
                    }
                    "--attach-at" => attach_at.push(parse_epoch("--attach-at", &value()?)?),
                    "--detach-at" => detach_at.push(parse_epoch("--detach-at", &value()?)?),
                    "--cache-slots" => {
                        let pair = parse_epoch("--cache-slots", &value()?)?;
                        if pair.1 == 0 {
                            return Err(err("--cache-slots expects a positive slot count"));
                        }
                        cache_slots.push(pair);
                    }
                    "--verify-solo" => verify_solo = true,
                    "--no-fuse" => {
                        fuse = false;
                        cse = false;
                    }
                    "--no-cse" => cse = false,
                    "--snapshot" => snapshot = Some(value()?),
                    "--snapshot-at" => {
                        snapshot_at = Some(
                            value()?
                                .parse()
                                .map_err(|_| err("--snapshot-at expects an integer"))?,
                        );
                    }
                    "--restore" => restore = Some(value()?),
                    "--evict-seed" => {
                        evict_seed = Some(
                            value()?
                                .parse()
                                .map_err(|_| err("--evict-seed expects an integer"))?,
                        );
                    }
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            for &(idx, _) in attach_at.iter().chain(&detach_at).chain(&cache_slots) {
                if idx >= policies.len() {
                    return Err(err(format!(
                        "tenant index {idx} out of range (serving {} policies)",
                        policies.len()
                    )));
                }
            }
            if snapshot_at.is_some() && snapshot.is_none() {
                return Err(err("--snapshot-at needs --snapshot PATH"));
            }
            if restore.is_some() && snapshot.is_some() {
                return Err(err("--restore and --snapshot are mutually exclusive"));
            }
            if restore.is_some() && !(attach_at.is_empty() && detach_at.is_empty()) {
                return Err(err("--restore resumes the snapshotted topology; \
                     --attach-at/--detach-at schedules don't apply"));
            }
            if restore.is_some() && evict_seed.is_some() {
                return Err(err(
                    "--restore resumes the snapshotted eviction state; --evict-seed doesn't apply",
                ));
            }
            Ok(Command::Serve {
                policies,
                trace,
                packets,
                seed,
                workers,
                attach_at,
                detach_at,
                cache_slots,
                verify_solo,
                fuse,
                cse,
                snapshot,
                snapshot_at,
                restore,
                evict_seed,
            })
        }
        "show" | "compile" => {
            let policy = it
                .next()
                .ok_or_else(|| err(format!("usage: superfe {cmd} <policy>")))?
                .clone();
            if cmd == "show" {
                Ok(Command::Show { policy })
            } else {
                Ok(Command::Compile { policy })
            }
        }
        "check" => {
            let rest: Vec<String> = it.cloned().collect();
            let mut policies = Vec::new();
            let mut at = 0;
            while at < rest.len() && !rest[at].starts_with("--") {
                policies.push(rest[at].clone());
                at += 1;
            }
            if policies.is_empty() {
                return Err(err("usage: superfe check <policy> [<policy>...] [options]"));
            }
            let mut it = rest[at..].iter();
            let mut headroom = 90.0f64;
            let mut cache_slots = None;
            let mut groups = 5_000usize;
            let mut format = OutputFormat::Text;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--headroom" => {
                        headroom = value()?
                            .parse()
                            .map_err(|_| err("--headroom expects a percentage"))?;
                    }
                    "--cache-slots" => {
                        cache_slots = Some(
                            value()?
                                .parse()
                                .map_err(|_| err("--cache-slots expects an integer"))?,
                        );
                    }
                    "--groups" => {
                        groups = value()?
                            .parse()
                            .map_err(|_| err("--groups expects an integer"))?;
                    }
                    "--format" => format = parse_format(&value()?)?,
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Check {
                policies,
                headroom,
                cache_slots,
                groups,
                format,
            })
        }
        "explain" => {
            let rest: Vec<String> = it.cloned().collect();
            let mut policies = Vec::new();
            let mut at = 0;
            while at < rest.len() && !rest[at].starts_with("--") {
                policies.push(rest[at].clone());
                at += 1;
            }
            if policies.is_empty() {
                return Err(err(
                    "usage: superfe explain <policy> [<policy>...] [options]",
                ));
            }
            let mut it = rest[at..].iter();
            let mut groups = 5_000usize;
            let mut group_packets = 10_000u64;
            let mut format = OutputFormat::Text;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--groups" => {
                        groups = value()?
                            .parse()
                            .map_err(|_| err("--groups expects an integer"))?;
                    }
                    "--group-packets" => {
                        group_packets = value()?
                            .parse()
                            .map_err(|_| err("--group-packets expects an integer"))?;
                    }
                    "--format" => format = parse_format(&value()?)?,
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Explain {
                policies,
                groups,
                group_packets,
                format,
            })
        }
        "run" => {
            let policy = it
                .next()
                .ok_or_else(|| err("usage: superfe run <policy> [options]"))?
                .clone();
            let mut trace = WorkloadPreset::Enterprise;
            let mut packets = 100_000usize;
            let mut seed = 1u64;
            let mut csv = None;
            let mut limit = 5usize;
            let mut save_trace = None;
            let mut load_trace = None;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--trace" => {
                        trace = match value()?.as_str() {
                            "mawi" => WorkloadPreset::MawiIxp,
                            "enterprise" => WorkloadPreset::Enterprise,
                            "campus" => WorkloadPreset::Campus,
                            other => return Err(err(format!("unknown trace '{other}'"))),
                        }
                    }
                    "--packets" => {
                        packets = value()?
                            .parse()
                            .map_err(|_| err("--packets expects an integer"))?;
                    }
                    "--seed" => {
                        seed = value()?
                            .parse()
                            .map_err(|_| err("--seed expects an integer"))?;
                    }
                    "--csv" => csv = Some(value()?),
                    "--save-trace" => save_trace = Some(value()?),
                    "--load-trace" => load_trace = Some(value()?),
                    "--limit" => {
                        limit = value()?
                            .parse()
                            .map_err(|_| err("--limit expects an integer"))?;
                    }
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Run {
                policy,
                trace,
                packets,
                seed,
                csv,
                limit,
                save_trace,
                load_trace,
            })
        }
        "bench" => {
            let rest: Vec<String> = it.clone().cloned().collect();
            if rest.first().map(String::as_str) == Some("scale") {
                let mut flows = vec![10_000usize, 50_000];
                let mut seed = superfe_bench::experiments::scale::DEFAULT_SEED;
                let mut evict_seed = superfe_bench::experiments::scale::DEFAULT_EVICT_SEED;
                let mut warmup = 0usize;
                let mut runs = 1usize;
                let mut out = None;
                let mut it = rest[1..].iter();
                while let Some(flag) = it.next() {
                    let mut value = || {
                        it.next()
                            .cloned()
                            .ok_or_else(|| err(format!("{flag} needs a value")))
                    };
                    match flag.as_str() {
                        "--flows" => {
                            flows = value()?
                                .split(',')
                                .map(|f| f.trim().parse::<usize>())
                                .collect::<Result<_, _>>()
                                .map_err(|_| err("--flows expects comma-separated integers"))?;
                            if flows.is_empty() {
                                return Err(err("--flows expects at least one count"));
                            }
                        }
                        "--seed" => {
                            seed = value()?
                                .parse()
                                .map_err(|_| err("--seed expects an integer"))?;
                        }
                        "--evict-seed" => {
                            evict_seed = value()?
                                .parse()
                                .map_err(|_| err("--evict-seed expects an integer"))?;
                        }
                        "--warmup" => {
                            warmup = value()?
                                .parse()
                                .map_err(|_| err("--warmup expects an integer"))?;
                        }
                        "--runs" => {
                            runs = value()?
                                .parse()
                                .map_err(|_| err("--runs expects an integer"))?;
                            if runs == 0 {
                                return Err(err("--runs expects a positive count"));
                            }
                        }
                        "--out" => out = Some(value()?),
                        other => return Err(err(format!("unknown option '{other}'"))),
                    }
                }
                return Ok(Command::BenchScale {
                    flows,
                    seed,
                    evict_seed,
                    warmup,
                    runs,
                    out,
                });
            }
            let mut packets = 10_000usize;
            let mut workers = vec![1usize, 2];
            let mut seed = superfe_bench::experiments::throughput::DEFAULT_SEED;
            let mut out = None;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--packets" => {
                        packets = value()?
                            .parse()
                            .map_err(|_| err("--packets expects an integer"))?;
                    }
                    "--workers" => {
                        workers = value()?
                            .split(',')
                            .map(|w| w.trim().parse::<usize>())
                            .collect::<Result<_, _>>()
                            .map_err(|_| err("--workers expects comma-separated integers"))?;
                        if workers.is_empty() {
                            return Err(err("--workers expects at least one count"));
                        }
                    }
                    "--seed" => {
                        seed = value()?
                            .parse()
                            .map_err(|_| err("--seed expects an integer"))?;
                    }
                    "--out" => out = Some(value()?),
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Bench {
                packets,
                workers,
                seed,
                out,
            })
        }
        "detect" => {
            use superfe_bench::experiments::detect::{parse_scenario, DetectConfig};
            let mut cfg = DetectConfig::default();
            let mut out = None;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match flag.as_str() {
                    "--scenario" => {
                        let v = value()?;
                        cfg.scenario = parse_scenario(&v).ok_or_else(|| {
                            err(format!(
                                "--scenario expects one of os_scan, ssdp_flood, syn_dos, \
                                 fuzzing, mirai; got '{v}'"
                            ))
                        })?;
                    }
                    "--detector" => {
                        let v = value()?;
                        cfg.detector =
                            superfe_detect::DetectorKind::parse(&v).ok_or_else(|| {
                                err(format!(
                                "--detector expects one of kitnet, knn, cart, centroid; got '{v}'"
                            ))
                            })?;
                    }
                    "--benign" => {
                        cfg.benign_packets = value()?
                            .parse()
                            .map_err(|_| err("--benign expects an integer"))?;
                    }
                    "--serve-benign" => {
                        cfg.serve_benign = value()?
                            .parse()
                            .map_err(|_| err("--serve-benign expects an integer"))?;
                    }
                    "--attack" => {
                        cfg.attack_packets = value()?
                            .parse()
                            .map_err(|_| err("--attack expects an integer"))?;
                    }
                    "--seed" => {
                        cfg.seed = value()?
                            .parse()
                            .map_err(|_| err("--seed expects an integer"))?;
                    }
                    "--workers" => {
                        cfg.workers = value()?
                            .parse()
                            .map_err(|_| err("--workers expects an integer"))?;
                        if cfg.workers == 0 {
                            return Err(err("--workers expects a positive count"));
                        }
                    }
                    "--quantile" => {
                        cfg.quantile = value()?
                            .parse()
                            .map_err(|_| err("--quantile expects a number"))?;
                        if !(0.0..=1.0).contains(&cfg.quantile) {
                            return Err(err("--quantile expects a value in [0, 1]"));
                        }
                    }
                    "--margin" => {
                        cfg.margin = value()?
                            .parse()
                            .map_err(|_| err("--margin expects a number"))?;
                        if cfg.margin <= 0.0 {
                            return Err(err("--margin expects a positive value"));
                        }
                    }
                    "--in-pipeline" => cfg.in_pipeline = true,
                    "--out" => out = Some(value()?),
                    other => return Err(err(format!("unknown option '{other}'"))),
                }
            }
            Ok(Command::Detect { cfg, out })
        }
        other => Err(err(format!(
            "unknown command '{other}' (try 'superfe help')"
        ))),
    }
}

/// Resolves a policy argument: built-in app name first, then file path.
pub fn resolve_policy(name: &str) -> Result<(String, Policy), CliError> {
    for app in all_apps() {
        if app.name.eq_ignore_ascii_case(name) {
            return Ok((app.dsl.to_string(), app.policy()));
        }
    }
    let src = std::fs::read_to_string(name).map_err(|e| {
        err(format!(
            "'{name}' is not a built-in policy and reading it as a file failed: {e}"
        ))
    })?;
    let policy = dsl::parse(&src).map_err(|e| err(format!("{name}: {e}")))?;
    Ok((src, policy))
}

/// Like [`resolve_policy`], but skips validation so the static analyzer can
/// report *every* structural problem with its `SF01xx` code, not just the
/// first one as a parse error.
fn resolve_policy_unchecked(name: &str) -> Result<Policy, CliError> {
    for app in all_apps() {
        if app.name.eq_ignore_ascii_case(name) {
            return Ok(app.policy());
        }
    }
    let src = std::fs::read_to_string(name).map_err(|e| {
        err(format!(
            "'{name}' is not a built-in policy and reading it as a file failed: {e}"
        ))
    })?;
    dsl::parse_unchecked(&src).map_err(|e| err(format!("{name}: {e}")))
}

/// The help text.
pub fn usage() -> String {
    "superfe — scalable & flexible feature extraction (EuroSys '25 reproduction)\n\
     \n\
     usage:\n\
     \x20 superfe apps                       list built-in Table 3 policies\n\
     \x20 superfe list                       bundled policy names, one per line\n\
     \x20 superfe show <policy>              print a policy's DSL source\n\
     \x20 superfe check <p1> [<p2> ...]      static analysis: lints + feasibility;\n\
     \x20                                    two or more policies add the SF07xx\n\
     \x20                                    fusion and SF08xx prefix-sharing\n\
     \x20                                    reports\n\
     \x20 superfe explain <p1> [<p2> ...]    typed IR, cost model, overflow proofs,\n\
     \x20                                    optimizer rewrites, cycle estimate\n\
     \x20 superfe compile <policy>           show the switch/NIC split + resources\n\
     \x20 superfe run <policy> [options]     extract features from a synthetic trace\n\
     \x20 superfe serve <p1> [<p2> ...]      serve N policies concurrently on one\n\
     \x20                                    shared switch/NIC (multi-tenant)\n\
     \x20 superfe bench [options]            streaming-pipeline throughput smoke\n\
     \x20 superfe bench scale [options]      corpus-scale state-management sweep\n\
     \x20                                    (flows x eviction policy)\n\
     \x20 superfe detect [options]           train, calibrate, and serve a detector\n\
     \x20                                    online over a labelled intrusion trace\n\
     \n\
     <policy>: built-in name (kitsune, npod, tf, cumul, ...) or a DSL file path\n\
     \n\
     check options:\n\
     \x20 --headroom PCT                     warn above this utilization [90]\n\
     \x20 --cache-slots N                    switch short-buffer slots [16384]\n\
     \x20 --groups N                         concurrent groups per level [5000]\n\
     \x20 --format text|json                 output rendering [text]\n\
     \n\
     explain options:\n\
     \x20 --groups N                         concurrent groups per level [5000]\n\
     \x20 --group-packets N                  per-group batch bound for overflow\n\
     \x20                                    proofs [10000]\n\
     \x20 --format text|json                 output rendering [text]\n\
     \n\
     run options:\n\
     \x20 --trace mawi|enterprise|campus     workload preset       [enterprise]\n\
     \x20 --packets N                        trace size            [100000]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --csv PATH                         write feature vectors as CSV\n\
     \x20 --limit N                          vectors to print      [5]\n\
     \x20 --save-trace PATH                  save the generated trace (SFET)\n\
     \x20 --load-trace PATH                  replay a saved trace instead\n\
     \n\
     serve options:\n\
     \x20 --trace mawi|enterprise|campus     workload preset       [enterprise]\n\
     \x20 --packets N                        trace size            [20000]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --workers N                        NIC shards            [2]\n\
     \x20 --attach-at T:P                    attach tenant T at packet P (hot add)\n\
     \x20 --detach-at T:P                    detach tenant T at packet P (hot remove)\n\
     \x20 --cache-slots T:N                  cache quota for tenant T: N switch\n\
     \x20                                    short-buffer slots   [16384]\n\
     \x20 --no-fuse                          disable all cross-tenant sharing:\n\
     \x20                                    SF07xx fusion and SF08xx prefix\n\
     \x20                                    sharing (default: both enabled)\n\
     \x20 --no-cse                           disable only SF08xx prefix sharing\n\
     \x20                                    (equivalent tenants still fuse)\n\
     \x20 --verify-solo                      fail unless every tenant's output is\n\
     \x20                                    bitwise identical to a solo run\n\
     \x20 --snapshot PATH                    write a live plane snapshot mid-stream\n\
     \x20 --snapshot-at N                    packet to snapshot at [packets/2]\n\
     \x20 --restore PATH                     resume from a snapshot: topology,\n\
     \x20                                    workers, and packet position come from\n\
     \x20                                    the file; per-tenant digests match the\n\
     \x20                                    uninterrupted run bitwise\n\
     \x20 --evict-seed S                     pin group-table eviction to seeded\n\
     \x20                                    RandomWay for reproducible runs\n\
     \n\
     bench options:\n\
     \x20 --packets N                        trace size            [10000]\n\
     \x20 --workers A,B,...                  worker counts to sweep [1,2]\n\
     \x20 --seed S                           workload RNG seed     [4]\n\
     \x20 --out PATH                         also write the JSON document\n\
     \n\
     bench scale options:\n\
     \x20 --flows A,B,...                    flow counts to sweep  [10000,50000]\n\
     \x20 --seed S                           workload RNG seed     [11]\n\
     \x20 --evict-seed S                     random_way victim seed [7]\n\
     \x20 --warmup N                         warmup runs per cell  [0]\n\
     \x20 --runs N                           measured runs per cell [1]\n\
     \x20 --out PATH                         also write the JSON document\n\
     \n\
     detect options:\n\
     \x20 --scenario NAME                    os_scan|ssdp_flood|syn_dos|fuzzing|\n\
     \x20                                    mirai                 [mirai]\n\
     \x20 --detector NAME                    kitnet|knn|cart|centroid [kitnet]\n\
     \x20 --benign N                         training-trace benign packets [6000]\n\
     \x20 --serve-benign N                   served-trace benign packets   [3000]\n\
     \x20 --attack N                         served-trace attack packets   [1500]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --workers N                        NIC shards; detectors score in-shard [2]\n\
     \x20 --quantile Q                       calibration quantile  [1.0]\n\
     \x20 --margin M                         calibration margin    [1.1]\n\
     \x20 --in-pipeline                      also run the SF09xx-certified\n\
     \x20                                    fixed-point model inside the NIC\n\
     \x20                                    shards and report its cost\n\
     \x20 --out PATH                         also write the JSON document\n"
        .to_string()
}

/// Escapes a string for embedding in a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the SF07xx cross-policy equivalence analysis and renders the
/// human-readable fusion section: the plan classes (who shares whose
/// hardware) and every SF0701/SF0702 finding.
fn fusion_section_text(named: &[(String, Policy)], vc: &superfe_policy::ValueConfig) -> String {
    let refs: Vec<(&str, &Policy)> = named.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let analysis = superfe_policy::analyze::equiv::analyze_fusion(&refs, vc);
    let mut out = String::new();
    writeln!(
        out,
        "cross-policy fusion (SF07xx): {} policies need {} execution plan(s); \
         fusion saves {} duplicate plan(s)",
        named.len(),
        analysis.classes.len(),
        analysis.plans_saved()
    )
    .expect("write");
    for (ci, class) in analysis.classes.iter().enumerate() {
        let members: Vec<&str> = class.members.iter().map(|&m| refs[m].0).collect();
        writeln!(
            out,
            "  plan {}: {}{}",
            ci + 1,
            members.join(", "),
            if class.members.len() > 1 {
                " (fused)"
            } else {
                ""
            }
        )
        .expect("write");
    }
    for d in analysis.report.diagnostics() {
        writeln!(out, "  {d}").expect("write");
    }
    out
}

/// The machine rendering of the SF07xx analysis: plan classes with member
/// names and the finding report, as one JSON object.
fn fusion_section_json(named: &[(String, Policy)], vc: &superfe_policy::ValueConfig) -> String {
    let refs: Vec<(&str, &Policy)> = named.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let analysis = superfe_policy::analyze::equiv::analyze_fusion(&refs, vc);
    let classes: Vec<String> = analysis
        .classes
        .iter()
        .map(|c| {
            let members: Vec<String> = c
                .members
                .iter()
                .map(|&m| format!("\"{}\"", json_str(refs[m].0)))
                .collect();
            format!(
                "{{\"hash\":\"{:016x}\",\"members\":[{}]}}",
                c.hash,
                members.join(",")
            )
        })
        .collect();
    let near: Vec<String> = analysis
        .near_misses
        .iter()
        .map(|m| {
            format!(
                "{{\"a\":\"{}\",\"b\":\"{}\",\"reason\":\"{}\",\"divergence\":{}}}",
                json_str(refs[m.a].0),
                json_str(refs[m.b].0),
                json_str(&m.reason),
                m.divergence
                    .as_ref()
                    .map(divergence_json)
                    .unwrap_or_else(|| "null".into())
            )
        })
        .collect();
    format!(
        "{{\"policy_count\":{},\"plan_count\":{},\"plans_saved\":{},\"classes\":[{}],\
         \"near_misses\":[{}],\"report\":{}}}",
        named.len(),
        analysis.classes.len(),
        analysis.plans_saved(),
        classes.join(","),
        near.join(","),
        analysis.report.render_json()
    )
}

/// The machine rendering of one SF0702/SF0802 first-divergence diff.
fn divergence_json(d: &superfe_policy::analyze::share::Divergence) -> String {
    format!(
        "{{\"stage\":\"{}\",\"op\":{},\"culprit\":\"{}\"}}",
        json_str(d.stage.label()),
        d.op_index,
        json_str(&d.culprit)
    )
}

/// Runs the SF08xx shared-prefix analysis and renders the human-readable
/// sharing section: the prefix groups (whose switch partitions merge) and
/// every SF0801/SF0802/SF0803 finding.
fn sharing_section_text(named: &[(String, Policy)], vc: &superfe_policy::ValueConfig) -> String {
    let refs: Vec<(&str, &Policy)> = named.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let plan = superfe_policy::ir::opt::share::share(&refs, vc);
    let mut out = String::new();
    writeln!(
        out,
        "cross-tenant prefix sharing (SF08xx): {}",
        plan.summary()
    )
    .expect("write");
    for (gi, group) in plan.groups.iter().enumerate() {
        let members: Vec<&str> = group.members.iter().map(|&m| refs[m].0).collect();
        writeln!(
            out,
            "  partition {}: {}{}",
            gi + 1,
            members.join(", "),
            if group.members.len() > 1 {
                format!(" (shared prefix {:#018x})", group.prefix)
            } else {
                String::new()
            }
        )
        .expect("write");
    }
    for d in plan.analysis.report.diagnostics() {
        writeln!(out, "  {d}").expect("write");
    }
    out
}

/// The machine rendering of the SF08xx analysis: prefix groups with member
/// names, structured near-misses, and the finding report, as one JSON
/// object.
fn sharing_section_json(named: &[(String, Policy)], vc: &superfe_policy::ValueConfig) -> String {
    let refs: Vec<(&str, &Policy)> = named.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let plan = superfe_policy::ir::opt::share::share(&refs, vc);
    let groups: Vec<String> = plan
        .groups
        .iter()
        .map(|g| {
            let members: Vec<String> = g
                .members
                .iter()
                .map(|&m| format!("\"{}\"", json_str(refs[m].0)))
                .collect();
            format!(
                "{{\"prefix\":\"{:016x}\",\"members\":[{}],\"ops\":[{}]}}",
                g.prefix,
                members.join(","),
                g.ops
                    .iter()
                    .map(|o| format!("\"{}\"", json_str(o)))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let near: Vec<String> = plan
        .analysis
        .near_misses
        .iter()
        .map(|m| {
            format!(
                "{{\"a\":\"{}\",\"b\":\"{}\",\"divergence\":{}}}",
                json_str(refs[m.a].0),
                json_str(refs[m.b].0),
                divergence_json(&m.divergence)
            )
        })
        .collect();
    format!(
        "{{\"policy_count\":{},\"partition_count\":{},\"partitions_saved\":{},\"groups\":[{}],\
         \"near_misses\":[{}],\"report\":{}}}",
        named.len(),
        plan.groups.len(),
        plan.partitions_saved(),
        groups.join(","),
        near.join(","),
        plan.analysis.report.render_json()
    )
}

/// The `superfe explain` command: static cost model, value-range proofs,
/// optimizer rewrites, and a pre-placement cycle estimate for one policy.
fn explain(
    policy: &str,
    groups: usize,
    group_packets: u64,
    format: OutputFormat,
) -> Result<String, CliError> {
    let (_, p) = resolve_policy(policy)?;
    let cfg = AnalyzeConfig {
        groups,
        group_packets,
        ..AnalyzeConfig::default()
    };
    let vc = cfg.value_config();
    let report = analyze(&p, &cfg);
    let cost = policy_cost(&p);
    let optimized = optimize(&p, &vc);
    let est = cycles_from_cost(&cost, &cfg.nfp, OptFlags::all_on());
    let gbps = est.gbps(120, &cfg.nfp, 1246.0);

    if format == OutputFormat::Json {
        let rewrites: Vec<String> = optimized
            .rewrites
            .iter()
            .map(|r| format!("\"{}\"", json_str(&r.to_string())))
            .collect();
        return Ok(format!(
            "{{\"policy\":\"{}\",\"feature_dimension\":{},\"cost\":{{\
             \"filter_entries\":{},\"total_alu_ops\":{},\"total_divisions\":{},\
             \"total_touched_bytes\":{},\"total_resident_bytes\":{},\"level_count\":{}}},\
             \"value_config\":{{\"group_packets\":{},\"aging_t_ns\":{},\"acc_bits\":{}}},\
             \"report\":{},\"rewrites\":[{}],\"ops_before\":{},\"ops_after\":{},\
             \"cycles_per_record\":{:.1},\"gbps_at_120_cores\":{:.2}}}\n",
            json_str(policy),
            cost.feature_dimension(),
            cost.filter_entries,
            cost.total_alu_ops(),
            cost.total_divisions(),
            cost.total_touched_bytes(),
            cost.total_resident_bytes(),
            cost.levels.len(),
            vc.group_packets,
            vc.aging_t_ns,
            vc.acc_bits,
            report.render_json(),
            rewrites.join(","),
            p.ops.len(),
            optimized.policy.ops.len(),
            est.cycles_per_record,
            gbps,
        ));
    }

    let mut out = String::new();
    writeln!(out, "explaining {policy}").expect("write");
    out.push_str(&cost.render());
    writeln!(
        out,
        "value analysis: batches of {} pkt/group, {} ms aging, {}-bit sALU accumulators",
        vc.group_packets,
        vc.aging_t_ns / 1_000_000,
        vc.acc_bits
    )
    .expect("write");
    let findings: Vec<&superfe_policy::Diagnostic> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code.starts_with("SF05") || d.code.starts_with("SF06"))
        .collect();
    if findings.is_empty() {
        writeln!(
            out,
            "  all accumulators proven in range; no value or cost findings"
        )
        .expect("write");
    } else {
        for d in findings {
            writeln!(out, "  {d}").expect("write");
        }
    }
    writeln!(out, "optimizer rewrites:").expect("write");
    if optimized.rewrites.is_empty() {
        writeln!(out, "  none applicable").expect("write");
    } else {
        for r in &optimized.rewrites {
            writeln!(out, "  - {r}").expect("write");
        }
        writeln!(
            out,
            "  {} op(s) before, {} after",
            p.ops.len(),
            optimized.policy.ops.len()
        )
        .expect("write");
    }
    writeln!(
        out,
        "cycle estimate (pre-placement, CTM-resident): {:.0} cycles/record \
         → {:.1} Gbps at 120 cores (1246 B packets)",
        est.cycles_per_record, gbps
    )
    .expect("write");
    Ok(out)
}

/// FNV-1a digest over a tenant's complete output (group then packet
/// vectors: key bytes, then value bits) — the fingerprint `--snapshot` /
/// `--restore` smokes diff to certify bitwise-identical output.
fn output_digest(out: &superfe_nic::StreamOutput) -> u64 {
    use superfe_net::GroupKey;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for v in out.group_vectors.iter().chain(&out.packet_vectors) {
        let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
        let len = v.key.write_bytes(&mut buf);
        fold(&buf[..len]);
        for x in v.values.as_slice() {
            fold(&x.to_bits().to_le_bytes());
        }
    }
    h
}

/// Renders one tenant's live state occupancy as a report line.
fn occupancy_line(occ: &superfe_ctrl::TenantOccupancy) -> String {
    let mut line = format!("tenant {} {} state:", occ.tenant, occ.name);
    for (g, n) in &occ.groups_per_level {
        write!(line, " {}={n}", format!("{g:?}").to_lowercase()).expect("write");
    }
    write!(
        line,
        " evicted_groups={} overflow_drops={}",
        occ.evicted_groups, occ.overflow_drops
    )
    .expect("write");
    line
}

/// The `superfe serve` command: N tenants on one shared switch/NIC with
/// admission control and epoch-based hot attach/detach.
#[allow(clippy::too_many_arguments)]
fn serve(
    policies: &[String],
    trace: WorkloadPreset,
    packets: usize,
    seed: u64,
    workers: usize,
    attach_at: &[(usize, usize)],
    detach_at: &[(usize, usize)],
    cache_slots: &[(usize, usize)],
    verify_solo: bool,
    fuse: bool,
    cse: bool,
    snapshot: Option<(&str, usize)>,
    restore: Option<&str>,
    evict_seed: Option<u64>,
) -> Result<String, CliError> {
    use superfe_core::{StreamingPipeline, SuperFeConfig};
    use superfe_ctrl::{CtrlPlane, TenantSpec};
    use superfe_nic::StreamOutput;
    use superfe_switch::TenantId;

    let mut specs = Vec::new();
    for name in policies {
        let (_, policy) = resolve_policy(name)?;
        let label = std::path::Path::new(name)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(name)
            .to_lowercase();
        specs.push(TenantSpec {
            name: label,
            policy,
            cfg: SuperFeConfig::default(),
        });
    }
    // Per-tenant cache quotas; tenants with different quotas never fuse
    // (the legality rule requires identical deployment configuration).
    for &(ti, slots) in cache_slots {
        specs[ti].cfg.cache.short_count = slots;
    }
    // Per-tenant epoch schedule: the last flag for a tenant wins.
    let attach_pkt: Vec<usize> = (0..specs.len())
        .map(|i| {
            attach_at
                .iter()
                .rev()
                .find(|(t, _)| *t == i)
                .map_or(0, |&(_, p)| p)
        })
        .collect();
    let detach_pkt: Vec<Option<usize>> = (0..specs.len())
        .map(|i| {
            detach_at
                .iter()
                .rev()
                .find(|(t, _)| *t == i)
                .map(|&(_, p)| p)
        })
        .collect();
    for i in 0..specs.len() {
        if attach_pkt[i] >= packets.max(1) {
            return Err(err(format!(
                "tenant {i}: --attach-at {} is past the end of the trace",
                attach_pkt[i]
            )));
        }
        if let Some(d) = detach_pkt[i] {
            if d <= attach_pkt[i] || d > packets {
                return Err(err(format!(
                    "tenant {i}: --detach-at {d} must fall after its attach and within the trace"
                )));
            }
        }
    }

    let t = Workload::preset(trace)
        .packets(packets)
        .seed(seed)
        .generate();

    if let Some(path) = restore {
        // Resume from a snapshot: topology, worker count, and resume
        // position all come from the file; the trace is regenerated
        // deterministically and replayed from the saved packet position.
        let bytes =
            std::fs::read(path).map_err(|e| err(format!("reading snapshot {path}: {e}")))?;
        let mut plane = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes)
            .map_err(|e| err(e.to_string()))?;
        let resume = usize::try_from(plane.pushed()).unwrap_or(usize::MAX);
        if resume > t.records.len() {
            return Err(err(format!(
                "snapshot was taken at packet {resume}, past this trace's {} packets \
                 (regenerate with the original --trace/--packets/--seed)",
                t.records.len()
            )));
        }
        let mut text = String::new();
        writeln!(
            text,
            "restored {} tenants from {path} at packet {resume} ({} workers, epoch {})",
            plane.tenants().len(),
            plane.workers(),
            plane.epoch()
        )
        .expect("write");
        for rec in &t.records[resume..] {
            plane.push(rec).map_err(|e| err(e.to_string()))?;
        }
        for occ in plane.state_occupancy().map_err(|e| err(e.to_string()))? {
            writeln!(text, "{}", occupancy_line(&occ)).expect("write");
        }
        for run in plane.finish().map_err(|e| err(e.to_string()))? {
            writeln!(
                text,
                "tenant {} {}: group_vectors={} packet_vectors={} records={} digest={:016x}",
                run.id,
                run.name,
                run.output.group_vectors.len(),
                run.output.packet_vectors.len(),
                run.output.stats.records,
                output_digest(&run.output)
            )
            .expect("write");
        }
        return Ok(text);
    }

    let snapshot = snapshot.map(|(path, at)| (path, at.min(t.records.len())));
    let mut plane = match (fuse, cse) {
        (true, true) => CtrlPlane::new(workers, AnalyzeConfig::default()),
        (true, false) => CtrlPlane::without_cse(workers, AnalyzeConfig::default()),
        (false, _) => CtrlPlane::without_fusion(workers, AnalyzeConfig::default()),
    };
    // An explicit eviction seed pins every tenant attached below to the
    // seeded `RandomWay` policy, making eviction sequences reproducible
    // from the CLI. Restores keep the snapshotted state instead (rejected
    // at parse time).
    if let Some(seed) = evict_seed {
        plane.set_table_budget(superfe_nic::TableBudget {
            policy: superfe_nic::EvictionPolicy::RandomWay { seed },
            ..superfe_nic::TableBudget::default()
        });
    }
    let mut ids: Vec<Option<TenantId>> = vec![None; specs.len()];
    let mut outputs: Vec<Option<StreamOutput>> = (0..specs.len()).map(|_| None).collect();
    let mut text = String::new();
    let take_snapshot = |plane: &mut CtrlPlane, text: &mut String| -> Result<(), CliError> {
        let Some((path, _)) = snapshot else {
            return Ok(());
        };
        let bytes = plane.snapshot().map_err(|e| err(e.to_string()))?;
        std::fs::write(path, &bytes).map_err(|e| err(format!("writing snapshot {path}: {e}")))?;
        writeln!(
            text,
            "snapshot: wrote {} bytes to {path} at packet {} (epoch {})",
            bytes.len(),
            plane.pushed(),
            plane.epoch()
        )
        .expect("write");
        Ok(())
    };

    for (i, rec) in t.records.iter().enumerate() {
        if snapshot.map(|(_, at)| at) == Some(i) {
            take_snapshot(&mut plane, &mut text)?;
        }
        for ti in 0..specs.len() {
            if attach_pkt[ti] == i {
                let units_before = plane.units().len();
                let groups_before = plane.groups().len();
                let id = plane
                    .attach(&specs[ti], None)
                    .map_err(|e| err(e.to_string()))?;
                ids[ti] = Some(id);
                let fused = plane.units().len() == units_before;
                let shared = !fused && plane.groups().len() == groups_before;
                writeln!(
                    text,
                    "epoch {}: attached {id} ({}) at packet {i}{}",
                    plane.epoch(),
                    specs[ti].name,
                    if fused {
                        " — fused into a shared execution unit"
                    } else if shared {
                        " — sharing a switch partition (SF08xx prefix)"
                    } else {
                        ""
                    }
                )
                .expect("write");
            }
            if detach_pkt[ti] == Some(i) {
                let id = ids[ti].expect("detach is validated to follow attach");
                outputs[ti] = Some(plane.detach(id).map_err(|e| err(e.to_string()))?);
                writeln!(
                    text,
                    "epoch {}: detached {id} ({}) at packet {i}",
                    plane.epoch(),
                    specs[ti].name
                )
                .expect("write");
            }
        }
        plane.push(rec).map_err(|e| err(e.to_string()))?;
    }
    if snapshot.map(|(_, at)| at) == Some(t.records.len()) {
        take_snapshot(&mut plane, &mut text)?;
    }
    let epochs = plane.epoch();
    let live_units = plane.units().len();
    let live_groups = plane.groups().len();
    let occupancy = plane.state_occupancy().map_err(|e| err(e.to_string()))?;
    for run in plane.finish().map_err(|e| err(e.to_string()))? {
        let ti = ids
            .iter()
            .position(|id| *id == Some(run.id))
            .expect("finish returns only attached tenants");
        outputs[ti] = Some(run.output);
    }

    writeln!(
        text,
        "served {} tenants over {} packets ({} epochs, {} workers)",
        specs.len(),
        t.records.len(),
        epochs,
        workers
    )
    .expect("write");
    writeln!(
        text,
        "execution units at shutdown: {live_units} (cross-policy fusion {})",
        if fuse { "enabled" } else { "disabled" }
    )
    .expect("write");
    writeln!(
        text,
        "shared switch partitions at shutdown: {live_groups} (cross-tenant CSE {})",
        if cse { "enabled" } else { "disabled" }
    )
    .expect("write");
    for occ in &occupancy {
        writeln!(text, "{}", occupancy_line(occ)).expect("write");
    }
    for (ti, spec) in specs.iter().enumerate() {
        let out = outputs[ti].as_ref().expect("every tenant ran");
        writeln!(
            text,
            "tenant {} {}: group_vectors={} packet_vectors={} records={} digest={:016x}",
            ids[ti].expect("attached"),
            spec.name,
            out.group_vectors.len(),
            out.packet_vectors.len(),
            out.stats.records,
            output_digest(out)
        )
        .expect("write");
    }

    if verify_solo {
        for (ti, spec) in specs.iter().enumerate() {
            let window = &t.records[attach_pkt[ti]..detach_pkt[ti].unwrap_or(t.records.len())];
            let mut fe = StreamingPipeline::with_config(&spec.policy, spec.cfg, workers)
                .map_err(|e| err(e.to_string()))?;
            for rec in window {
                fe.push(rec).map_err(|e| err(e.to_string()))?;
            }
            let solo = fe.finish().map_err(|e| err(e.to_string()))?;
            let out = outputs[ti].as_ref().expect("every tenant ran");
            if solo.group_vectors != out.group_vectors || solo.packet_vectors != out.packet_vectors
            {
                return Err(err(format!(
                    "isolation violated: tenant {ti} ({}) diverged from its solo run \
                     (solo {}+{} vectors, shared {}+{})",
                    spec.name,
                    solo.group_vectors.len(),
                    solo.packet_vectors.len(),
                    out.group_vectors.len(),
                    out.packet_vectors.len()
                )));
            }
            writeln!(
                text,
                "verified tenant {} {}: bitwise identical to solo run",
                ids[ti].expect("attached"),
                spec.name
            )
            .expect("write");
        }
    }
    Ok(text)
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Apps => {
            let mut out = String::new();
            writeln!(
                out,
                "{:<10} {:<26} {:>4}  {:>4}",
                "NAME", "OBJECTIVE", "DIM", "LOC"
            )
            .expect("write to string");
            for app in all_apps() {
                writeln!(
                    out,
                    "{:<10} {:<26} {:>4}  {:>4}",
                    app.name.to_lowercase(),
                    app.objective,
                    app.dim(),
                    app.loc()
                )
                .expect("write to string");
            }
            Ok(out)
        }
        Command::List => {
            let mut out = String::new();
            for app in all_apps() {
                writeln!(out, "{}", app.name.to_lowercase()).expect("write to string");
            }
            Ok(out)
        }
        Command::Serve {
            policies,
            trace,
            packets,
            seed,
            workers,
            attach_at,
            detach_at,
            cache_slots,
            verify_solo,
            fuse,
            cse,
            snapshot,
            snapshot_at,
            restore,
            evict_seed,
        } => serve(
            &policies,
            trace,
            packets,
            seed,
            workers,
            &attach_at,
            &detach_at,
            &cache_slots,
            verify_solo,
            fuse,
            cse,
            snapshot
                .as_deref()
                .map(|p| (p, snapshot_at.unwrap_or(packets / 2))),
            restore.as_deref(),
            evict_seed,
        ),
        Command::Show { policy } => {
            let (src, _) = resolve_policy(&policy)?;
            Ok(src)
        }
        Command::Check {
            policies,
            headroom,
            cache_slots,
            groups,
            format,
        } => {
            let mut cfg = AnalyzeConfig {
                headroom_pct: headroom,
                groups,
                ..AnalyzeConfig::default()
            };
            if let Some(slots) = cache_slots {
                cfg.cache.short_count = slots;
            }
            let mut named = Vec::new();
            for name in &policies {
                named.push((name.clone(), resolve_policy_unchecked(name)?));
            }
            let reports: Vec<_> = named.iter().map(|(_, p)| analyze(p, &cfg)).collect();
            let failed = reports
                .iter()
                .any(superfe_policy::AnalysisReport::has_errors);
            let text = if named.len() == 1 {
                match format {
                    OutputFormat::Text => {
                        format!("checking {}\n{}", policies[0], reports[0].render())
                    }
                    OutputFormat::Json => format!("{}\n", reports[0].render_json()),
                }
            } else {
                // Several policies: per-policy reports plus the SF07xx
                // cross-policy fusion report over the whole set.
                match format {
                    OutputFormat::Text => {
                        let mut out = String::new();
                        for ((name, _), report) in named.iter().zip(&reports) {
                            write!(out, "checking {name}\n{}", report.render()).expect("write");
                        }
                        out.push_str(&fusion_section_text(&named, &cfg.value_config()));
                        out.push_str(&sharing_section_text(&named, &cfg.value_config()));
                        out
                    }
                    OutputFormat::Json => {
                        let per: Vec<String> = named
                            .iter()
                            .zip(&reports)
                            .map(|((name, _), r)| {
                                format!(
                                    "{{\"policy\":\"{}\",\"report\":{}}}",
                                    json_str(name),
                                    r.render_json()
                                )
                            })
                            .collect();
                        format!(
                            "{{\"policies\":[{}],\"fusion\":{},\"sharing\":{}}}\n",
                            per.join(","),
                            fusion_section_json(&named, &cfg.value_config()),
                            sharing_section_json(&named, &cfg.value_config())
                        )
                    }
                }
            };
            if failed {
                // Non-zero exit: main prints machine output to stdout and
                // prose to stderr, failing either way.
                Err(CliError {
                    message: text,
                    machine: format == OutputFormat::Json,
                })
            } else {
                Ok(text)
            }
        }
        Command::Explain {
            policies,
            groups,
            group_packets,
            format,
        } => {
            if policies.len() == 1 {
                return explain(&policies[0], groups, group_packets, format);
            }
            let mut named = Vec::new();
            for name in &policies {
                let (_, p) = resolve_policy(name)?;
                named.push((name.clone(), p));
            }
            let cfg = AnalyzeConfig {
                groups,
                group_packets,
                ..AnalyzeConfig::default()
            };
            match format {
                OutputFormat::Text => {
                    let mut out = String::new();
                    for name in &policies {
                        out.push_str(&explain(name, groups, group_packets, format)?);
                    }
                    out.push_str(&fusion_section_text(&named, &cfg.value_config()));
                    out.push_str(&sharing_section_text(&named, &cfg.value_config()));
                    Ok(out)
                }
                OutputFormat::Json => {
                    let mut per = Vec::new();
                    for name in &policies {
                        per.push(
                            explain(name, groups, group_packets, format)?
                                .trim_end()
                                .to_string(),
                        );
                    }
                    Ok(format!(
                        "{{\"policies\":[{}],\"fusion\":{},\"sharing\":{}}}\n",
                        per.join(","),
                        fusion_section_json(&named, &cfg.value_config()),
                        sharing_section_json(&named, &cfg.value_config())
                    ))
                }
            }
        }
        Command::Compile { policy } => {
            let (_, p) = resolve_policy(&policy)?;
            let compiled = compile(&p).map_err(|e| err(e.to_string()))?;
            let mut out = String::new();
            writeln!(out, "== FE-Switch program ==").expect("write");
            writeln!(
                out,
                "filter: {}",
                compiled
                    .switch
                    .filter
                    .as_ref()
                    .map(|f| format!("{f:?}"))
                    .unwrap_or_else(|| "none".into())
            )
            .expect("write");
            let levels: Vec<&str> = compiled.switch.levels.iter().map(|g| g.name()).collect();
            writeln!(
                out,
                "granularity chain (fine → coarse): {}",
                levels.join(" → ")
            )
            .expect("write");
            writeln!(
                out,
                "metadata layout: {:?} ({} B/record), FG table: {}",
                compiled.switch.metadata,
                compiled.switch.record_bytes(),
                if compiled.switch.needs_fg_table() {
                    "yes"
                } else {
                    "no"
                }
            )
            .expect("write");
            let res = switch_resources::model(&compiled.switch, &MgpvConfig::default());
            let (t, s, m) = res.utilization(&TofinoBudget::default());
            writeln!(
                out,
                "switch resources: tables {t:.1}%, sALUs {s:.1}%, SRAM {m:.1}%"
            )
            .expect("write");

            writeln!(out, "\n== FE-NIC program ==").expect("write");
            writeln!(
                out,
                "feature dimension: {}",
                compiled.nic.feature_dimension()
            )
            .expect("write");
            let nfp = NfpModel::nfp4000();
            let states = compiled.nic.states();
            let placement =
                solve_placement(&states, &nfp, 1).ok_or_else(|| err("placement failed"))?;
            for (name, mem) in &placement.assignment {
                writeln!(out, "  {name:<40} → {}", mem.name()).expect("write");
            }
            let model = CycleModel::new(&compiled.nic, &placement, nfp.clone());
            let e = model.estimate(OptFlags::all_on());
            writeln!(
                out,
                "cycle model: {:.0} cycles/record → {:.1} Gbps at 120 cores (1246 B packets)",
                e.cycles_per_record,
                e.gbps(120, &nfp, 1246.0)
            )
            .expect("write");
            let nic_res = nic_resources::model(
                &compiled.nic,
                &vec![10_000; compiled.nic.levels.len()],
                &nfp,
            );
            writeln!(
                out,
                "NIC memory at 10k groups/level: {:.1}% on-chip",
                nic_res.utilization_pct()
            )
            .expect("write");
            Ok(out)
        }
        Command::Run {
            policy,
            trace,
            packets,
            seed,
            csv,
            limit,
            save_trace,
            load_trace,
        } => {
            let (_, p) = resolve_policy(&policy)?;
            let mut fe = SuperFe::new(&p).map_err(|e| err(e.to_string()))?;
            let t = match &load_trace {
                Some(path) => superfe_trafficgen::io::load(path)
                    .map_err(|e| err(format!("loading {path}: {e}")))?,
                None => Workload::preset(trace)
                    .packets(packets)
                    .seed(seed)
                    .generate(),
            };
            if let Some(path) = &save_trace {
                superfe_trafficgen::io::save(&t, path)
                    .map_err(|e| err(format!("saving {path}: {e}")))?;
            }
            let stats = t.stats();
            for rec in &t.records {
                fe.push(rec);
            }
            let out = fe.finish();
            let mut text = String::new();
            writeln!(
                text,
                "trace: {} ({} packets, {} flows, {:.0} B avg)",
                trace.name(),
                stats.packets,
                stats.flows,
                stats.avg_pkt_size
            )
            .expect("write");
            writeln!(
                text,
                "switch: {} msgs out, rate ratio {:.2}%, byte ratio {:.2}%",
                out.switch_stats.msgs_out,
                100.0 * out.switch_stats.rate_aggregation_ratio(),
                100.0 * out.switch_stats.byte_aggregation_ratio()
            )
            .expect("write");
            let vectors = if out.group_vectors.is_empty() {
                &out.packet_vectors
            } else {
                &out.group_vectors
            };
            writeln!(text, "feature vectors: {}", vectors.len()).expect("write");
            for v in vectors.iter().take(limit) {
                let head: Vec<String> =
                    v.values.iter().take(8).map(|x| format!("{x:.2}")).collect();
                let ellipsis = if v.values.len() > 8 { ", ..." } else { "" };
                writeln!(text, "  {:?} -> [{}{}]", v.key, head.join(", "), ellipsis)
                    .expect("write");
            }
            if let Some(path) = csv {
                let mut file = String::new();
                for v in vectors {
                    let row: Vec<String> = v.values.iter().map(f64::to_string).collect();
                    file.push_str(&format!("{:?},{}\n", v.key, row.join(",")));
                }
                std::fs::write(&path, file).map_err(|e| err(format!("writing {path}: {e}")))?;
                writeln!(text, "wrote {} vectors to {path}", vectors.len()).expect("write");
            }
            Ok(text)
        }
        Command::Bench {
            packets,
            workers,
            seed,
            out,
        } => {
            let bench = superfe_bench::experiments::throughput::measure(packets, &workers, seed);
            let json = bench.to_json();
            if let Some(path) = out {
                std::fs::write(&path, &json).map_err(|e| err(format!("writing {path}: {e}")))?;
            }
            Ok(json)
        }
        Command::BenchScale {
            flows,
            seed,
            evict_seed,
            warmup,
            runs,
            out,
        } => {
            let bench = superfe_bench::experiments::scale::measure_with(
                &flows,
                seed,
                evict_seed,
                &superfe_bench::harness::HarnessConfig { warmup, runs },
            );
            let json = bench.to_json();
            if let Some(path) = out {
                std::fs::write(&path, &json).map_err(|e| err(format!("writing {path}: {e}")))?;
            }
            Ok(json)
        }
        Command::Detect { cfg, out } => {
            let bench = superfe_bench::experiments::detect::measure(&cfg).map_err(err)?;
            let json = bench.to_json();
            if let Some(path) = out {
                std::fs::write(&path, &json).map_err(|e| err(format!("writing {path}: {e}")))?;
            }
            let d = &bench.detection;
            let t = &bench.throughput;
            let mut text = json;
            text.push_str(&format!(
                "\ndetector={} scenario={} threshold={:.6e}\n\
                 alerts_on_attack={} alerts_on_benign={} f1={:.4} auc={:.4}\n\
                 throughput: extract {:.0} pkts/s, in-shard float scoring {:.0} pkts/s ({:+.1}% overhead)\n",
                bench.cfg.detector.name(),
                bench.cfg.scenario.name(),
                d.threshold,
                d.alerts_on_attack,
                d.alerts_on_benign,
                d.f1,
                d.auc,
                t.extract_pkts_per_sec,
                t.detect_pkts_per_sec,
                t.inference_overhead_pct,
            ));
            use superfe_bench::experiments::detect::InPipelineSummary;
            match &bench.in_pipeline {
                Some(InPipelineSummary::Measured {
                    section,
                    pkts_per_sec,
                    vs_extract_ratio,
                    alerts_on_attack,
                    alerts_on_benign,
                    ..
                }) => {
                    text.push_str(&format!(
                        "in-pipeline ({}): {:.0} pkts/s ({:.2}x extract), {} alerts \
                         (attack={}, benign={}), |float-quant| max {:.3e}{}\n",
                        section.format,
                        pkts_per_sec,
                        vs_extract_ratio,
                        section.alerts,
                        alerts_on_attack,
                        alerts_on_benign,
                        section.score_delta_max,
                        if section.certified {
                            format!(" <= SF0901 bound {:.3e}", section.bound)
                        } else {
                            " (uncertified: SF0902)".to_string()
                        },
                    ));
                }
                Some(InPipelineSummary::Unsupported { reason }) => {
                    text.push_str(&format!(
                        "in-pipeline: detector has no fixed-point lowering ({reason})\n"
                    ));
                }
                None => {}
            }
            Ok(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_help_variants() {
        for a in ["", "help", "--help", "-h"] {
            assert_eq!(parse_args(&args(a)), Ok(Command::Help));
        }
    }

    #[test]
    fn parses_run_options() {
        let c = parse_args(&args(
            "run kitsune --trace mawi --packets 5000 --seed 9 --limit 2",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                policy: "kitsune".into(),
                trace: WorkloadPreset::MawiIxp,
                packets: 5000,
                seed: 9,
                csv: None,
                limit: 2,
                save_trace: None,
                load_trace: None,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("run")).is_err());
        assert!(parse_args(&args("run x --trace nope")).is_err());
        assert!(parse_args(&args("run x --packets abc")).is_err());
        assert!(parse_args(&args("run x --unknown 1")).is_err());
        assert!(parse_args(&args("compile")).is_err());
        assert!(parse_args(&args("bench --workers x,y")).is_err());
        assert!(parse_args(&args("bench --packets")).is_err());
    }

    #[test]
    fn parses_bench_options() {
        assert_eq!(
            parse_args(&args(
                "bench --packets 500 --workers 1,4 --seed 7 --out b.json"
            )),
            Ok(Command::Bench {
                packets: 500,
                workers: vec![1, 4],
                seed: 7,
                out: Some("b.json".into()),
            })
        );
        assert_eq!(
            parse_args(&args("bench")),
            Ok(Command::Bench {
                packets: 10_000,
                workers: vec![1, 2],
                seed: superfe_bench::experiments::throughput::DEFAULT_SEED,
                out: None,
            })
        );
    }

    #[test]
    fn parses_detect_options() {
        use superfe_bench::experiments::detect::DetectConfig;
        use superfe_trafficgen::intrusion::Scenario;

        let c = parse_args(&args(
            "detect --scenario syn_dos --detector centroid --benign 900 \
             --serve-benign 400 --attack 200 --seed 5 --workers 4 \
             --quantile 0.99 --margin 1.2 --in-pipeline --out d.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Detect {
                cfg: DetectConfig {
                    scenario: Scenario::SynDos,
                    detector: superfe_detect::DetectorKind::Centroid,
                    benign_packets: 900,
                    serve_benign: 400,
                    attack_packets: 200,
                    seed: 5,
                    workers: 4,
                    quantile: 0.99,
                    margin: 1.2,
                    in_pipeline: true,
                },
                out: Some("d.json".into()),
            }
        );
        assert_eq!(
            parse_args(&args("detect")),
            Ok(Command::Detect {
                cfg: DetectConfig::default(),
                out: None,
            })
        );
    }

    #[test]
    fn rejects_bad_detect_input() {
        assert!(parse_args(&args("detect --scenario nope")).is_err());
        assert!(parse_args(&args("detect --detector nope")).is_err());
        assert!(parse_args(&args("detect --workers 0")).is_err());
        assert!(parse_args(&args("detect --quantile 1.5")).is_err());
        assert!(parse_args(&args("detect --margin -1")).is_err());
        assert!(parse_args(&args("detect --seed")).is_err());
    }

    #[test]
    fn detect_command_emits_schema() {
        use superfe_bench::experiments::detect::DetectConfig;
        let out = execute(Command::Detect {
            cfg: DetectConfig {
                detector: superfe_detect::DetectorKind::Centroid,
                benign_packets: 1_200,
                serve_benign: 600,
                attack_packets: 300,
                in_pipeline: true,
                ..DetectConfig::default()
            },
            out: None,
        })
        .unwrap();
        for key in [
            "\"experiment\": \"online_detection\"",
            "\"detection\"",
            "\"alerts_on_attack\"",
            "\"alerts_on_benign\"",
            "\"throughput\"",
            "\"in_pipeline\"",
            "\"score_delta_max\"",
            "alerts_on_attack=",
            "in-pipeline (Q",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn bench_command_emits_schema() {
        let out = execute(Command::Bench {
            packets: 1_000,
            workers: vec![1, 2],
            seed: 4,
            out: None,
        })
        .unwrap();
        for key in [
            "\"experiment\": \"streaming_pipeline_throughput\"",
            "\"host_parallelism\"",
            "\"baseline\"",
            "\"workers\": 2",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn list_is_machine_readable() {
        let out = execute(Command::List).unwrap();
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names.len(), all_apps().len());
        for n in &names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "name '{n}' is not machine-friendly"
            );
        }
        assert!(names.contains(&"kitsune"));
    }

    #[test]
    fn parses_serve_options() {
        let c = parse_args(&args(
            "serve cumul kitsune --packets 5000 --workers 4 --attach-at 1:100 \
             --detach-at 1:900 --cache-slots 0:4096 --no-fuse --verify-solo",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                policies: vec!["cumul".into(), "kitsune".into()],
                trace: WorkloadPreset::Enterprise,
                packets: 5000,
                seed: 1,
                workers: 4,
                attach_at: vec![(1, 100)],
                detach_at: vec![(1, 900)],
                cache_slots: vec![(0, 4096)],
                verify_solo: true,
                fuse: false,
                cse: false,
                snapshot: None,
                snapshot_at: None,
                restore: None,
                evict_seed: None,
            }
        );
        // --no-cse disables only prefix sharing; --no-fuse disables both.
        match parse_args(&args("serve cumul kitsune --no-cse")).unwrap() {
            Command::Serve { fuse, cse, .. } => {
                assert!(fuse);
                assert!(!cse);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        assert!(parse_args(&args("serve")).is_err());
        assert!(parse_args(&args("serve cumul --attach-at nope")).is_err());
        assert!(parse_args(&args("serve cumul --attach-at 7:0")).is_err());
        assert!(parse_args(&args("serve cumul --workers 0")).is_err());
        assert!(parse_args(&args("serve cumul --cache-slots 0:0")).is_err());
        assert!(parse_args(&args("serve cumul --cache-slots 5:100")).is_err());
        match parse_args(&args("serve cumul --evict-seed 5")).unwrap() {
            Command::Serve { evict_seed, .. } => assert_eq!(evict_seed, Some(5)),
            other => panic!("expected Serve, got {other:?}"),
        }
        assert!(parse_args(&args("serve cumul --evict-seed nope")).is_err());
    }

    #[test]
    fn parses_serve_snapshot_and_restore_flags() {
        match parse_args(&args("serve cumul --snapshot /tmp/s.bin --snapshot-at 42")).unwrap() {
            Command::Serve {
                snapshot,
                snapshot_at,
                restore,
                ..
            } => {
                assert_eq!(snapshot.as_deref(), Some("/tmp/s.bin"));
                assert_eq!(snapshot_at, Some(42));
                assert!(restore.is_none());
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // --snapshot-at is meaningless without a snapshot path; a restore
        // already carries its own topology and schedule.
        assert!(parse_args(&args("serve cumul --snapshot-at 42")).is_err());
        assert!(parse_args(&args("serve cumul --restore a --snapshot b")).is_err());
        assert!(parse_args(&args("serve cumul --restore a --attach-at 0:10")).is_err());
        assert!(parse_args(&args("serve cumul --restore a --detach-at 0:10")).is_err());
        // A restore resumes the snapshotted eviction state wholesale.
        assert!(parse_args(&args("serve cumul --restore a --evict-seed 1")).is_err());
    }

    #[test]
    fn parses_bench_scale_options() {
        match parse_args(&args(
            "bench scale --flows 1000,2000 --seed 9 --evict-seed 3 --runs 2 --out b.json",
        ))
        .unwrap()
        {
            Command::BenchScale {
                flows,
                seed,
                evict_seed,
                warmup,
                runs,
                out,
            } => {
                assert_eq!(flows, vec![1_000, 2_000]);
                assert_eq!(seed, 9);
                assert_eq!(evict_seed, 3);
                assert_eq!(warmup, 0);
                assert_eq!(runs, 2);
                assert_eq!(out.as_deref(), Some("b.json"));
            }
            other => panic!("expected BenchScale, got {other:?}"),
        }
        assert!(parse_args(&args("bench scale --runs 0")).is_err());
        assert!(parse_args(&args("bench scale --evict-seed nope")).is_err());
        assert!(parse_args(&args("bench scale --flows nope")).is_err());
    }

    #[test]
    fn serve_snapshot_then_restore_replays_bitwise() {
        let dir = std::env::temp_dir().join("superfe_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("plane.sfsn").to_str().unwrap().to_string();
        let serve = |snapshot: Option<String>, restore: Option<String>| {
            execute(Command::Serve {
                policies: vec!["cumul".into(), "npod".into()],
                trace: WorkloadPreset::Campus,
                packets: 2_000,
                seed: 9,
                workers: 2,
                attach_at: vec![],
                detach_at: vec![],
                cache_slots: vec![],
                verify_solo: false,
                fuse: true,
                cse: true,
                snapshot_at: snapshot.is_some().then_some(1_000),
                snapshot,
                restore,
                evict_seed: None,
            })
            .unwrap()
        };
        let digests = |out: &str| -> Vec<String> {
            out.lines()
                .filter_map(|l| l.split("digest=").nth(1).map(str::to_string))
                .collect()
        };
        let full = serve(Some(snap.clone()), None);
        assert!(full.contains("snapshot: wrote"), "{full}");
        let restored = serve(None, Some(snap));
        assert!(restored.contains("restored 2 tenants"), "{restored}");
        // The restored run resumes mid-trace yet finishes with per-tenant
        // output digests bitwise-equal to the uninterrupted run.
        let (a, b) = (digests(&full), digests(&restored));
        assert_eq!(a.len(), 2, "{full}");
        assert_eq!(a, b, "full:\n{full}\nrestored:\n{restored}");
    }

    #[test]
    fn serve_runs_tenants_solo_identical() {
        let out = execute(Command::Serve {
            policies: vec!["cumul".into(), "npod".into()],
            trace: WorkloadPreset::Campus,
            packets: 4_000,
            seed: 3,
            workers: 2,
            attach_at: vec![],
            detach_at: vec![(1, 2_000)],
            cache_slots: vec![],
            verify_solo: true,
            fuse: true,
            cse: true,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        })
        .unwrap();
        assert!(out.contains("served 2 tenants"), "{out}");
        assert!(out.contains("tenant t0 cumul: group_vectors="), "{out}");
        assert!(out.contains("detached t1 (npod) at packet 2000"), "{out}");
        assert!(
            out.contains("verified tenant t1 npod: bitwise identical"),
            "{out}"
        );
    }

    #[test]
    fn serve_rejects_overcommitted_tenant_set() {
        // Enough Kitsune-class tenants to exhaust the Tofino: admission must
        // refuse the set with the binding resource, and the command must
        // exit non-zero. Fusion stays off: twelve identical policies would
        // otherwise share one execution plan and admit trivially.
        let e = execute(Command::Serve {
            policies: vec!["kitsune".into(); 12],
            trace: WorkloadPreset::Campus,
            packets: 100,
            seed: 1,
            workers: 1,
            attach_at: vec![],
            detach_at: vec![],
            cache_slots: vec![],
            verify_solo: false,
            fuse: false,
            cse: false,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        })
        .unwrap_err();
        assert!(e.message.contains("admission rejected"), "{e}");
        assert!(e.message.contains("exhausted"), "{e}");
    }

    #[test]
    fn serve_validates_epoch_schedule() {
        let base = |attach_at: Vec<(usize, usize)>, detach_at: Vec<(usize, usize)>| {
            execute(Command::Serve {
                policies: vec!["cumul".into()],
                trace: WorkloadPreset::Campus,
                packets: 100,
                seed: 1,
                workers: 1,
                attach_at,
                detach_at,
                cache_slots: vec![],
                verify_solo: false,
                fuse: true,
                cse: true,
                snapshot: None,
                snapshot_at: None,
                restore: None,
                evict_seed: None,
            })
        };
        assert!(
            base(vec![(0, 100)], vec![]).is_err(),
            "attach past trace end"
        );
        assert!(
            base(vec![(0, 50)], vec![(0, 50)]).is_err(),
            "detach at attach"
        );
        assert!(
            base(vec![], vec![(0, 500)]).is_err(),
            "detach past trace end"
        );
    }

    #[test]
    fn resolves_builtin_policies() {
        for name in ["kitsune", "NPOD", "tf", "cumul"] {
            let (src, p) = resolve_policy(name).unwrap();
            assert!(!src.is_empty());
            assert!(!p.ops.is_empty());
        }
        assert!(resolve_policy("/no/such/file.sfe").is_err());
    }

    #[test]
    fn apps_command_lists_everything() {
        let out = execute(Command::Apps).unwrap();
        for app in ["kitsune", "cumul", "peershark"] {
            assert!(out.contains(app), "{out}");
        }
    }

    #[test]
    fn compile_command_reports_split() {
        let out = execute(Command::Compile {
            policy: "kitsune".into(),
        })
        .unwrap();
        assert!(out.contains("FE-Switch"));
        assert!(out.contains("FE-NIC"));
        assert!(out.contains("socket → channel → host"));
        assert!(out.contains("feature dimension: 115"));
    }

    #[test]
    fn run_command_small_trace() {
        let out = execute(Command::Run {
            policy: "npod".into(),
            trace: WorkloadPreset::Campus,
            packets: 3_000,
            seed: 2,
            csv: None,
            limit: 1,
            save_trace: None,
            load_trace: None,
        })
        .unwrap();
        assert!(out.contains("feature vectors:"), "{out}");
        assert!(out.contains("rate ratio"));
    }

    #[test]
    fn parses_check_options() {
        let c = parse_args(&args(
            "check kitsune --headroom 75 --cache-slots 99 --groups 500",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Check {
                policies: vec!["kitsune".into()],
                headroom: 75.0,
                cache_slots: Some(99),
                groups: 500,
                format: OutputFormat::Text,
            }
        );
        // Multiple positional policies collect in order.
        let c = parse_args(&args("check npod cumul --format json")).unwrap();
        assert_eq!(
            c,
            Command::Check {
                policies: vec!["npod".into(), "cumul".into()],
                headroom: 90.0,
                cache_slots: None,
                groups: 5_000,
                format: OutputFormat::Json,
            }
        );
        assert!(parse_args(&args("check")).is_err());
        assert!(parse_args(&args("check x --headroom abc")).is_err());
        assert!(parse_args(&args("check x --frob 1")).is_err());
        assert!(parse_args(&args("check x --format yaml")).is_err());
    }

    #[test]
    fn parses_explain_options() {
        let c = parse_args(&args(
            "explain kitsune --groups 100 --group-packets 50000 --format json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Explain {
                policies: vec!["kitsune".into()],
                groups: 100,
                group_packets: 50_000,
                format: OutputFormat::Json,
            }
        );
        assert!(parse_args(&args("explain")).is_err());
        assert!(parse_args(&args("explain x --group-packets abc")).is_err());
    }

    fn check(policy: &str) -> Command {
        Command::Check {
            policies: vec![policy.into()],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format: OutputFormat::Text,
        }
    }

    #[test]
    fn check_passes_builtin_policies() {
        for name in [
            "cumul",
            "awf",
            "df",
            "tf",
            "peershark",
            "n-baiot",
            "mptd",
            "npod",
            "helad",
            "kitsune",
        ] {
            let out = execute(check(name)).unwrap();
            assert!(out.contains("0 error(s), 0 warning(s)"), "{name}: {out}");
        }
    }

    #[test]
    fn check_oversized_cache_fails_with_sram_diagnostic() {
        // The acceptance case: a cache configured past the Tofino SRAM
        // budget exits non-zero with an SF03xx error reporting utilization.
        let cmd = Command::Check {
            policies: vec!["kitsune".into()],
            headroom: 90.0,
            cache_slots: Some(4_000_000),
            groups: 10_000,
            format: OutputFormat::Text,
        };
        let e = execute(cmd).unwrap_err();
        assert!(!e.machine);
        assert!(e.message.contains("SF0303"), "{e}");
        assert!(e.message.contains("% utilization"), "{e}");
    }

    #[test]
    fn check_reports_dataflow_warnings_without_failing() {
        let dir = std::env::temp_dir().join("superfe_cli_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dead_map.sfe");
        std::fs::write(
            &path,
            "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(size, [f_sum])\n.collect(flow)",
        )
        .unwrap();
        let out = execute(check(path.to_str().unwrap())).unwrap();
        assert!(out.contains("SF0201"), "{out}");
        assert!(out.contains("1 warning(s)"), "{out}");
    }

    #[test]
    fn check_reports_structural_errors_as_diagnostics() {
        // A structurally broken file goes through the analyzer (every SF01xx
        // finding with its code), not the parse-time one-line error.
        let dir = std::env::temp_dir().join("superfe_cli_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no_collect.sfe");
        std::fs::write(&path, "pktstream\n.groupby(flow)\n.reduce(size, [f_mean])").unwrap();
        let e = execute(check(path.to_str().unwrap())).unwrap_err();
        assert!(e.message.contains("SF0103"), "{e}");
        assert!(e.message.contains("SF0104"), "{e}");
    }

    #[test]
    fn check_json_format_emits_machine_output() {
        let cmd = Command::Check {
            policies: vec!["kitsune".into()],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format: OutputFormat::Json,
        };
        let out = execute(cmd).unwrap();
        assert!(out.starts_with("{\"errors\":0"), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // A failing check in JSON mode keeps the JSON on stdout.
        let cmd = Command::Check {
            policies: vec!["kitsune".into()],
            headroom: 90.0,
            cache_slots: Some(4_000_000),
            groups: 10_000,
            format: OutputFormat::Json,
        };
        let e = execute(cmd).unwrap_err();
        assert!(e.machine);
        assert!(e.message.contains("\"code\":\"SF0303\""), "{e}");
    }

    #[test]
    fn check_rejects_overflowing_policy_with_sf05_error() {
        // The acceptance case for the value analysis: a policy that provably
        // overflows a 32-bit sALU sum accumulator within one batch must be
        // rejected, and the diagnostic must name the reducer and the width.
        let dir = std::env::temp_dir().join("superfe_cli_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.sfe");
        // tstamp is µs-scaled 32-bit metadata on the switch: summing it over
        // a 10k-packet batch can reach ~4.29e9 µs × 10_000 ≫ 2^32.
        std::fs::write(
            &path,
            "pktstream\n.groupby(flow)\n.reduce(tstamp, [f_sum])\n.collect(flow)",
        )
        .unwrap();
        let e = execute(check(path.to_str().unwrap())).unwrap_err();
        assert!(!e.machine);
        assert!(e.message.contains("SF0501"), "{e}");
        assert!(e.message.contains("f_sum"), "{e}");
        assert!(e.message.contains("32-bit"), "{e}");
    }

    #[test]
    fn explain_renders_cost_and_rewrites() {
        let out = execute(Command::Explain {
            policies: vec!["kitsune".into()],
            groups: 5_000,
            group_packets: 10_000,
            format: OutputFormat::Text,
        })
        .unwrap();
        assert!(out.contains("cost model (per packet):"), "{out}");
        assert!(out.contains("value analysis:"), "{out}");
        assert!(out.contains("optimizer rewrites:"), "{out}");
        assert!(out.contains("cycles/record"), "{out}");
    }

    #[test]
    fn explain_json_is_an_object() {
        let out = execute(Command::Explain {
            policies: vec!["tf".into()],
            groups: 5_000,
            group_packets: 10_000,
            format: OutputFormat::Json,
        })
        .unwrap();
        assert!(out.starts_with("{\"policy\":\"tf\""), "{out}");
        assert!(out.contains("\"cycles_per_record\":"), "{out}");
        assert!(out.contains("\"report\":{\"errors\":0"), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
    }

    #[test]
    fn show_prints_source() {
        let out = execute(Command::Show {
            policy: "tf".into(),
        })
        .unwrap();
        assert!(out.contains("pktstream"));
        assert!(out.contains("f_array{5000}"));
    }

    #[test]
    fn check_multi_policy_emits_fusion_report() {
        // Two names that resolve to the same text must land in one class.
        let cmd = Command::Check {
            policies: vec!["df".into(), "awf".into(), "npod".into()],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format: OutputFormat::Text,
        };
        let out = execute(cmd).unwrap();
        assert!(out.contains("checking df"), "{out}");
        assert!(out.contains("checking npod"), "{out}");
        assert!(out.contains("cross-policy fusion (SF07xx):"), "{out}");
        assert!(out.contains("3 policies need 2 execution plan(s)"), "{out}");
        assert!(out.contains("fusion saves 1 duplicate plan(s)"), "{out}");
        assert!(out.contains("df, awf (fused)"), "{out}");
        assert!(out.contains("SF0701"), "{out}");
    }

    fn write_prefix_pair(dir: &std::path::Path) -> (String, String) {
        std::fs::create_dir_all(dir).unwrap();
        let a = dir.join("flow_sum.sfe");
        let b = dir.join("flow_max.sfe");
        std::fs::write(
            &a,
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum])\n\
             .collect(flow)",
        )
        .unwrap();
        std::fs::write(
            &b,
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_max])\n\
             .collect(flow)",
        )
        .unwrap();
        (
            a.to_str().unwrap().to_string(),
            b.to_str().unwrap().to_string(),
        )
    }

    #[test]
    fn check_pair_emits_sharing_report() {
        let dir = std::env::temp_dir().join("superfe_cli_share_test");
        let (a, b) = write_prefix_pair(&dir);
        let check = |format| Command::Check {
            policies: vec![a.clone(), b.clone()],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format,
        };
        let out = execute(check(OutputFormat::Text)).unwrap();
        assert!(
            out.contains("cross-tenant prefix sharing (SF08xx):"),
            "{out}"
        );
        assert!(
            out.contains("2 policies → 1 switch partition (1 saved)"),
            "{out}"
        );
        assert!(out.contains("(shared prefix 0x"), "{out}");
        assert!(out.contains("SF0801"), "{out}");
        assert!(out.contains("SF0803"), "{out}");
        let out = execute(check(OutputFormat::Json)).unwrap();
        assert!(out.contains("\"sharing\":{"), "{out}");
        assert!(out.contains("\"partition_count\":1"), "{out}");
        assert!(out.contains("\"partitions_saved\":1"), "{out}");
        assert!(out.contains("\"code\":\"SF0801\""), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn check_near_miss_reports_first_divergence() {
        // Same groupby key, filter constants apart by one knob: the SF0802
        // near-miss must carry the structured first-divergence diff in
        // both renderings.
        let dir = std::env::temp_dir().join("superfe_cli_share_nearmiss_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("small.sfe");
        let b = dir.join("large.sfe");
        std::fs::write(
            &a,
            "pktstream\n.filter(size > 100)\n.groupby(flow)\n.reduce(size, [f_sum])\n\
             .collect(flow)",
        )
        .unwrap();
        std::fs::write(
            &b,
            "pktstream\n.filter(size > 200)\n.groupby(flow)\n.reduce(size, [f_sum])\n\
             .collect(flow)",
        )
        .unwrap();
        let check = |format| Command::Check {
            policies: vec![
                a.to_str().unwrap().to_string(),
                b.to_str().unwrap().to_string(),
            ],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format,
        };
        let out = execute(check(OutputFormat::Text)).unwrap();
        assert!(out.contains("SF0802"), "{out}");
        assert!(out.contains("first divergence at"), "{out}");
        assert!(out.contains("100") && out.contains("200"), "{out}");
        let out = execute(check(OutputFormat::Json)).unwrap();
        assert!(
            out.contains("\"divergence\":{\"stage\":\"filter set\""),
            "{out}"
        );
        assert!(out.contains("\"culprit\":"), "{out}");
    }

    #[test]
    fn serve_prefix_sharing_shares_partitions_bitwise() {
        let dir = std::env::temp_dir().join("superfe_cli_serve_share_test");
        let (a, b) = write_prefix_pair(&dir);
        let run = |cse| {
            execute(Command::Serve {
                policies: vec![a.clone(), b.clone()],
                trace: WorkloadPreset::Campus,
                packets: 4_000,
                seed: 7,
                workers: 2,
                attach_at: vec![],
                detach_at: vec![],
                cache_slots: vec![],
                verify_solo: true,
                fuse: true,
                cse,
                snapshot: None,
                snapshot_at: None,
                restore: None,
                evict_seed: None,
            })
            .unwrap()
        };
        let out = run(true);
        assert!(
            out.contains("sharing a switch partition (SF08xx prefix)"),
            "{out}"
        );
        assert!(
            out.contains("shared switch partitions at shutdown: 1 (cross-tenant CSE enabled)"),
            "{out}"
        );
        assert!(out.contains("execution units at shutdown: 2"), "{out}");
        assert!(
            out.contains("verified tenant t1 flow_max: bitwise identical"),
            "{out}"
        );
        let out = run(false);
        assert!(
            out.contains("shared switch partitions at shutdown: 2 (cross-tenant CSE disabled)"),
            "{out}"
        );
    }

    #[test]
    fn check_multi_policy_json_reports_classes() {
        let cmd = Command::Check {
            policies: vec!["df".into(), "awf".into()],
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format: OutputFormat::Json,
        };
        let out = execute(cmd).unwrap();
        assert!(out.starts_with("{\"policies\":["), "{out}");
        assert!(out.contains("\"policy\":\"df\""), "{out}");
        assert!(out.contains("\"fusion\":{"), "{out}");
        assert!(out.contains("\"policy_count\":2"), "{out}");
        assert!(out.contains("\"plan_count\":1"), "{out}");
        assert!(out.contains("\"plans_saved\":1"), "{out}");
        assert!(out.contains("\"members\":[\"df\",\"awf\"]"), "{out}");
        assert!(out.contains("\"code\":\"SF0701\""), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // An infeasible member still fails the whole check in JSON mode.
        let cmd = Command::Check {
            policies: vec!["df".into(), "kitsune".into()],
            headroom: 90.0,
            cache_slots: Some(4_000_000),
            groups: 10_000,
            format: OutputFormat::Json,
        };
        let e = execute(cmd).unwrap_err();
        assert!(e.machine);
        assert!(e.message.contains("\"code\":\"SF0303\""), "{e}");
        assert!(e.message.contains("\"fusion\":{"), "{e}");
    }

    #[test]
    fn explain_multi_policy_appends_fusion_section() {
        let out = execute(Command::Explain {
            policies: vec!["df".into(), "awf".into()],
            groups: 5_000,
            group_packets: 10_000,
            format: OutputFormat::Text,
        })
        .unwrap();
        assert!(out.contains("explaining df"), "{out}");
        assert!(out.contains("explaining awf"), "{out}");
        assert!(out.contains("cross-policy fusion (SF07xx):"), "{out}");
        assert!(out.contains("fusion saves 1 duplicate plan(s)"), "{out}");
        let json = execute(Command::Explain {
            policies: vec!["df".into(), "awf".into()],
            groups: 5_000,
            group_packets: 10_000,
            format: OutputFormat::Json,
        })
        .unwrap();
        assert!(
            json.starts_with("{\"policies\":[{\"policy\":\"df\""),
            "{json}"
        );
        assert!(json.contains("\"fusion\":{"), "{json}");
        assert!(json.contains("\"plans_saved\":1"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn serve_fuses_equivalent_tenants_and_verifies_solo() {
        // Two tenants running the same policy share one execution unit, and
        // the demuxed outputs still verify bitwise against solo runs.
        let out = execute(Command::Serve {
            policies: vec!["npod".into(), "npod".into()],
            trace: WorkloadPreset::Campus,
            packets: 3_000,
            seed: 5,
            workers: 2,
            attach_at: vec![],
            detach_at: vec![],
            cache_slots: vec![],
            verify_solo: true,
            fuse: true,
            cse: true,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        })
        .unwrap();
        assert!(out.contains("fused into a shared execution unit"), "{out}");
        assert!(
            out.contains("execution units at shutdown: 1 (cross-policy fusion enabled)"),
            "{out}"
        );
        assert!(
            out.contains("verified tenant t0 npod: bitwise identical"),
            "{out}"
        );
        assert!(
            out.contains("verified tenant t1 npod: bitwise identical"),
            "{out}"
        );
    }

    #[test]
    fn serve_overcommitted_set_admits_under_fusion() {
        // The same twelve-Kitsune set that admission rejects unfused
        // collapses to one plan when fusion is on, and serves fine.
        let out = execute(Command::Serve {
            policies: vec!["kitsune".into(); 12],
            trace: WorkloadPreset::Campus,
            packets: 500,
            seed: 1,
            workers: 1,
            attach_at: vec![],
            detach_at: vec![],
            cache_slots: vec![],
            verify_solo: false,
            fuse: true,
            cse: true,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        })
        .unwrap();
        assert!(out.contains("served 12 tenants"), "{out}");
        assert!(
            out.contains("execution units at shutdown: 1 (cross-policy fusion enabled)"),
            "{out}"
        );
    }

    #[test]
    fn serve_cache_slots_override_applies_per_tenant() {
        // An oversized per-tenant cache quota must fail that tenant's
        // deployment gate (SF0303), proving the override reaches the config.
        let e = execute(Command::Serve {
            policies: vec!["cumul".into(), "npod".into()],
            trace: WorkloadPreset::Campus,
            packets: 200,
            seed: 1,
            workers: 1,
            attach_at: vec![],
            detach_at: vec![],
            cache_slots: vec![(1, 4_000_000)],
            verify_solo: false,
            fuse: true,
            cse: true,
            snapshot: None,
            snapshot_at: None,
            restore: None,
            evict_seed: None,
        })
        .unwrap_err();
        assert!(e.message.contains("SF0303"), "{e}");
    }

    #[test]
    fn file_policies_load() {
        let dir = std::env::temp_dir().join("superfe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.sfe");
        std::fs::write(
            &path,
            "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
        )
        .unwrap();
        let (_, p) = resolve_policy(path.to_str().unwrap()).unwrap();
        assert_eq!(p.feature_dimension(), 1);
    }
}
