//! The repository benchmark: runs one workload for a time budget and
//! prints every metric with its unit, then one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     [--goldens <file>] [--write-goldens]
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! predictions each per-layer metric makes.

mod fingerprint;
mod golden;
mod harness;
mod measure;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use repro_bench::Runner;

use golden::Goldens;
use harness::{bench, result_json, Report, Settings};
use workloads::{fleet_event::FleetEvent, fleet_routed::FleetRouted, lab::Lab, link::Link};

pub const WORKLOADS: [&str; 4] = [
    "link_5day_tick",
    "fleet_event_faulty",
    "fleet_routed_switchback",
    "lab_bbr_cubic",
];

/// The benchmark's own directory (goldens, trace output).
const HOME: &str = env!("CARGO_MANIFEST_DIR");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    goldens: PathBuf,
    write_goldens: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut goldens = PathBuf::from(HOME).join("goldens.tsv");
    let mut write_goldens = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--goldens" => goldens = PathBuf::from(value()?),
            "--write-goldens" => write_goldens = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        goldens,
        write_goldens,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    // Fail before any timing if the goldens are unreadable.
    Goldens::load(&args.goldens)?;
    let load = || {
        let mut g = Goldens::load(&args.goldens).expect("goldens readable a moment ago");
        // A run that writes the golden checks against itself only.
        if args.write_goldens {
            g.remove(&args.workload, args.seed);
        }
        g
    };
    let settings = Settings {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let runner = Runner::new();
    match args.workload.as_str() {
        "link_5day_tick" => bench(&Link::default(), &settings, &runner, &load),
        "fleet_event_faulty" => bench(&FleetEvent::default(), &settings, &runner, &load),
        "fleet_routed_switchback" => bench(&FleetRouted::default(), &settings, &runner, &load),
        "lab_bbr_cubic" => bench(&Lab::default(), &settings, &runner, &load),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "failed_frac = {} ({} of {} ops failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if !report.tracers.is_empty() {
        let path = PathBuf::from(HOME)
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let mut spans = String::new();
        for (rep, t) in report.tracers.iter().enumerate() {
            for line in t.jsonl() {
                spans.push_str(&format!("{{\"rep\":{rep},{}\n", &line[1..]));
            }
        }
        match std::fs::create_dir_all(path.parent().expect("out dir"))
            .and_then(|_| std::fs::write(&path, spans))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    if args.write_goldens {
        if args.trace {
            eprintln!("perfbench: --write-goldens needs --trace 0");
            return ExitCode::from(2);
        }
        if !report.correct {
            eprintln!("perfbench: refusing to store goldens from a run that failed its checks");
            return ExitCode::from(1);
        }
        let mut goldens = Goldens::load(&args.goldens).unwrap_or_default();
        goldens.set(&args.workload, args.seed, report.golden.clone());
        if let Err(e) = std::fs::write(&args.goldens, goldens.render()) {
            eprintln!("perfbench: writing {}: {e}", args.goldens.display());
            return ExitCode::from(1);
        }
        println!("goldens stored for {} seed {}", args.workload, args.seed);
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
