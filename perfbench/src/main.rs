//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark and prints, as its last
//! stdout line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (every end-to-end metric, or with `--trace 1` every
//! per-layer metric). Exits 2 on a usage error.

use perfbench::metrics::result_line;
use perfbench::{catalogue, run, Config, Scale, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Config {
    let mut cfg = Config {
        workload: Workload::Fig7Warm,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    cfg.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse(&args);
    let outcome = run(&cfg);
    for problem in &outcome.problems {
        eprintln!("output check failed: {problem}");
    }
    println!(
        "# {} seed {} trace {}: calib.dense_em_ms {:.3}, storage.fsync_us {:.1}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        outcome.values.get("calib.dense_em_ms").unwrap_or(f64::NAN),
        outcome.values.get("storage.fsync_us").unwrap_or(f64::NAN),
    );
    println!("{}", result_line(&outcome, catalogue(&cfg)));
}
