//! Experiment driver: regenerates every table and figure of the paper,
//! and serves/drives the `dap-wire/v1` network stack.
//!
//! ```text
//! cargo run --release -p dap-bench --bin experiments -- <id> [flags]
//! cargo run --release -p dap-bench --bin experiments -- merge <shard.json>... [--out merged.json]
//! cargo run --release -p dap-bench --bin experiments -- serve --addr H:P --mech pm|sw --eps E --users N [...]
//! cargo run --release -p dap-bench --bin experiments -- submit --addrs H:P,... | --local [...]
//! cargo run --release -p dap-bench --bin experiments -- chaos --users N [--daemons D] [--kill-restart] [...]
//! cargo run --release -p dap-bench --bin experiments -- dispatch <id> --addrs H:P,... [flags]
//!
//! ids:    fig4 table1 fig5 fig6 fig7 fig8 fig9 fig10
//!         ablation-weights ablation-split ablation-mechanism all
//! flags:  --n <users>          population per trial   (default 20000)
//!         --trials <t>         trials per cell        (default 3)
//!         --seed <s>           master seed            (default 42)
//!         --max-dout <d>       EMF bucket cap         (default 128)
//!         --paper-scale        n = 1e6, max-dout = 512
//!         --out <path>         write results JSON (see crate::results)
//!         --shard <i>/<n>      run partition i of n of the cell list and
//!                              write its shard JSON to --out (required);
//!                              `merge` reassembles shards, renders the
//!                              tables and is bit-identical to an
//!                              unsharded run
//!         --journal <dir>      (with --shard) append each finished cell
//!                              to a write-ahead journal; a re-run resumes,
//!                              skipping cells already recorded
//!         --bench-json <path>  run the experiment --bench-repeats times and
//!                              write median wall-clock JSON (perf tracking)
//!         --bench-repeats <r>  timed repeats for --bench-json (default 3)
//!
//! serve:  runs one aggregation daemon (blocks until a shutdown frame):
//!         --addr <host:port>   listen address (required)
//!         --mech pm|sw         deployment mechanism    (default pm)
//!         --eps <e>            per-user budget ε       (default 1)
//!         --eps0 <e>           minimum group budget    (default 1/16)
//!         --users <n>          deployment user count   (required)
//!         --plan-seed <s>      shared plan seed        (default 7)
//!         --max-dout <d>       EMF bucket cap          (default 64)
//!         --journal <dir>      write-ahead journal directory: every
//!                              accepted ingest is durable before it is
//!                              acknowledged, and a restarted daemon
//!                              recovers the session bit-for-bit.
//!                              Durability covers a killed *process* by
//!                              default; add --journal-sync to survive
//!                              OS crashes and power loss too
//!         --journal-sync       fsync the journal per accepted record
//!                              (power-failure durability, slower acks)
//!         --checkpoint-every <n>  compact the journal into a checkpoint
//!                              once it holds n records (default 0 = never)
//!         --idle-timeout <ms>  close a connection whose next frame does
//!                              not arrive in time with a typed timeout
//!                              farewell (default 0 = wait forever)
//!         --secagg <i>/<k>     serve share i of a k-server secret-shared
//!                              deployment: the session runs in masked
//!                              mode, accepts only share-batch frames, and
//!                              neither memory nor journal ever holds a
//!                              plaintext report
//!         --auth-token <hex,...>  only clients whose hello carries one of
//!                              these tokens may speak; every other frame
//!                              is refused with the typed unauthorized
//!                              error (connection stays open)
//!         --workers <n>        reactor apply workers          (default 2)
//!         --queue-ops <n>      reactor apply-queue run bound   (default 256);
//!                              a run (one connection's buffered frames)
//!                              arriving at a full queue is shed, each
//!                              frame with the typed, retryable throttle
//!         --queue-bytes <n>    reactor apply-queue byte bound (default 8 MiB)
//!         --max-conns <n>      open-connection cap            (default 1024);
//!                              connections beyond it are told the throttle
//!                              farewell at accept
//!         --retry-after-ms <ms>  backoff hint carried in every throttle
//!                              reply                          (default 20)
//!
//! storm:  synthetic client swarm against an in-process daemon fleet —
//!         the reactor's load harness (stdout ends with the greppable
//!         `lost 0, dup 0` exactly-once line):
//!         --connections <m>    client connections      (default 32)
//!         --reports <n>        reports per connection  (default 2000)
//!         --batch <b>          reports per seq-batch   (default 16)
//!         --window <w>         frames each client keeps in flight
//!                              (Go-Back-N pipelining)  (default 16)
//!         --daemons <d>        in-process daemons      (default 1)
//!         --seed <s>           schedule seed           (default 42)
//!         --no-journal         skip the write-ahead journal (the default
//!                              fleet journals + fsyncs, where the
//!                              reactor's group commit earns its win)
//!         --queue-ops/--workers/--retry-after-ms  reactor bounds (storm
//!                              defaults: one worker, a 32-run queue,
//!                              1 ms retry hint; shrink --queue-ops to
//!                              force backpressure sheds)
//!         --trials <t>         bench-json trials per mode; the medians
//!                              are recorded               (default 3)
//!         --bench-json <path>  alternate per-frame (the same reactor at
//!                              coalesce 1: one lock + one journal fsync
//!                              per frame) and reactor trials and write
//!                              the median comparison (BENCH_serve.json)
//!
//! submit: streams a simulated population to daemons (disjoint group
//!         ownership), pulls serialized parts, merges + finalizes at the
//!         coordinator — bit-identical to `--local` (the in-process
//!         `Dap::run_schemes` reference, printed in the same format):
//!         --addrs <a,b,...>    daemon addresses (or --local)
//!         --dataset <name>    honest-value dataset    (default taxi)
//!         --gamma <g>          coalition share         (default 0.2)
//!         --data-seed <s>      honest-value seed       (default 1)
//!         --schemes all|<lbl>  schemes to finalize     (default all)
//!         --expect-rejection   after streaming, send one extra report and
//!                              require the typed over-quota WireError
//!         --shutdown           stop the daemons afterwards
//!         --pull-only          skip the population stream: pull the parts
//!                              the daemons already hold (recovered from
//!                              their journals), merge and finalize
//!         --timeout-ms <ms>    connect/read/write deadlines on every wire
//!                              op (default 0 = wait forever); expiry is
//!                              the typed, retryable WireError::Timeout
//!         --retry-attempts <n> tries per wire op before a daemon is
//!                              declared dead and its groups reroute to a
//!                              survivor (default 5)
//!         --retry-budget <n>   total retries across the deployment
//!                              (default 256)
//!         --retry-base-ms <ms> first backoff; doubles per attempt, capped,
//!                              with deterministic seeded jitter
//!         --retry-seed <s>     jitter seed (default 0xdab5eed)
//!         --secagg <k>         secret-shared submit: deal each chunk's
//!                              bucket-count contribution as k additive
//!                              shares, one per daemon (--addrs must list
//!                              exactly k); pulls the k masked parts and
//!                              reconstructs — still bit-identical to
//!                              --local, and no daemon ever saw a report
//!         --secagg-seed <hex>  the dealer's mask seed (default 0xda5eed11)
//!         --auth-token <hex>   present this token in every hello
//!         (plus the serve deployment flags above; per-daemon retry/
//!         failover summaries are printed to stderr)
//!
//! chaos:  spawns N journaled daemon processes behind seeded
//!         fault-injection proxies (drop/delay/stall/reset per connection),
//!         submits through them — with --kill-restart each daemon is
//!         SIGKILLed mid-run and restarted on its journal — and requires
//!         the finalized outputs to be bit-identical to the in-process
//!         reference; stdout matches `submit --local` byte for byte:
//!         --daemons <n>        fleet size               (default 2)
//!         --chaos-seed <s>     fault-schedule seed      (default 7)
//!         --faults <n>         faulted connections per proxy before the
//!                              schedule runs clean      (default 6)
//!         --kill-restart       SIGKILL + journal-restart every daemon
//!         --secagg             run the fleet as the secret-shared tier
//!                              (daemon i serves share i of --daemons) and
//!                              drive the masked dealer path through the
//!                              same faults — the bit-identity assertion
//!                              is unchanged
//!         --secagg-seed <hex>  dealer mask seed      (default 0xda5eed11)
//!         --auth-token <hex>   start daemons with this allowlist token
//!                              and present it from the coordinator
//!         (plus the submit population/deployment/retry flags;
//!         --timeout-ms defaults to 500 and must be nonzero here)
//!
//! dispatch: runs shard i/n of <id> on daemon i over the wire, merges and
//!         renders exactly like a local run (`--n/--trials/--seed/
//!         --max-dout/--paper-scale/--out` as above, plus --addrs)
//! ```

use dap_bench::cell::{Cell, ExperimentId};
use dap_bench::common::{write_bench_json, ExpOptions};
use dap_bench::engine::{run_cells_subset, ResultMap};
use dap_bench::report_cache::ReportCache;
use dap_bench::results::{ResultSet, ShardInfo};
use dap_bench::chaos::{run_chaos, ChaosSpec};
use dap_bench::serve::{
    parse_dataset, render_outputs, submit_header, ServeSpec, SubmitOptions, SubmitSpec, WireMech,
};
use dap_bench::storm::{run_storm, storm_header, write_storm_bench_json, StormSpec};
use dap_core::net::{Deadlines, ReactorOptions, RetryPolicy, ServeOptions};
use dap_core::Scheme;
use dap_datasets::PopulationCache;
use std::net::TcpListener;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Flags the binary owns; `ExpOptions::parse_allowing` skips exactly these.
const BINARY_FLAGS: [&str; 5] =
    ["--bench-json", "--bench-repeats", "--out", "--shard", "--journal"];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let id = args.first().map(String::as_str).unwrap_or("help").to_string();

    if id == "help" || id == "--help" {
        println!("usage: experiments <id> [--n N] [--trials T] [--seed S] [--max-dout D] [--paper-scale] [--out PATH] [--shard I/N [--journal DIR]] [--bench-json PATH] [--bench-repeats R]");
        println!("       experiments merge <shard.json>... [--out PATH]");
        println!("       experiments serve --addr H:P [--mech pm|sw] [--eps E] [--eps0 E0] --users N [--plan-seed S] [--max-dout D] [--idle-timeout MS] [--workers W --queue-ops Q --queue-bytes B --max-conns C --retry-after-ms MS] [--secagg I/K] [--auth-token HEX,..] [--journal DIR [--journal-sync] [--checkpoint-every N]]");
        println!("       experiments storm [--connections M] [--reports N] [--batch B] [--window W] [--daemons D] [--seed S] [--no-journal] [--workers W] [--queue-ops Q] [--retry-after-ms MS] [--trials T] [--bench-json PATH]");
        println!("       experiments submit (--addrs H:P,... | --local) [deployment flags] [--dataset D] [--gamma G] [--data-seed S] [--schemes all|LBL,..] [--timeout-ms MS] [--retry-attempts N] [--retry-budget N] [--retry-base-ms MS] [--retry-seed S] [--secagg K] [--secagg-seed HEX] [--auth-token HEX] [--expect-rejection] [--shutdown] [--pull-only]");
        println!("       experiments chaos [deployment/population flags] [--daemons N] [--chaos-seed S] [--faults N] [--kill-restart] [--secagg] [--secagg-seed HEX] [--auth-token HEX] [retry flags]");
        println!("       experiments dispatch <id> --addrs H:P,... [--n N] [--trials T] [--seed S] [--max-dout D] [--paper-scale] [--out PATH]");
        println!("       experiments shutdown --addrs H:P,... [--auth-token HEX]");
        println!("ids: fig4 table1 fig5 fig6 fig7 fig8 fig9 fig10 ablation-weights ablation-split ablation-mechanism all");
        return;
    }
    if id == "merge" {
        merge_cmd(&args[1..]);
        return;
    }
    if id == "serve" {
        serve_cmd(&args[1..]);
        return;
    }
    if id == "storm" {
        storm_cmd(&args[1..]);
        return;
    }
    if id == "submit" {
        submit_cmd(&args[1..]);
        return;
    }
    if id == "chaos" {
        chaos_cmd(&args[1..]);
        return;
    }
    if id == "dispatch" {
        dispatch_cmd(&args[1..]);
        return;
    }
    if id == "shutdown" {
        shutdown_cmd(&args[1..]);
        return;
    }

    let opts = match ExpOptions::parse_allowing(&args, &BINARY_FLAGS) {
        Ok(opts) => opts,
        Err(msg) => fail(&msg),
    };
    let out_path = flag_value(&args, "--out").unwrap_or_else(|msg| fail(&msg));
    let shard = parse_shard(&args).unwrap_or_else(|msg| fail(&msg));
    let journal_dir = flag_value(&args, "--journal").unwrap_or_else(|msg| fail(&msg));
    if journal_dir.is_some() && shard.is_none() {
        fail("--journal requires --shard (the resumable cell journal is a shard feature)");
    }
    let bench_json = flag_value(&args, "--bench-json").unwrap_or_else(|msg| fail(&msg));
    let bench_repeats: usize = match flag_value(&args, "--bench-repeats") {
        Ok(Some(v)) => match v.parse() {
            Ok(r) if r > 0 => r,
            _ => fail(&format!("invalid value '{v}' for flag --bench-repeats")),
        },
        Ok(None) => 3,
        Err(msg) => fail(&msg),
    };
    // Timing JSON only makes sense for a complete single experiment;
    // reject the aggregate id before hours of work, not after.
    if bench_json.is_some() && (id == "all" || shard.is_some()) {
        fail(&format!("--bench-json requires a single unsharded experiment id (got '{id}')"));
    }

    let ids: Vec<ExperimentId> = if id == "all" {
        ExperimentId::ALL.to_vec()
    } else {
        match ExperimentId::from_name(&id) {
            Some(e) => vec![e],
            None => fail(&format!("unknown experiment id '{id}'; run `experiments help`")),
        }
    };

    // Enumerate the full (concatenated) cell list once; indices in shard
    // files and result sets refer to this enumeration.
    let mut cells: Vec<Cell> = Vec::new();
    let mut segments: Vec<(ExperimentId, Range<usize>)> = Vec::new();
    for e in &ids {
        let start = cells.len();
        cells.extend(e.cells(&opts));
        segments.push((*e, start..cells.len()));
    }

    if let Some((shard_index, shard_count)) = shard {
        // Shard mode: run a deterministic partition, write its JSON, no
        // tables (partial results cannot render full tables).
        let Some(path) = out_path else {
            fail("--shard requires --out <path> for the shard JSON");
        };
        let start = Instant::now();
        let indices: Vec<usize> =
            (0..cells.len()).filter(|i| i % shard_count == shard_index).collect();
        let results = match &journal_dir {
            Some(dir) => {
                let man = dap_bench::journal::manifest(&id, &opts, shard_index, shard_count);
                let (results, resumed) = dap_bench::journal::run_cells_journaled(
                    std::path::Path::new(dir),
                    &man,
                    &opts,
                    &cells,
                    &indices,
                )
                .unwrap_or_else(|msg| fail(&msg));
                eprintln!("[journal {dir}: {resumed} of {} cells resumed]", indices.len());
                results
            }
            None => run_cells_subset(&opts, &cells, &indices),
        };
        let set = ResultSet::build(
            &id,
            &opts,
            Some(ShardInfo { index: shard_index, count: shard_count, cells_total: cells.len() }),
            &cells,
            &results,
        );
        if let Err(e) = std::fs::write(&path, set.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[shard {}/{}: {} of {} cells in {:.1?} -> {}]",
            shard_index,
            shard_count,
            indices.len(),
            cells.len(),
            start.elapsed(),
            path
        );
        return;
    }

    println!(
        "# options: n = {}, trials = {}, seed = {}, max_d_out = {}\n",
        opts.n, opts.trials, opts.seed, opts.max_d_out
    );
    let start = Instant::now();
    let mut timed_ms: Vec<f64> = Vec::new();
    let mut all_results = Vec::new();
    for (e, range) in &segments {
        let name = e.name();
        let timing = bench_json.is_some();
        let repeats = if timing { bench_repeats } else { 1 };
        let indices: Vec<usize> = range.clone().collect();
        for rep in 0..repeats {
            if timing && rep == 0 {
                // Repeat 1 measures the cold path (population sampling and
                // report perturbation included); repeats 2+ run warm, so
                // with 3 repeats the recorded median is the warm steady
                // state an `experiments all` sweep actually sees — that is
                // the regime the report cache exists to speed up, and the
                // methodology BENCH_fig7.json has tracked since the cache
                // landed.
                PopulationCache::global().clear();
                ReportCache::global().clear();
            }
            let t = Instant::now();
            let results = run_cells_subset(&opts, &cells, &indices);
            print!("{}", e.render(&opts, &ResultMap::from_results(&results)));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if timing {
                timed_ms.push(ms);
                eprintln!("[{name} repeat {} of {repeats}: {ms:.1} ms]", rep + 1);
            } else {
                eprintln!("[{name} done in {:.1?}]", t.elapsed());
            }
            if rep + 1 == repeats {
                all_results.extend(results);
            }
        }
    }

    if id == "all" {
        // The paper-scale win the two caches buy must be observable without
        // a profiler: strictly fewer generations (misses) than consumers
        // (hits + misses) proves cross-cell reuse of both the sampled
        // values and the perturbed reports built from them.
        let (pop, rep) = dap_bench::engine::cache_stats();
        eprintln!(
            "[population cache: {} hits, {} misses, {} evictions — {} generations served {} requests]",
            pop.hits,
            pop.misses,
            pop.evictions,
            pop.misses,
            pop.hits + pop.misses
        );
        eprintln!(
            "[report cache: {} hits, {} misses, {} evictions — {} perturbations served {} requests]",
            rep.hits,
            rep.misses,
            rep.evictions,
            rep.misses,
            rep.hits + rep.misses
        );
    }
    if let Some(path) = out_path {
        let set = ResultSet::build(&id, &opts, None, &cells, &all_results);
        if let Err(e) = std::fs::write(&path, set.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
    if let Some(path) = bench_json {
        // The calibration yardstick runs on the same machine moments after
        // the timed repeats, so the JSON's `median_over_calib` ratio is
        // comparable across containers of different speeds.
        let calib_ms = dap_bench::common::calibrate_dense_solve_ms();
        eprintln!("[calibration: dense-reference solve {calib_ms:.1} ms]");
        if let Err(e) = write_bench_json(&path, &id, &opts, &timed_ms, calib_ms) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
    eprintln!("[total {:.1?}]", start.elapsed());
}

/// `experiments merge <shard.json>... [--out merged.json]`: reassembles a
/// sharded run, verifies option/coordinate compatibility against a fresh
/// enumeration, renders the tables exactly as an unsharded run would, and
/// optionally writes the combined JSON.
fn merge_cmd(args: &[String]) {
    let out_path = flag_value(args, "--out").unwrap_or_else(|msg| fail(&msg));
    let paths: Vec<&String> = {
        // Everything that isn't --out and isn't --out's value is a shard
        // file path.
        let mut paths = Vec::new();
        let mut skip = false;
        for (i, a) in args.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if a == "--out" {
                skip = true;
                continue;
            }
            if a.starts_with("--") {
                fail(&format!("unknown flag {a} for merge"));
            }
            paths.push(&args[i]);
        }
        paths
    };
    if paths.is_empty() {
        fail("merge needs at least one shard JSON path");
    }

    let mut shards = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("cannot read {path}: {e}")),
        };
        match ResultSet::from_json(&text) {
            Ok(set) => shards.push(set),
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
    let merged = match ResultSet::merge(shards) {
        Ok(m) => m,
        Err(e) => fail(&format!("merge failed: {e}")),
    };

    // Re-enumerate and verify the file's coordinates against this build.
    let opts = merged.options;
    let ids: Vec<ExperimentId> = if merged.experiment == "all" {
        ExperimentId::ALL.to_vec()
    } else {
        match ExperimentId::from_name(&merged.experiment) {
            Some(e) => vec![e],
            None => fail(&format!("unknown experiment '{}' in shard files", merged.experiment)),
        }
    };
    let mut cells: Vec<Cell> = Vec::new();
    let mut segments: Vec<(ExperimentId, Range<usize>)> = Vec::new();
    for e in &ids {
        let start = cells.len();
        cells.extend(e.cells(&opts));
        segments.push((*e, start..cells.len()));
    }
    if let Err(e) = merged.verify_against(&cells) {
        fail(&format!("merge failed: {e}"));
    }

    println!(
        "# options: n = {}, trials = {}, seed = {}, max_d_out = {}\n",
        opts.n, opts.trials, opts.seed, opts.max_d_out
    );
    let map = merged.result_map();
    for (e, _) in &segments {
        print!("{}", e.render(&opts, &map));
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, merged.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
    eprintln!("[merged {} shards, {} cells]", paths.len(), merged.cells.len());
}

/// Rejects unknown `--flags` for the hand-parsed subcommands (same
/// no-silent-ignore rule as `ExpOptions::parse`): `valued` flags consume
/// the next token, `boolean` flags stand alone.
fn check_flags(args: &[String], valued: &[&str], boolean: &[&str]) {
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") {
            if valued.contains(&arg.as_str()) {
                skip = true;
            } else if !boolean.contains(&arg.as_str()) {
                fail(&format!("unknown flag {arg}; run `experiments help` for the flag list"));
            }
        }
    }
}

/// Value of `flag` parsed as `T`, or `default` when absent.
fn flag_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Ok(Some(v)) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid value '{v}' for flag {flag}"))),
        Ok(None) => default,
        Err(msg) => fail(&msg),
    }
}

/// The deployment flags shared by `serve` and `submit`.
const DEPLOY_FLAGS: [&str; 6] = ["--mech", "--eps", "--eps0", "--users", "--plan-seed", "--max-dout"];

/// The coordinator fault-tolerance flags shared by `submit` and `chaos`.
const RETRY_FLAGS: [&str; 5] =
    ["--retry-attempts", "--retry-budget", "--retry-base-ms", "--retry-seed", "--timeout-ms"];

/// `--retry-*` flags → a [`RetryPolicy`] (defaults from the policy itself).
fn parse_retry(args: &[String]) -> RetryPolicy {
    let d = RetryPolicy::default();
    RetryPolicy {
        attempts: flag_parse(args, "--retry-attempts", d.attempts),
        budget: flag_parse(args, "--retry-budget", d.budget),
        base: Duration::from_millis(flag_parse(args, "--retry-base-ms", d.base.as_millis() as u64)),
        seed: flag_parse(args, "--retry-seed", d.seed),
        cap: d.cap,
    }
}

/// `--timeout-ms <ms>` → uniform connect/read/write deadlines. `0` means
/// wait forever (the pre-hardening behavior); `default_ms` applies when
/// the flag is absent.
fn parse_deadlines(args: &[String], default_ms: u64) -> Deadlines {
    match flag_parse(args, "--timeout-ms", default_ms) {
        0 => Deadlines::default(),
        ms => Deadlines::all(Duration::from_millis(ms)),
    }
}

/// A token/seed value: hex with an optional `0x` prefix.
fn parse_hex_u64(flag: &str, v: &str) -> u64 {
    let digits = v.strip_prefix("0x").unwrap_or(v);
    u64::from_str_radix(digits, 16)
        .unwrap_or_else(|_| fail(&format!("invalid hex value '{v}' for flag {flag}")))
}

/// `--auth-token <hex>` → the single token a client presents.
fn parse_auth_token(args: &[String]) -> Option<u64> {
    match flag_value(args, "--auth-token") {
        Ok(Some(v)) => Some(parse_hex_u64("--auth-token", &v)),
        Ok(None) => None,
        Err(msg) => fail(&msg),
    }
}

/// `--secagg-seed <hex>` → the dealer's mask seed.
fn parse_secagg_seed(args: &[String]) -> u64 {
    match flag_value(args, "--secagg-seed") {
        Ok(Some(v)) => parse_hex_u64("--secagg-seed", &v),
        Ok(None) => 0xda5e_ed11,
        Err(msg) => fail(&msg),
    }
}

/// The ingestion-reactor tuning flags shared by `serve` and `storm`.
const REACTOR_FLAGS: [&str; 5] =
    ["--workers", "--queue-ops", "--queue-bytes", "--max-conns", "--retry-after-ms"];

/// Reactor tuning flags → the [`ServeOptions::reactor`] field, starting
/// from `base` (the stock defaults for `serve`, the deliberately starved
/// bounds for `storm`).
fn parse_reactor(args: &[String], base: ReactorOptions) -> ReactorOptions {
    ReactorOptions {
        workers: flag_parse(args, "--workers", base.workers),
        queue_ops: flag_parse(args, "--queue-ops", base.queue_ops),
        queue_bytes: flag_parse(args, "--queue-bytes", base.queue_bytes),
        max_connections: flag_parse(args, "--max-conns", base.max_connections),
        retry_after_ms: flag_parse(args, "--retry-after-ms", base.retry_after_ms),
        ..base
    }
}

/// The population flags shared by `submit` and `chaos`.
fn parse_submit_spec(args: &[String]) -> SubmitSpec {
    let dataset = match flag_value(args, "--dataset") {
        Ok(Some(name)) => parse_dataset(&name)
            .unwrap_or_else(|| fail(&format!("unknown dataset '{name}'"))),
        Ok(None) => dap_datasets::Dataset::Taxi,
        Err(msg) => fail(&msg),
    };
    SubmitSpec {
        serve: parse_serve_spec(args),
        dataset,
        gamma: flag_parse(args, "--gamma", 0.2),
        data_seed: flag_parse(args, "--data-seed", 1),
    }
}

fn parse_serve_spec(args: &[String]) -> ServeSpec {
    let mech = match flag_value(args, "--mech") {
        Ok(Some(name)) => WireMech::from_name(&name)
            .unwrap_or_else(|| fail(&format!("unknown mechanism '{name}' (use pm or sw)"))),
        Ok(None) => WireMech::Pm,
        Err(msg) => fail(&msg),
    };
    let users = match flag_value(args, "--users") {
        Ok(Some(v)) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid value '{v}' for flag --users"))),
        Ok(None) => fail("--users is required (the deployment's total user count)"),
        Err(msg) => fail(&msg),
    };
    ServeSpec {
        mech,
        eps: flag_parse(args, "--eps", 1.0),
        eps0: flag_parse(args, "--eps0", 1.0 / 16.0),
        users,
        seed: flag_parse(args, "--plan-seed", 7),
        max_d_out: flag_parse(args, "--max-dout", 64),
        secagg: None,
    }
}

/// `experiments serve`: one aggregation daemon over `dap-wire/v1`,
/// blocking until a client sends `shutdown`.
fn serve_cmd(args: &[String]) {
    check_flags(
        args,
        &["--addr", "--journal", "--checkpoint-every", "--idle-timeout", "--secagg", "--auth-token"]
            .iter()
            .chain(&DEPLOY_FLAGS)
            .chain(&REACTOR_FLAGS)
            .copied()
            .collect::<Vec<_>>(),
        &["--journal-sync"],
    );
    let addr = match flag_value(args, "--addr") {
        Ok(Some(a)) => a,
        Ok(None) => fail("--addr <host:port> is required"),
        Err(msg) => fail(&msg),
    };
    let journal_dir = flag_value(args, "--journal").unwrap_or_else(|msg| fail(&msg));
    let checkpoint_every: usize = flag_parse(args, "--checkpoint-every", 0);
    let journal_sync = args.iter().any(|a| a == "--journal-sync");
    if journal_dir.is_none() && checkpoint_every != 0 {
        fail("--checkpoint-every needs --journal <dir>");
    }
    if journal_dir.is_none() && journal_sync {
        fail("--journal-sync needs --journal <dir>");
    }
    let idle_ms: u64 = flag_parse(args, "--idle-timeout", 0);
    // `--auth-token a,b,...`: the daemon-side allowlist.
    let auth_tokens: Vec<u64> = match flag_value(args, "--auth-token") {
        Ok(Some(list)) => {
            list.split(',').map(|t| parse_hex_u64("--auth-token", t)).collect()
        }
        Ok(None) => Vec::new(),
        Err(msg) => fail(&msg),
    };
    let options = ServeOptions {
        idle_timeout: (idle_ms != 0).then(|| Duration::from_millis(idle_ms)),
        auth_tokens,
        reactor: parse_reactor(args, ReactorOptions::default()),
    };
    let mut spec = parse_serve_spec(args);
    // `--secagg i/k`: this daemon serves share i of a k-server tier.
    spec.secagg = match flag_value(args, "--secagg") {
        Ok(Some(v)) => {
            let parse = |spec: &str| -> Option<dap_core::SecaggRole> {
                let (i, k) = spec.split_once('/')?;
                dap_core::SecaggRole::new(k.parse().ok()?, i.parse().ok()?).ok()
            };
            Some(parse(&v).unwrap_or_else(|| {
                fail(&format!("invalid value '{v}' for flag --secagg (expected i/k, i < k, k ≥ 2)"))
            }))
        }
        Ok(None) => None,
        Err(msg) => fail(&msg),
    };
    let digest = spec.state_digest().unwrap_or_else(|msg| fail(&msg));
    let listener = TcpListener::bind(&addr)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    eprintln!(
        "[dapd listening on {} — mech {}, eps {}, {} users, digest {:#018x}]",
        listener.local_addr().map(|a| a.to_string()).unwrap_or(addr),
        spec.mech.name(),
        spec.eps,
        spec.users,
        digest,
    );
    let served = match &journal_dir {
        Some(dir) => spec.serve_durable_with(
            listener,
            std::path::Path::new(dir),
            checkpoint_every,
            journal_sync,
            options,
        ),
        None => spec.serve_with(listener, options),
    };
    if let Err(msg) = served {
        fail(&msg);
    }
    eprintln!("[dapd stopped]");
}

/// `experiments storm`: the reactor's load harness — a seeded client
/// swarm against an in-process daemon fleet, with throttle-aware
/// retry/reconnect, verified exactly-once against a replayed twin, and
/// measured (reports/sec, p50/p99 ack latency). `--bench-json` runs the
/// per-frame baseline (the same reactor at `coalesce: 1`) and the reactor
/// back to back and writes the comparison file CI gates on.
fn storm_cmd(args: &[String]) {
    check_flags(
        args,
        &[
            "--connections",
            "--reports",
            "--batch",
            "--window",
            "--daemons",
            "--seed",
            "--trials",
            "--bench-json",
        ]
        .iter()
        .chain(&REACTOR_FLAGS)
        .copied()
        .collect::<Vec<_>>(),
        &["--no-journal"],
    );
    let spec = StormSpec {
        connections: flag_parse(args, "--connections", 32),
        reports: flag_parse(args, "--reports", 2000),
        batch: flag_parse(args, "--batch", 16),
        window: flag_parse(args, "--window", 16),
        daemons: flag_parse(args, "--daemons", 1),
        seed: flag_parse(args, "--seed", 42),
        journal: !args.iter().any(|a| a == "--no-journal"),
        reactor: parse_reactor(args, StormSpec::storm_reactor()),
    };
    let bench_json = flag_value(args, "--bench-json").unwrap_or_else(|msg| fail(&msg));

    println!("{}", storm_header(&spec));
    if let Some(path) = bench_json {
        // The comparison: alternate per-frame/reactor trials
        // (decorrelating filesystem-journal drift) and report each mode's
        // median-throughput run — single fsync-bound runs swing ±30% on
        // shared CI metal. The per-frame baseline is the same reactor at
        // `coalesce: 1`: one frame per run and per batch, so one session
        // lock and one journal fsync per frame.
        let trials: usize = flag_parse(args, "--trials", 3).max(1);
        let per_frame_spec = StormSpec {
            reactor: ReactorOptions { coalesce: 1, ..spec.reactor.clone() },
            ..spec.clone()
        };
        let mut per_frames = Vec::with_capacity(trials);
        let mut reactors = Vec::with_capacity(trials);
        for _ in 0..trials {
            let per_frame = run_storm(&per_frame_spec).unwrap_or_else(|msg| fail(&msg));
            println!("{}", per_frame.render());
            let reactor = run_storm(&spec).unwrap_or_else(|msg| fail(&msg));
            println!("{}", reactor.render());
            if !per_frame.exact() || !reactor.exact() {
                fail(
                    "storm lost, duplicated or diverged reports \
                     (see the lost/dup lines above)",
                );
            }
            per_frames.push(per_frame);
            reactors.push(reactor);
        }
        let median = |mut runs: Vec<dap_bench::storm::StormStats>| {
            runs.sort_by(|a, b| {
                a.reports_per_sec.total_cmp(&b.reports_per_sec)
            });
            runs.swap_remove(runs.len() / 2)
        };
        let (per_frame, reactor) = (median(per_frames), median(reactors));
        println!(
            "storm: speedup {:.2}x (reactor {:.0} vs per-frame {:.0} reports/sec, \
             median of {trials})",
            reactor.reports_per_sec / per_frame.reports_per_sec,
            reactor.reports_per_sec,
            per_frame.reports_per_sec,
        );
        if let Err(e) = write_storm_bench_json(&path, &spec, &reactor, &per_frame) {
            fail(&format!("failed to write {path}: {e}"));
        }
        eprintln!("[wrote {path}]");
    } else {
        let stats = run_storm(&spec).unwrap_or_else(|msg| fail(&msg));
        println!("{}", stats.render());
        if !stats.exact() {
            fail("storm lost, duplicated or diverged reports (see the lost/dup line above)");
        }
    }
}

fn parse_schemes(args: &[String]) -> Vec<Scheme> {
    match flag_value(args, "--schemes") {
        Ok(None) => Scheme::ALL.to_vec(),
        Ok(Some(spec)) if spec == "all" => Scheme::ALL.to_vec(),
        Ok(Some(spec)) => spec
            .split(',')
            .map(|label| {
                Scheme::from_label(label)
                    .unwrap_or_else(|| fail(&format!("unknown scheme '{label}'")))
            })
            .collect(),
        Err(msg) => fail(&msg),
    }
}

/// `experiments submit`: the coordinator — streams a simulated population
/// to the daemons (or runs the in-process reference under `--local`) and
/// prints the finalized outputs with their exact bit patterns.
fn submit_cmd(args: &[String]) {
    let valued: Vec<&str> = [
        "--addrs",
        "--dataset",
        "--gamma",
        "--data-seed",
        "--schemes",
        "--secagg",
        "--secagg-seed",
        "--auth-token",
    ]
    .iter()
    .chain(&DEPLOY_FLAGS)
    .chain(&RETRY_FLAGS)
    .copied()
    .collect();
    check_flags(args, &valued, &["--local", "--expect-rejection", "--shutdown", "--pull-only"]);
    let spec = parse_submit_spec(args);
    let schemes = parse_schemes(args);
    let local = args.iter().any(|a| a == "--local");
    let secagg: Option<usize> = match flag_value(args, "--secagg") {
        Ok(Some(v)) => Some(v.parse().unwrap_or_else(|_| {
            fail(&format!("invalid value '{v}' for flag --secagg (expected the share count k)"))
        })),
        Ok(None) => None,
        Err(msg) => fail(&msg),
    };
    if local && secagg.is_some() {
        fail("--secagg needs --addrs: the --local reference is the plaintext in-process run");
    }

    // The header (and everything on stdout) is identical between a served
    // run and the `--local` reference — CI byte-diffs the two.
    println!("{}", submit_header(&spec));
    let outputs = if local {
        spec.run_local(&schemes).unwrap_or_else(|msg| fail(&msg))
    } else {
        let addrs: Vec<String> = match flag_value(args, "--addrs") {
            Ok(Some(list)) => list.split(',').map(str::to_string).collect(),
            Ok(None) => fail("submit needs --addrs <a,b,...> or --local"),
            Err(msg) => fail(&msg),
        };
        let opts = SubmitOptions {
            probe_rejection: args.iter().any(|a| a == "--expect-rejection"),
            shutdown: args.iter().any(|a| a == "--shutdown"),
            pull_only: args.iter().any(|a| a == "--pull-only"),
            retry: parse_retry(args),
            deadlines: parse_deadlines(args, 0),
            secagg,
            secagg_seed: parse_secagg_seed(args),
            auth_token: parse_auth_token(args),
        };
        let outcome = spec.submit(&addrs, &schemes, opts).unwrap_or_else(|msg| fail(&msg));
        for daemon in &outcome.daemons {
            eprintln!("[{}]", daemon.render());
        }
        if let Some(rejection) = outcome.rejection {
            eprintln!("[rejection probe: {rejection}]");
        }
        outcome.outputs
    };
    print!("{}", render_outputs(&schemes, &outputs));
}

/// `experiments chaos`: spawns a journaled daemon fleet behind seeded
/// fault-injection proxies, submits through them — optionally SIGKILLing
/// and restarting every daemon on its journal mid-run — and requires the
/// finalized outputs to be bit-identical to the in-process reference.
/// stdout is byte-identical to `submit --local`; the fault/retry evidence
/// goes to stderr.
fn chaos_cmd(args: &[String]) {
    let valued: Vec<&str> = [
        "--dataset",
        "--gamma",
        "--data-seed",
        "--schemes",
        "--daemons",
        "--chaos-seed",
        "--faults",
        "--secagg-seed",
        "--auth-token",
    ]
    .iter()
    .chain(&DEPLOY_FLAGS)
    .chain(&RETRY_FLAGS)
    .copied()
    .collect();
    check_flags(args, &valued, &["--kill-restart", "--secagg"]);
    let spec = ChaosSpec {
        submit: parse_submit_spec(args),
        daemons: flag_parse(args, "--daemons", 2),
        seed: flag_parse(args, "--chaos-seed", 7),
        faults: flag_parse(args, "--faults", 6),
        kill_restart: args.iter().any(|a| a == "--kill-restart"),
        retry: parse_retry(args),
        // A chaos run must bound its reads: stall faults would otherwise
        // park the coordinator forever, so 0 is not accepted here.
        deadlines: parse_deadlines(args, 500),
        secagg: args.iter().any(|a| a == "--secagg"),
        secagg_seed: parse_secagg_seed(args),
        auth_token: parse_auth_token(args),
    };
    if spec.deadlines.read.is_none() {
        fail("chaos needs a nonzero --timeout-ms (stall faults never send bytes)");
    }
    let schemes = parse_schemes(args);
    println!("{}", submit_header(&spec.submit));
    let report = run_chaos(&spec, &schemes).unwrap_or_else(|msg| fail(&msg));
    for daemon in &report.daemons {
        eprintln!("[{}]", daemon.render());
    }
    for (i, (connections, faults)) in report.proxies.iter().enumerate() {
        eprintln!("[proxy {i}: {connections} connections, {faults} faults injected]");
    }
    eprintln!("[chaos: finalized outputs bit-identical to the clean local reference]");
    print!("{}", render_outputs(&schemes, &report.outputs));
}

/// `experiments dispatch <id> --addrs a,b,...`: runs shard `i/n` of the
/// experiment on daemon `i` over the wire, merges, verifies and renders
/// exactly like a local run.
fn dispatch_cmd(args: &[String]) {
    let opts = match ExpOptions::parse_allowing(args, &["--addrs", "--out"]) {
        Ok(opts) => opts,
        Err(msg) => fail(&msg),
    };
    let id = match args.first() {
        Some(id) if !id.starts_with("--") => id.clone(),
        _ => fail("dispatch needs an experiment id first, e.g. `dispatch fig7 --addrs ...`"),
    };
    let addrs: Vec<String> = match flag_value(args, "--addrs") {
        Ok(Some(list)) => list.split(',').map(str::to_string).collect(),
        Ok(None) => fail("dispatch needs --addrs <a,b,...>"),
        Err(msg) => fail(&msg),
    };
    let out_path = flag_value(args, "--out").unwrap_or_else(|msg| fail(&msg));

    let start = Instant::now();
    let merged = match dap_bench::serve::dispatch(&id, &opts, &addrs) {
        Ok(m) => m,
        Err(msg) => fail(&format!("dispatch failed: {msg}")),
    };
    println!(
        "# options: n = {}, trials = {}, seed = {}, max_d_out = {}\n",
        opts.n, opts.trials, opts.seed, opts.max_d_out
    );
    let map = merged.result_map();
    let ids = dap_bench::serve::experiment_ids(&id).expect("verified by dispatch");
    for e in &ids {
        print!("{}", e.render(&opts, &map));
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, merged.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[wrote {path}]");
    }
    eprintln!(
        "[dispatched {} shards over the wire, {} cells in {:.1?}]",
        addrs.len(),
        merged.cells.len(),
        start.elapsed()
    );
}

/// `experiments shutdown --addrs a,b,...`: stops running daemons.
fn shutdown_cmd(args: &[String]) {
    check_flags(args, &["--addrs", "--auth-token"], &[]);
    let addrs: Vec<String> = match flag_value(args, "--addrs") {
        Ok(Some(list)) => list.split(',').map(str::to_string).collect(),
        Ok(None) => fail("shutdown needs --addrs <a,b,...>"),
        Err(msg) => fail(&msg),
    };
    let auth_token = parse_auth_token(args);
    for addr in &addrs {
        let mut client =
            dap_core::net::WireClient::connect_retry(addr, 20, std::time::Duration::from_millis(100))
                .unwrap_or_else(|e| fail(&format!("cannot reach daemon {addr}: {e}")));
        if auth_token.is_some() {
            // An allowlisted daemon authenticates connections on their
            // hello; the digest-mismatch reply (we don't know the
            // deployment here) is irrelevant — the token is what counts.
            client.set_auth(auth_token);
            let _ = client.hello(0);
        }
        client.shutdown().unwrap_or_else(|e| fail(&format!("{addr}: {e}")));
        eprintln!("[stopped {addr}]");
    }
}

/// `--shard i/n` → `(i, n)`.
fn parse_shard(args: &[String]) -> Result<Option<(usize, usize)>, String> {
    let Some(v) = flag_value(args, "--shard")? else {
        return Ok(None);
    };
    let parse = |spec: &str| -> Option<(usize, usize)> {
        let (i, n) = spec.split_once('/')?;
        let (i, n) = (i.parse().ok()?, n.parse().ok()?);
        (n >= 1 && i < n).then_some((i, n))
    };
    parse(&v)
        .map(Some)
        .ok_or_else(|| format!("invalid value '{v}' for flag --shard (expected i/n with i < n)"))
}

/// Value of `flag` in `args`: `Ok(None)` when absent, an error when the
/// flag is present but its value is missing or looks like another flag
/// (the same no-silent-ignore rule as `ExpOptions::parse`).
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("flag {flag} is missing its value")),
    }
}
