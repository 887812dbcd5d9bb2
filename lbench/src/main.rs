//! lbench: the repository's benchmark. One command runs seeded workloads
//! against the engine, checks every answer, prints each metric by name with
//! its unit and records the run in `bench-output/lbench.json`. See
//! `README.md` beside this package for what each number means.

mod bench;
mod compare;
mod gen;
mod json;
mod probes;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bench::{set_up, Ctx, Sizes, Workload};
use json::Value;
use report::{cells_json, Cell, RunResult};

const USAGE: &str = "\
usage: lbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
       lbench --compare A.json B.json
  --workload NAME  one of oltp_update, htap_scan, cold_scan, durable_commit, serve_multiget;
                   the last line printed is then the result as one JSON object.
                   Without it all five run, then the reference cell.
  --seed N         every input is a pure function of N (default 1)
  --seconds S      length of the measuring window (default 12; 1 with --smoke)
  --trace [0|1]    1: the traced pass (span recorder on in every second slice of the
                   window, probe loops, per-layer metrics) instead of the end-to-end pass
  --smoke          20 000 rows instead of 1 000 000
  --out FILE       result file to append to (default bench-output/lbench.json)
  --compare A B    judge result file B against A by the bounds in BENCHMARK.json";

/// Set-ups per end-to-end run, each measured for a quarter of the window;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 4;
const OUTPUT_DIR: &str = "bench-output";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            seed: 1,
            ..Args::default()
        };
        let mut it = args.into_iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    out.workload =
                        Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.1..=600.0).contains(&s) {
                        return Err(format!("--seconds {s} is outside 0.1..600"));
                    }
                    out.seconds = Some(s);
                }
                "--trace" => {
                    let next = it.peek().map(String::as_str);
                    out.trace = next != Some("0");
                    if matches!(next, Some("0" | "1")) {
                        it.next();
                    }
                }
                "--smoke" => out.smoke = true,
                "--out" => out.out = Some(value("a file")?.into()),
                "--compare" => {
                    out.compare = Some((value("two files")?.into(), value("two files")?.into()));
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }
}

/// Removes the run's scratch directory when the run ends, also by a panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the run was made.
fn environment() -> Vec<(&'static str, Value)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    vec![
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        ("nproc", Value::Num(cores as f64)),
        ("unix_time", Value::Num(unix as f64)),
    ]
}

/// One pass of one workload: set up, measure a window, check, report.
fn run(ctx: &Ctx, workload: Workload, trace: bool, smoke: bool) -> RunResult {
    let wall = Instant::now();
    println!(
        "== {} seed={} seconds={} rows={} trace={}",
        workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.sizes.rows,
        u8::from(trace)
    );
    println!("   {}", workload.shape());
    let initial = gen::initial_rows(ctx.seed, ctx.sizes.rows);

    // An end-to-end run sets up several times, which gives `setup_s` a
    // median, and measures a share of the window on each database: what
    // differs from one database to the next (memory layout, hash seeds)
    // then averages out inside a run instead of showing between runs.
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let part = Ctx {
        seconds: ctx.seconds / repeats as f64,
        ..ctx.clone()
    };
    // The driver's copy of the table: what set-up loads, then changes.
    let mut current = Vec::new();
    let mut setups = Vec::new();
    let mut loaded = None;
    let mut pooled: Option<workloads::Measured> = None;
    for slot in 0..repeats {
        drop(loaded.take());
        current.clone_from(&initial);
        let timer = Instant::now();
        let fresh = set_up(ctx, workload, slot, &mut current);
        setups.push(timer.elapsed().as_secs_f64());
        if workload == Workload::ColdScan && pooled.is_none() {
            if let Some(store) = fresh.db.store_stats() {
                println!(
                    "   pool budget {} pages, {} pages sealed by the load",
                    ctx.sizes.pool_pages, store.writebacks
                );
            }
        }
        let m = workloads::measure(&part, workload, &fresh, &mut current, trace);
        match &mut pooled {
            Some(all) => all.append(m),
            None => pooled = Some(m),
        }
        loaded = Some(fresh);
    }
    drop(initial);
    let (loaded, mut m) = (loaded.expect("one set-up"), pooled.expect("one window"));

    let (attempted, failed, wrong) = report::counts(&m);
    let (metrics, cells) = if trace {
        let probes = probes::run(ctx, &loaded, &current, smoke);
        let (metrics, table) = report::per_layer(ctx, workload, &m, probes);
        report::print_span_table(&table);
        report::print_cells("per-layer", &metrics);
        let path = Path::new(OUTPUT_DIR).join(format!("lbench-trace-{}.jsonl", workload.name()));
        let kept: Vec<&[trace::Span]> = m.spans.iter().map(|s| trace::file_share(s)).collect();
        match trace::write_jsonl(&path, &kept) {
            Ok(()) => println!(
                "  wrote {} of {} recorded spans to {}",
                kept.iter().map(|s| s.len()).sum::<usize>(),
                m.spans.iter().map(Vec::len).sum::<usize>(),
                path.display()
            ),
            Err(e) => eprintln!("lbench: cannot write {}: {e}", path.display()),
        }
        (metrics, Vec::new())
    } else {
        let (metrics, cells) = report::end_to_end(ctx, workload, &mut m, stats::median(&setups));
        report::print_cells("end-to-end", &metrics);
        report::print_cells("diagnostics", &cells);
        (metrics, cells)
    };
    println!(
        "  attempted {attempted}, failed {failed}, wrong answers {wrong}, wall {:.1} s",
        wall.elapsed().as_secs_f64()
    );
    drop(loaded);
    RunResult {
        workload: workload.name(),
        trace,
        attempted,
        failed,
        wrong,
        metrics,
        cells,
        slices: m.primary.all_rates(),
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// Append the runs to the result file (a JSON object with a `runs` list).
fn record(path: &Path, args: &Args, ctx: &Ctx, results: &[RunResult]) -> Result<(), String> {
    let mut runs = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
        .and_then(|v| v.get("runs").map(|r| r.as_arr().to_vec()))
        .unwrap_or_default();
    let env = environment();
    for r in results {
        let mut fields = vec![
            ("workload", Value::str(r.workload)),
            ("seed", Value::Num(ctx.seed as f64)),
            ("seconds", Value::Num(ctx.seconds)),
            ("rows", Value::Num(ctx.sizes.rows as f64)),
            ("trace", Value::Bool(r.trace)),
            ("smoke", Value::Bool(args.smoke)),
        ];
        fields.extend(env.iter().cloned());
        fields.extend([
            ("wall_s", Value::Num(r.wall_s)),
            ("correct", Value::Bool(r.correct())),
            ("attempted", Value::Num(r.attempted as f64)),
            ("failed", Value::Num((r.failed + r.wrong) as f64)),
            ("metrics", cells_json(&r.metrics)),
            ("cells", cells_json(&r.cells)),
            (
                "slices",
                Value::Arr(r.slices.iter().map(|&v| Value::Num(v)).collect()),
            ),
        ]);
        runs.push(Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = format!("{}\n", Value::obj([("runs", Value::Arr(runs))]));
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        let judged = read_json(Path::new("BENCHMARK.json"))
            .and_then(|spec| compare::compare(&spec, &read_json(a)?, &read_json(b)?));
        return match judged {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("lbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    let scratch = Scratch(Path::new(OUTPUT_DIR).join(format!("lbench-{}", std::process::id())));
    let ctx = Ctx {
        clock: trace::Clock::start(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 12.0 }),
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        dir: scratch.0.clone(),
    };
    let wall = Instant::now();
    let mut results: Vec<RunResult> = match args.workload {
        Some(w) => vec![run(&ctx, w, args.trace, args.smoke)],
        None => Workload::ALL
            .into_iter()
            .map(|w| run(&ctx, w, args.trace, args.smoke))
            .collect(),
    };
    if args.workload.is_none() {
        results.push(derived(&ctx, &results, args.trace, wall));
    }
    drop(scratch);

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUTPUT_DIR).join("lbench.json"));
    match record(&out, &args, &ctx, &results) {
        Ok(()) => println!("recorded {} run(s) in {}", results.len(), out.display()),
        Err(e) => eprintln!("lbench: cannot record the run: {e}"),
    }
    if args.workload.is_some() {
        println!("{}", results[0].contract_line());
    }
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("lbench: wrong answers, see above");
        ExitCode::from(1)
    }
}

/// Cells that need more than one workload: after the end-to-end passes the
/// reference cell on the baseline engine, after the traced passes the
/// commit wait seen in the windows themselves.
fn derived(ctx: &Ctx, results: &[RunResult], trace: bool, wall: Instant) -> RunResult {
    let metric = |workload: Workload, name: &str| {
        results
            .iter()
            .find(|r| r.workload == workload.name())
            .and_then(|r| r.metrics.iter().find(|c| c.name == name))
            .map_or(0.0, |c| c.value)
    };
    let mut wrong = 0;
    let cells = if trace {
        let wait_ns = metric(Workload::DurableCommit, "commit.commit_ns")
            - metric(Workload::OltpUpdate, "commit.commit_ns");
        vec![Cell::new("wal.commit_wait_us.windows", wait_ns / 1e3, "us")]
    } else {
        println!("== reference: oltp_update's traffic on In-place Update + History");
        let (iuh, agrees) = reference::iuh_txn_per_s(ctx);
        wrong += u64::from(!agrees);
        let ours = metric(Workload::OltpUpdate, "ops_per_s");
        vec![
            Cell::new("ref.iuh_txn_per_s", iuh, "1/s"),
            Cell::new(
                "ref.lstore_vs_iuh",
                if iuh > 0.0 { ours / iuh } else { 0.0 },
                "ratio",
            ),
        ]
    };
    report::print_cells("derived", &cells);
    println!("total wall {:.1} s", wall.elapsed().as_secs_f64());
    RunResult {
        workload: "derived",
        trace,
        attempted: 1,
        failed: 0,
        wrong,
        metrics: Vec::new(),
        cells,
        slices: Vec::new(),
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_command_line_and_the_bare_trace_flag() {
        let a = parse("--workload htap_scan --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::HtapScan));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), true));
        assert!(
            !parse("--workload htap_scan --trace 0 --seed 3")
                .unwrap()
                .trace
        );
        let bare = parse("--trace --smoke").unwrap();
        assert!(bare.trace && bare.smoke && bare.workload.is_none());
        assert_eq!(bare.seed, 1);
        assert!(parse("--trace --seed 5").unwrap().trace);
        let c = parse("--compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--compare a.json",
            "--fast",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
