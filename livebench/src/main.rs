//! Closed-loop benchmark of the live Corona servers.
//!
//! Runs one workload (`bcast`, `replicated`, `join`) against real
//! servers over loopback TCP and prints its metrics; the last line of
//! standard output is one JSON object. See `README.md` beside this
//! package for the workloads, the metrics and how to run them.
//!
//! ```text
//! livebench --workload <bcast|replicated|join|all> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod drive;
mod gen;
mod member;
mod replay;
mod report;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?;
    if workload != "all" && !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, not {n}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            eprintln!(
                "usage: livebench --workload <bcast|replicated|join|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if sys::nproc() < workload::MEMBERS {
        eprintln!("livebench: needs at least 2 CPUs (one generator thread per connection)");
        return ExitCode::from(2);
    }
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("livebench: work directory {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = workload::RunCtx {
        seed: args.seed,
        work,
    };
    // Every round is sized to take about a second on a 2-CPU machine;
    // the run makes a fixed number of them, so its work does not
    // depend on how fast the program is.
    let rounds = usize::try_from(args.seconds).unwrap_or(usize::MAX);
    let correct = report::run(&ctx, &args.workload, rounds, args.trace);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, one child process each so
/// that no run inherits another's heap or peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("livebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in workload::WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {w} (trace {trace})");
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
