//! `profile`: AFD-profile an arbitrary CSV file — the library's
//! user-facing data-profiling mode.
//!
//! Reads a CSV (header + rows, empty fields = NULL), ranks every violated
//! linear candidate under a chosen measure, reports the exact FDs
//! separately, and optionally runs the non-linear lattice search.

use std::fs::File;
use std::io::BufReader;

use afd_engine::{linear_candidates, AfdEngine, DiscoverRequest};
use afd_relation::{lhs_uniqueness, rhs_skew};

use crate::render::{f3, TextTable};

/// Options of the `profile` subcommand.
pub struct ProfileOptions {
    /// CSV file to profile.
    pub path: String,
    /// Measure name (default `mu+`).
    pub measure: String,
    /// Minimum score to report.
    pub epsilon: f64,
    /// Maximum number of ranked AFDs to print.
    pub top: usize,
    /// Maximum LHS size; > 1 enables the lattice search.
    pub max_lhs: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            path: String::new(),
            measure: "mu+".into(),
            epsilon: 0.5,
            top: 25,
            max_lhs: 1,
        }
    }
}

/// Parses `profile` arguments: `<file.csv> [--measure m] [--epsilon e]
/// [--top n] [--max-lhs k]`.
pub fn parse_profile_args(args: &[String]) -> Result<ProfileOptions, String> {
    let mut opts = ProfileOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--measure" => {
                i += 1;
                opts.measure = args.get(i).ok_or("--measure needs a value")?.clone();
            }
            "--epsilon" => {
                i += 1;
                opts.epsilon = args
                    .get(i)
                    .ok_or("--epsilon needs a value")?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?;
            }
            "--top" => {
                i += 1;
                opts.top = args
                    .get(i)
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--max-lhs" => {
                i += 1;
                opts.max_lhs = args
                    .get(i)
                    .ok_or("--max-lhs needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-lhs: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => {
                if !opts.path.is_empty() {
                    return Err(format!("unexpected argument {positional}"));
                }
                opts.path = positional.to_string();
            }
        }
        i += 1;
    }
    if opts.path.is_empty() {
        return Err("profile needs a CSV file argument".into());
    }
    if !(0.0..1.0).contains(&opts.epsilon) {
        return Err("--epsilon must be in [0, 1)".into());
    }
    Ok(opts)
}

/// Runs the profiler — every question goes through the engine front door.
pub fn profile(opts: &ProfileOptions) -> Result<(), String> {
    let file = File::open(&opts.path).map_err(|e| format!("{}: {e}", opts.path))?;
    let mut engine = AfdEngine::from_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    let schema = engine.schema().clone();
    println!(
        "{}: {} rows x {} attributes",
        opts.path,
        engine.n_live(),
        schema.arity()
    );

    // Ranked AFDs via threshold discovery (also validates the measure
    // name as a typed error instead of a lookup-and-format here).
    let ranked = engine
        .discover(&DiscoverRequest {
            measure: opts.measure.clone(),
            epsilon: opts.epsilon,
            max_lhs: 1,
        })
        .map_err(|e| e.to_string())?
        .found;
    // Optional non-linear search (response carries the lattice's
    // per-level search statistics).
    let nonlinear = if opts.max_lhs > 1 {
        Some(
            engine
                .discover(&DiscoverRequest {
                    measure: opts.measure.clone(),
                    epsilon: opts.epsilon,
                    max_lhs: opts.max_lhs,
                })
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let rel = engine.snapshot().map_err(|e| e.to_string())?;

    // Exact FDs (found by definition, not by ranking).
    let exact: Vec<_> = linear_candidates(rel)
        .into_iter()
        .filter(|fd| fd.holds_in(rel))
        .collect();
    println!("\nexact linear FDs ({}):", exact.len());
    for fd in exact.iter().take(opts.top) {
        println!("  {}", fd.display(&schema));
    }
    if exact.len() > opts.top {
        println!("  ... and {} more", exact.len() - opts.top);
    }

    let mut table = TextTable::new(["#", "AFD", &opts.measure, "lhs_uniq", "rhs_skew"]);
    for (i, d) in ranked.iter().take(opts.top).enumerate() {
        table.row([
            (i + 1).to_string(),
            d.fd.display(&schema).to_string(),
            f3(d.score),
            f3(lhs_uniqueness(rel, d.fd.lhs())),
            f3(rhs_skew(rel, d.fd.rhs().ids()[0])),
        ]);
    }
    println!(
        "\napproximate linear FDs with {} >= {} (top {}):",
        opts.measure, opts.epsilon, opts.top
    );
    table.print();

    if let Some(resp) = nonlinear {
        let nonlinear: Vec<_> = resp.found.iter().filter(|d| !d.fd.is_linear()).collect();
        println!(
            "\nminimal non-linear AFDs (|LHS| <= {}, {} >= {}):",
            opts.max_lhs, opts.measure, opts.epsilon
        );
        for d in nonlinear.iter().take(opts.top) {
            println!(
                "  {:<40} {}",
                d.fd.display(&schema).to_string(),
                f3(d.score)
            );
        }
        if nonlinear.is_empty() {
            println!("  (none)");
        }
        if let Some(stats) = &resp.lattice {
            println!(
                "  lattice: {} candidates evaluated, peak node storage {} bytes",
                stats.total_candidates(),
                stats.peak_node_bytes
            );
            for lvl in &stats.levels {
                println!(
                    "    level {}: {} candidates, {} pruned, {} emitted, {} exact, {} open, {} stored rows",
                    lvl.level,
                    lvl.candidates,
                    lvl.pruned,
                    lvl.emitted,
                    lvl.exact,
                    lvl.open,
                    lvl.stored_rows
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positional_and_flags() {
        let o = parse_profile_args(&args(&[
            "data.csv",
            "--measure",
            "g3'",
            "--epsilon",
            "0.8",
            "--top",
            "5",
            "--max-lhs",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.path, "data.csv");
        assert_eq!(o.measure, "g3'");
        assert_eq!(o.epsilon, 0.8);
        assert_eq!(o.top, 5);
        assert_eq!(o.max_lhs, 2);
    }

    #[test]
    fn rejects_missing_file_and_bad_epsilon() {
        assert!(parse_profile_args(&args(&[])).is_err());
        assert!(parse_profile_args(&args(&["f.csv", "--epsilon", "1.5"])).is_err());
        assert!(parse_profile_args(&args(&["a.csv", "b.csv"])).is_err());
        assert!(parse_profile_args(&args(&["f.csv", "--bogus"])).is_err());
    }

    #[test]
    fn profile_runs_on_a_real_file() {
        let dir = std::env::temp_dir().join("afd_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut csv = String::from("zip,city,state\n");
        for i in 0..50 {
            let zip = 10 + i % 5;
            let city = if i == 3 { 99 } else { zip * 2 };
            csv.push_str(&format!("{zip},{city},{}\n", zip % 2));
        }
        std::fs::write(&path, csv).unwrap();
        let opts = ProfileOptions {
            path: path.to_string_lossy().into_owned(),
            max_lhs: 2,
            ..ProfileOptions::default()
        };
        profile(&opts).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_measure_is_an_error() {
        let opts = ProfileOptions {
            path: "nonexistent.csv".into(),
            measure: "nope".into(),
            ..ProfileOptions::default()
        };
        assert!(profile(&opts).is_err());
    }
}
