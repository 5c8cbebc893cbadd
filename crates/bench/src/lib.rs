//! # afd-bench
//!
//! Criterion benchmarks for the AFD measure study. The benches live in
//! `benches/`; this library only hosts shared fixture builders, sample
//! statistics and the host facts a `BENCH_*.json` records, so the bench
//! targets and `record_*` examples stay small.

use afd_relation::{AttrId, AttrSet, ContingencyTable, Relation};
use afd_synth::{generate_positive, GenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic noisy-FD relation of `n` rows (the Table V workload
/// shape: |dom(X)| = n/8, |dom(Y)| = n/32, 1% errors).
pub fn fixture_relation(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = GenParams::sample_with_rows(n, &mut rng);
    p.dom_x = (n / 8).max(4);
    p.dom_y = (n / 32).max(3);
    p.error_rate = 0.01;
    generate_positive(&p, &mut rng).0
}

/// The contingency table of `X -> Y` on [`fixture_relation`].
pub fn fixture_table(n: usize, seed: u64) -> ContingencyTable {
    let rel = fixture_relation(n, seed);
    ContingencyTable::from_relation(
        &rel,
        &AttrSet::single(AttrId(0)),
        &AttrSet::single(AttrId(1)),
    )
}

/// The median of `samples`: the middle element after sorting (the
/// upper middle for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median<T: Ord + Copy>(mut samples: Vec<T>) -> T {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The machine and source a bench ran on, as every `BENCH_*.json`
/// records them: the core count, the CPU model and the git revision
/// (`-dirty` when the checkout has uncommitted changes; `unknown` when
/// `/proc/cpuinfo` or git is missing). The same facts perfbench records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Available parallelism.
    pub cores: usize,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu: String,
    /// `git describe --always --dirty --abbrev=40` of the working
    /// directory.
    pub git_rev: String,
}

impl Host {
    /// Reads the facts of the running host and checkout.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let git_rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=40"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            git_rev,
        }
    }

    /// The facts as JSON object members, each on its own line indented
    /// by two spaces and followed by a comma.
    pub fn json_fields(&self) -> String {
        format!(
            "  \"cores\": {},\n  \"cpu\": {},\n  \"git_rev\": {},\n",
            self.cores,
            json_str(&self.cpu),
            json_str(&self.git_rev)
        )
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_fields_are_json_members() {
        let host = Host {
            cores: 2,
            cpu: "Xeon \"E5\" \\ 2.2GHz".to_string(),
            git_rev: "abc-dirty".to_string(),
        };
        assert_eq!(
            host.json_fields(),
            "  \"cores\": 2,\n  \"cpu\": \"Xeon \\\"E5\\\" \\\\ 2.2GHz\",\n  \"git_rev\": \"abc-dirty\",\n"
        );
        assert!(Host::detect().cores >= 1);
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(vec![3, 1, 2]), 2);
        assert_eq!(median(vec![4, 1, 3, 2]), 3);
        assert_eq!(median(vec![7u64]), 7);
    }

    #[test]
    fn fixtures_have_requested_shape() {
        let t = fixture_table(1024, 1);
        assert_eq!(t.n(), 1024);
        assert!(t.n_x() <= 128);
        assert!(!t.is_exact_fd());
    }
}
