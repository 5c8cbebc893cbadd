//! How to launch a framed child process — the spawn recipe
//! [`crate::StdioTransport`] keeps so it can relaunch (reconnect) a dead
//! incarnation.

use std::path::{Path, PathBuf};

/// How to launch a shard-worker process: the program, its leading
/// arguments (defaults to the `afd` CLI's `shard-worker` subcommand),
/// and extra environment variables (afd-stream's fault-injection
/// harness rides in on `AFD_WORKER_FAULTS`).
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A worker launched as `<program> shard-worker`.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: vec!["shard-worker".into()],
            envs: Vec::new(),
        }
    }

    /// Adds an environment variable for the worker process (replacing
    /// an earlier binding of the same key).
    #[must_use]
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        self.envs.retain(|(k, _)| *k != key);
        self.envs.push((key, value.into()));
        self
    }

    /// Drops an environment binding. afd-stream's supervisor strips its
    /// fault-injection hook on respawn so an injected fault fires at
    /// most once per plan, not once per incarnation.
    pub fn remove_env(&mut self, key: &str) {
        self.envs.retain(|(k, _)| k != key);
    }

    /// The worker program.
    pub fn program(&self) -> &Path {
        &self.program
    }

    /// The worker's arguments.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// The worker's extra environment bindings.
    pub fn envs(&self) -> &[(String, String)] {
        &self.envs
    }

    /// Locates a binary named `name` next to (or a couple of directories
    /// above) the current executable — how benches and examples find the
    /// workspace's own `afd` binary inside `target/<profile>/` without
    /// an installed copy.
    pub fn sibling_binary(name: &str) -> Option<Self> {
        let exe = std::env::current_exe().ok()?;
        let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
        let mut dir = exe.parent();
        for _ in 0..3 {
            let d = dir?;
            let cand = d.join(&file);
            if cand.is_file() {
                return Some(WorkerCommand::new(cand));
            }
            dir = d.parent();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_binary_misses_cleanly() {
        assert!(WorkerCommand::sibling_binary("no-such-binary-here").is_none());
    }

    #[test]
    fn worker_command_env_bindings() {
        let mut cmd = WorkerCommand::new("afd")
            .with_env("A", "1")
            .with_env("A", "2")
            .with_env("B", "3");
        assert_eq!(
            cmd.envs(),
            &[
                ("A".to_string(), "2".to_string()),
                ("B".to_string(), "3".to_string())
            ]
        );
        cmd.remove_env("A");
        assert_eq!(cmd.envs(), &[("B".to_string(), "3".to_string())]);
        cmd.remove_env("not-there");
        assert_eq!(cmd.envs().len(), 1);
    }
}
