//! Measuring an external command.

use harmony_space::{Configuration, ParameterSpace};
use std::fmt;
use std::process::Command;

/// Errors from one external measurement.
#[derive(Debug)]
pub enum MeasureError {
    /// Spawning the command failed.
    Spawn(std::io::Error),
    /// The command exited unsuccessfully.
    Failed {
        /// Exit status description.
        status: String,
        /// Captured stderr (truncated).
        stderr: String,
    },
    /// Stdout's last non-empty line did not parse as a finite number
    /// (`NaN` and the infinities are refused: the search cannot rank
    /// them, and the experience database cannot store them).
    BadOutput(String),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Spawn(e) => write!(f, "failed to run measurement command: {e}"),
            MeasureError::Failed { status, stderr } => {
                write!(f, "measurement command failed ({status}): {stderr}")
            }
            MeasureError::BadOutput(line) => {
                write!(f, "measurement output is not a number: {line:?}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// An objective that measures configurations by running an external
/// command with `HARMONY_<NAME>=<value>` environment variables and reading
/// the last non-empty stdout line as the performance.
///
/// [`measure_once`](Self::measure_once) returns a [`MeasureError`]
/// describing exactly what went wrong (spawn failure, non-zero exit with
/// captured stderr, unparseable output), and every caller — the tuning
/// loops and the sensitivity sweep — stops at that error instead of
/// feeding a sentinel value into the search.
pub struct ExternalObjective {
    space: ParameterSpace,
    command: Vec<String>,
}

impl ExternalObjective {
    /// Build from the tuning space (for variable names) and the command
    /// line.
    ///
    /// # Panics
    /// Panics if `command` is empty.
    pub fn new(space: ParameterSpace, command: Vec<String>) -> Self {
        assert!(!command.is_empty(), "measurement command must not be empty");
        ExternalObjective { space, command }
    }

    /// Environment variable name for a parameter.
    pub fn env_name(param: &str) -> String {
        let sanitized: String = param
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_uppercase()
                } else {
                    '_'
                }
            })
            .collect();
        format!("HARMONY_{sanitized}")
    }

    /// One measurement.
    pub fn measure_once(&self, cfg: &Configuration) -> Result<f64, MeasureError> {
        let mut cmd = Command::new(&self.command[0]);
        cmd.args(&self.command[1..]);
        for (p, &v) in self.space.params().iter().zip(cfg.values()) {
            cmd.env(Self::env_name(p.name()), v.to_string());
        }
        let out = cmd.output().map_err(MeasureError::Spawn)?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(MeasureError::Failed {
                status: out.status.to_string(),
                stderr: stderr.chars().take(300).collect(),
            });
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .rev()
            .map(str::trim)
            .find(|l| !l.is_empty())
            .unwrap_or("");
        match line.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(MeasureError::BadOutput(line.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_space::ParamDef;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::int("buf-size", 1, 10, 5, 1))
            .param(ParamDef::int("Threads", 1, 4, 2, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn env_names_are_sanitized() {
        assert_eq!(ExternalObjective::env_name("buf-size"), "HARMONY_BUF_SIZE");
        assert_eq!(ExternalObjective::env_name("Threads"), "HARMONY_THREADS");
    }

    #[test]
    fn measures_via_environment_variables() {
        // The "system" computes buf - threads in shell.
        let obj = ExternalObjective::new(
            space(),
            vec![
                "sh".into(),
                "-c".into(),
                "echo note: warming up; echo $((HARMONY_BUF_SIZE - HARMONY_THREADS))".into(),
            ],
        );
        let v = obj.measure_once(&Configuration::new(vec![7, 3])).unwrap();
        assert_eq!(v, 4.0);
    }

    #[test]
    fn last_nonempty_line_wins() {
        let obj = ExternalObjective::new(
            space(),
            vec!["sh".into(), "-c".into(), "printf '1\\n2.5\\n\\n'".into()],
        );
        let v = obj.measure_once(&Configuration::new(vec![1, 1])).unwrap();
        assert_eq!(v, 2.5);
    }

    #[test]
    fn failure_modes_are_reported() {
        let obj = ExternalObjective::new(space(), vec!["sh".into(), "-c".into(), "exit 3".into()]);
        assert!(matches!(
            obj.measure_once(&Configuration::new(vec![1, 1])),
            Err(MeasureError::Failed { .. })
        ));

        for output in ["not-a-number", "inf", "-inf", "NaN"] {
            let obj = ExternalObjective::new(
                space(),
                vec!["sh".into(), "-c".into(), format!("echo {output}")],
            );
            assert!(
                matches!(
                    obj.measure_once(&Configuration::new(vec![1, 1])),
                    Err(MeasureError::BadOutput(_))
                ),
                "{output}"
            );
        }

        let obj = ExternalObjective::new(space(), vec!["/nonexistent/tool".into()]);
        assert!(matches!(
            obj.measure_once(&Configuration::new(vec![1, 1])),
            Err(MeasureError::Spawn(_))
        ));
    }

    #[test]
    fn tuning_an_external_command_end_to_end() {
        use harmony::prelude::*;
        // Optimum at buf=8, threads=2: perf = 100 - (buf-8)^2 - 5*(threads-2)^2.
        let obj = ExternalObjective::new(
            space(),
            vec![
                "sh".into(),
                "-c".into(),
                "echo $((100 - (HARMONY_BUF_SIZE-8)*(HARMONY_BUF_SIZE-8) - 5*(HARMONY_THREADS-2)*(HARMONY_THREADS-2)))".into(),
            ],
        );
        let mut session =
            Tuner::new(space(), TuningOptions::improved().with_max_iterations(60)).session();
        let out = harmony::engine::drive(&mut session, |c| obj.measure_once(c)).unwrap();
        assert_eq!(
            out.best_performance, 100.0,
            "best {}",
            out.best_configuration
        );
        assert_eq!(out.best_configuration.values(), &[8, 2]);
    }
}
