//! Shared helpers for the cross-crate integration tests (see `tests/`).

use harmony::objective::Objective;
use harmony_space::Configuration;
use harmony_websim::{Fidelity, WebServiceSystem, WorkloadMix};

/// Objective adapter over the simulated web service.
pub struct WebObjective(pub WebServiceSystem);

impl WebObjective {
    /// Analytic fidelity with optional noise.
    pub fn analytic(mix: WorkloadMix, noise: f64, seed: u64) -> Self {
        WebObjective(WebServiceSystem::new(mix, Fidelity::Analytic, noise, seed))
    }
}

impl Objective for WebObjective {
    fn measure(&mut self, cfg: &Configuration) -> f64 {
        self.0.evaluate(cfg)
    }
}

/// Run `body` in a process where no other test runs. Metric series are
/// process-global and the tests of one binary run in parallel, so a test
/// that asserts exact counts re-runs itself as the only test of a child
/// process of its binary, and the child — started with `--exact` — runs
/// the body. `test` is the test function's name.
pub fn alone(test: &str, body: impl FnOnce()) {
    if std::env::args().any(|arg| arg == "--exact") {
        return body();
    }
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--nocapture"])
        .output()
        .expect("the test binary runs again");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("1 passed"),
        "{test}, run alone:\n{stdout}{}",
        String::from_utf8_lossy(&child.stderr)
    );
}
