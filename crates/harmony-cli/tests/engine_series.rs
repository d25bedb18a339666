//! A local `tune` moves its engine's series like a daemon session does:
//! one evaluation per explored configuration, sequential or with
//! `--jobs`. The series are process-global, so this is the only test in
//! its binary.

use harmony::obs::engine_evaluations_total;
use harmony_cli::{commands, parse_args};

#[test]
fn a_local_tune_moves_its_engine_series() {
    let dir = std::env::temp_dir().join("harmony-cli-engine-series");
    std::fs::create_dir_all(&dir).unwrap();
    let rsl = dir.join("space.rsl");
    std::fs::write(
        &rsl,
        "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 8 1} }}\n",
    )
    .unwrap();
    let cmd = "echo $((100 - (HARMONY_B-3)*(HARMONY_B-3) - (HARMONY_C-4)*(HARMONY_C-4)))";
    let evaluations = engine_evaluations_total("simplex");
    for jobs in ["1", "2"] {
        let args: Vec<String> = [
            "tune",
            rsl.to_str().unwrap(),
            "--iterations",
            "30",
            "--jobs",
            jobs,
            "--",
            "sh",
            "-c",
            cmd,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let before = evaluations.get();
        let out = commands::run(parse_args(&args).unwrap().command).unwrap();
        let explored: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("explored ")?.split(' ').next()?.parse().ok())
            .expect("the report names the configurations explored");
        assert!(explored > 5, "the run must explore: {out}");
        assert_eq!(evaluations.get() - before, explored, "--jobs {jobs}");
    }
}
