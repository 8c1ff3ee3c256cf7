//! End-to-end tests of the `slb` binary: exit codes and usage output for
//! bad invocations, plus one smoke run per subcommand.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn slb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slb"))
        .args(args)
        .output()
        .expect("failed to launch slb")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = slb(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE:"), "stderr: {}", stderr(&out));
}

#[test]
fn help_succeeds_and_prints_usage() {
    for flag in ["--help", "-h", "help"] {
        let out = slb(&[flag]);
        assert!(out.status.success(), "`slb {flag}` must exit zero");
        assert!(stdout(&out).contains("USAGE:"));
        assert!(stdout(&out).contains("simulate"));
    }
}

#[test]
fn per_subcommand_help_is_boolean_and_succeeds() {
    for cmd in ["simulate", "spectral", "bounds", "sweep", "serve"] {
        let out = slb(&[cmd, "--help"]);
        assert!(out.status.success(), "`slb {cmd} --help` must exit zero");
        assert!(stdout(&out).contains("USAGE:"), "stdout: {}", stdout(&out));
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = slb(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command"), "stderr: {err}");
    assert!(err.contains("USAGE:"));
}

#[test]
fn bad_flag_values_fail_nonzero() {
    // Non-token argument where a `key=value` token is expected.
    let out = slb(&["simulate", "oops"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("expected a grid token key=value"));

    // Token missing its value: rejected by the reader (not a panic).
    let out = slb(&["simulate", "graph="]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("empty value in `graph=`"));

    // Duplicated key.
    let out = slb(&words("simulate graph=ring:4 graph=ring:8"));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("given twice"));

    // Unparsable numeric value.
    let out = slb(&["simulate", "tasks-per-node=many"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("invalid tasks-per-node `many`"));

    // A numeric flag without its value reads as `true`; a non-numeric
    // value is named back. Both go through the flag parser, not the
    // token reader.
    let out = slb(&["simulate", "--seed"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid value `true` for --seed"));
    let out = slb(&["simulate", "--seed", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid value `many` for --seed"));
    let out = slb(&words("simulate --seed 1 --seed 2"));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("given twice"));

    // Misspelled flag on a one-cell subcommand.
    let out = slb(&["simulate", "--sede", "7"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag --sede"));

    // The flags of the retired flag grammar are unknown flags now.
    for flag in [
        "family",
        "n",
        "rows",
        "cols",
        "d",
        "tasks-per-node",
        "protocol",
        "speeds",
        "weights",
        "until",
    ] {
        let out = slb(&["simulate", &format!("--{flag}"), "4"]);
        assert_eq!(out.status.code(), Some(1), "--{flag}");
        assert!(
            stderr(&out).contains(&format!("unknown flag --{flag}\n")),
            "--{flag}: {}",
            stderr(&out)
        );
    }
    let out = slb(&["simulate", "--family", "ring"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown flag --family"));

    // Unknown topology family.
    let out = slb(&["spectral", "graph=blob:4"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown graph family"));

    // Inverted weights range must fail cleanly, not panic.
    let out = slb(&words("simulate graph=ring:4 weights=uniform:5..2"));
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "must exit 1, not panic");
    assert!(stderr(&out).contains("invalid simulate grid: weights range"));

    // A grid-grammar error names the command.
    let out = slb(&["simulate", "speeds=alternating:0"]);
    assert_eq!(out.status.code(), Some(1), "must exit 1, not panic");
    assert!(stderr(&out).starts_with("error: invalid simulate grid: alternating speed classes"));

    // Unknown protocol.
    let out = slb(&words("simulate graph=ring:4 protocol=teleport"));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown protocol"));
}

#[test]
fn simulate_smoke_run_reaches_nash() {
    let out = slb(&words(
        "simulate graph=ring:8 tasks-per-node=8 protocol=alg1 until=nash --seed 7",
    ));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("instance : ring(n=8), m = 64"),
        "stdout: {text}"
    );
    assert!(text.contains("condition met"), "stdout: {text}");
}

#[test]
fn degenerate_sizes_fail_with_an_error_not_a_panic() {
    const ONE_NODE: &str = "has no 1-node member (need n ≥ 2)";
    const PER_TASK: &str = "past its per-task limit of 2^24 tasks";
    let cases: &[(&[&str], &str)] = &[
        (
            &["simulate", "graph=ring:2"],
            "ring needs at least three nodes",
        ),
        (
            &["spectral", "graph=torus:2x4"],
            "torus needs both dimensions at least 3",
        ),
        (
            &["bounds", "graph=hypercube:0"],
            "hypercube needs a dimension in 1..=30",
        ),
        (
            &["simulate", "tasks-per-node=0"],
            "tasks-per-node must be positive",
        ),
        (
            &["bounds", "tasks-per-node=0"],
            "tasks-per-node must be positive",
        ),
        (
            &["serve", "graph=ring:2", "horizon=2"],
            "ring needs at least three nodes",
        ),
        (
            &["serve", "graph=torus:2x5", "horizon=2"],
            "torus needs both dimensions at least 3",
        ),
        (&["spectral", "graph=path:1"], ONE_NODE),
        (&["spectral", "graph=star:1"], ONE_NODE),
        (&["spectral", "graph=complete:1"], ONE_NODE),
        (&["spectral", "graph=mesh:1x1"], ONE_NODE),
        (&words("bounds graph=path:1 tasks-per-node=4"), ONE_NODE),
        (
            &words("bounds graph=ring:16 tasks-per-node=2305843009213693952"),
            "past 2^53 tasks",
        ),
        (
            &words("simulate graph=ring:16 tasks-per-node=2305843009213693952"),
            "past 2^53 tasks",
        ),
        (
            &words("simulate --max-rounds 0"),
            "--max-rounds must be positive",
        ),
        (
            &words("simulate protocol=diffusion --max-rounds 0"),
            "--max-rounds must be positive",
        ),
        (
            &words("simulate max-rounds=0"),
            "max-rounds must be positive",
        ),
        // m = 2^53 tasks: each would otherwise try to build per-task
        // vectors and abort.
        (
            &words(
                "sweep graph=ring:8 tasks-per-node=1125899906842624 protocol=diffusion \
                 trials=1 --max-rounds 1",
            ),
            PER_TASK,
        ),
        (
            &words("validate family=ring n=4,8 load=1125899906842624 protocol=alg1,best-response"),
            PER_TASK,
        ),
        (
            &words("simulate graph=ring:8 tasks-per-node=1125899906842624 protocol=diffusion"),
            PER_TASK,
        ),
        (
            &words("simulate graph=ring:8 tasks-per-node=1125899906842624 protocol=best-response"),
            PER_TASK,
        ),
    ];
    for (args, message) in cases {
        let out = slb(args);
        assert_eq!(out.status.code(), Some(1), "slb {args:?}");
        let err = stderr(&out);
        assert!(err.contains(message), "slb {args:?}: {err}");
        assert!(!err.contains("panicked"), "slb {args:?}: {err}");
    }
}

/// Every subcommand reads its tokens through the one reader: a token
/// without `=`, a repeated key, an empty value and an unknown key each
/// exit 1 with the command's grammar named on stderr.
#[test]
fn every_command_rejects_malformed_tokens_through_one_reader() {
    // (command, a valid token, error prefix, grammar, unknown-key noun)
    let commands = [
        (
            "simulate",
            "graph=ring:8",
            "invalid simulate grid",
            "grid",
            "simulate",
        ),
        (
            "spectral",
            "graph=ring:8",
            "invalid spectral grid",
            "grid",
            "spectral",
        ),
        (
            "bounds",
            "graph=ring:8",
            "invalid bounds grid",
            "grid",
            "bounds",
        ),
        (
            "sweep",
            "graph=ring:8",
            "invalid sweep grid",
            "grid",
            "grid",
        ),
        (
            "validate",
            "family=ring",
            "invalid validate ladder",
            "ladder",
            "ladder",
        ),
        (
            "serve",
            "graph=ring:8",
            "invalid serve spec",
            "serve",
            "serve",
        ),
    ];
    for (command, valid, prefix, grammar, noun) in commands {
        let key = valid.split_once('=').unwrap().0;
        let empty = format!("{key}=");
        let cases = [
            (
                vec!["oops"],
                format!("expected a {grammar} token key=value[,value…], got `oops`"),
            ),
            (
                vec![valid, valid],
                format!("{grammar} key `{key}` given twice"),
            ),
            (vec![empty.as_str()], format!("empty value in `{key}=`")),
            (vec!["bogus=1"], format!("unknown {noun} key `bogus`")),
        ];
        for (tokens, needle) in cases {
            let mut args = vec![command];
            args.extend(&tokens);
            let out = slb(&args);
            assert_eq!(out.status.code(), Some(1), "slb {args:?}");
            let err = stderr(&out);
            assert!(
                err.starts_with(&format!("error: {prefix}: {needle}")),
                "slb {args:?}: {err}"
            );
        }
    }
}

#[test]
fn oversized_graphs_fail_with_exit_one_not_an_abort() {
    // Each would otherwise try to allocate tens or hundreds of gigabytes.
    const LIMIT: &str = "past the size limit of 2^24 nodes and 2^24 edges";
    for args in [
        words("sweep graph=complete:100000"),
        words("validate family=complete n=4,100000"),
        words("serve graph=complete:100000 horizon=2"),
        words("simulate graph=complete:100000"),
        words("spectral graph=hypercube:30"),
        words("simulate graph=hypercube:25"),
    ] {
        let out = slb(&args);
        assert_eq!(out.status.code(), Some(1), "slb {args:?}");
        let err = stderr(&out);
        assert!(err.contains(LIMIT), "slb {args:?}: {err}");
    }
}

#[test]
fn simulate_runs_the_count_engine_at_two_to_the_53_tasks() {
    // The start line comes from the counts, so m = 2^53 builds no
    // per-task vector and matches the one-cell sweep of the same cell.
    let out = slb(&words(
        "simulate graph=ring:8 tasks-per-node=1125899906842624 --seed 3",
    ));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("m = 9007199254740992,"), "{text}");
    assert!(text.contains("start    : Ψ₀ = "), "{text}");
    let sweep = slb(&words(
        "sweep graph=ring:8 tasks-per-node=1125899906842624 trials=1 --seed 3 --threads 1",
    ));
    assert_eq!(sweep.status.code(), Some(0), "stderr: {}", stderr(&sweep));
    let swept = stdout(&sweep);
    let mut rows = swept.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let (header, row) = (rows.next().unwrap(), rows.next().unwrap());
    let rounds = row[header.iter().position(|h| *h == "rounds_mean").unwrap()];
    assert!(
        text.contains(&format!("condition met after {rounds} rounds")),
        "simulate: {text}\nsweep: {swept}"
    );
}

#[test]
fn simulate_runs_alg1_on_weighted_tasks() {
    let out = slb(&words(
        "simulate graph=ring:6 tasks-per-node=8 protocol=alg1 weights=uniform:0.2..0.9 \
         max-rounds=50",
    ));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("result   :"), "{}", stdout(&out));

    // Continuous weights on random speeds, pinned: the start line reads
    // Ψ₀ and L_Δ off the unquantized per-task weights, and diffusion and
    // best response run per task, while alg1 runs on quantized counts
    // drawn from the same scenario stream.
    let pinned = [
        (
            "uniform:0.2..0.9",
            "alg1",
            "575.96, L_Δ = 23.323",
            "165 rounds (75",
        ),
        (
            "uniform:0.2..0.9",
            "diffusion",
            "575.96, L_Δ = 23.323",
            "24 rounds (11",
        ),
        (
            "uniform:0.2..0.9",
            "best-response",
            "575.96, L_Δ = 23.323",
            "26 rounds (92",
        ),
        (
            "power-law:1.2:0.05",
            "alg1",
            "33.35, L_Δ = 5.612",
            "86 rounds (60",
        ),
        (
            "power-law:1.2:0.05",
            "diffusion",
            "33.35, L_Δ = 5.612",
            "20 rounds (0",
        ),
        (
            "power-law:1.2:0.05",
            "best-response",
            "33.35, L_Δ = 5.612",
            "25 rounds (95",
        ),
    ];
    for (weights, protocol, start, result) in pinned {
        let mut args = words(
            "simulate graph=ring:6 tasks-per-node=8 speeds=two-class:4:0.5 until=quiescent:20 \
             --max-rounds 20000 --seed 9",
        );
        let (weights_token, protocol_token) =
            (format!("weights={weights}"), format!("protocol={protocol}"));
        args.extend([weights_token.as_str(), protocol_token.as_str()]);
        let out = stdout(&slb(&args));
        assert_eq!(
            out,
            format!(
                "instance : ring(n=6), m = 48, s_max = 4, protocol = {protocol}\n\
                 start    : Ψ₀ = {start}\n\
                 result   : condition met after {result} migrations)\n"
            ),
            "{weights} {protocol}"
        );
    }
}

#[test]
fn simulate_rejects_weights_outside_the_unit_interval_up_front() {
    // Both ranges leave (0, 1]: one above it, one touching 0. The sweep
    // grammar rejects both before any weight is sampled.
    for range in ["uniform:0.5..2", "uniform:0..0.5"] {
        let weights = format!("weights={range}");
        let out = slb(&["simulate", "graph=ring:4", &weights]);
        assert_eq!(out.status.code(), Some(1), "{weights} must exit 1");
        let err = stderr(&out);
        assert!(
            err.contains("invalid simulate grid: weights range"),
            "{range}: {err}"
        );
        assert!(err.contains("needs 0 < LO ≤ HI ≤ 1"), "{range}: {err}");
        assert!(stdout(&out).is_empty(), "{range}: nothing may run");
    }
}

/// Splits a whitespace-separated argument list.
fn words(args: &str) -> Vec<&str> {
    args.split_whitespace().collect()
}

#[test]
fn simulate_reports_what_a_one_cell_sweep_reports() {
    // Each case is one token list, fed to both commands (simulate starts
    // every task on node 0, the sweep's `hot` default). The empty list
    // pins the defaults the two commands share.
    const RING: &str = "graph=ring:6 tasks-per-node=8 max-rounds=20000";
    let cases = [
        format!("{RING} protocol=alg1 until=nash"),
        format!("{RING} protocol=alg1 weights=uniform:0.2..0.9 until=quiescent:20"),
        format!(
            "{RING} protocol=alg2 speeds=alternating:2 weights=bimodal:0.25:1:0.5 \
             until=quiescent:20"
        ),
        format!("{RING} protocol=bhs speeds=alternating:2 until=nash"),
        format!("{RING} protocol=diffusion until=quiescent:1000"),
        String::new(),
    ];
    for tokens in &cases {
        let mut args = vec!["simulate"];
        args.extend(words(tokens));
        args.extend(["--seed", "9"]);
        let simulated = stdout(&slb(&args));
        let mut args = vec!["sweep"];
        args.extend(words(tokens));
        args.extend(["trials=1", "--seed", "9"]);
        let swept = stdout(&slb(&args));
        // simulate: `result   : … after R rounds (M migrations)` or
        // `… budget of R rounds exhausted (M migrations)`.
        let result = simulated
            .lines()
            .find(|l| l.starts_with("result   :"))
            .unwrap_or_else(|| panic!("simulate {tokens}: {simulated}"));
        let simulated: Vec<f64> = result
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect();
        // sweep: the rounds_mean and migrations_mean columns of its row.
        let mut rows = swept.lines().map(|l| l.split(',').collect::<Vec<_>>());
        let (header, row) = (rows.next().unwrap(), rows.next().unwrap());
        let column = |name| row[header.iter().position(|h| *h == name).unwrap()];
        let swept: Vec<f64> = ["rounds_mean", "migrations_mean"]
            .map(|name| column(name).parse().unwrap())
            .to_vec();
        assert!(simulated[1] > 0.0, "{tokens}: the hot start must move");
        assert_eq!(simulated, swept, "simulate vs sweep of `{tokens}`");
    }
}

/// The `slb {command} …` invocations pinned in `tests/golden/spectral.txt`
/// with the stdout each printed. The file is a sequence of blocks, each a
/// `$ slb ARGS` line followed by that run's output.
fn spectral_golden(command: &str) -> Vec<(Vec<&'static str>, String)> {
    let mut blocks: Vec<(Vec<&'static str>, String)> = Vec::new();
    for line in include_str!("golden/spectral.txt").lines() {
        match line.strip_prefix("$ slb ") {
            Some(args) => blocks.push((args.split(' ').collect(), String::new())),
            None => {
                let output = &mut blocks.last_mut().expect("golden starts with `$ slb`").1;
                output.push_str(line);
                output.push('\n');
            }
        }
    }
    blocks.retain(|(args, _)| args[0] == command);
    blocks
}

/// Runs every `slb {command}` block of `tests/golden/spectral.txt` and
/// asserts its stdout byte for byte.
fn assert_spectral_golden(command: &str) {
    let blocks = spectral_golden(command);
    assert!(!blocks.is_empty(), "no `slb {command}` block in the golden");
    for (args, expected) in blocks {
        let out = slb(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(
            stdout(&out),
            expected,
            "{args:?} diverges from tests/golden/spectral.txt"
        );
    }
}

#[test]
fn spectral_smoke_run_prints_lambda2() {
    let out = slb(&["spectral", "graph=torus:3x4"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("λ₂ closed"), "stdout: {text}");
    assert!(text.contains("λ₂ numeric"), "stdout: {text}");
    assert!(text.contains("diameter"), "stdout: {text}");
    // ring:16, torus:5x5, hypercube:10, ring:300, and path, star,
    // complete and mesh at n = 384 and complete/hypercube at n = 2.
    assert_spectral_golden("spectral");
}

#[test]
fn bounds_smoke_run_prints_theorem_bounds() {
    let out = slb(&["bounds", "graph=hypercube:3", "tasks-per-node=16"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Thm 1.1"), "stdout: {text}");
    assert!(text.contains("ψ_c"), "stdout: {text}");
    assert_spectral_golden("bounds");
}

/// Where two outputs first differ: the 1-based line number and that line
/// of each (`<end>` past the last line).
fn first_difference(actual: &str, expected: &str) -> String {
    let (mut a, mut e) = (actual.lines(), expected.lines());
    for number in 1.. {
        match (a.next(), e.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => {
                let [x, y] = [x, y].map(|l| l.unwrap_or("<end>"));
                return format!("line {number}:\n  got:  {x}\n  want: {y}");
            }
        }
    }
    "the line endings".into()
}

/// The lines of `tests/golden/MANIFEST` as `(FILE, ARGS)`: every line that
/// is neither empty nor a `#` comment reads `FILE: slb ARGS`.
fn manifest() -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/MANIFEST");
    let manifest = fs::read_to_string(path).expect("read tests/golden/MANIFEST");
    manifest
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (file, args) = l
                .split_once(": slb ")
                .unwrap_or_else(|| panic!("MANIFEST line is not `FILE: slb ARGS`: {l}"));
            (file.to_string(), args.to_string())
        })
        .collect()
}

/// Runs `slb ARGS` (one MANIFEST line) at `--threads 1/3/8/64` and
/// requires exit 0, an empty stderr and stdout equal to
/// `tests/golden/FILE` byte for byte: the same spec and seed must
/// reproduce the artifact at any thread count (3 splits the work
/// unevenly).
fn assert_golden(file: &str, command: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let golden = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("MANIFEST names tests/golden/{file}: {e}"));
    let args = words(command);
    assert!(
        !args.contains(&"--threads"),
        "{file}: ARGS carry no --threads"
    );
    for threads in ["1", "3", "8", "64"] {
        let mut args = args.clone();
        args.extend(["--threads", threads]);
        let out = slb(&args);
        assert!(
            out.status.success() && out.stderr.is_empty(),
            "tests/golden/{file} at --threads {threads}: {}, stderr: {}",
            out.status,
            stderr(&out)
        );
        if out.stdout != golden.as_bytes() {
            panic!(
                "tests/golden/{file} at --threads {threads} diverges at {}",
                first_difference(&stdout(&out), &golden)
            );
        }
    }
}

/// The goldens pinned before the manifest keep the test names they had,
/// so that each still runs, and fails, on its own; each runs its MANIFEST
/// line through `assert_golden`. The list is closed: a new golden is one
/// MANIFEST line, run by `manifest_goldens_match_at_any_thread_count`.
macro_rules! named_golden_tests {
    ($($test:ident => $file:literal,)*) => {
        const NAMED_GOLDENS: &[&str] = &[$($file),*];
        $(
            #[test]
            fn $test() {
                let (_, command) = manifest()
                    .into_iter()
                    .find(|(f, _)| f == $file)
                    .expect(concat!("a MANIFEST line names tests/golden/", $file));
                assert_golden($file, &command);
            }
        )*
    };
}

named_golden_tests! {
    sweep_matches_golden_file_at_any_thread_count => "sweep_small.csv",
    sweep_on_all_unit_weighted_samples_matches_golden_file => "sweep_bimodal_unit.csv",
    frozen_sweep_matches_golden_file_at_any_thread_count => "sweep_frozen.csv",
    dynamic_sweep_matches_golden_file_at_any_thread_count => "sweep_dynamic.csv",
    irregular_sweep_matches_golden_file_at_any_thread_count => "sweep_irregular.csv",
    tail_sweep_matches_golden_file_at_any_thread_count => "sweep_tail.csv",
    fanout_sweep_matches_golden_file_at_any_thread_count => "sweep_fanout.csv",
    validate_matches_golden_file_at_any_thread_count => "validate_small.md",
    serve_matches_golden_file_at_any_thread_count => "serve_small.csv",
    serve_faults_matches_golden_file_at_any_thread_count => "serve_faults.csv",
    serve_stale_wide_matches_golden_file_at_any_thread_count => "serve_stale_wide.csv",
    serve_open_wide_matches_golden_file_at_any_thread_count => "serve_open_wide.csv",
}

/// Every file in `tests/golden/` is named by exactly one MANIFEST line, and
/// each line outside `NAMED_GOLDENS` runs through `assert_golden` (which
/// fails on a line naming no file). `spectral.txt` is a `$ slb ARGS`
/// transcript checked by the spectral and bounds smoke tests.
#[test]
fn manifest_goldens_match_at_any_thread_count() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let entries = manifest();
    let mut named = BTreeMap::new();
    for (file, _) in &entries {
        *named.entry(file.as_str()).or_insert(0) += 1;
    }
    for file in fs::read_dir(&dir).expect("list tests/golden") {
        let file = file.expect("list tests/golden").file_name();
        let file = file.to_str().expect("UTF-8 golden file name").to_string();
        if file == "MANIFEST" || file == "spectral.txt" {
            continue;
        }
        match named.get(file.as_str()) {
            Some(1) => {}
            Some(n) => panic!("tests/golden/{file} is named by {n} MANIFEST lines"),
            None => panic!("tests/golden/{file} is named by no MANIFEST line"),
        }
    }
    for (file, command) in &entries {
        if !NAMED_GOLDENS.contains(&file.as_str()) {
            assert_golden(file, command);
        }
    }
}

/// The weighted alg1/alg2 `nash` cells of `sweep_frozen.csv` never reach
/// the lightest-task NE: every trial runs the whole 3000-round budget.
#[test]
fn golden_frozen_sweep_runs_out_the_budget() {
    let golden = include_str!("golden/sweep_frozen.csv");
    let frozen: Vec<&str> = golden
        .lines()
        .filter(|l| l.contains(",bimodal:0.25:1:0.5,") && l.contains(",nash,"))
        .filter(|l| l.contains(",alg1,") || l.contains(",alg2,"))
        .collect();
    assert_eq!(frozen.len(), 4);
    for line in frozen {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[17], "0", "reached_fraction: {line}");
        assert_eq!(fields[18], "3000", "rounds_mean: {line}");
    }
}

/// The irregular, tail and fan-out goldens hold one row per cell of their
/// grid, and fan-out's one cell is what hands every thread to the kernel.
#[test]
fn golden_sweeps_hold_one_row_per_cell() {
    let irregular = include_str!("golden/sweep_irregular.csv");
    // 2 graphs × 3 protocols × 2 weights × 2 speed dynamics × 2 churn.
    assert_eq!(irregular.lines().count(), 1 + 48);
    assert_eq!(irregular.matches(",dynamic,").count(), 36);
    // 2 graphs × 3 protocols × 2 weights.
    assert_eq!(
        include_str!("golden/sweep_tail.csv").lines().count(),
        1 + 12
    );
    let fanout = include_str!("golden/sweep_fanout.csv");
    assert_eq!(fanout.lines().count(), 1 + 1);
    let fields: Vec<&str> = fanout.lines().nth(1).unwrap().split(',').collect();
    assert_eq!(fields[14], "1", "trials: {fanout}");
}

const SWEEP_CSV_HEADER: &str = "cell,graph,n,m,protocol,engine,speeds,weights,placement,until,\
                                arrivals,completions,churn,speed-dyn,trials,base_seed,max_rounds,\
                                reached_fraction,rounds_mean,rounds_std,rounds_min,rounds_median,\
                                rounds_max,migrations_mean,psi0_final_mean,nash_gap_tavg_mean,\
                                recovery_rounds_mean,unrecovered_trials";

#[test]
fn sweep_emits_exact_csv_schema() {
    let out = slb(&["sweep", "graph=ring:4", "trials=1", "--max-rounds", "2000"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().next().unwrap(), SWEEP_CSV_HEADER);
    assert_eq!(text.lines().count(), 2, "one cell → header + one row");
}

#[test]
fn golden_sweep_covers_all_protocols_and_task_modes() {
    let golden = include_str!("golden/sweep_small.csv");
    for protocol in ["alg1", "alg2", "bhs", "diffusion", "best-response"] {
        assert!(
            golden.lines().any(|l| l.contains(&format!(",{protocol},"))),
            "golden sweep misses protocol {protocol}"
        );
    }
    assert!(golden.contains(",unit,"));
    assert!(golden.contains(",uniform:0.2..0.9,"));
    // Algorithm 1 on weighted tasks executes on the weight-class engine —
    // no zeroed `unsupported` rows remain anywhere in the grid.
    assert_eq!(golden.matches(",unsupported,").count(), 0);
    // The speed-aware protocols run count-based in both task modes: no
    // alg2/bhs cell falls back to the per-task engine.
    assert_eq!(golden.matches(",parallel-chunked,").count(), 0);
    for line in golden
        .lines()
        .filter(|l| l.contains(",alg2,") || l.contains(",bhs,"))
    {
        assert!(line.contains(",speed-fast,"), "row: {line}");
    }
    let alg1_weighted = golden
        .lines()
        .find(|l| l.contains(",alg1,") && l.contains(",uniform:0.2..0.9,"))
        .expect("golden sweep has the alg1 × weighted cell");
    assert!(
        alg1_weighted.contains(",weighted-fast,"),
        "row: {alg1_weighted}"
    );
    // The row carries real measurements: 2 trials and a reached fraction
    // of 1, not the zeroed placeholder it used to be.
    let fields: Vec<&str> = alg1_weighted.split(',').collect();
    assert_eq!(fields[14], "2", "trials column: {alg1_weighted}");
    assert_eq!(fields[17], "1", "reached_fraction column: {alg1_weighted}");
    assert_ne!(fields[23], "0", "migrations_mean column: {alg1_weighted}");
    // Static cells carry the `none` dynamic axes and zeroed steady-state
    // metrics.
    assert_eq!(&fields[10..14], &["none", "none", "none", "none"]);
    assert_eq!(fields[25], "0", "nash_gap_tavg column: {alg1_weighted}");
    assert_eq!(fields[26], "0", "recovery_rounds column: {alg1_weighted}");
    assert_eq!(
        fields[27], "0",
        "unrecovered_trials column: {alg1_weighted}"
    );
}

#[test]
fn golden_dynamic_sweep_carries_steady_state_metrics() {
    let golden = include_str!("golden/sweep_dynamic.csv");
    assert_eq!(golden.lines().next().unwrap(), SWEEP_CSV_HEADER);
    // 2 protocols × 2 speed-dyn values, all with the count engine's event layer.
    assert_eq!(golden.lines().count(), 5);
    assert_eq!(golden.matches(",dynamic,").count(), 4);
    for line in golden.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[10], "poisson:0.5", "row: {line}");
        assert_eq!(fields[11], "rate:0.05", "row: {line}");
        assert_eq!(fields[12], "rate:0.02", "row: {line}");
        // Fixed horizon: every trial runs exactly max-rounds and counts
        // as reached.
        assert_eq!(fields[17], "1", "reached_fraction: {line}");
        assert_eq!(fields[18], "300", "rounds_mean: {line}");
        // The steady-state gap is open under sustained arrivals.
        assert_ne!(fields[25], "0", "nash_gap_tavg_mean: {line}");
        if fields[13].starts_with("shock:") {
            // The mean averages recovered trials only; trials that never
            // re-close the gap are counted, not folded into the mean.
            assert!(
                fields[26] != "0" || fields[27] == "2",
                "shock row must either recover or censor: {line}"
            );
        } else {
            assert_eq!(fields[26], "0", "recovery_rounds_mean: {line}");
            assert_eq!(fields[27], "0", "unrecovered_trials: {line}");
        }
    }
}

const SERVE_CSV_HEADER: &str = "policy,graph,n,speeds,weights,traffic,closed,faults,signal,retry,\
                                horizon,shift,base_seed,jobs_offered,jobs_completed,failed_jobs,\
                                retries_mean,availability,throughput,latency_count,latency_mean,\
                                latency_p50,latency_p95,latency_p99,util_mean,util_min,util_max,\
                                nash_gap,nash_gap_live";

#[test]
fn golden_serve_stale_wide_degrades_every_policy() {
    let golden = include_str!("golden/serve_stale_wide.csv");
    assert_eq!(golden.lines().next().unwrap(), SERVE_CSV_HEADER);
    assert_eq!(golden.lines().count(), 7);
    for line in golden.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[2], "256", "n: {line}");
        assert_eq!(fields[8], "stale:1+loss:0.6", "signal: {line}");
        // Stale presence sends jobs to dead backends: every policy pays
        // retries, and crashes cost real uptime.
        assert_ne!(fields[16], "0", "retries_mean: {line}");
        let availability: f64 = fields[17].parse().unwrap();
        assert!(availability < 0.9, "availability: {line}");
    }
}

/// Runs `slb args` like [`slb`], but kills it and fails the test if it is
/// still running after `limit`. Its output is read only after it exits,
/// so it must fit in the pipe buffers (a few rows of CSV do).
fn slb_within(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_slb"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to launch slb");
    let deadline = Instant::now() + limit;
    loop {
        if child.try_wait().expect("wait on slb").is_some() {
            return child.wait_with_output().expect("collect slb output");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`slb {}` still running after {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_with_a_sub_tick_probe_interval_terminates() {
    // `stale:1e-9` rounds to zero ticks; the probe interval is clamped
    // to one tick, so the run ends instead of probing at one tick forever.
    let out = slb_within(
        &[
            "serve",
            "graph=ring:3",
            "traffic=poisson:1",
            "horizon=1",
            "signal=stale:1e-9",
            "policy=alg1,greedy-least-loaded",
        ],
        Duration::from_secs(60),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn serve_skips_slots_that_cannot_draw_a_job() {
    // `e^{-1e-320}` rounds to 1, so no slot can draw a job: the run goes
    // to its 2^40-unit horizon in one pass instead of stepping 2^40 empty
    // slots (hours at tens of ns per slot).
    let out = slb_within(
        &words("serve horizon=1099511627776 traffic=poisson:1e-320 policy=alg1"),
        Duration::from_secs(10),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let row: Vec<&str> = text
        .lines()
        .nth(1)
        .expect("one policy row")
        .split(',')
        .collect();
    assert_eq!(row[10], "1099511627776", "horizon: {text}");
    assert_eq!(row[13], "0", "jobs_offered: {text}");
}

#[test]
fn golden_serve_covers_every_policy_with_live_metrics() {
    let golden = include_str!("golden/serve_small.csv");
    assert_eq!(golden.lines().next().unwrap(), SERVE_CSV_HEADER);
    // Header + one row per policy, in the canonical order.
    assert_eq!(golden.lines().count(), 7);
    let policies = [
        "alg1",
        "alg2",
        "bhs",
        "round-robin",
        "greedy-least-loaded",
        "bandwidth-softmax",
    ];
    for (line, policy) in golden.lines().skip(1).zip(policies) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[0], policy, "row: {line}");
        // The degradation axes are off, and say so in every row.
        assert_eq!(fields[7], "none", "faults: {line}");
        assert_eq!(fields[8], "none", "signal: {line}");
        assert_eq!(fields[9], "none", "retry: {line}");
        assert_eq!(fields[15], "0", "failed_jobs: {line}");
        assert_eq!(fields[16], "0", "retries_mean: {line}");
        assert_eq!(fields[17], "1", "availability: {line}");
        // Every policy routed real work: completions, throughput, and a
        // latency sample are all live, and utilization stays a fraction.
        assert_ne!(fields[14], "0", "jobs_completed: {line}");
        assert_ne!(fields[18], "0", "throughput: {line}");
        assert_ne!(fields[19], "0", "latency_count: {line}");
        assert_ne!(fields[20], "0", "latency_mean: {line}");
        let util_max: f64 = fields[26].parse().unwrap();
        assert!(
            util_max > 0.0 && util_max <= 1.0,
            "util_max out of range: {line}"
        );
        // With perfect information the live gap is the plain gap.
        assert_eq!(fields[27], fields[28], "nash_gap vs nash_gap_live: {line}");
    }
}

#[test]
fn golden_serve_faults_shares_the_scenario_across_policies() {
    let golden = include_str!("golden/serve_faults.csv");
    assert_eq!(golden.lines().next().unwrap(), SERVE_CSV_HEADER);
    assert_eq!(golden.lines().count(), 7);
    let mut availabilities = Vec::new();
    for line in golden.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        // Degraded rows carry their own provenance.
        assert_eq!(fields[7], "crash:6:2", "faults: {line}");
        assert_eq!(fields[8], "stale:0.5+loss:0.1", "signal: {line}");
        assert_eq!(fields[9], "max:3:base:0.25", "retry: {line}");
        let availability: f64 = fields[17].parse().unwrap();
        assert!(
            availability > 0.0 && availability < 1.0,
            "crashes must cost some uptime: {line}"
        );
        availabilities.push(fields[17]);
        // Conservation at the artifact level: nothing silently dropped.
        let offered: u64 = fields[13].parse().unwrap();
        let failed: u64 = fields[15].parse().unwrap();
        assert!(failed < offered, "failed_jobs out of range: {line}");
    }
    // The fault schedule is scenario-seeded: every policy row must report
    // the exact same availability because they rode the same crashes.
    assert!(
        availabilities.windows(2).all(|w| w[0] == w[1]),
        "availability differs across policies: {availabilities:?}"
    );
}

#[test]
fn serve_rejects_malformed_specs_with_exit_one() {
    for (args, needle) in [
        (&["serve", "graph=blob:4"][..], "unknown graph family"),
        (
            &["serve", "policy=teleport"],
            "error: invalid serve spec: unknown policy",
        ),
        (&["serve", "horizon=0"], "must be positive"),
        (&["serve", "traffic=poisson:-1"], "rate"),
        (&["serve", "traffic=none"], "traffic source"),
        (&["serve", "closed=0:1"], "at least one user"),
        (&["serve", "bogus=1"], "unknown serve key"),
        (&["serve", "horizon=5", "horizon=6"], "given twice"),
        (&["serve", "faults=crash:"], "invalid faults"),
        (&["serve", "faults=crash:0:2"], "mttf"),
        (&["serve", "faults=crash:6:2", "faults=none"], "given twice"),
        (&["serve", "signal=stale:-1"], "staleness"),
        (&["serve", "signal=loss:0.5"], "probe interval"),
        (&["serve", "signal=stale:1+stale:2"], "twice"),
        (&["serve", "retry=max:0:base:1"], "at least one"),
        (&["serve", "retry=max:99:base:1"], "stride"),
        (
            &["serve", "horizon=5", "--shift", "-9"],
            "measurement window",
        ),
        // Shifts within half a tick of the horizon or of zero: the window
        // the run would measure, rounded to ticks, is empty.
        (
            &["serve", "horizon=1", "policy=alg1", "--shift", "0.9999999"],
            "error: invalid serve spec: --shift 0.9999999 leaves an empty measurement window",
        ),
        (
            &["serve", "horizon=1", "policy=alg1", "--shift=-1e-9"],
            "error: invalid serve spec: --shift -0.000000001 leaves an empty measurement window",
        ),
        (&["serve", "--format", "xml"], "unknown format"),
        (&["serve", "--threads", "0"], "must be positive"),
        (&["serve", "--seeed", "7"], "unknown flag --seeed"),
        // Horizons whose ticks overflow u64 (2^20 ticks per unit), and the
        // first one past the 2^40-unit cap that keeps tick sums in range.
        (
            &words("serve horizon=1099511627777 traffic=poisson:1e-320 policy=alg1")[..],
            "at most 2^40",
        ),
        (
            &words("serve horizon=17592186044416 traffic=poisson:1e-320 policy=alg1")[..],
            "past the virtual clock",
        ),
        (
            &words("serve horizon=17592186044417 traffic=poisson:1e-320 policy=alg1")[..],
            "past the virtual clock",
        ),
        (
            &["serve", "policy="],
            "error: invalid serve spec: empty value in `policy=`",
        ),
        (
            &["serve", "speeds=uniform,alternating:2"],
            "`speeds` takes a single value",
        ),
        // The offered-jobs check needs a rate inside the 2^24 cap: 2^24
        // jobs per unit over 2^30 units offers 2^54 jobs.
        (
            &words("serve graph=ring:8 traffic=poisson:16777216 horizon=1073741824")[..],
            "past 2^53",
        ),
        // Rates past 2^24 jobs per unit and populations past 2^24 users
        // are rejected at parse (each aborted allocating its per-job
        // offsets or per-user RNGs before).
        (
            &words("serve graph=ring:8 traffic=poisson:1e300 horizon=1")[..],
            "`traffic=poisson:1e300`: rate 1e300 is past 2^24",
        ),
        (
            &words("serve graph=ring:8 traffic=poisson:1e12 horizon=1")[..],
            "`traffic=poisson:1e12`: rate 1e12 is past 2^24",
        ),
        (
            &["serve", "closed=1000000000:1"],
            "`closed=1000000000:1`: 1000000000 users is past 2^24",
        ),
    ] {
        let out = slb(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`slb {args:?}` must exit 1, not panic"
        );
        assert!(
            stderr(&out).contains(needle),
            "`slb {args:?}` stderr misses `{needle}`: {}",
            stderr(&out)
        );
    }
}

#[test]
fn sweep_rejects_malformed_grids_with_exit_one() {
    for (args, needle) in [
        (&["sweep", "graph=blob:4"][..], "unknown graph family"),
        (&["sweep", "graph=ring"], "needs parameters"),
        (&["sweep", "graph=torus:4"], "RxC"),
        (&["sweep", "bogus=1"], "unknown grid key"),
        (&["sweep", "trials=0"], "must be positive"),
        (
            &["sweep", "protocol=teleport"],
            "error: invalid sweep grid: unknown protocol",
        ),
        (&["sweep", "until=eventually"], "unknown stop rule"),
        (&["sweep", "trials=1", "trials=2"], "given twice"),
        (&["sweep", "placement=node:99"], "out of range"),
        (&["sweep", "--format", "xml"], "unknown format"),
        (&["sweep", "--threads", "0"], "must be positive"),
        // Syntactically valid grids with invalid distribution/graph
        // parameters must also exit 1, not panic in a worker thread.
        (&["sweep", "graph=hypercube:0"], "hypercube dimension"),
        (&["sweep", "graph=hypercube:64"], "hypercube dimension"),
        (&["sweep", "speeds=two-class:0:0.5"], "fast speed"),
        (&["sweep", "speeds=integer:0"], "at least 1"),
        (&["sweep", "weights=power-law:0:0.1"], "alpha"),
        // Dynamic-axis grammar errors.
        (&["sweep", "arrivals=sometimes"], "unknown arrivals"),
        (&["sweep", "arrivals=poisson:-1"], "arrival rate"),
        (&["sweep", "arrivals=batch:0:5"], "batch size"),
        (&["sweep", "completions=rate:1.5"], "completion rate"),
        (&["sweep", "churn=rate:2"], "churn rate"),
        (&["sweep", "speed-dyn=drift:0"], "drift sigma"),
        (&["sweep", "speed-dyn=shock:10:1.5"], "shock fraction"),
        // Arrivals that could push the population past 2^53 within the
        // round budget, where u64 counts could wrap and f64 loads stop
        // being exact.
        (
            &[
                "sweep",
                "graph=ring:8",
                "tasks-per-node=4",
                "protocol=alg1",
                "arrivals=batch:18446744073709551615:1",
                "trials=1",
                "--max-rounds",
                "2",
            ],
            "past 2^53",
        ),
        (
            &[
                "sweep",
                "graph=ring:8",
                "tasks-per-node=4",
                "protocol=alg1",
                "arrivals=poisson:1e300",
                "trials=1",
                "--max-rounds",
                "1",
            ],
            "past 2^53",
        ),
        // A task count n · tasks-per-node that wraps a usize (here to 0)
        // or passes 2^53 is rejected up front, not built.
        (
            &[
                "sweep",
                "graph=ring:8",
                "tasks-per-node=4611686018427387904",
                "weights=bimodal:0.25:1:0.5",
                "--max-rounds",
                "1",
            ],
            "past 2^53",
        ),
        (
            &[
                "sweep",
                "graph=ring:8",
                "tasks-per-node=1125899906842625",
                "--max-rounds",
                "1",
            ],
            "past 2^53",
        ),
        // Sequential protocols have no dynamic engine.
        (
            &["sweep", "protocol=diffusion", "arrivals=poisson:0.5"],
            "no dynamic-scenario engine",
        ),
        // Misspelled flags are rejected, not silently ignored.
        (
            &["sweep", "graph=ring:4", "--seeed", "7"],
            "unknown flag --seeed",
        ),
        // trials/max-rounds as both grid token and flag is ambiguous.
        (
            &["sweep", "trials=5", "--trials", "2", "graph=ring:4"],
            "given both as a grid token",
        ),
        (
            &["sweep", "max-rounds=10", "--max-rounds", "20"],
            "given both as a grid token",
        ),
    ] {
        let out = slb(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`slb {args:?}` must exit 1, not panic"
        );
        assert!(
            stderr(&out).contains(needle),
            "`slb {args:?}` stderr misses `{needle}`: {}",
            stderr(&out)
        );
    }
}

#[test]
fn sweep_json_format_and_out_file() {
    let out = slb(&[
        "sweep",
        "graph=ring:4",
        "trials=1",
        "--max-rounds",
        "2000",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("[\n"), "json: {text}");
    assert!(text.contains("\"graph\":\"ring:4\""));
    assert!(text.trim_end().ends_with(']'));

    // --out writes the same artifact to a file and stays silent.
    let path = std::env::temp_dir().join("slb_sweep_out_test.csv");
    let path_str = path.to_str().unwrap();
    let out = slb(&[
        "sweep",
        "graph=ring:4",
        "trials=1",
        "--max-rounds",
        "2000",
        "--out",
        path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty());
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written.lines().next().unwrap(), SWEEP_CSV_HEADER);
    std::fs::remove_file(&path).ok();
}

const VALIDATE_CSV_HEADER: &str = "row,protocol,family,regime,load,n_ladder,trials,base_seed,\
                                   max_rounds,eps,factor,exp_tol,exponent,ci_lo,ci_hi,r_squared,\
                                   pred_ladder,pred_asym,source,exponent_ok,max_bound_ratio,\
                                   bound_ok,gap_ok,reached_min";

#[test]
fn golden_validate_covers_all_protocols_and_both_regimes() {
    let golden = include_str!("golden/validate_small.md");
    for protocol in ["alg1", "alg2", "bhs", "diffusion", "best-response"] {
        for regime in ["approx", "exact"] {
            assert!(
                golden.lines().any(|l| l.contains(&format!("| {protocol} "))
                    && l.contains(&format!("| {regime} "))),
                "golden validate misses {protocol} × {regime}"
            );
        }
    }
    // The conformance columns are present and every checked row conforms.
    assert!(golden.contains("exponent_ok"));
    assert!(golden.contains("gap_ok"));
    assert!(golden.contains("verdict: 6/6 checked rows conform (10 rows total)"));
    // The censored diffusion × exact row reports reached_min 0, not a fit.
    assert!(
        golden.lines().any(|l| l.contains("| diffusion ")
            && l.contains("| exact ")
            && l.trim_end().ends_with("| 0           |")),
        "censored diffusion row must be visible"
    );
}

#[test]
fn validate_report_formats_and_out_file() {
    let out = slb(&[
        "validate",
        "n=4,8",
        "load=4",
        "trials=1",
        "--max-rounds",
        "2000",
        "--report",
        "csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().next().unwrap(), VALIDATE_CSV_HEADER);
    assert_eq!(text.lines().count(), 2, "one row → header + one line");

    let out = slb(&[
        "validate",
        "n=4,8",
        "load=4",
        "trials=1",
        "--max-rounds",
        "2000",
        "--report",
        "json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("[\n"), "json: {text}");
    assert!(text.contains("\"points\":["));
    assert!(text.trim_end().ends_with(']'));

    // --out writes the same artifact to a file and stays silent.
    let path = std::env::temp_dir().join("slb_validate_out_test.md");
    let path_str = path.to_str().unwrap();
    let out = slb(&[
        "validate",
        "n=4,8",
        "load=4",
        "trials=1",
        "--max-rounds",
        "2000",
        "--out",
        path_str,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty());
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.starts_with("# Theorem-validation report"));
    std::fs::remove_file(&path).ok();
}

/// A ladder the budget censors keeps its report and exit code but names
/// each row it left unchecked on stderr, so a `0/0` verdict is not
/// silent.
#[test]
fn censored_ladder_names_its_unchecked_rows_on_stderr() {
    let out = slb(&[
        "validate",
        "family=ring",
        "n=4,8",
        "load=8",
        "--max-rounds",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("verdict: 0/0 checked rows conform (1 rows total)"));
    let err = stderr(&out);
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    for needle in [
        "warning: row 0 (alg1 ring approx load=8)",
        "reached_min 0",
        "max-rounds 1",
    ] {
        assert!(err.contains(needle), "stderr misses `{needle}`: {err}");
    }
}

#[test]
fn validate_rejects_malformed_ladders_with_exit_one() {
    for (args, needle) in [
        (&["validate", "family=blob"][..], "unknown family"),
        (&["validate", "family=ring:8"], "unknown family"),
        (
            &["validate", "n=8"],
            "error: invalid validate ladder: the n ladder needs at least two sizes",
        ),
        (&["validate", "n=32,16"], "strictly increasing"),
        (&["validate", "n=8..64"], "needs a multiplier"),
        (&["validate", "load=delta:0"], "load delta"),
        (&["validate", "regime=sometime"], "unknown regime"),
        (&["validate", "eps=2"], "eps must lie"),
        (&["validate", "exp-tol=-1"], "exp-tol"),
        (&["validate", "family=hypercube", "n=8,12"], "no 12-node"),
        (&["validate", "--report", "xml"], "unknown report format"),
        (&["validate", "--threads", "0"], "must be positive"),
        (
            &[
                "validate",
                "family=ring",
                "n=8..16:x2",
                "load=4611686018427387904",
                "protocol=alg1",
                "--max-rounds",
                "1",
            ],
            "past 2^53",
        ),
        (
            &["validate", "n=4,8", "--seeed", "7"],
            "unknown flag --seeed",
        ),
        (
            &["validate", "trials=5", "--trials", "2"],
            "given both as a ladder token",
        ),
    ] {
        let out = slb(args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`slb {args:?}` must exit 1, not panic"
        );
        assert!(
            stderr(&out).contains(needle),
            "`slb {args:?}` stderr misses `{needle}`: {}",
            stderr(&out)
        );
    }
}

#[test]
fn deterministic_given_a_seed() {
    let args = words("simulate graph=ring:6 tasks-per-node=4 until=nash --seed 123");
    let a = slb(&args);
    let b = slb(&args);
    assert!(a.status.success());
    assert_eq!(stdout(&a), stdout(&b), "same seed must reproduce the run");
}
