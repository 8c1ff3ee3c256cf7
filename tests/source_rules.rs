//! Source-text rules behind the determinism contract (artifacts are
//! byte-identical per seed at any `--threads`) that clippy cannot state;
//! the type and method bans live in `crates/clippy.toml`. Each rule reads
//! non-test code: `//` comments stripped, cut at the first `#[cfg(test)]`.

use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Every `.rs` file under `dir`, skipping `target`, `tests` and hidden directories.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() && !(name.starts_with('.') || name == "target" || name == "tests") {
            out.extend(rs_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out
}

/// The non-test code of the file at `path`.
fn code(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("readable source file");
    let lines = text.lines().map(|l| {
        let outside_string = |&(i, _): &(usize, &str)| l[..i].matches('"').count() % 2 == 0;
        let comment = l.match_indices("//").find(outside_string);
        comment.map_or(l, |(i, _)| &l[..i])
    });
    let code = lines.collect::<Vec<_>>().join("\n");
    code.split("#[cfg(test)]").next().unwrap_or_default().into()
}

/// The trimmed top-level arguments of every call `name(…)` in `code`
/// (the definition `fn name(…)` excluded).
fn calls<'a>(code: &'a str, name: &'a str) -> impl Iterator<Item = Vec<&'a str>> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).filter_map(move |(at, _)| {
        let (before, rest) = (&code[..at], code[at + name.len()..].trim_start());
        let glued = before.ends_with(ident) && name.starts_with(ident);
        if glued || !rest.starts_with('(') || before.trim_end().ends_with("fn") {
            return None;
        }
        let (mut args, mut depth, mut start, mut in_string) = (Vec::new(), 0, 1, false);
        for (i, c) in rest.char_indices() {
            in_string ^= c == '"' && !rest[..i].ends_with('\\');
            if in_string {
                continue;
            }
            depth += i32::from("([{".contains(c)) - i32::from(")]}".contains(c));
            if depth == 0 || (depth == 1 && c == ',') {
                args.push(rest[start..i].trim());
                start = i + 1;
            }
            if depth == 0 {
                break;
            }
        }
        Some(args)
    })
}

/// Fails listing every call to one of `names` in `files` whose arguments
/// `ok` rejects, or when under 25 calls are seen (a broken scan).
fn check_calls(files: &[PathBuf], names: &[&str], ok: fn(&[&str]) -> bool) {
    let (mut sites, mut bad) = (0, String::new());
    for path in files {
        let code = code(path);
        for name in names {
            for args in calls(&code, name) {
                sites += 1;
                if !ok(&args) {
                    bad += &format!("\n{}: {name}({})", path.display(), args.join(", "));
                }
            }
        }
    }
    assert!(sites >= 25, "only {sites} calls to {names:?} seen");
    assert!(bad.is_empty(), "calls breaking the rule:{bad}");
}

/// The seed derivations; argument 2 of each is the stream id.
const SEEDERS: [&str; 4] = [
    "derive_seed",
    "derive_seed_sharded",
    "rng_for",
    "rng_for_shard",
];

#[test]
fn stream_arguments_name_a_registry_constant() {
    check_calls(&rs_files(Path::new(ROOT)), &SEEDERS, |args| {
        args.get(2)
            .is_none_or(|a| !a.starts_with(|c: char| c.is_ascii_digit()))
    });
}

#[test]
fn engine_expects_state_their_invariant() {
    let crates = Path::new(ROOT).join("crates");
    let files = ["core", "graphs", "serve"].map(|k| rs_files(&crates.join(k).join("src")));
    check_calls(&files.concat(), &[".expect"], |args| {
        let message = args
            .first()
            .and_then(|m| m.strip_prefix('"')?.strip_suffix('"'));
        args.len() == 1 && message.is_some_and(|m| !m.trim().is_empty())
    });
}

#[test]
fn every_stream_constant_is_in_its_namespace_table() {
    let code = code(&Path::new(ROOT).join("crates/core/src/rng.rs"));
    let (_, registry) = code.split_once("pub mod streams").expect("the registry");
    let mut constants = 0;
    for namespace in registry.split("pub mod ").skip(1) {
        let (_, all) = namespace.split_once("pub const ALL").expect("an ALL table");
        for decl in namespace.split("pub const ").skip(1) {
            let (name, ty) = decl.split_once(':').unwrap_or_default();
            if ty.trim_start().starts_with("u64") && name != "RETRY_ATTEMPT_STRIDE" {
                constants += 1;
                let entry = format!("(\"{name}\", {name})");
                assert!(all.contains(&entry), "streams::{name} is not in its ALL");
            }
        }
    }
    assert!(constants >= 14, "only {constants} stream constants seen");
}

/// `slb_analysis` builds a static engine only in the trial runner, so
/// every command measures a trial the same way; a dynamic sweep cell
/// (the one other site) builds its count engine with the cell's dynamics.
#[test]
fn analysis_builds_static_engines_only_in_the_trial_runner() {
    let (mut sites, mut bad) = (0, String::new());
    for path in rs_files(&Path::new(ROOT).join("crates/analysis/src")) {
        let code = code(&path);
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        for ctor in ["CountSim::new", "CountSim::for_system", "Simulation::new"] {
            for (at, _) in code.match_indices(ctor) {
                sites += 1;
                let statement = code[at..].split(';').next().unwrap_or_default();
                let dynamic = file == "sweep.rs" && statement.contains(".with_dynamics(");
                if file != "trial.rs" && !dynamic {
                    bad += &format!("\n{}: {ctor}", path.display());
                }
            }
        }
    }
    assert!(sites >= 4, "only {sites} engine constructions seen");
    assert!(
        bad.is_empty(),
        "static engines built outside trial.rs:{bad}"
    );
}
