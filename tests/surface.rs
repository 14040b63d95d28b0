//! The surface ledger: counts of knobs and panic sites, recomputed on every
//! test run and compared with `results/surface.json`.
//!
//! Only counts that record a decision are compared: public config fields,
//! `TopKConfigBuilder` setters, `ExternalSorter::with_*` builders, the
//! std-only shim crates under `shims/`, and per crate the `unwrap`/
//! `expect`/`panic!` sites, `unsafe` blocks and public items. A change that adds or removes one
//! fails this test until it updates the ledger, so the ledger's diff shows
//! the reviewer what the change cost or saved. The test prints the
//! recomputed JSON on failure; copy it over `results/surface.json` and say
//! in `CHANGES.md` why any number rose.
//!
//! Line totals (non-test lines per crate and of the shims, files and lines
//! of the test suites) move with almost every edit, so they are printed for
//! information (`cargo test --test surface -- --nocapture`), not compared.
//!
//! Counting is plain line scanning, no parser:
//! * a file's *test code* starts at its first `#[cfg(test)]` line that is
//!   followed by `mod tests`; everything above is non-test code;
//! * comment lines (`//`, `///`, `//!`) are skipped when counting sites;
//! * a site is each occurrence of `.unwrap()`, `.expect(`, `panic!(` or
//!   `unsafe {` on a non-test, non-comment line;
//! * a public item is a non-test line that starts, after indentation, with
//!   `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type` or
//!   `pub const` (`pub(crate)` items are not public).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Per-crate counts over `src/`.
#[derive(Default)]
struct CrateCounts {
    non_test_lines: usize,
    unwrap: usize,
    expect: usize,
    panic: usize,
    unsafe_blocks: usize,
    pub_items: usize,
}

/// How a public item's line starts (see the module doc).
const PUB_ITEMS: [&str; 6] =
    ["pub fn ", "pub struct ", "pub enum ", "pub trait ", "pub type ", "pub const "];

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lines above the file's `#[cfg(test)] mod tests`.
fn non_test_lines(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let end = lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].trim_start().starts_with("mod tests"))
        .unwrap_or(lines.len());
    lines[..end].to_vec()
}

fn count_crate(src: &Path) -> CrateCounts {
    let mut c = CrateCounts::default();
    for file in rust_files(src) {
        let text = read(&file);
        let lines = non_test_lines(&text);
        c.non_test_lines += lines.len();
        for line in lines.iter().filter(|l| !l.trim_start().starts_with("//")) {
            c.unwrap += line.matches(".unwrap()").count();
            c.expect += line.matches(".expect(").count();
            c.panic += line.matches("panic!(").count();
            c.unsafe_blocks += line.matches("unsafe {").count();
            c.pub_items += usize::from(PUB_ITEMS.iter().any(|p| line.trim_start().starts_with(p)));
        }
    }
    c
}

/// `pub` fields of `pub struct <name> { … }` in `file`.
fn pub_fields(file: &Path, name: &str) -> usize {
    let text = read(file);
    let header = format!("pub struct {name} {{");
    let start = text.find(&header).unwrap_or_else(|| panic!("{header} in {}", file.display()));
    text[start + header.len()..]
        .lines()
        .take_while(|l| *l != "}")
        .filter(|l| {
            let l = l.trim_start();
            l.starts_with("pub ") && !l.starts_with("pub fn") && l.contains(':')
        })
        .count()
}

/// Setters of `impl <name> { … }` in `file`: every `pub fn` but `build`.
fn builder_setters(file: &Path, name: &str) -> usize {
    let text = read(file);
    let header = format!("impl {name} {{");
    let start = text.find(&header).unwrap_or_else(|| panic!("{header} in {}", file.display()));
    text[start + header.len()..]
        .lines()
        .take_while(|l| *l != "}")
        .map(str::trim_start)
        .filter(|l| l.starts_with("pub fn ") && !l.starts_with("pub fn build("))
        .count()
}

/// Crate directories under `shims/`.
fn shim_crates(root: &Path) -> Vec<PathBuf> {
    fs::read_dir(root.join("shims"))
        .expect("shims/ directory")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.is_dir())
        .collect()
}

/// `pub fn with_*` in the non-test part of `file`.
fn with_builders(file: &Path) -> usize {
    let text = read(file);
    non_test_lines(&text).iter().filter(|l| l.trim_start().starts_with("pub fn with_")).count()
}

/// Files and lines of every `.rs` file under `dirs`.
fn files_and_lines(dirs: &[PathBuf]) -> (usize, usize) {
    let files: Vec<PathBuf> = dirs.iter().flat_map(|d| rust_files(d)).collect();
    let lines = files.iter().map(|f| read(f).lines().count()).sum();
    (files.len(), lines)
}

/// The compared ledger (JSON) and the line totals (one line of text).
fn ledger(root: &Path) -> (String, String) {
    let mut crates: Vec<(String, PathBuf)> = fs::read_dir(root.join("crates"))
        .expect("crates/ directory")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| {
            let name = p.file_name().expect("crate directory name").to_string_lossy().into_owned();
            (name, p)
        })
        .collect();
    crates.sort();
    // The facade crate at the root of the workspace.
    crates.insert(0, ("histok".to_owned(), root.to_path_buf()));

    let mut out = String::from("{\n  \"crates\": {\n");
    let mut lines = String::from("non-test lines:");
    for (i, (name, dir)) in crates.iter().enumerate() {
        let c = count_crate(&dir.join("src"));
        let comma = if i + 1 < crates.len() { "," } else { "" };
        writeln!(
            out,
            "    \"{name}\": {{\"unwrap\": {}, \"expect\": {}, \"panic\": {}, \"unsafe_blocks\": {}, \"pub_items\": {}}}{comma}",
            c.unwrap, c.expect, c.panic, c.unsafe_blocks, c.pub_items
        )
        .expect("write to String");
        write!(lines, " {name} {}", c.non_test_lines).expect("write to String");
    }
    let shims = shim_crates(root);
    let shim_lines: usize = shims.iter().map(|d| count_crate(&d.join("src")).non_test_lines).sum();
    write!(lines, " shims {shim_lines}").expect("write to String");
    out.push_str("  },\n  \"workspace\": {\n");

    let workspace = [
        (
            "topk_config_pub_fields",
            pub_fields(&root.join("crates/core/src/config.rs"), "TopKConfig"),
        ),
        (
            "topk_config_builder_methods",
            builder_setters(&root.join("crates/core/src/config.rs"), "TopKConfigBuilder"),
        ),
        (
            "server_config_pub_fields",
            pub_fields(&root.join("crates/exec/src/server.rs"), "ServerConfig"),
        ),
        ("external_sorter_with_builders", with_builders(&root.join("crates/sort/src/external.rs"))),
        ("shim_crates", shims.len()),
    ];
    for (i, (name, value)) in workspace.iter().enumerate() {
        let comma = if i + 1 < workspace.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {value}{comma}").expect("write to String");
    }
    out.push_str("  }\n}\n");

    let crate_tests: Vec<PathBuf> = crates[1..].iter().map(|(_, d)| d.join("tests")).collect();
    let (crate_test_files, crate_test_lines) = files_and_lines(&crate_tests);
    let (root_test_files, root_test_lines) = files_and_lines(&[root.join("tests")]);
    write!(
        lines,
        "; crates/*/tests {crate_test_files} files {crate_test_lines} lines; tests/ {root_test_files} files {root_test_lines} lines"
    )
    .expect("write to String");
    (out, lines)
}

#[test]
fn surface_matches_the_committed_ledger() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (now, lines) = ledger(root);
    println!("{lines}");
    let committed = fs::read_to_string(root.join("results/surface.json")).unwrap_or_default();
    assert!(
        now == committed,
        "the code surface changed; if that is intended, replace results/surface.json with:\n{now}"
    );
}
