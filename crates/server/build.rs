//! Stamps the git revision into the build for `/stats` and
//! `scorpion_build_info` in `/metrics`. Falls back to "unknown" when
//! the build happens outside a git checkout (e.g. from a source
//! tarball) — git is optional, never an error.

fn main() {
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SCORPION_GIT_SHA={sha}");
    // Re-stamp when HEAD moves. Outside a checkout there is no HEAD to
    // watch, and cargo would rerun the script (and rebuild the crate) on
    // every build if told to watch a missing file, so nothing is watched
    // and cargo reruns it only when the package's files change.
    let head = "../../.git/HEAD";
    if std::path::Path::new(head).exists() {
        println!("cargo:rerun-if-changed={head}");
    }
}
