//! Host fingerprint and environment hygiene: a number is only comparable
//! with one taken on the same class of host under the default settings.

use la_core::json::JsonBuf;
use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Names of the `LA_*` variables that are set. The library reads them as
/// configuration, so with any of them set two commits would not be
/// measured under the defaults; threads are set through `la_core::tune`.
pub fn la_variables() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LA_"))
        .collect();
    names.sort();
    names
}

fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn simd_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                f.push(name);
            }
        }
    }
    f
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes the fingerprint as the value of the key the caller just wrote.
pub fn write_fingerprint(j: &mut JsonBuf) {
    j.begin_obj();
    j.field_uint("nproc", nproc() as u64);
    j.field_str("cpu_model", &cpu_model());
    j.key("simd_features");
    j.begin_arr();
    simd_features().iter().for_each(|f| j.str(f));
    j.end_arr();
    // The microkernel the packed gemm path resolves to for f64 under the
    // configuration in force.
    let kernel = la_blas::kernel::kernel_for::<f64>(la_core::tune::current().gemm_kernel);
    j.field_str("gemm_kernel_f64", kernel.name());
    j.field_str(
        "rustc",
        &first_line_of(Command::new("rustc").arg("--version")),
    );
    // The ceiling keeps git from looking for a repository above the
    // directory the benchmark runs in.
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    j.field_str(
        "git_sha",
        &first_line_of(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", above),
        ),
    );
    j.end_obj();
}
