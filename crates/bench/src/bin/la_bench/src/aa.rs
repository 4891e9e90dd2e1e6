//! `--aa K`: the same code measured twice. Two interleaved sets of K runs
//! per workload, each run on its own seed; per end-to-end metric the set
//! medians, quartiles, spread (interquartile distance over the median) and
//! the gap between the medians, judged against the bound in
//! `BENCHMARK.json`. This is the acceptance rule the benchmark has to pass
//! itself, and the tool for noise triage later: a second table shows how
//! far the floor, p05, median and mean of the same 2K runs each moved.

use crate::stats::{median, quartiles};
use crate::workload::Workload;
use la_core::json::Json;
use std::process::{Command, ExitCode};

struct Gated {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn load_contract() -> Result<(Vec<String>, Vec<Gated>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let doc = Json::parse(&text)?;
    let arr = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no array {key}"))
    };
    let text_of = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("BENCHMARK.json: entry without {key}"))
    };
    let workloads = arr("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let gated = arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Gated {
                name: text_of(m, "name")?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: metric without bound")?,
                higher_is_better: text_of(m, "better")? == "higher",
            })
        })
        .collect::<Result<_, String>>()?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    Ok((workloads, gated, seconds))
}

/// The estimators of one solve's latency that the second table compares:
/// `(label, section of the summary line, metric)` with `{op}` filled in.
const ESTIMATORS: [(&str, &str, &str); 4] = [
    ("floor", "end_to_end", "{op}_floor_ms"),
    ("p05", "run", "run.{op}_ms_p05"),
    ("p50", "run", "run.{op}_ms_p50"),
    ("mean", "run", "run.{op}_ms_mean"),
];

struct RunValues {
    /// One value per gated metric, from the line the driver reads.
    gated: Vec<f64>,
    /// gesv then posv, each in `ESTIMATORS` order, from the summary line.
    estimators: Vec<f64>,
}

/// One untraced run in a fresh process.
fn one_run(workload: &str, seed: u64, seconds: f64, gated: &[Gated]) -> Result<RunValues, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().unwrap_or_default())?;
    let summary = Json::parse(lines.next().unwrap_or_default())?;
    let value = |doc: &Json, section: &str, name: &str| {
        doc.get(section)
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or(format!("{workload} seed {seed}: no metric {name}"))
    };
    Ok(RunValues {
        gated: gated
            .iter()
            .map(|g| value(&result, "metrics", &g.name))
            .collect::<Result<_, _>>()?,
        estimators: ["gesv", "posv"]
            .iter()
            .flat_map(|op| ESTIMATORS.map(|(_, section, name)| (section, name.replace("{op}", op))))
            .map(|(section, name)| value(&summary, section, &name))
            .collect::<Result<_, _>>()?,
    })
}

/// Median, quartiles 1 and 3, and spread (their distance over the median).
fn describe(v: &[f64]) -> (f64, f64, f64, f64) {
    let (med, [q1, _, q3]) = (median(v), quartiles(v));
    (med, q1, q3, (q3 - q1) / med)
}

pub fn run(k: usize, only: Option<&Workload>, seed: u64, seconds: Option<f64>) -> ExitCode {
    match compare(k, only, seed, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("la_bench --aa: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(
    k: usize,
    only: Option<&Workload>,
    seed: u64,
    seconds: Option<f64>,
) -> Result<bool, String> {
    let (workloads, gated, run_seconds) = load_contract()?;
    let seconds = seconds.unwrap_or(run_seconds);
    let mut all_pass = true;
    let mut estimator_rows = Vec::new();
    println!(
        "| workload | metric | median A | q1..q3 A | spread A | median B | q1..q3 B | spread B | gap B vs A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for w in workloads
        .iter()
        .filter(|w| only.map_or(true, |o| o.name == **w))
    {
        // sets[set][metric] = the K values of that metric in that set.
        let mut sets = [vec![Vec::new(); gated.len()], vec![Vec::new(); gated.len()]];
        // estimators[e] = that estimator's value in each of the 2K runs.
        let mut estimators = vec![Vec::new(); 2 * ESTIMATORS.len()];
        for i in 0..k {
            for (s, set) in sets.iter_mut().enumerate() {
                let values = one_run(w, seed + (2 * i + s) as u64, seconds, &gated)?;
                for (column, v) in set.iter_mut().zip(values.gated) {
                    column.push(v);
                }
                for (column, v) in estimators.iter_mut().zip(values.estimators) {
                    column.push(v);
                }
            }
        }
        for (e, values) in estimators.iter().enumerate() {
            let (op, label) = (
                ["gesv", "posv"][e / ESTIMATORS.len()],
                ESTIMATORS[e % ESTIMATORS.len()].0,
            );
            let (med, _, _, spread) = describe(values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            estimator_rows.push(format!(
                "| {w} | {op} | {label} | {med:.5} | {:.2}% | {:.2}% |",
                100.0 * spread,
                100.0 * (hi - lo) / med
            ));
        }
        for (m, g) in gated.iter().enumerate() {
            let (med_a, q1_a, q3_a, spread_a) = describe(&sets[0][m]);
            let (med_b, q1_b, q3_b, spread_b) = describe(&sets[1][m]);
            let worse_by = if g.higher_is_better {
                (med_a - med_b) / med_a
            } else {
                (med_b - med_a) / med_a
            };
            // Set-up is one-shot per process, so only its medians are held
            // to the bound, not its spread.
            let spread_ok = g.name == "setup_s" || spread_a.max(spread_b) <= g.bound;
            let pass = spread_ok && worse_by <= g.bound;
            all_pass &= pass;
            println!(
                "| {w} | {} | {med_a:.5} | {q1_a:.5}..{q3_a:.5} | {:.2}% | {med_b:.5} | {q1_b:.5}..{q3_b:.5} | {:.2}% | {:+.2}% | {:.0}% | {} |",
                g.name,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * worse_by,
                100.0 * g.bound,
                if pass { "PASS" } else { "FAIL" },
            );
        }
    }
    println!(
        "\n| workload | solve | estimator | median of {} runs (ms) | spread | range / median |",
        2 * k
    );
    println!("|---|---|---|---|---|---|");
    estimator_rows.iter().for_each(|row| println!("{row}"));
    Ok(all_pass)
}
