//! End-to-end checks of the decision-provenance surface: `ccs synth
//! --ledger` must write a `ccs-ledger-v1` document that is
//! byte-identical for every `--threads` value, `ccs explain` must
//! answer hub/candidate/arc queries against it, and `ccs diff` must
//! report zero divergence between two runs of the same synthesis.
//!
//! The ledger (like the metrics recorder) is process-global, so every
//! test that enables it holds `LEDGER_LOCK`. This file is its own test
//! binary precisely so no unrelated synthesis runs concurrently while
//! a ledger is installed.

use ccs::obs::json::Value;
use ccs::obs::ledger::{Cause, Ledger, LEDGER_SCHEMA};
use std::sync::Mutex;

/// Give the allocator gauge something real to report, like the binary.
#[global_allocator]
static ALLOC: ccs::obs::alloc::CountingAlloc = ccs::obs::alloc::CountingAlloc::new();

static LEDGER_LOCK: Mutex<()> = Mutex::new(());

fn run(cmdline: &str) -> Result<String, String> {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    ccs::cli::run(&argv)
}

/// Generates a seeded WAN instance plus the paper library in a temp
/// dir, returns `(instance, library)` paths.
fn wan_files(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ccs-ledger-test-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("wan.ccs");
    let lib = dir.join("wan-lib.ccs");
    std::fs::write(
        &inst,
        run("gen wan --seed 20020610 --channels 14 --clusters 3").unwrap(),
    )
    .unwrap();
    std::fs::write(&lib, run("example library wan").unwrap()).unwrap();
    (inst, lib)
}

#[test]
fn ledger_is_byte_identical_across_thread_counts_and_diff_agrees() {
    let _guard = LEDGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("threads");
    let mut ledgers = Vec::new();
    let mut metrics_paths = Vec::new();
    for threads in [1, 4] {
        let ledger = inst.with_file_name(format!("run-{threads}.ledger.json"));
        let metrics = inst.with_file_name(format!("run-{threads}.metrics.json"));
        run(&format!(
            "synth --instance {} --library {} --threads {threads} --ledger {} --metrics-json {}",
            inst.display(),
            lib.display(),
            ledger.display(),
            metrics.display()
        ))
        .unwrap();
        ledgers.push(std::fs::read_to_string(&ledger).unwrap());
        metrics_paths.push(metrics);
    }
    assert_eq!(
        ledgers[0], ledgers[1],
        "ledger must be byte-identical across thread counts"
    );

    // The document parses back and records real decisions.
    let doc = ccs::obs::json::parse(&ledgers[0]).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(LEDGER_SCHEMA)
    );
    let ledger = Ledger::from_json(&doc).expect("well-formed ledger");
    assert!(
        ledger.cause(Cause::CoveringSelected).count > 0,
        "a synthesis run selects at least one candidate"
    );
    assert!(ledger.total() > ledger.cause(Cause::CoveringSelected).count);

    // `ccs diff` on the two metrics documents: thread count changes
    // scheduling (exec/alloc measurements) but no decision.
    let out = run(&format!(
        "diff {} {}",
        metrics_paths[0].display(),
        metrics_paths[1].display()
    ))
    .expect("thread counts must not diverge");
    assert!(out.contains("no divergence"), "{out}");
    assert!(
        out.contains("topology identical"),
        "embedded topology is compared: {out}"
    );

    // The metrics documents carry the allocator high-water mark so a
    // diff can attribute memory regressions.
    let text = std::fs::read_to_string(&metrics_paths[0]).unwrap();
    let m = ccs::obs::json::parse(&text).unwrap();
    assert!(
        m.get("gauges")
            .and_then(|g| g.get("alloc.peak_live_bytes"))
            .and_then(Value::as_num)
            .is_some_and(|v| v > 0.0),
        "{text}"
    );
}

#[test]
fn explain_answers_hub_candidate_and_arc_queries() {
    let _guard = LEDGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("explain");
    let ledger_path = inst.with_file_name("run.ledger.json");
    run(&format!(
        "synth --instance {} --library {} --ledger {}",
        inst.display(),
        lib.display(),
        ledger_path.display()
    ))
    .unwrap();
    let text = std::fs::read_to_string(&ledger_path).unwrap();
    let ledger = Ledger::from_json(&ccs::obs::json::parse(&text).unwrap()).unwrap();

    // Every selected candidate can be explained.
    let selected = ledger.cause(Cause::CoveringSelected).count as usize;
    for n in 0..selected {
        let out = run(&format!(
            "explain --ledger {} --hub {n}",
            ledger_path.display()
        ))
        .unwrap();
        assert!(out.contains("covering.selected"), "hub {n}: {out}");
    }
    // One past the end is an error.
    assert!(run(&format!(
        "explain --ledger {} --hub {selected}",
        ledger_path.display()
    ))
    .is_err());

    // A selected candidate's arc set replays its decision chain.
    let first = ledger
        .cause(Cause::CoveringSelected)
        .events()
        .next()
        .expect("sample retains every selected candidate");
    let arcs: Vec<String> = first.arcs.iter().map(u32::to_string).collect();
    let out = run(&format!(
        "explain --ledger {} --candidate {}",
        ledger_path.display(),
        arcs.join(",")
    ))
    .unwrap();
    assert!(out.contains("covering.selected"), "{out}");

    // Every constraint arc names its implementing candidate (the
    // point-to-point fallback guarantees full cover).
    let out = run(&format!(
        "explain --ledger {} --arc {}",
        ledger_path.display(),
        first.arcs[0]
    ))
    .unwrap();
    assert!(out.contains("implemented by selected candidate"), "{out}");

    // Malformed queries are rejected.
    let base = format!("explain --ledger {}", ledger_path.display());
    assert!(run(&base).is_err(), "a query flag is required");
    assert!(run(&format!("{base} --hub 0 --arc 1")).is_err());
    assert!(run(&format!("{base} --candidate x,y")).is_err());
    assert!(run("explain --hub 0").is_err(), "--ledger is required");
}

#[test]
fn diff_flags_a_real_divergence_and_rejects_bad_input() {
    let _guard = LEDGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("diverge");
    let a = inst.with_file_name("a.ledger.json");
    let b = inst.with_file_name("b.ledger.json");
    run(&format!(
        "synth --instance {} --library {} --ledger {}",
        inst.display(),
        lib.display(),
        a.display()
    ))
    .unwrap();
    // A genuinely different run: cap the merge order at 2.
    run(&format!(
        "synth --instance {} --library {} --max-k 2 --ledger {}",
        inst.display(),
        lib.display(),
        b.display()
    ))
    .unwrap();

    let same = run(&format!("diff {} {}", a.display(), a.display())).unwrap();
    assert!(same.contains("ledgers identical"), "{same}");

    let err = run(&format!("diff {} {}", a.display(), b.display()))
        .expect_err("a max-k change must diverge");
    assert!(err.contains("DIVERGED"), "{err}");

    assert!(run("diff only-one.json").is_err());
    assert!(run(&format!("diff {} /nonexistent.json", a.display())).is_err());
}

/// Subsets the placement kernel certifies as dominated are recorded as
/// `placement.dominated` with the certified bound and a `via=kernel`
/// detail, identically at every thread count, and `ccs explain` says
/// how the subset was decided.
#[test]
fn kernel_certified_merges_are_recorded_and_explained() {
    let _guard = LEDGER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("certified");
    let mut certified = Vec::new();
    let mut texts = Vec::new();
    for threads in [1, 4] {
        let ledger = inst.with_file_name(format!("cert-{threads}.ledger.json"));
        let metrics = inst.with_file_name(format!("cert-{threads}.metrics.json"));
        run(&format!(
            "synth --instance {} --library {} --threads {threads} --ledger {} --metrics-json {}",
            inst.display(),
            lib.display(),
            ledger.display(),
            metrics.display()
        ))
        .unwrap();
        let m = ccs::obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let count = m
            .get("counters")
            .and_then(|c| c.get("placement.lb_certified"))
            .and_then(Value::as_num)
            .expect("placement.lb_certified is exported");
        certified.push(count);
        texts.push(std::fs::read_to_string(&ledger).unwrap());
    }
    assert!(
        certified[0] > 0.0,
        "the certificate fires on a clustered WAN"
    );
    assert_eq!(certified[0], certified[1]);
    assert_eq!(texts[0], texts[1]);

    let ledger = Ledger::from_json(&ccs::obs::json::parse(&texts[0]).unwrap()).unwrap();
    let dominated = ledger.cause(Cause::PlacementDominated);
    assert!(dominated.count as f64 >= certified[0]);
    let event = dominated
        .events()
        .find(|e| e.detail_tag("via") == Some("kernel"))
        .expect("a sampled certified subset");
    assert!(event.cost >= event.bound * (1.0 - 1e-6), "{event:?}");
    let arcs: Vec<String> = event.arcs.iter().map(u32::to_string).collect();
    let out = run(&format!(
        "explain --ledger {} --candidate {}",
        inst.with_file_name("cert-1.ledger.json").display(),
        arcs.join(",")
    ))
    .unwrap();
    assert!(out.contains("placement kernel certified"), "{out}");
}
