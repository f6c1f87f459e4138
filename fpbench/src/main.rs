//! The FastPath benchmark: the paper's Table I experiment, timed end to end
//! and, in a traced run, layer by layer.
//!
//! ```text
//! fastpath-fpbench --workload <table1|serve_resubmit>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's case studies (set-up), then repeats whole
//! rounds of FastPath and formal-only baseline runs until `--seconds` are
//! spent, checks every result, and prints one JSON object as its last
//! line. `README.md` in this directory lists the workloads, metrics and
//! checks; `run.py` builds this program and adds the process's peak
//! memory.

use fastpath::cache::CacheKind;
use fastpath::{
    run_baseline_with, run_fastpath_with, CaseStudy, ClauseStore, CompletionMethod, FlowEvent,
    FlowOptions, FlowReport, ProofCache, UpecEngine, Verdict,
};
use fastpath_serve::{process_job, DiskStore, Job, JobMode, JobSource};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`. The `table1` set-up
/// (building the studies) takes a few milliseconds, and the host's speed changes in
/// bursts of that length, so it is repeated this many times before every
/// round: its samples then span the run like the timed ones. A serve
/// set-up fills a store with a cold certified run, so it is done twice,
/// before the first round.
const TABLE_SETUP_REPS: usize = 25;
const SERVE_SETUP_REPS: usize = 2;

/// FastPath runs per design in one round of `table1`. They are
/// cheap next to the baseline, so they are sampled more often to give
/// `fastpath_s` as many samples as the baselines' long runs average over.
const FASTPATH_REPEATS: usize = 3;

/// The conclusion a Table I row reaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Conclusion {
    True,
    Constrained,
    False,
}

impl Conclusion {
    fn of(verdict: &Verdict) -> Conclusion {
        match verdict {
            Verdict::DataOblivious => Conclusion::True,
            Verdict::ConstrainedDataOblivious(_) => Conclusion::Constrained,
            Verdict::NotDataOblivious => Conclusion::False,
        }
    }
}

/// One Table I row: the case study and the FastPath outcome the paper
/// reports for it.
struct Row {
    name: &'static str,
    build: fn() -> CaseStudy,
    conclusion: Conclusion,
    method: CompletionMethod,
}

/// The rows every workload times (README.md says why cv32e40s and BOOM
/// are left out).
const ROWS: [Row; 6] = [
    Row {
        name: "SHA512",
        build: fastpath_designs::sha512::case_study,
        conclusion: Conclusion::True,
        method: CompletionMethod::Hfg,
    },
    Row {
        name: "AES (opencores)",
        build: fastpath_designs::aes_opencores::case_study,
        conclusion: Conclusion::True,
        method: CompletionMethod::Hfg,
    },
    Row {
        name: "AES (secworks)",
        build: fastpath_designs::aes_secworks::case_study,
        conclusion: Conclusion::True,
        method: CompletionMethod::Hfg,
    },
    Row {
        name: "CVA6-DIV",
        build: fastpath_designs::cva6_div::case_study,
        conclusion: Conclusion::Constrained,
        method: CompletionMethod::Upec,
    },
    Row {
        name: "FWRISCV-MDS",
        build: fastpath_designs::fwrisc_mds::case_study,
        conclusion: Conclusion::Constrained,
        method: CompletionMethod::Upec,
    },
    Row {
        name: "ZipCPU-DIV",
        build: fastpath_designs::zipcpu_div::case_study,
        conclusion: Conclusion::False,
        method: CompletionMethod::Ift,
    },
];

/// The traced run of `table1` also runs BOOM's baseline once, the router
/// probe: BOOM is the Table I row whose word-level attempt is abandoned
/// and rerun in bits, so the router layer has numbers. Its baseline does
/// not simulate, so unlike its FastPath flow (whose verdict moves with the
/// testbench seed) it gives the same result for every `--seed`. The timed
/// rounds leave BOOM out.
const ROUTER_PROBE: Row = Row {
    name: "BOOM",
    build: fastpath_designs::boom::case_study,
    conclusion: Conclusion::Constrained,
    method: CompletionMethod::Upec,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Table1,
    ServeResubmit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1" => Some(Workload::Table1),
            "serve_resubmit" => Some(Workload::ServeResubmit),
            _ => None,
        }
    }

    /// The operations of one timed round: per design its FastPath runs,
    /// then its baseline run.
    fn round_ops(self) -> Vec<Op> {
        let repeats = match self {
            Workload::Table1 => FASTPATH_REPEATS,
            Workload::ServeResubmit => 1,
        };
        let mut ops = Vec::new();
        for slot in 0..ROWS.len() {
            ops.extend((0..repeats).map(|rep| Op::new(slot, Flow::FastPath, rep)));
            ops.push(Op::new(slot, Flow::Baseline, 0));
        }
        ops
    }
}

/// Each flow once per design: the serve set-up's cold fill, and the
/// traced run's attribution passes.
fn single_ops(designs: usize) -> Vec<Op> {
    (0..designs)
        .flat_map(|slot| {
            [
                Op::new(slot, Flow::FastPath, 0),
                Op::new(slot, Flow::Baseline, 0),
            ]
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Flow {
    FastPath,
    Baseline,
}

impl Flow {
    fn name(self) -> &'static str {
        match self {
            Flow::FastPath => "fastpath",
            Flow::Baseline => "baseline",
        }
    }
}

/// One flow run of one design: `slot` indexes the bench's studies, `rep`
/// numbers the repeats of the same run within a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Op {
    slot: usize,
    flow: Flow,
    rep: usize,
}

impl Op {
    fn new(slot: usize, flow: Flow, rep: usize) -> Op {
        Op { slot, flow, rep }
    }
}

/// What one operation returned, reduced to what the checks and metrics
/// read. `report` is absent for a `process_job` resubmission, which
/// answers with a `JobOutcome`.
struct Outcome {
    wall: f64,
    verdict: Verdict,
    method: String,
    inspections: u64,
    cache_misses: u64,
    certified: Option<bool>,
    report: Option<FlowReport>,
}

impl Outcome {
    fn from_report(wall: f64, report: FlowReport) -> Outcome {
        Outcome {
            wall,
            verdict: report.verdict.clone(),
            method: report.method.to_string(),
            inspections: report.manual_inspections,
            cache_misses: report.cache.unwrap_or_default().misses,
            certified: report.fully_certified(),
            report: Some(report),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds one row's case study. The benchmark seed offsets the study's own
/// testbench seed, so seed 0 runs the study as shipped.
fn build_study(row: &'static Row, seed: u64) -> (&'static Row, CaseStudy) {
    let mut study = (row.build)();
    study.seed = study.seed.wrapping_add(seed);
    (row, study)
}

struct Bench {
    studies: Vec<(&'static Row, CaseStudy)>,
    /// The filled proof store (`serve_resubmit` only).
    store: Option<Arc<DiskStore>>,
    /// The cold set-up run of every op of `single_ops` (`serve_resubmit`
    /// only).
    cold: Vec<(Op, Outcome)>,
}

impl Bench {
    fn options(&self, engine: UpecEngine) -> FlowOptions {
        FlowOptions {
            cache: self
                .store
                .as_ref()
                .map(|s| Arc::clone(s) as Arc<dyn ProofCache>),
            // The daemon's flow options (a fresh snapshot per job).
            clause_store: self
                .store
                .as_ref()
                .map(|_| Arc::new(ClauseStore::in_memory())),
            upec_engine: engine,
            ..FlowOptions::default()
        }
    }

    /// Runs one operation through the flow library.
    fn run_flow(&self, op: Op, engine: UpecEngine) -> Outcome {
        let study = &self.studies[op.slot].1;
        let options = self.options(engine);
        let t0 = Instant::now();
        let report = match op.flow {
            Flow::FastPath => run_fastpath_with(study, options),
            Flow::Baseline => run_baseline_with(study, options),
        };
        Outcome::from_report(t0.elapsed().as_secs_f64(), report)
    }

    /// Runs one timed operation: a FastPath resubmission of
    /// `serve_resubmit` goes through the daemon's `process_job`.
    fn run_op(&self, op: Op) -> Outcome {
        let Some(store) = self.store.as_ref().filter(|_| op.flow == Flow::FastPath) else {
            return self.run_flow(op, UpecEngine::Ic3);
        };
        let study = &self.studies[op.slot].1;
        let job = Job {
            name: study.name.clone(),
            mode: JobMode::Full,
            cycles: None,
            seed: Some(study.seed),
            source: JobSource::Study(study.name.clone()),
        };
        let clauses = Arc::new(ClauseStore::in_memory());
        let t0 = Instant::now();
        let result = process_job(store, &clauses, &job);
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok(out) => Outcome {
                wall,
                verdict: out.verdict,
                method: out.method,
                inspections: out.inspections,
                cache_misses: out.cache.misses,
                certified: Some(out.certified),
                report: None,
            },
            // The method check reports the error.
            Err(e) => Outcome {
                wall,
                verdict: Verdict::NotDataOblivious,
                method: format!("job error: {e}"),
                inspections: 0,
                cache_misses: 0,
                certified: Some(false),
                report: None,
            },
        }
    }

    fn cold(&self, op: Op) -> Option<&Outcome> {
        self.cold
            .iter()
            .find(|(c, _)| c.slot == op.slot && c.flow == op.flow)
            .map(|(_, out)| out)
    }
}

/// Everything wrong with one operation's result. `resubmission` compares
/// a `serve_resubmit` result with the cold run of the same op.
fn check_op(bench: &Bench, op: Op, out: &Outcome, resubmission: bool) -> Vec<String> {
    let row = bench.studies[op.slot].0;
    let mut errors = Vec::new();
    if Conclusion::of(&out.verdict) != row.conclusion {
        errors.push(format!(
            "verdict {} (paper: {:?})",
            out.verdict, row.conclusion
        ));
    }
    if op.flow == Flow::FastPath {
        if out.method != row.method.to_string() {
            errors.push(format!("method {} (paper: {})", out.method, row.method));
        }
        if row.method == CompletionMethod::Hfg && out.inspections != 0 {
            errors.push(format!("HFG proof charged {} inspections", out.inspections));
        }
    }
    // A run with the proof store attached certifies every verdict.
    let certifies = bench.store.is_some();
    if certifies && out.certified != Some(true) {
        errors.push("not fully certified".to_string());
    }
    if let (true, Some(report)) = (certifies, &out.report) {
        errors.extend(certification_errors(report));
    }
    if let Some(cold) = bench.cold(op).filter(|_| resubmission) {
        if out.verdict != cold.verdict
            || out.method != cold.method
            || out.inspections != cold.inspections
        {
            errors.push(format!(
                "warm {:?} {} {} differs from cold {:?} {} {}",
                out.verdict,
                out.method,
                out.inspections,
                cold.verdict,
                cold.method,
                cold.inspections
            ));
        }
        if out.cache_misses != 0 {
            errors.push(format!("{} cache misses on a warm store", out.cache_misses));
        }
        if cold.certified != Some(true) {
            errors.push("cold set-up run not fully certified".to_string());
        }
        if let Some(report) = &cold.report {
            errors.extend(certification_errors(report));
        }
    }
    errors
}

/// Certificate failures, and failing checks without a concrete replay.
fn certification_errors(report: &FlowReport) -> Vec<String> {
    let Some(cert) = &report.certification else {
        return vec!["no certification summary".to_string()];
    };
    let mut errors: Vec<String> = cert.failures.clone();
    if cert.stats.cert_failures != 0 {
        errors.push(format!("{} certificate failures", cert.stats.cert_failures));
    }
    let failing = report
        .events
        .iter()
        .filter(|e| matches!(e, FlowEvent::UpecCheck { holds: false }))
        .count() as u64;
    if cert.counterexamples_replayed < failing {
        errors.push(format!(
            "{} counterexamples replayed for {failing} failing checks",
            cert.counterexamples_replayed
        ));
    }
    errors
}

/// Counts failed operations of one round or pass, printing each failure
/// to stderr.
fn count_failures(
    bench: &Bench,
    ops: &[Op],
    outcomes: &[Outcome],
    resubmission: bool,
    label: &str,
) -> u64 {
    let mut failed = 0;
    for (op, out) in ops.iter().zip(outcomes) {
        let mut errors = check_op(bench, *op, out, resubmission);
        if op.flow == Flow::FastPath {
            // FastPath never needs more inspections than the baseline.
            let baseline = ops
                .iter()
                .zip(outcomes)
                .find(|(b, _)| b.slot == op.slot && b.flow == Flow::Baseline);
            if let Some((_, base)) = baseline {
                if out.inspections > base.inspections {
                    errors.push(format!(
                        "{} inspections, baseline {}",
                        out.inspections, base.inspections
                    ));
                }
            }
        }
        if !errors.is_empty() {
            failed += 1;
            eprintln!(
                "FAILED {label} {} {}: {}",
                bench.studies[op.slot].0.name,
                op.flow.name(),
                errors.join("; ")
            );
        }
    }
    failed
}

/// Manual inspections of one flow, summed over designs (each design's
/// first run of the round).
fn inspections(ops: &[Op], outcomes: &[Outcome], flow: Flow) -> u64 {
    ops.iter()
        .zip(outcomes)
        .filter(|(op, _)| op.flow == flow && op.rep == 0)
        .map(|(_, o)| o.inspections)
        .sum()
}

/// Reads every record of the store through its public API; an entry that
/// does not decode is an error (nothing in a freshly filled store should
/// be corrupt).
fn read_store(store: &DiskStore) -> Result<usize, String> {
    let mut records = 0;
    for (dir, kind) in [
        ("checks", Some(CacheKind::Check)),
        ("sims", Some(CacheKind::Sim)),
        ("invariants", Some(CacheKind::Invariant)),
        ("modules", None),
    ] {
        for key in store_keys(&store.root().join(dir))? {
            let ok = match kind {
                Some(kind) => store.load(kind, &key).is_some_and(|text| match kind {
                    CacheKind::Check => fastpath::cache::decode_check(&text).is_ok(),
                    CacheKind::Sim => fastpath::cache::decode_sim(&text).is_ok(),
                    CacheKind::Invariant => fastpath::cache::decode_invariant(&text).is_ok(),
                }),
                None => store.load_manifest(&key).is_some(),
            };
            if !ok {
                return Err(format!(
                    "store record {dir}/{} does not decode",
                    key.to_hex()
                ));
            }
            records += 1;
        }
    }
    Ok(records)
}

fn store_keys(dir: &Path) -> Result<Vec<fastpath_rtl::Digest>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut keys: Vec<_> = entries
        .flatten()
        .filter_map(|e| fastpath_rtl::Digest::from_hex(e.file_name().to_str()?))
        .collect();
    keys.sort_by_key(|k| k.to_hex());
    Ok(keys)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Scratch space for the serve store, inside the working directory.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".fpbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".fpbench_work");
    }
}

/// Times `TABLE_SETUP_REPS` builds of the studies, the set-up of
/// `table1`, and returns the last.
fn build_reps(seed: u64, samples: &mut Vec<f64>) -> Vec<(&'static Row, CaseStudy)> {
    let mut studies = Vec::new();
    for _ in 0..TABLE_SETUP_REPS {
        let t0 = Instant::now();
        studies = ROWS.iter().map(|row| build_study(row, seed)).collect();
        samples.push(t0.elapsed().as_secs_f64());
    }
    studies
}

/// Set-up of `serve_resubmit`: build the case studies and fill a fresh
/// proof store with a cold certified run, `SERVE_SETUP_REPS` times.
/// Returns the bench of the last repetition and the set-up and build
/// times of each.
fn serve_set_up(args: &Args, work: &WorkDir) -> Result<(Bench, Vec<f64>, Vec<f64>), String> {
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut bench = None;
    for rep in 0..SERVE_SETUP_REPS {
        let t0 = Instant::now();
        let studies = ROWS.iter().map(|row| build_study(row, args.seed)).collect();
        builds.push(t0.elapsed().as_secs_f64());
        let root = work.0.join(format!("store{rep}"));
        let store = DiskStore::open(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let mut b = Bench {
            studies,
            store: Some(Arc::new(store)),
            cold: Vec::new(),
        };
        b.cold = single_ops(ROWS.len())
            .into_iter()
            .map(|op| (op, b.run_flow(op, UpecEngine::Ic3)))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(store) = bench.replace(b).and_then(|old| old.store) {
            let _ = std::fs::remove_dir_all(store.root());
        }
    }
    let bench = bench.expect("at least one set-up repetition");
    Ok((bench, setups, builds))
}

/// Per-layer sums over a set of ops, one value per metric.
#[derive(Default)]
struct Layers {
    escalation: f64,
    ctis: u64,
    lemmas: u64,
    frames: u64,
    unattributed: f64,
    word_fallbacks: u64,
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    checks_s: f64,
    elaboration_s: f64,
    checks: u64,
    check_sat_clauses: u64,
    cert_backward: f64,
    certified_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
    sim_ift: f64,
    sim_cycles: u64,
    structural: f64,
}

impl Layers {
    /// The layers of one report-bearing run; `induction_wall` is the same
    /// run's wall time under the escalation-free engine.
    fn of(report: &FlowReport, wall: f64, induction_wall: f64) -> Layers {
        let t = &report.timings;
        let ic3 = report.ic3.unwrap_or_default();
        let cache = report.cache.unwrap_or_default();
        Layers {
            escalation: wall - induction_wall,
            ctis: ic3.ctis,
            lemmas: ic3.lemmas,
            frames: ic3.frames,
            unattributed: wall
                - (t.structural + t.simulation + t.formal_elaboration + t.formal_checks)
                    .as_secs_f64(),
            word_fallbacks: report.product.word_fallbacks,
            conflicts: report.solver_stats.conflicts,
            propagations: report.solver_stats.propagations,
            decisions: report.solver_stats.decisions,
            checks_s: t.formal_checks.as_secs_f64(),
            elaboration_s: t.formal_elaboration.as_secs_f64(),
            checks: t.check_count,
            check_sat_clauses: report.product.check_sat_clauses,
            cert_backward: t.cert_backward.as_secs_f64(),
            certified_checks: report
                .certification
                .as_ref()
                .map_or(0, |c| c.stats.certified_checks),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            sim_ift: t.simulation.as_secs_f64(),
            sim_cycles: report.sim.cycles,
            structural: t.structural.as_secs_f64(),
        }
    }

    fn add(&mut self, o: &Layers) {
        self.escalation += o.escalation;
        self.ctis += o.ctis;
        self.lemmas += o.lemmas;
        self.frames += o.frames;
        self.unattributed += o.unattributed;
        self.word_fallbacks += o.word_fallbacks;
        self.conflicts += o.conflicts;
        self.propagations += o.propagations;
        self.decisions += o.decisions;
        self.checks_s += o.checks_s;
        self.elaboration_s += o.elaboration_s;
        self.checks += o.checks;
        self.check_sat_clauses += o.check_sat_clauses;
        self.cert_backward += o.cert_backward;
        self.certified_checks += o.certified_checks;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.sim_ift += o.sim_ift;
        self.sim_cycles += o.sim_cycles;
        self.structural += o.structural;
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn run(args: &Args) -> Result<(), String> {
    let work = match args.workload {
        Workload::ServeResubmit => Some(WorkDir::new()?),
        _ => None,
    };
    let (mut bench, setups, mut builds) = match &work {
        Some(work) => serve_set_up(args, work)?,
        None => {
            let mut builds = Vec::new();
            let studies = build_reps(args.seed, &mut builds);
            let bench = Bench {
                studies,
                store: None,
                cold: Vec::new(),
            };
            (bench, Vec::new(), builds)
        }
    };
    let store_bytes = bench.store.as_ref().map_or(0, |s| s.usage().bytes);
    let ops = args.workload.round_ops();

    // Timed rounds: whole rounds while another one fits in the budget
    // (always at least one).
    let start = Instant::now();
    let mut rounds: Vec<Vec<Outcome>> = Vec::new();
    loop {
        if work.is_none() && !rounds.is_empty() {
            build_reps(args.seed, &mut builds);
        }
        let t0 = Instant::now();
        rounds.push(ops.iter().map(|&op| bench.run_op(op)).collect());
        eprintln!(
            "round {}: {:.3} s",
            rounds.len() - 1,
            t0.elapsed().as_secs_f64()
        );
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / rounds.len() as f64 > args.seconds {
            break;
        }
    }
    let mut attempted = (rounds.len() * ops.len()) as u64;
    let mut failed = 0u64;
    for (i, outcomes) in rounds.iter().enumerate() {
        failed += count_failures(&bench, &ops, outcomes, true, &format!("round {i}"));
    }
    // Every round runs the same deterministic flows: the effort columns
    // must repeat exactly.
    let effort = |ops: &[Op], outcomes: &[Outcome]| {
        (
            inspections(ops, outcomes, Flow::FastPath),
            inspections(ops, outcomes, Flow::Baseline),
        )
    };
    let (fastpath_inspections, baseline_inspections) = effort(&ops, &rounds[0]);
    let mut correct = rounds
        .iter()
        .all(|r| effort(&ops, r) == (fastpath_inspections, baseline_inspections));
    // Each design's median run time per flow, over every sample of every
    // round, summed over designs: a burst of load on the host then moves
    // single samples, not the result.
    let design_median = |slot: usize, flow: Flow| -> f64 {
        let samples = rounds.iter().flat_map(|r| {
            ops.iter()
                .zip(r)
                .filter(move |(op, _)| op.slot == slot && op.flow == flow)
                .map(|(_, o)| o.wall)
        });
        median(samples.collect())
    };
    for (slot, row) in ROWS.iter().enumerate() {
        eprintln!(
            "{:<16} median fastpath {:.4} s, baseline {:.4} s",
            row.name,
            design_median(slot, Flow::FastPath),
            design_median(slot, Flow::Baseline)
        );
    }
    let share = |flow: Flow| -> f64 { (0..ROWS.len()).map(|slot| design_median(slot, flow)).sum() };
    let (fastpath_s, baseline_s) = (share(Flow::FastPath), share(Flow::Baseline));
    let wall_s = fastpath_s + baseline_s;
    let build_s = median(builds);
    // The `table1` set-up is building the studies.
    let setup_s = if work.is_some() {
        median(setups)
    } else {
        build_s
    };

    if !args.trace {
        if !correct {
            eprintln!("inspection counts differ between rounds");
        }
        print_result(
            correct,
            attempted,
            failed,
            &[
                ("setup_s", setup_s, "s"),
                ("wall_s", wall_s, "s"),
                ("fastpath_s", fastpath_s, "s"),
                ("baseline_s", baseline_s, "s"),
                ("inspections", fastpath_inspections as f64, "count"),
                ("baseline_inspections", baseline_inspections as f64, "count"),
            ],
        );
        return Ok(());
    }

    // The traced pass: each design's two flows once through the flow
    // library, so every result carries its FlowReport, then probes of the
    // layers a report does not time. Its wall time against the untraced
    // `wall_s` is the tracing overhead.
    let traced_ops = single_ops(ROWS.len());
    let t0 = Instant::now();
    let traced: Vec<Outcome> = traced_ops
        .iter()
        .map(|&op| bench.run_flow(op, UpecEngine::Ic3))
        .collect();
    let t = Instant::now();
    for (_, study) in &bench.studies {
        std::hint::black_box(fastpath_rtl::canonical_form(&study.instance.module));
    }
    let canonical_form_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if let Some(store) = &bench.store {
        read_store(store)?;
    }
    let store_read_s = t.elapsed().as_secs_f64();
    let traced_wall = t0.elapsed().as_secs_f64();
    failed += count_failures(&bench, &traced_ops, &traced, true, "traced pass");
    correct &= effort(&traced_ops, &traced) == (fastpath_inspections, baseline_inspections);

    // The router probe (`table1` only), then every traced op once more
    // under the escalation-free induction engine for `ic3.escalation_s`.
    let mut attributed: Vec<(Op, Outcome)> = traced_ops.iter().copied().zip(traced).collect();
    if args.workload == Workload::Table1 {
        bench.studies.push(build_study(&ROUTER_PROBE, args.seed));
        let op = Op::new(bench.studies.len() - 1, Flow::Baseline, 0);
        let out = bench.run_flow(op, UpecEngine::Ic3);
        failed += count_failures(
            &bench,
            &[op],
            std::slice::from_ref(&out),
            true,
            "router probe",
        );
        attributed.push((op, out));
    }
    let attributed_ops: Vec<Op> = attributed.iter().map(|(op, _)| *op).collect();
    let induction: Vec<Outcome> = attributed_ops
        .iter()
        .map(|&op| bench.run_flow(op, UpecEngine::Induction))
        .collect();
    // Induction reruns are not resubmissions: their cache keys and effort
    // legitimately differ from the cold IC3 run.
    failed += count_failures(&bench, &attributed_ops, &induction, false, "induction pass");
    attempted += 2 * attributed_ops.len() as u64;

    let mut total = Layers::default();
    let mut breakdown = String::new();
    for ((op, out), ind) in attributed.iter().zip(&induction) {
        let Some(report) = &out.report else {
            continue;
        };
        let layers = Layers::of(report, out.wall, ind.wall);
        let _ = writeln!(
            breakdown,
            "  {:<16} {:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>8.3} {:>5} {:>5} {:>8.4} {:>8.4}",
            bench.studies[op.slot].0.name,
            op.flow.name(),
            out.wall,
            layers.escalation,
            layers.unattributed,
            layers.checks_s,
            layers.conflicts,
            layers.cert_backward,
            layers.cache_hits,
            layers.cache_misses,
            layers.sim_ift,
            layers.structural,
        );
        total.add(&layers);
    }
    if args.workload == Workload::ServeResubmit {
        // Certification happens when the store is filled: the cert layer
        // is the cold set-up run's.
        total.cert_backward = 0.0;
        total.certified_checks = 0;
        for report in bench.cold.iter().filter_map(|(_, c)| c.report.as_ref()) {
            let layers = Layers::of(report, 0.0, 0.0);
            total.cert_backward += layers.cert_backward;
            total.certified_checks += layers.certified_checks;
        }
    }
    println!(
        "per design and flow (traced pass):\n  {:<16} {:<8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8} {:>5} {:>5} {:>8} {:>8}\n{breakdown}",
        "design", "flow", "wall_s", "esc_s", "unattr_s", "checks_s", "conflicts", "cert_s",
        "hits", "miss", "ift_s", "hfg_s"
    );
    let sim_rate = if total.sim_ift > 0.0 {
        total.sim_cycles as f64 / total.sim_ift
    } else {
        0.0
    };
    print_result(
        correct,
        attempted,
        failed,
        &[
            ("ic3.escalation_s", total.escalation, "s"),
            ("ic3.ctis", total.ctis as f64, "count"),
            ("ic3.lemmas", total.lemmas as f64, "count"),
            ("ic3.frames", total.frames as f64, "count"),
            ("core.unattributed_s", total.unattributed, "s"),
            (
                "formal.word_fallbacks",
                total.word_fallbacks as f64,
                "count",
            ),
            ("sat.conflicts", total.conflicts as f64, "count"),
            ("sat.propagations", total.propagations as f64, "count"),
            ("sat.decisions", total.decisions as f64, "count"),
            ("formal.checks_s", total.checks_s, "s"),
            ("formal.elaboration_s", total.elaboration_s, "s"),
            ("formal.checks", total.checks as f64, "count"),
            (
                "formal.check_sat_clauses",
                total.check_sat_clauses as f64,
                "count",
            ),
            ("cert.backward_s", total.cert_backward, "s"),
            (
                "cert.certified_checks",
                total.certified_checks as f64,
                "count",
            ),
            ("cache.hits", total.cache_hits as f64, "count"),
            ("cache.misses", total.cache_misses as f64, "count"),
            ("serve.store_bytes", store_bytes as f64, "bytes"),
            ("serve.store_read_s", store_read_s, "s"),
            ("rtl.canonical_form_s", canonical_form_s, "s"),
            ("sim.ift_s", total.sim_ift, "s"),
            ("sim.cycles", total.sim_cycles as f64, "count"),
            ("sim.cycles_per_s", sim_rate, "1/s"),
            ("hfg.structural_s", total.structural, "s"),
            ("designs.build_s", build_s, "s"),
            ("trace.overhead_s", traced_wall - wall_s, "s"),
        ],
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fastpath-fpbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("fastpath-fpbench: {e}");
        std::process::exit(1);
    }
}
