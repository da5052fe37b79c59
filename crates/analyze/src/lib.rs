//! Static analyzer over compiled RAP automata images.
//!
//! `rap-analyze` runs fixed-point dataflow (forward reachability from the
//! initial states, backward liveness from the accepting states) over all
//! three compiled IRs — Glushkov NFA, NBVA, and LNFA chains — plus
//! IR-specific range and ambiguity passes, and reports findings through
//! the shared [`rap_diag`] machinery (one JSON schema with `rap lint`).
//!
//! The diagnostic families:
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `A001-unreachable-state` | warning | no input activates the state |
//! | `A002-dead-state` | warning | activates, but no match depends on it |
//! | `A003-dead-transition` | info | edges that never carry live activation |
//! | `A004-empty-class` | warning | unsatisfiable character class |
//! | `A005-dead-bv-column` | warning | BV columns above the read point |
//! | `A006-counter-overflow` | error | `r(m)` outside `1..=width` |
//! | `A007-counter-saturation` | error | BV allocation smaller than vector |
//! | `A008-ambiguous-overlap` | info | overlapping successor classes |
//! | `A009-compile-error` | error | pattern failed to compile |
//! | `A010-rewrite-unsound` | error | compiled image diverges from reference |
//! | `A011-redundant-state` | info | prune mode would shrink the image |
//!
//! With [`AnalyzeOptions::prune`] the analyzer also *rewrites* the images:
//! dead states are removed and right/left-equivalent states merged (see
//! [`prune`]), preserving match semantics exactly — the optional
//! [`soundness`] pass proves the final images equivalent to their source
//! patterns by exact product construction.

mod dataflow;
mod graph;
mod passes;
pub mod prune;
pub mod soundness;

pub use dataflow::Facts;
pub use prune::{prune_all, prune_image, PruneStats};
pub use soundness::{
    check as check_soundness, check_overlap, compiled_match_ends, representatives, Overlap,
    SoundnessConfig,
};

use rap_compiler::{CompileError, Compiled, Mode};
use rap_diag::{Location, RuleCode};
use rap_regex::Pattern;
use rap_telemetry::{Histogram, Registry};
use std::fmt;

pub use rap_diag::Severity;

/// The analyzer's rule family (`A001`…). Codes are stable and append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A001: no path from an initial state ever activates the state.
    UnreachableState,
    /// A002: the state can activate but no match ever depends on it.
    DeadState,
    /// A003: transitions that can never carry a live activation.
    DeadTransition,
    /// A004: the state's character class matches no byte.
    EmptyClass,
    /// A005: BV columns above the read point can never influence a match.
    DeadBvColumn,
    /// A006: a read `r(m)` with `m = 0` or `m > width` can never succeed.
    CounterOverflow,
    /// A007: the BV allocation cannot hold the vector; counts saturate.
    CounterSaturation,
    /// A008: successor sets with overlapping classes duplicate activations.
    AmbiguousOverlap,
    /// A009: the pattern failed to compile (typed compiler error).
    CompileError,
    /// A010: the compiled image diverges from the reference automaton.
    RewriteUnsound,
    /// A011: dead-state pruning / equivalence merging would shrink the image.
    RedundantState,
}

impl Rule {
    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnreachableState => "A001-unreachable-state",
            Rule::DeadState => "A002-dead-state",
            Rule::DeadTransition => "A003-dead-transition",
            Rule::EmptyClass => "A004-empty-class",
            Rule::DeadBvColumn => "A005-dead-bv-column",
            Rule::CounterOverflow => "A006-counter-overflow",
            Rule::CounterSaturation => "A007-counter-saturation",
            Rule::AmbiguousOverlap => "A008-ambiguous-overlap",
            Rule::CompileError => "A009-compile-error",
            Rule::RewriteUnsound => "A010-rewrite-unsound",
            Rule::RedundantState => "A011-redundant-state",
        }
    }

    /// The fixed severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::DeadTransition | Rule::AmbiguousOverlap | Rule::RedundantState => Severity::Info,
            Rule::UnreachableState | Rule::DeadState | Rule::EmptyClass | Rule::DeadBvColumn => {
                Severity::Warning
            }
            Rule::CounterOverflow
            | Rule::CounterSaturation
            | Rule::CompileError
            | Rule::RewriteUnsound => Severity::Error,
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Rule; 11] {
        [
            Rule::UnreachableState,
            Rule::DeadState,
            Rule::DeadTransition,
            Rule::EmptyClass,
            Rule::DeadBvColumn,
            Rule::CounterOverflow,
            Rule::CounterSaturation,
            Rule::AmbiguousOverlap,
            Rule::CompileError,
            Rule::RewriteUnsound,
            Rule::RedundantState,
        ]
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// An analyzer finding.
pub type Diagnostic = rap_diag::Diagnostic<Rule>;
/// An analyzer report (shared JSON schema with `rap lint`).
pub type Report = rap_diag::Report<Rule>;

/// What the analyzer should do beyond reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AnalyzeOptions {
    /// Rewrite the images: remove dead states and merge equivalent ones.
    /// The returned [`Analysis::images`] then carry the reduced automata.
    pub prune: bool,
    /// Prove every (possibly pruned) image equivalent to its source
    /// pattern by exact product construction, reporting divergences as
    /// `A010-rewrite-unsound`.
    pub soundness: Option<SoundnessConfig>,
}

impl AnalyzeOptions {
    /// Reporting only: no rewriting, no model check.
    pub fn report_only() -> AnalyzeOptions {
        AnalyzeOptions::default()
    }

    /// Enables pruning (builder style).
    #[must_use]
    pub fn with_prune(mut self) -> AnalyzeOptions {
        self.prune = true;
        self
    }

    /// Enables the soundness check (builder style).
    #[must_use]
    pub fn with_soundness(mut self, cfg: SoundnessConfig) -> AnalyzeOptions {
        self.soundness = Some(cfg);
        self
    }
}

/// Aggregate counters over one analyzed workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Images analyzed.
    pub images: u64,
    /// Hardware states before any rewriting.
    pub states_before: u64,
    /// Hardware states in the returned images.
    pub states_after: u64,
    /// Unreachable states found (A001).
    pub unreachable_states: u64,
    /// Dead states found (A002).
    pub dead_states: u64,
    /// Dead transitions found (A003).
    pub dead_transitions: u64,
    /// Dead bit-vector bits found (A005).
    pub dead_bv_bits: u64,
    /// States the merge passes would collapse (dry run; independent of
    /// whether pruning was applied).
    pub mergeable_states: u64,
    /// States actually removed from the returned images
    /// (`states_before − states_after`; zero unless pruning is on).
    pub pruned_states: u64,
}

/// Per-image findings summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageSummary {
    /// Execution mode of the image.
    pub mode: Mode,
    /// Hardware states in the original image.
    pub states: u64,
    /// Unreachable states (A001).
    pub unreachable: u64,
    /// Dead states (A002).
    pub dead: u64,
    /// Dead transitions (A003).
    pub dead_transitions: u64,
    /// States a prune would remove (dead + mergeable).
    pub prunable: u64,
    /// Ambiguous successor sets (A008).
    pub ambiguous_sets: u64,
}

/// The analyzer's output: the report, the (possibly rewritten) images, and
/// aggregate statistics.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Every finding, in pattern order.
    pub report: Report,
    /// The images to hand downstream: pruned when
    /// [`AnalyzeOptions::prune`] was set, otherwise clones of the input.
    pub images: Vec<Compiled>,
    /// Aggregate counters.
    pub stats: AnalyzeStats,
    /// One summary per image.
    pub summaries: Vec<ImageSummary>,
}

/// Runs every pass over a compiled workload. `patterns` provides the
/// source pattern for each image (same indexing); it is only consulted by
/// the soundness check and may be empty when that pass is off.
pub fn analyze(images: &[Compiled], patterns: &[Pattern], options: &AnalyzeOptions) -> Analysis {
    analyze_with_registry(images, patterns, options, None)
}

/// Optionally records per-pass wall-clock histograms
/// (`rap_analyze_pass_ns{pass=…}`) and the pruned-state counter
/// (`rap_analyze_states_pruned_total`) into `registry`.
pub fn analyze_with_registry(
    images: &[Compiled],
    patterns: &[Pattern],
    options: &AnalyzeOptions,
    registry: Option<&Registry>,
) -> Analysis {
    let pass_hist =
        |pass: &str| registry.map(|r| r.histogram("rap_analyze_pass_ns", &[("pass", pass)]));
    let mut report = Report::default();
    let mut stats = AnalyzeStats {
        images: images.len() as u64,
        ..AnalyzeStats::default()
    };
    let mut out_images = Vec::with_capacity(images.len());
    let mut summaries = Vec::with_capacity(images.len());

    for (i, image) in images.iter().enumerate() {
        let f = timed(pass_hist("dataflow"), || passes::image_facts(image));
        let sc = timed(pass_hist("structural"), || {
            passes::structural(&mut report, i, &f)
        });
        let cc = timed(pass_hist("counters"), || match image {
            Compiled::Nbva(c) => passes::counters(&mut report, i, c),
            _ => passes::CounterCounts::default(),
        });
        let ambiguous = timed(pass_hist("overlap"), || {
            passes::overlap(&mut report, i, image)
        });

        // The prune always dry-runs (for the A011 advisory and the stats);
        // its result is kept only in prune mode.
        let (pruned, pstats) = timed(pass_hist("prune"), || prune::prune_image(image));
        let before = pstats.states_before;
        stats.states_before += before;
        stats.unreachable_states += sc.unreachable;
        stats.dead_states += sc.dead;
        stats.dead_transitions += sc.dead_transitions;
        stats.dead_bv_bits += cc.dead_bv_bits;
        stats.mergeable_states += pstats.merged;
        if pstats.removed() > 0 {
            report.push(
                Rule::RedundantState,
                Rule::RedundantState.severity(),
                Location::of_pattern(i),
                format!(
                    "pruning would reduce the image from {before} to {} states \
                     ({} dead removed, {} merged by equivalence)",
                    pstats.states_after, pstats.removed_dead, pstats.merged
                ),
            );
        }
        summaries.push(ImageSummary {
            mode: image.mode(),
            states: before,
            unreachable: sc.unreachable,
            dead: sc.dead,
            dead_transitions: sc.dead_transitions,
            prunable: pstats.removed(),
            ambiguous_sets: ambiguous,
        });
        let out = if options.prune { pruned } else { image.clone() };
        stats.states_after += out.state_count();

        if let Some(cfg) = &options.soundness {
            if let Some(pattern) = patterns.get(i) {
                let mismatch = timed(pass_hist("soundness"), || {
                    soundness::check(&out, pattern, cfg)
                });
                if let Some(description) = mismatch {
                    report.push(
                        Rule::RewriteUnsound,
                        Rule::RewriteUnsound.severity(),
                        Location::of_pattern(i),
                        format!(
                            "compiled image diverges from the reference \
                             automaton: {description}"
                        ),
                    );
                }
            }
        }
        out_images.push(out);
    }
    stats.pruned_states = stats.states_before - stats.states_after;
    if let Some(r) = registry {
        r.counter("rap_analyze_states_pruned_total", &[])
            .add(stats.pruned_states);
    }
    Analysis {
        report,
        images: out_images,
        stats,
        summaries,
    }
}

/// Per-state activity capability of one sub-automaton of an image,
/// derived from the dataflow fixpoint. Exported for downstream worst-case
/// analysis (`rap-bound`): a state that is not activatable can never be
/// observed active by the simulator, so the count of activatable states
/// is a sound bound on an automaton's peak active-state count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitActivity {
    /// The state can be active at some cycle of some input: forward
    /// reachable from the initial states with a satisfiable class.
    pub activatable: Vec<bool>,
    /// The state can report a match at some cycle: activatable, final,
    /// and (for a bit-vector state) readable through a satisfiable read
    /// action.
    pub accepting: Vec<bool>,
}

impl UnitActivity {
    fn of_view(g: &graph::GraphView) -> UnitActivity {
        let facts = dataflow::solve(g);
        let accepting = facts
            .reachable
            .iter()
            .zip(&g.can_accept)
            .map(|(&r, &a)| r && a)
            .collect();
        UnitActivity {
            activatable: facts.reachable,
            accepting,
        }
    }

    /// Number of activatable states.
    pub fn activatable_count(&self) -> u64 {
        self.activatable.iter().filter(|&&b| b).count() as u64
    }

    /// Number of accepting-capable states.
    pub fn accepting_count(&self) -> u64 {
        self.accepting.iter().filter(|&&b| b).count() as u64
    }
}

/// Activity capabilities of every sub-automaton of `image`: one unit for
/// an NFA or NBVA image, one per chain for an LNFA image (in unit order,
/// matching [`rap_compiler::CompiledLnfa::units`]).
pub fn state_activity(image: &Compiled) -> Vec<UnitActivity> {
    match image {
        Compiled::Nfa(c) => vec![UnitActivity::of_view(&graph::GraphView::of_nfa(&c.nfa))],
        Compiled::Nbva(c) => vec![UnitActivity::of_view(&graph::GraphView::of_nbva(&c.nbva))],
        Compiled::Lnfa(c) => c
            .units
            .iter()
            .map(|u| UnitActivity::of_view(&graph::GraphView::of_chain(u.lnfa.classes())))
            .collect(),
    }
}

/// Records a typed compiler failure as an `A009-compile-error` finding —
/// the analyzer-facing surface of errors like
/// [`CompileError::BvCapacity`].
pub fn compile_error_diag(report: &mut Report, pattern: usize, err: &CompileError) {
    report.push(
        Rule::CompileError,
        Rule::CompileError.severity(),
        Location::of_pattern(pattern),
        format!("pattern failed to compile: {err}"),
    );
}

/// Runs `f`, recording its wall time when a histogram is present.
fn timed<T>(hist: Option<Histogram>, f: impl FnOnce() -> T) -> T {
    match hist {
        Some(h) => rap_telemetry::time(&h, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_automata::nbva::{Nbva, NbvaState, ReadAction, StateKind};
    use rap_automata::nfa::{Nfa, NfaState};
    use rap_compiler::{BvAlloc, CompiledNbva, CompiledNfa, Compiler, CompilerConfig};
    use rap_regex::{parse_pattern, CharClass};

    fn nfa_image(states: Vec<NfaState>, initial: Vec<u32>) -> Compiled {
        let columns = vec![1; states.len()];
        Compiled::Nfa(CompiledNfa {
            nfa: Nfa::from_parts(states, initial, false),
            state_columns: columns,
        })
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        let all = Rule::all();
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.code()[..4], format!("A{:03}", i + 1));
        }
    }

    #[test]
    fn dead_state_fixture_reports_a002_and_a003() {
        // q0 -> {q1(final), q2}; q2 loops on itself without accepting.
        let image = nfa_image(
            vec![
                NfaState {
                    cc: CharClass::single(b'a'),
                    succ: vec![1, 2],
                    is_final: false,
                },
                NfaState {
                    cc: CharClass::single(b'b'),
                    succ: vec![],
                    is_final: true,
                },
                NfaState {
                    cc: CharClass::single(b'c'),
                    succ: vec![2],
                    is_final: false,
                },
            ],
            vec![0],
        );
        let a = analyze(&[image], &[], &AnalyzeOptions::report_only());
        assert_eq!(
            codes(&a.report),
            vec![
                "A002-dead-state",
                "A003-dead-transition",
                "A011-redundant-state"
            ]
        );
        assert_eq!(a.report.diagnostics[0].location.state, Some(2));
        assert_eq!(a.stats.dead_states, 1);
        assert_eq!(a.summaries[0].dead, 1);
        // Report-only: images untouched.
        assert_eq!(a.stats.states_after, 3);
        assert_eq!(a.stats.pruned_states, 0);
    }

    #[test]
    fn unreachable_and_empty_class_fixtures_report_a001_a004() {
        let image = nfa_image(
            vec![
                NfaState {
                    cc: CharClass::single(b'a'),
                    succ: vec![1],
                    is_final: true,
                },
                NfaState {
                    cc: CharClass::empty(),
                    succ: vec![],
                    is_final: true,
                },
                NfaState {
                    cc: CharClass::single(b'z'),
                    succ: vec![0],
                    is_final: false,
                },
            ],
            vec![0],
        );
        let a = analyze(&[image], &[], &AnalyzeOptions::report_only());
        let got = codes(&a.report);
        assert!(got.contains(&"A004-empty-class"), "{got:?}");
        assert!(got.contains(&"A001-unreachable-state"), "{got:?}");
        // Warnings only — the workload is still legal.
        assert!(a.report.is_legal());
    }

    fn nbva_image(states: Vec<NbvaState>, allocs: Vec<Option<BvAlloc>>) -> Compiled {
        let columns = vec![1; states.len()];
        Compiled::Nbva(CompiledNbva {
            nbva: Nbva::from_parts(states, vec![0], false),
            depth: 8,
            state_columns: columns,
            bv_allocs: allocs,
        })
    }

    #[test]
    fn counter_fixtures_report_a005_a006_a007() {
        let plain = |byte, succ| NbvaState {
            cc: CharClass::single(byte),
            kind: StateKind::Plain,
            succ,
            is_final: false,
        };
        // Overflowing read: r(9) of an 8-bit vector (A006, error).
        let overflow = nbva_image(
            vec![
                plain(b'a', vec![1]),
                NbvaState {
                    cc: CharClass::single(b'b'),
                    kind: StateKind::Bv {
                        width: 8,
                        read: ReadAction::Exact(9),
                    },
                    succ: vec![],
                    is_final: true,
                },
            ],
            vec![
                None,
                Some(BvAlloc {
                    width_bits: 8,
                    depth: 8,
                    columns: 1,
                    read: ReadAction::Exact(9),
                }),
            ],
        );
        let a = analyze(&[overflow], &[], &AnalyzeOptions::report_only());
        assert!(codes(&a.report).contains(&"A006-counter-overflow"));
        assert!(!a.report.is_legal());

        // Dead columns: 17-bit vector at depth 8 read at r(1) → 2 of 3
        // columns dead (A005), 16 dead bits.
        let deadcols = nbva_image(
            vec![
                plain(b'a', vec![1]),
                NbvaState {
                    cc: CharClass::single(b'b'),
                    kind: StateKind::Bv {
                        width: 17,
                        read: ReadAction::Exact(1),
                    },
                    succ: vec![],
                    is_final: true,
                },
            ],
            vec![
                None,
                Some(BvAlloc {
                    width_bits: 17,
                    depth: 8,
                    columns: 3,
                    read: ReadAction::Exact(1),
                }),
            ],
        );
        let a = analyze(&[deadcols], &[], &AnalyzeOptions::report_only());
        let dead = a.report.by_rule(Rule::DeadBvColumn);
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("2 of 3"), "{}", dead[0].message);
        assert_eq!(a.stats.dead_bv_bits, 16);

        // Saturating allocation: 1 column × depth 8 for a 16-bit vector.
        let saturating = nbva_image(
            vec![
                plain(b'a', vec![1]),
                NbvaState {
                    cc: CharClass::single(b'b'),
                    kind: StateKind::Bv {
                        width: 16,
                        read: ReadAction::Exact(16),
                    },
                    succ: vec![],
                    is_final: true,
                },
            ],
            vec![
                None,
                Some(BvAlloc {
                    width_bits: 16,
                    depth: 8,
                    columns: 1,
                    read: ReadAction::Exact(16),
                }),
            ],
        );
        let a = analyze(&[saturating], &[], &AnalyzeOptions::report_only());
        assert!(codes(&a.report).contains(&"A007-counter-saturation"));
        assert!(!a.report.is_legal());
    }

    #[test]
    fn overlap_metric_reports_a008() {
        // q0 -> {q1: [ab], q2: [bc]} — both activate on 'b'.
        let image = nfa_image(
            vec![
                NfaState {
                    cc: CharClass::single(b'x'),
                    succ: vec![1, 2],
                    is_final: false,
                },
                NfaState {
                    cc: CharClass::from_bytes([b'a', b'b']),
                    succ: vec![],
                    is_final: true,
                },
                NfaState {
                    cc: CharClass::from_bytes([b'b', b'c']),
                    succ: vec![],
                    is_final: true,
                },
            ],
            vec![0],
        );
        let a = analyze(&[image], &[], &AnalyzeOptions::report_only());
        let amb = a.report.by_rule(Rule::AmbiguousOverlap);
        assert_eq!(amb.len(), 1);
        assert_eq!(amb[0].severity, Severity::Info);
        assert_eq!(a.summaries[0].ambiguous_sets, 1);
    }

    #[test]
    fn clean_compiled_patterns_have_no_errors_and_soundness_passes() {
        let compiler = Compiler::new(CompilerConfig::default());
        let sources = ["abc", "a(b|c)d", "ab*c", "ac{6}d", "b(a{7}|c{5})b"];
        let patterns: Vec<_> = sources
            .iter()
            .map(|s| parse_pattern(s).expect("parses"))
            .collect();
        let images: Vec<_> = patterns
            .iter()
            .map(|p| compiler.compile_anchored(p).expect("compiles"))
            .collect();
        let options = AnalyzeOptions::report_only()
            .with_prune()
            .with_soundness(SoundnessConfig::default());
        let a = analyze(&images, &patterns, &options);
        assert!(a.report.is_legal(), "{}", a.report);
        assert_eq!(a.report.by_rule(Rule::RewriteUnsound).len(), 0);
        assert_eq!(a.images.len(), images.len());
    }

    #[test]
    fn prune_mode_rewrites_and_reports_a011() {
        let compiler = Compiler::new(CompilerConfig::default());
        let regex = rap_regex::parse("(cat|dot)").expect("parses");
        let image = compiler
            .compile_with_mode(&regex, Mode::Nfa)
            .expect("compiles");
        let a = analyze(
            std::slice::from_ref(&image),
            &[],
            &AnalyzeOptions::report_only().with_prune(),
        );
        assert!(codes(&a.report).contains(&"A011-redundant-state"));
        assert_eq!(a.stats.states_before, 6);
        assert_eq!(a.stats.states_after, 5);
        assert_eq!(a.stats.pruned_states, 1);
        assert_eq!(a.images[0].state_count(), 5);
    }

    #[test]
    fn compile_error_becomes_a009() {
        let mut report = Report::default();
        compile_error_diag(
            &mut report,
            4,
            &CompileError::BvCapacity {
                width: 100,
                capacity: 0,
            },
        );
        assert!(!report.is_legal());
        assert_eq!(report.diagnostics[0].rule.code(), "A009-compile-error");
        assert_eq!(report.diagnostics[0].location.pattern, Some(4));
        assert!(report.diagnostics[0].message.contains("100-bit"));
    }

    #[test]
    fn telemetry_records_pass_timings_and_prune_counter() {
        let registry = Registry::new();
        let compiler = Compiler::new(CompilerConfig::default());
        let regex = rap_regex::parse("(cat|dot)").expect("parses");
        let image = compiler
            .compile_with_mode(&regex, Mode::Nfa)
            .expect("compiles");
        let options = AnalyzeOptions::report_only().with_prune();
        let a = analyze_with_registry(std::slice::from_ref(&image), &[], &options, Some(&registry));
        assert_eq!(a.stats.pruned_states, 1);
        let hist = registry.histogram("rap_analyze_pass_ns", &[("pass", "dataflow")]);
        assert_eq!(hist.count(), 1);
        let counter = registry.counter("rap_analyze_states_pruned_total", &[]);
        assert_eq!(counter.get(), 1);
    }
}
