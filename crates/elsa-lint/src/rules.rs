//! The repo-specific rule set.
//!
//! Every rule enforces, at the source level, a contract the test batteries
//! otherwise only probe dynamically:
//!
//! | code | id                   | contract                                             |
//! |------|----------------------|------------------------------------------------------|
//! | D1   | `nondeterminism`     | no wall-clock/entropy sources outside bench/testkit  |
//! | D2   | `hash-collections`   | no `HashMap`/`HashSet` in deterministic crates       |
//! | D3   | `threads-env`        | `ELSA_THREADS` is read only by `elsa-parallel`       |
//! | F1   | `reduction-order`    | float reductions only via approved ordered helpers   |
//! | A1   | `arithmetic-headroom`| cost-model counter math carries visible headroom     |
//! | P1   | `panic-policy`       | no panicking calls in serving-path crates            |
//! | C1   | `try-panic-pairing`  | public `# Panics` fns pair with a `try_*` sibling    |
//! | P2   | `panic-reachability` | serving fns don't call hidden-panic helpers          |
//! | O1   | `offline-deps`       | every dependency is an in-tree path dependency       |
//! | U1   | `unsafe-safety`      | every `unsafe` carries a `// SAFETY:` comment        |
//! | W0   | `waiver-syntax`      | waiver comments must parse and carry a reason        |
//!
//! D1–U1 are token rules over one file at a time ([`check_source`]); C1 and
//! P2 are *model* rules over the parsed [`crate::item::WorkspaceModel`]
//! ([`check_model`]), because they relate items across files. All rules
//! except W0 can be waived per-site with the syntax in [`crate::waiver`];
//! W0 cannot.

use crate::item::{test_regions, CalleeRef, WorkspaceModel};
use crate::lexer::{self, Token, TokenKind};
use crate::waiver::{self, Waiver};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: wall-clock or entropy source outside the explicit allowlist.
    Nondeterminism,
    /// D2: `HashMap`/`HashSet` in a crate promising deterministic output.
    HashCollections,
    /// D3: `ELSA_THREADS` read outside `elsa-parallel`.
    ThreadsEnv,
    /// F1: order-dependent float reduction outside the approved helpers.
    ReductionOrder,
    /// A1: unchecked counter arithmetic or narrowing cast in a cost model.
    ArithmeticHeadroom,
    /// P1: panicking construct in a serving-path crate's non-test code.
    PanicPolicy,
    /// C1: public `# Panics` fn without a delegating `try_*` sibling.
    TryPanicPairing,
    /// P2: serving fn calls an intra-crate callee with hidden panics.
    PanicReachability,
    /// O1: a `Cargo.toml` dependency that is not an in-tree path dep.
    OfflineDeps,
    /// U1: `unsafe` without an adjacent `// SAFETY:` comment.
    UnsafeSafety,
    /// W0: malformed waiver comment (never waivable itself).
    WaiverSyntax,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 11] = [
        RuleId::Nondeterminism,
        RuleId::HashCollections,
        RuleId::ThreadsEnv,
        RuleId::ReductionOrder,
        RuleId::ArithmeticHeadroom,
        RuleId::PanicPolicy,
        RuleId::TryPanicPairing,
        RuleId::PanicReachability,
        RuleId::OfflineDeps,
        RuleId::UnsafeSafety,
        RuleId::WaiverSyntax,
    ];

    /// Short code (`D1` … `W0`).
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            RuleId::Nondeterminism => "D1",
            RuleId::HashCollections => "D2",
            RuleId::ThreadsEnv => "D3",
            RuleId::ReductionOrder => "F1",
            RuleId::ArithmeticHeadroom => "A1",
            RuleId::PanicPolicy => "P1",
            RuleId::TryPanicPairing => "C1",
            RuleId::PanicReachability => "P2",
            RuleId::OfflineDeps => "O1",
            RuleId::UnsafeSafety => "U1",
            RuleId::WaiverSyntax => "W0",
        }
    }

    /// Kebab-case id (`nondeterminism` …).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            RuleId::Nondeterminism => "nondeterminism",
            RuleId::HashCollections => "hash-collections",
            RuleId::ThreadsEnv => "threads-env",
            RuleId::ReductionOrder => "reduction-order",
            RuleId::ArithmeticHeadroom => "arithmetic-headroom",
            RuleId::PanicPolicy => "panic-policy",
            RuleId::TryPanicPairing => "try-panic-pairing",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::OfflineDeps => "offline-deps",
            RuleId::UnsafeSafety => "unsafe-safety",
            RuleId::WaiverSyntax => "waiver-syntax",
        }
    }

    /// Parses either the code (`D1`) or the kebab id (`nondeterminism`).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(s) || r.name() == s)
    }

    /// Budget of *used* waivers the workspace may carry for this rule.
    ///
    /// A waiver is an argued exception, and arguments accumulate debt: past
    /// the budget the gate demands a fix (or a deliberate budget raise in
    /// this table) instead of another exemption. Budgets sit a little above
    /// current usage so one honest new waiver never blocks a PR, while a
    /// waiver-spray does. W0 is 0: malformed waivers are never acceptable.
    #[must_use]
    pub const fn waiver_budget(self) -> usize {
        match self {
            RuleId::Nondeterminism => 3,
            RuleId::HashCollections => 2,
            RuleId::ThreadsEnv => 2,
            RuleId::ReductionOrder => 3,
            RuleId::ArithmeticHeadroom => 4,
            RuleId::PanicPolicy => 16,
            RuleId::TryPanicPairing => 2,
            RuleId::PanicReachability => 2,
            RuleId::OfflineDeps => 2,
            RuleId::UnsafeSafety => 2,
            RuleId::WaiverSyntax => 0,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// What was found.
    pub message: String,
    /// `Some(reason)` when a waiver covers this finding.
    pub waived: Option<String>,
}

impl Finding {
    /// Render as `file:line: [code id] message`.
    #[must_use]
    pub fn render(&self) -> String {
        let waived = match &self.waived {
            Some(reason) => format!(" (waived: {reason})"),
            None => String::new(),
        };
        format!(
            "{}:{}: [{} {}] {}{}",
            self.file,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message,
            waived
        )
    }
}

/// The set of rules a run enforces.
#[derive(Debug, Clone)]
pub struct RuleSet {
    enabled: Vec<RuleId>,
}

impl RuleSet {
    /// Every rule.
    #[must_use]
    pub fn all() -> Self {
        Self { enabled: RuleId::ALL.to_vec() }
    }

    /// Only the given rules (W0 is always kept on: waiver syntax must hold
    /// whenever waivers are interpreted at all).
    #[must_use]
    pub fn only(rules: &[RuleId]) -> Self {
        let mut enabled = rules.to_vec();
        if !enabled.contains(&RuleId::WaiverSyntax) {
            enabled.push(RuleId::WaiverSyntax);
        }
        enabled.sort();
        enabled.dedup();
        Self { enabled }
    }

    /// Whether `rule` is enforced by this set.
    #[must_use]
    pub fn contains(&self, rule: RuleId) -> bool {
        self.enabled.contains(&rule)
    }
}

/// Crates whose outputs must be bit-identical at any worker count and across
/// runs: D2 bans hash-ordered collections here outright.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "elsa-attention",
    "elsa-cluster",
    "elsa-core",
    "elsa-fault",
    "elsa-linalg",
    "elsa-parallel",
    "elsa-runtime",
    "elsa-serve",
    "elsa-sim",
    "elsa-sparse",
    "elsa-workloads",
];

/// Crates allowed to touch wall clocks and environment seeds: the bench
/// binaries time real executions, and the testkit owns seed plumbing.
pub const ENTROPY_EXEMPT_CRATES: &[&str] = &["elsa-bench", "elsa-testkit"];

/// Serving-path crates where P1 bans panicking constructs in non-test code.
/// `elsa-sparse` (the rivals) sits on the same comparison path as the
/// serving stack, so it holds to the same policy (asserts on contract
/// violations only).
pub const PANIC_POLICY_CRATES: &[&str] =
    &["elsa-cluster", "elsa-runtime", "elsa-serve", "elsa-sparse"];

/// The approved homes for ordered float-reduction helpers: F1 does not
/// apply inside them, because this is where the one blessed accumulation
/// order is *defined* (`elsa_linalg::reduce`, `elsa-parallel`'s ordered
/// combine). `elsa-numeric` is outside [`DETERMINISTIC_CRATES`]' F1 scope
/// already.
pub const REDUCTION_HELPER_CRATES: &[&str] = &["elsa-linalg", "elsa-parallel"];

/// Cost-model modules where A1 demands visible arithmetic headroom:
/// `(crate, path suffix)` pairs. These are the op/byte accounting surfaces
/// the 64k long-context audit (PR 9) had to hand-check; A1 mechanizes that
/// audit so counter math can't silently overflow `u64` as `n` grows.
pub const COST_MODEL_MODULES: &[(&str, &str)] = &[
    ("elsa-attention", "src/flops.rs"),
    ("elsa-cluster", "src/report.rs"),
    ("elsa-serve", "src/estimator.rs"),
    ("elsa-sparse", "src/cost.rs"),
];

/// Crates whose public panicking APIs must pair with `try_*` siblings (C1)
/// and whose functions may not call hidden-panic helpers (P2). `elsa-sparse`
/// holds to P1 but predates the try-convention, so C1/P2 start with the
/// three crates that established it (PR 3/4/8).
pub const TRY_API_CRATES: &[&str] = &["elsa-cluster", "elsa-runtime", "elsa-serve"];

/// Integer types a cast *into* can lose bits: A1 flags `as <ty>` for these
/// inside cost modules. Widening to `u128`/`i128` (the headroom types) and
/// float conversions are the sanctioned escapes and stay legal.
const NARROWING_INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize"];

/// Substrings whose presence on a source line shows the headroom A1 wants:
/// wide/float accumulators, checked/saturating forms, or lossless
/// `try_from` narrowing. Line-level visibility is the point — a reviewer
/// reading the line can see the overflow story without chasing types.
const HEADROOM_EVIDENCE: &[&str] =
    &["u128", "i128", "f64", "f32", "checked_", "saturating_", "try_from"];

/// Identifiers inside a reduction combinator that make the fold
/// order-independent (running max/min selection, not accumulation).
const ORDER_FREE_FOLD_IDENTS: &[&str] = &["max", "min", "total_cmp"];

/// Identifiers that name a wall-clock or entropy source.
const ENTROPY_IDENTS: &[&str] =
    &["Instant", "SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Environment variables whose values act as entropy/seed inputs.
const ENTROPY_ENV_VARS: &[&str] = &["RANDOM", "ELSA_TESTKIT_SEED"];

/// Method names that panic on the error/none path.
const PANIC_METHODS: &[&str] = &["unwrap", "unwrap_err", "expect", "expect_err"];

/// Macros that panic unconditionally when reached.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Runs every enabled source rule over one file.
///
/// `crate_name` decides rule applicability (see the scoping consts),
/// `rel_path` is used verbatim in findings. Returns the findings (waived
/// ones carry their reason) and every waiver comment found in the file.
#[must_use]
pub fn check_source(
    crate_name: &str,
    rel_path: &str,
    src: &[u8],
    enabled: &RuleSet,
) -> (Vec<Finding>, Vec<Waiver>) {
    let tokens = lexer::lex(src);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    let mut findings = Vec::new();
    let mut waivers = Vec::new();
    for t in &tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        // Waivers live in plain comments only: doc comments describe APIs
        // (and may legitimately *quote* the waiver syntax, as the waiver
        // module's own docs do), so they never register as directives.
        let is_doc = ["///", "//!", "/**", "/*!"].iter().any(|p| text.starts_with(p));
        if is_doc || !text.contains(waiver::MARKER) {
            continue;
        }
        match waiver::parse_directive(&text) {
            Ok((rule, reason)) => waivers.push(Waiver {
                file: rel_path.to_owned(),
                line: t.line,
                rule,
                reason,
                used: false,
            }),
            Err(msg) => findings.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                rule: RuleId::WaiverSyntax,
                message: format!("malformed waiver: {msg}"),
                waived: None,
            }),
        }
    }

    let test_regions = test_regions(&code, src);
    let in_test = |line: u32| test_regions.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));
    let mut push = |line: u32, rule: RuleId, message: String| {
        findings.push(Finding { file: rel_path.to_owned(), line, rule, message, waived: None });
    };

    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);
    let entropy_exempt = ENTROPY_EXEMPT_CRATES.contains(&crate_name);
    let panic_scoped = PANIC_POLICY_CRATES.contains(&crate_name);
    let reduction_scoped = deterministic && !REDUCTION_HELPER_CRATES.contains(&crate_name);
    let cost_scoped = COST_MODEL_MODULES
        .iter()
        .any(|(c, suffix)| *c == crate_name && rel_path.ends_with(suffix));

    // F1 context: loop bodies and float-typed `let mut` accumulators, for
    // the `+=`-in-loop form of order-dependent accumulation.
    let loop_bodies = if reduction_scoped { loop_regions(&code, src) } else { Vec::new() };
    let in_loop = |k: usize| loop_bodies.iter().any(|&(lo, hi)| (lo..=hi).contains(&k));
    let float_accumulators = if reduction_scoped { float_locals(&code, src) } else { Vec::new() };

    // A1 context: raw line text, for the line-level headroom-evidence
    // convention (a line mentioning u128/checked_/… documents its own
    // overflow story). One finding per line keeps `2 * 3 * n * d` from
    // producing four.
    let line_text: Vec<&str> = if cost_scoped {
        std::str::from_utf8(src).map(|s| s.lines().collect()).unwrap_or_default()
    } else {
        Vec::new()
    };
    let line_has_headroom = |line: u32| {
        line_text
            .get(line as usize - 1)
            .is_some_and(|l| HEADROOM_EVIDENCE.iter().any(|e| l.contains(e)))
    };
    let mut a1_op_lines: Vec<u32> = Vec::new();
    let mut a1_cast_lines: Vec<u32> = Vec::new();

    // A line is SAFETY-documented if a comment containing "SAFETY:" sits on
    // it or up to three lines above (U1).
    let safety_lines: Vec<u32> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .filter(|t| t.text(src).contains("SAFETY:"))
        .map(|t| t.line)
        .collect();
    let has_safety = |line: u32| {
        safety_lines.iter().any(|&l| l <= line && line.saturating_sub(l) <= 3)
    };

    for (k, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let ident = t.text(src);
        let at = |off: usize| code.get(k + off).copied();
        let punct_at = |off: usize, b: u8| at(off).is_some_and(|t| t.kind == TokenKind::Punct(b));

        // `env :: var ( "NAME"` — the shared shape behind D1's seed-env rule
        // and D3. The `env` prefix keeps unrelated `.var(...)` methods out.
        let env_read: Option<String> = if ident == "env"
            && punct_at(1, b':')
            && punct_at(2, b':')
            && at(3).is_some_and(|t| t.kind == TokenKind::Ident && t.text(src) == "var")
            && punct_at(4, b'(')
        {
            at(5).and_then(|t| t.str_content(src))
        } else {
            None
        };

        if enabled.contains(RuleId::Nondeterminism) && !entropy_exempt {
            if ENTROPY_IDENTS.contains(&ident.as_str()) {
                push(
                    t.line,
                    RuleId::Nondeterminism,
                    format!("wall-clock/entropy source `{ident}` outside bench/testkit"),
                );
            }
            if let Some(name) = env_read.as_deref() {
                if ENTROPY_ENV_VARS.contains(&name) {
                    push(
                        t.line,
                        RuleId::Nondeterminism,
                        format!("entropy-bearing environment read `env::var(\"{name}\")`"),
                    );
                }
            }
        }

        if enabled.contains(RuleId::HashCollections)
            && deterministic
            && (ident == "HashMap" || ident == "HashSet")
        {
            push(
                t.line,
                RuleId::HashCollections,
                format!(
                    "`{ident}` in deterministic crate `{crate_name}`: iteration order is \
                     unspecified; use `BTreeMap`/`BTreeSet` or sorted access"
                ),
            );
        }

        if enabled.contains(RuleId::ThreadsEnv)
            && crate_name != "elsa-parallel"
            && env_read.as_deref() == Some("ELSA_THREADS")
        {
            push(
                t.line,
                RuleId::ThreadsEnv,
                "`ELSA_THREADS` may only be read inside elsa-parallel (single source \
                 of worker-count truth)"
                    .to_owned(),
            );
        }

        if enabled.contains(RuleId::PanicPolicy) && panic_scoped && !in_test(t.line) {
            let prev_is_dot = k > 0 && code[k - 1].kind == TokenKind::Punct(b'.');
            if prev_is_dot && PANIC_METHODS.contains(&ident.as_str()) {
                push(
                    t.line,
                    RuleId::PanicPolicy,
                    format!("`.{ident}(...)` in serving-path crate `{crate_name}`"),
                );
            }
            if punct_at(1, b'!') && PANIC_MACROS.contains(&ident.as_str()) {
                push(
                    t.line,
                    RuleId::PanicPolicy,
                    format!("`{ident}!` in serving-path crate `{crate_name}`"),
                );
            }
        }

        if enabled.contains(RuleId::ReductionOrder) && reduction_scoped && !in_test(t.line) {
            let prev_is_dot = k > 0 && code[k - 1].kind == TokenKind::Punct(b'.');
            let calls = punct_at(1, b'(') || (punct_at(1, b':') && punct_at(2, b':'));
            // `.sum()` / `.sum::<f64>()` over float items: the accumulation
            // order is the iterator's, which parallel/refactor changes can
            // silently permute.
            if prev_is_dot && calls && ident == "sum" {
                let stmt = statement_bounds(&code, k);
                if float_evidence(&code, stmt, src) {
                    push(
                        t.line,
                        RuleId::ReductionOrder,
                        "order-dependent float `.sum()`; use `elsa_linalg::reduce::sum_f64` \
                         (or `sum_f32`) so the accumulation order is pinned"
                            .to_owned(),
                    );
                }
            }
            // `.fold(...)` accumulating floats — exempt when the combiner is
            // a running max/min (selection commutes; addition does not).
            if prev_is_dot && punct_at(1, b'(') && ident == "fold" {
                let stmt = statement_bounds(&code, k);
                let order_free = code[stmt.0..=stmt.1].iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && ORDER_FREE_FOLD_IDENTS.contains(&t.text(src).as_str())
                });
                if float_evidence(&code, stmt, src) && !order_free {
                    push(
                        t.line,
                        RuleId::ReductionOrder,
                        "order-dependent float `.fold(...)`; use \
                         `elsa_linalg::reduce::sum_f64` or an order-free combiner"
                            .to_owned(),
                    );
                }
            }
            // `acc += …` on a float-typed local inside a loop body — the
            // hand-rolled form of the same reduction.
            if in_loop(k)
                && float_accumulators.contains(&ident)
                && !(k > 0 && code[k - 1].kind == TokenKind::Punct(b'.'))
                && punct_at(1, b'+')
                && punct_at(2, b'=')
            {
                push(
                    t.line,
                    RuleId::ReductionOrder,
                    format!(
                        "float accumulation `{ident} += …` in a loop; collect and use \
                         `elsa_linalg::reduce::sum_f64` so the order is pinned"
                    ),
                );
            }
        }

        if enabled.contains(RuleId::ArithmeticHeadroom)
            && cost_scoped
            && !in_test(t.line)
            && ident == "as"
            && at(1).is_some_and(|n| {
                n.kind == TokenKind::Ident
                    && NARROWING_INT_TYPES.contains(&n.text(src).as_str())
            })
            && !a1_cast_lines.contains(&t.line)
        {
            let target = at(1).map(|n| n.text(src)).unwrap_or_default();
            a1_cast_lines.push(t.line);
            push(
                t.line,
                RuleId::ArithmeticHeadroom,
                format!(
                    "narrowing `as {target}` in a cost model; use `{target}::try_from` \
                     with an explicit saturation/failure story, or waive with the \
                     range argument"
                ),
            );
        }

        if enabled.contains(RuleId::UnsafeSafety) && ident == "unsafe" && !has_safety(t.line) {
            push(
                t.line,
                RuleId::UnsafeSafety,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_owned(),
            );
        }
    }

    // A1's operator form runs over punctuation, which the identifier loop
    // above skips: unchecked `*`/`+` (including `+=`) on counter math in a
    // cost module, unless the line shows its headroom (u128/checked_/…).
    if enabled.contains(RuleId::ArithmeticHeadroom) && cost_scoped {
        for (k, t) in code.iter().enumerate() {
            let op = match t.kind {
                TokenKind::Punct(b'*') => '*',
                TokenKind::Punct(b'+') => '+',
                _ => continue,
            };
            // Binary position only: a value-like token on the left. This
            // keeps deref `*x`, `&*`, and unary contexts out.
            let binary = k > 0
                && matches!(
                    code[k - 1].kind,
                    TokenKind::Ident
                        | TokenKind::Number
                        | TokenKind::Punct(b')')
                        | TokenKind::Punct(b']')
                );
            if !binary || in_test(t.line) || line_has_headroom(t.line) {
                continue;
            }
            if a1_op_lines.contains(&t.line) {
                continue; // one finding per line: one waiver covers the line
            }
            a1_op_lines.push(t.line);
            findings.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                rule: RuleId::ArithmeticHeadroom,
                message: format!(
                    "unchecked `{op}` on counter math in a cost model; compute in \
                     u128/f64 or a checked_/saturating_ form visible on this line"
                ),
                waived: None,
            });
        }
        findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    }

    apply_waivers(&mut findings, &mut waivers);
    (findings, waivers)
}

/// Token-index bounds (inclusive) of the statement containing token `k`:
/// back to the token after the previous `;`/`{`/`}`, forward to the next
/// `;`/`{`/`}` — so a tail expression never bleeds into the following
/// item. Closure braces inside the statement cut the walk early; the
/// evidence scans this feeds fail open on that.
fn statement_bounds(code: &[&Token], k: usize) -> (usize, usize) {
    let boundary = |kind: TokenKind| {
        matches!(
            kind,
            TokenKind::Punct(b';') | TokenKind::Punct(b'{') | TokenKind::Punct(b'}')
        )
    };
    let mut start = k;
    while start > 0 && !boundary(code[start - 1].kind) {
        start -= 1;
    }
    let mut end = k;
    while end + 1 < code.len() && !boundary(code[end + 1].kind) {
        end += 1;
    }
    (start, end)
}

/// Whether a token range shows float involvement: an `f32`/`f64` type
/// mention (annotation, turbofish, cast) or a float literal.
fn float_evidence(code: &[&Token], (start, end): (usize, usize), src: &[u8]) -> bool {
    code[start..=end].iter().any(|t| match t.kind {
        TokenKind::Ident => {
            let text = t.text(src);
            text == "f32" || text == "f64"
        }
        TokenKind::Number => t.text(src).contains('.'),
        _ => false,
    })
}

/// Token-index ranges of `for`/`while`/`loop` bodies. A `for` that is part
/// of an `impl Trait for Type` header has no `in` before its brace and is
/// skipped, so impl bodies never register as loops.
fn loop_regions(code: &[&Token], src: &[u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for k in 0..code.len() {
        if code[k].kind != TokenKind::Ident {
            continue;
        }
        let kw = code[k].text(src);
        if kw != "for" && kw != "while" && kw != "loop" {
            continue;
        }
        // Find the body brace; `for` additionally needs an `in` on the way
        // (otherwise it is a trait-impl or generic-bound `for`).
        let mut saw_in = false;
        let mut j = k + 1;
        let open = loop {
            match code.get(j) {
                None => break None,
                Some(t) if t.kind == TokenKind::Punct(b'{') => break Some(j),
                Some(t) if t.kind == TokenKind::Punct(b';') => break None,
                Some(t) if t.kind == TokenKind::Ident && t.text(src) == "in" => {
                    saw_in = true;
                    j += 1;
                }
                Some(_) => j += 1,
            }
        };
        let Some(open) = open else { continue };
        if kw == "for" && !saw_in {
            continue;
        }
        let mut depth = 0usize;
        let mut close = code.len() - 1;
        for (off, t) in code[open..].iter().enumerate() {
            match t.kind {
                TokenKind::Punct(b'{') => depth += 1,
                TokenKind::Punct(b'}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        close = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((open, close));
    }
    regions
}

/// Names of locals declared as float accumulators: `let mut x = 0.0` or
/// `let mut x: f32/f64` — the candidates F1's `+=`-in-loop form tracks.
fn float_locals(code: &[&Token], src: &[u8]) -> Vec<String> {
    let mut names = Vec::new();
    for k in 0..code.len() {
        let is_ident = |j: usize, w: &str| {
            code.get(j).is_some_and(|t| t.kind == TokenKind::Ident && t.text(src) == w)
        };
        if !(is_ident(k, "let") && is_ident(k + 1, "mut")) {
            continue;
        }
        let Some(name_tok) = code.get(k + 2).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let annotated_float = code.get(k + 3).is_some_and(|t| t.kind == TokenKind::Punct(b':'))
            && (is_ident(k + 4, "f32") || is_ident(k + 4, "f64"));
        let initialized_float = code.get(k + 3).is_some_and(|t| t.kind == TokenKind::Punct(b'='))
            && code
                .get(k + 4)
                .is_some_and(|t| t.kind == TokenKind::Number && t.text(src).contains('.'));
        if annotated_float || initialized_float {
            names.push(name_tok.text(src));
        }
    }
    names
}

/// Marks findings covered by a waiver (same rule, same line or the line
/// below the waiver) and flags those waivers as used. W0 findings are never
/// waivable.
fn apply_waivers(findings: &mut [Finding], waivers: &mut [Waiver]) {
    for finding in findings.iter_mut() {
        if finding.rule == RuleId::WaiverSyntax {
            continue;
        }
        for waiver in waivers.iter_mut() {
            if waiver.rule == finding.rule
                && (waiver.line == finding.line || waiver.line + 1 == finding.line)
            {
                finding.waived = Some(waiver.reason.clone());
                waiver.used = true;
                break;
            }
        }
    }
}

/// Cross-file variant of `apply_waivers` for model-rule findings, which
/// are produced workspace-wide rather than during a single file's scan: a
/// waiver only covers a finding in its own file.
pub fn apply_waivers_by_file(findings: &mut [Finding], waivers: &mut [Waiver]) {
    for finding in findings.iter_mut() {
        if finding.rule == RuleId::WaiverSyntax {
            continue;
        }
        for waiver in waivers.iter_mut() {
            if waiver.file == finding.file
                && waiver.rule == finding.rule
                && (waiver.line == finding.line || waiver.line + 1 == finding.line)
            {
                finding.waived = Some(waiver.reason.clone());
                waiver.used = true;
                break;
            }
        }
    }
}

/// Runs the model rules (C1 try/panic pairing, P2 one-hop panic
/// reachability) over the parsed workspace. These relate items *across*
/// files, so they live here rather than in the per-file [`check_source`]
/// pass; the caller applies waivers afterwards via
/// [`apply_waivers_by_file`].
///
/// Both rules use the hard-panic set (`unwrap`/`expect`/`panic!`/literal
/// indexing) and deliberately exclude `assert!`: asserting a documented
/// contract is the sanctioned idiom in [`PANIC_POLICY_CRATES`], while the
/// hard set marks recoverable-error paths taken unrecoverably.
#[must_use]
pub fn check_model(model: &WorkspaceModel, enabled: &RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    for crate_name in TRY_API_CRATES {
        if enabled.contains(RuleId::TryPanicPairing) {
            check_try_pairing(model, crate_name, &mut findings);
        }
        if enabled.contains(RuleId::PanicReachability) {
            check_panic_reachability(model, crate_name, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// C1: a public fn that documents `# Panics` *and* contains a hard panic
/// construct must have a signature-matched `try_<name>` sibling (same
/// owner, same crate) and must delegate to it, so callers always have a
/// recoverable path and the two can't drift apart.
fn check_try_pairing(model: &WorkspaceModel, crate_name: &str, findings: &mut Vec<Finding>) {
    for (file, item) in model.crate_items(crate_name) {
        if item.in_test
            || !item.is_pub
            || !item.panics()
            || !item.doc.contains("# Panics")
            || item.name.starts_with("try_")
        {
            continue;
        }
        let sibling = format!("try_{}", item.name);
        let siblings: Vec<&crate::item::FnItem> = model
            .crate_items(crate_name)
            .filter(|(_, s)| s.name == sibling && s.owner == item.owner && !s.in_test)
            .map(|(_, s)| s)
            .collect();
        let place = match &item.owner {
            Some(o) => format!("{o}::{}", item.name),
            None => item.name.clone(),
        };
        if siblings.is_empty() {
            findings.push(Finding {
                file: file.path.clone(),
                line: item.line,
                rule: RuleId::TryPanicPairing,
                message: format!(
                    "public panicking fn `{place}` documents `# Panics` but has no \
                     `{sibling}` sibling offering the recoverable path"
                ),
                waived: None,
            });
            continue;
        }
        // Whitespace and a trailing comma are formatting, not signature:
        // rustfmt adds both when a parameter list goes multi-line.
        let normalize =
            |p: &str| p.split_whitespace().collect::<String>().trim_end_matches(',').to_string();
        if !siblings.iter().any(|s| normalize(&s.params) == normalize(&item.params)) {
            findings.push(Finding {
                file: file.path.clone(),
                line: item.line,
                rule: RuleId::TryPanicPairing,
                message: format!(
                    "`{place}` and its `{sibling}` sibling have drifted: parameter \
                     lists no longer match"
                ),
                waived: None,
            });
        }
        let delegates = item.calls.iter().any(|c| match &c.callee {
            CalleeRef::SelfMethod(m)
            | CalleeRef::Bare(m)
            | CalleeRef::AnyMethod(m)
            | CalleeRef::Path(_, m) => m == &sibling,
        });
        if !delegates {
            findings.push(Finding {
                file: file.path.clone(),
                line: item.line,
                rule: RuleId::TryPanicPairing,
                message: format!(
                    "`{place}` does not delegate to `{sibling}`: duplicated bodies \
                     drift; the wrapper must call the try form and unwrap its error"
                ),
                waived: None,
            });
        }
    }
}

/// P2: a non-test fn may not call an intra-crate callee that contains hard
/// panic constructs *without documenting them* — the "hide the unwrap in a
/// helper" hole P1 can't see. Callees that document `# Panics` are a
/// knowing API contract (C1 guarantees their `try_` escape); only
/// undocumented panic carriers are flagged. Resolution is by unambiguous
/// shape only (`self.m`, `Type::m`, bare `m`), and a call is flagged only
/// when *every* candidate it could resolve to panics — ambiguity fails
/// open.
fn check_panic_reachability(model: &WorkspaceModel, crate_name: &str, findings: &mut Vec<Finding>) {
    for (file, item) in model.crate_items(crate_name) {
        if item.in_test {
            continue;
        }
        let mut flagged: Vec<&str> = Vec::new();
        for call in &item.calls {
            let callee_name = match &call.callee {
                CalleeRef::SelfMethod(m) | CalleeRef::Path(_, m) | CalleeRef::Bare(m) => m,
                CalleeRef::AnyMethod(_) => continue, // ambiguous receiver
            };
            if flagged.contains(&callee_name.as_str()) {
                continue; // one finding per (caller, callee) pair
            }
            let candidates: Vec<_> = model
                .resolve(crate_name, item.owner.as_deref(), &call.callee)
                .into_iter()
                .filter(|(cf, c)| {
                    // Live candidates only; a self-recursive call's panic is
                    // already in this very body, which is P1's business.
                    !c.in_test && !(cf.path == file.path && c.span == item.span)
                })
                .collect();
            if candidates.is_empty()
                || !candidates
                    .iter()
                    .all(|(_, c)| c.panics() && !c.doc.contains("# Panics"))
            {
                continue;
            }
            let (_, culprit) = candidates[0];
            let site = &culprit.panic_sites[0];
            flagged.push(callee_name);
            findings.push(Finding {
                file: file.path.clone(),
                line: call.line,
                rule: RuleId::PanicReachability,
                message: format!(
                    "`{}` calls `{callee_name}`, which contains undocumented `{}` \
                     (line {}); make the callee total, document `# Panics`, or waive \
                     with the invariant",
                    item.name, site.what, site.line
                ),
                waived: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(crate_name: &str, src: &str) -> (Vec<Finding>, Vec<Waiver>) {
        check_source(crate_name, "test.rs", src.as_bytes(), &RuleSet::all())
    }

    fn unwaived(crate_name: &str, src: &str) -> Vec<Finding> {
        run(crate_name, src).0.into_iter().filter(|f| f.waived.is_none()).collect()
    }

    // ---- D1 ---------------------------------------------------------------

    #[test]
    fn d1_flags_wall_clock_and_entropy() {
        let hits = unwaived("elsa-core", "let t = std::time::Instant::now();\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::Nondeterminism);
        assert_eq!(hits[0].line, 1);
        assert_eq!(unwaived("elsa-serve", "let t = SystemTime::now();").len(), 1);
        assert_eq!(unwaived("elsa-core", "let mut r = thread_rng();").len(), 1);
    }

    #[test]
    fn d1_flags_entropy_env_reads() {
        let hits =
            unwaived("elsa-fault", "let s = std::env::var(\"ELSA_TESTKIT_SEED\").ok();\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::Nondeterminism);
        assert_eq!(unwaived("elsa-core", "let s = std::env::var(\"RANDOM\");").len(), 1);
        // Non-entropy env vars are not D1's business.
        assert!(unwaived("elsa-core", "let s = std::env::var(\"HOME\");").is_empty());
    }

    #[test]
    fn d1_allowlists_bench_and_testkit() {
        assert!(unwaived("elsa-bench", "let t = Instant::now();").is_empty());
        assert!(unwaived("elsa-testkit", "std::env::var(\"ELSA_TESTKIT_SEED\")").is_empty());
    }

    #[test]
    fn d1_immune_to_strings_and_comments() {
        assert!(unwaived("elsa-core", "let s = \"Instant::now()\"; // Instant::now()").is_empty());
        assert!(unwaived("elsa-core", "/* SystemTime */ let x = 1;").is_empty());
        assert!(unwaived("elsa-core", "let s = r#\"thread_rng()\"#;").is_empty());
    }

    #[test]
    fn d1_waived_hit_is_reported_as_waived() {
        let src = "// elsa-lint: allow(nondeterminism) reason=\"replay hook\"\n\
                   let s = std::env::var(\"ELSA_TESTKIT_SEED\");\n";
        let (findings, waivers) = run("elsa-fault", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].waived.as_deref(), Some("replay hook"));
        assert!(waivers[0].used);
    }

    // ---- D2 ---------------------------------------------------------------

    #[test]
    fn d2_flags_hash_collections_in_deterministic_crates() {
        let hits = unwaived("elsa-sparse", "use std::collections::HashMap;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::HashCollections);
        assert_eq!(unwaived("elsa-core", "let s: HashSet<u32> = HashSet::new();").len(), 2);
    }

    #[test]
    fn d2_ignores_unscoped_crates_and_strings() {
        assert!(unwaived("elsa-bench", "use std::collections::HashSet;").is_empty());
        assert!(unwaived("elsa-core", "let s = \"HashMap\"; // HashMap").is_empty());
        assert!(unwaived("elsa-core", "use std::collections::BTreeMap;").is_empty());
    }

    // ---- D3 ---------------------------------------------------------------

    #[test]
    fn d3_confines_elsa_threads_to_parallel() {
        let hits = unwaived("elsa-core", "match std::env::var(\"ELSA_THREADS\") {}\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::ThreadsEnv);
        assert!(unwaived("elsa-parallel", "match std::env::var(\"ELSA_THREADS\") {}").is_empty());
        // Mentioning the name in a string or docs is fine — only reads count.
        assert!(unwaived("elsa-core", "let s = \"ELSA_THREADS\";").is_empty());
    }

    // ---- P1 ---------------------------------------------------------------

    #[test]
    fn p1_flags_panicking_constructs_in_serving_crates() {
        assert_eq!(unwaived("elsa-runtime", "let v = x.unwrap();").len(), 1);
        assert_eq!(unwaived("elsa-serve", "let v = x.expect(\"m\");").len(), 1);
        assert_eq!(unwaived("elsa-runtime", "panic!(\"boom\");").len(), 1);
        assert_eq!(unwaived("elsa-serve", "todo!()").len(), 1);
        assert_eq!(unwaived("elsa-runtime", "unimplemented!()").len(), 1);
    }

    #[test]
    fn p1_ignores_non_panicking_lookalikes() {
        assert!(unwaived("elsa-runtime", "let v = x.unwrap_or(0);").is_empty());
        assert!(unwaived("elsa-runtime", "let v = x.unwrap_or_else(|| 0);").is_empty());
        assert!(unwaived("elsa-runtime", "let v = x.unwrap_or_default();").is_empty());
        assert!(unwaived("elsa-serve", "std::panic::catch_unwind(f)").is_empty());
        // `expect` not as a method call (no preceding dot) is not flagged.
        assert!(unwaived("elsa-runtime", "fn expect(x: u32) {}").is_empty());
    }

    #[test]
    fn p1_is_scoped_to_serving_crates() {
        assert!(unwaived("elsa-core", "let v = x.unwrap();").is_empty());
        assert!(unwaived("elsa-linalg", "panic!(\"fine here\");").is_empty());
    }

    #[test]
    fn p1_skips_test_modules_and_test_fns() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        assert!(unwaived("elsa-runtime", src).is_empty());
        let src = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(unwaived("elsa-runtime", src).is_empty());
        // …but code before/after the region is still scanned.
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\n";
        let hits = unwaived("elsa-runtime", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn p1_does_not_skip_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        assert_eq!(unwaived("elsa-runtime", src).len(), 1);
    }

    #[test]
    fn p1_waiver_on_same_line_and_line_above() {
        let same = "let v = x.unwrap(); // elsa-lint: allow(panic-policy) reason=\"invariant\"";
        let (findings, _) = run("elsa-runtime", same);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived.is_some());
        let above = "// elsa-lint: allow(panic-policy) reason=\"invariant\"\nlet v = x.unwrap();";
        let (findings, _) = run("elsa-runtime", above);
        assert!(findings[0].waived.is_some());
        // Two lines away: not covered.
        let far = "// elsa-lint: allow(panic-policy) reason=\"invariant\"\n\nlet v = x.unwrap();";
        let (findings, _) = run("elsa-runtime", far);
        assert!(findings.iter().any(|f| f.waived.is_none()));
    }

    #[test]
    fn p1_immune_to_strings_and_comments() {
        assert!(unwaived("elsa-runtime", "let s = \"x.unwrap()\"; // .unwrap()").is_empty());
        assert!(unwaived("elsa-serve", "let s = r#\"panic!(\"x\")\"#;").is_empty());
    }

    // ---- U1 ---------------------------------------------------------------

    #[test]
    fn u1_requires_safety_comment() {
        let bare = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let hits = unwaived("elsa-linalg", bare);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::UnsafeSafety);
        let documented = "// SAFETY: n is checked above\nfn f() { unsafe { g() } }";
        assert!(unwaived("elsa-linalg", documented).is_empty());
    }

    #[test]
    fn u1_safety_comment_must_be_adjacent() {
        let far = "// SAFETY: stale note\n\n\n\n\nfn f() { unsafe { g() } }";
        assert_eq!(unwaived("elsa-linalg", far).len(), 1);
    }

    #[test]
    fn u1_immune_to_strings_and_comments() {
        assert!(unwaived("elsa-core", "let s = \"unsafe\"; // unsafe").is_empty());
    }

    // ---- W0 ---------------------------------------------------------------

    #[test]
    fn w0_flags_malformed_waivers() {
        let (findings, waivers) = run("elsa-core", "// elsa-lint: allow(P1)\nlet x = 1;");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::WaiverSyntax);
        assert!(findings[0].waived.is_none());
        assert!(waivers.is_empty());
    }

    #[test]
    fn doc_comments_never_register_as_waivers() {
        // Quoting the syntax in docs must neither create a waiver nor a W0.
        let doc = "//! // elsa-lint: allow(panic-policy) reason=\"example\"\n\
                   /// elsa-lint: allow(bogus-rule)\n\
                   let v = x.unwrap();";
        let (findings, waivers) = run("elsa-runtime", doc);
        assert!(waivers.is_empty());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::PanicPolicy);
        assert!(findings[0].waived.is_none());
    }

    #[test]
    fn w0_flags_empty_reason_and_unknown_rule() {
        let empty = "// elsa-lint: allow(panic-policy) reason=\"\"";
        assert_eq!(unwaived("elsa-core", empty)[0].rule, RuleId::WaiverSyntax);
        let unknown = "// elsa-lint: allow(nonsense) reason=\"x\"";
        assert_eq!(unwaived("elsa-core", unknown)[0].rule, RuleId::WaiverSyntax);
    }

    // ---- rule set / ids ---------------------------------------------------

    #[test]
    fn rule_ids_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.code()), Some(rule));
            assert_eq!(RuleId::parse(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::parse("bogus"), None);
    }

    #[test]
    fn rule_filtering_disables_other_rules() {
        let only_p1 = RuleSet::only(&[RuleId::PanicPolicy]);
        let (findings, _) = check_source(
            "elsa-runtime",
            "t.rs",
            b"let t = Instant::now(); let v = x.unwrap();",
            &only_p1,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::PanicPolicy);
    }

    #[test]
    fn findings_render_with_file_line_and_rule() {
        let hits = unwaived("elsa-runtime", "let v = x.unwrap();");
        let rendered = hits[0].render();
        assert!(rendered.starts_with("test.rs:1:"), "{rendered}");
        assert!(rendered.contains("[P1 panic-policy]"), "{rendered}");
    }
}
