//! The rule engine: a token-tree walk that enforces the workspace's
//! written-but-otherwise-unchecked invariants.
//!
//! Every rule has a machine-readable ID.  The IDs are stable — they appear
//! in waiver comments, JSON reports and DESIGN.md — so renaming one is a
//! breaking change to the waiver vocabulary.
//!
//! | ID | scope            | invariant                                        |
//! |----|------------------|--------------------------------------------------|
//! | D1 | engine crates    | no wall-clock / entropy / environment reads      |
//! | D2 | engine crates    | no unordered collections (`HashMap`/`HashSet`)   |
//! | P1 | hot-path modules | no panic-family calls, no `[i]` slice indexing   |
//! | C1 | codec modules    | truncating `as` casts must be audited            |
//! | W1 | everywhere       | waivers must be well-formed and carry a reason   |
//!
//! The walk is purely lexical: it never resolves names or types.  That
//! keeps the checker ~free of false *negatives* on the constructs it
//! targets (an identifier is an identifier wherever it appears) at the
//! cost of occasional false positives, which is what reasoned waivers are
//! for.

use crate::lexer::{lex, Token, TokenKind};
use crate::waiver::{parse_comment, ParsedComment, Waiver};

/// Machine-readable rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Determinism: no wall-clock, entropy or environment access in
    /// engine crates.
    D1,
    /// Determinism: no unordered collections in engine crates.
    D2,
    /// Panic-freedom: no panic-family calls or slice indexing in
    /// hot-path modules.
    P1,
    /// Cast audit: truncating `as` casts in checksum/fingerprint/codec
    /// paths must carry a waiver explaining why the value fits.
    C1,
    /// Waiver hygiene: malformed waiver comment.
    W1,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::P1, RuleId::C1, RuleId::W1];

    /// The waiver vocabulary, for diagnostics.
    pub const ALL_NAMES: &'static str = "D1, D2, P1, C1";

    /// The rule's stable name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::P1 => "P1",
            RuleId::C1 => "C1",
            RuleId::W1 => "W1",
        }
    }

    /// One-line statement of the invariant the rule protects.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "engine crates must not read wall-clock time, entropy or the environment \
                 (SystemTime, Instant, std::env, thread::current, RandomState): any such read \
                 can leak into results and silently break bit-identical shard merges and \
                 checkpoint fingerprints"
            }
            RuleId::D2 => {
                "engine crates must not use HashMap/HashSet outside tests: their iteration \
                 order is unspecified, so any order-dependent result would vary between runs \
                 and poison fingerprints"
            }
            RuleId::P1 => {
                "hot-path modules must not contain panic-family calls (unwrap/expect/panic!/\
                 unreachable!/todo!) or `[i]` slice indexing outside tests: a panic mid-campaign \
                 corrupts shard state, and every such site must either be restructured or carry \
                 a written bounds argument"
            }
            RuleId::C1 => {
                "truncating `as` casts in checksum/fingerprint/codec paths must be audited: an \
                 unnoticed truncation changes the wire format or the fingerprint domain without \
                 failing any test"
            }
            RuleId::W1 => {
                "waiver comments must name a known rule and carry a non-empty reason: an \
                 unexplained suppression is silent invariant erosion"
            }
        }
    }

    /// Parses a rule name as written in a waiver.  `W1` is not waivable,
    /// so it is not part of the waiver vocabulary.
    pub fn parse(text: &str) -> Option<RuleId> {
        match text {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "P1" => Some(RuleId::P1),
            "C1" => Some(RuleId::C1),
            _ => None,
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending construct, as written.
    pub snippet: String,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// Which rule families apply to a file, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileScope {
    /// D1/D2 apply: the file is non-test source of an engine crate.
    pub engine: bool,
    /// P1 applies: the file is one of the designated hot-path modules.
    pub hot_path: bool,
    /// C1 applies: the file is part of a checksum/fingerprint/codec path.
    pub codec: bool,
}

/// The crates whose non-test source is subject to the determinism rules.
const ENGINE_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/sim/src/",
    "crates/mbpta/src/",
    "crates/workloads/src/",
];

/// Hot-path modules: P1 (panic-freedom) applies, by file name.
const HOT_PATH_FILES: [&str; 10] = [
    "benes.rs",
    "cache.rs",
    "hierarchy.rs",
    "placement.rs",
    "prng.rs",
    "replacement.rs",
    "lanes.rs",
    "checkpoint.rs",
    "packed.rs",
    "wire.rs",
];

/// Codec/fingerprint modules: C1 (cast audit) applies, by file name.
const CODEC_FILES: [&str; 4] = ["checkpoint.rs", "packed.rs", "shard.rs", "wire.rs"];

/// Server modules that face hostile bytes: the HTTP parser and the
/// campaign-spec codec.  They get the panic-freedom and cast-audit
/// treatment of the engine's hot path (a malformed request must decode
/// to a refusal, never a panic) but not the determinism rules — a
/// server legitimately reads clocks and sockets.
const SERVER_GUARDED_FILES: [&str; 2] = ["crates/server/src/http.rs", "crates/server/src/body.rs"];

/// Classifies a workspace-relative path (forward slashes).  Returns
/// `None` for files the checker skips entirely: test trees, benches,
/// examples, build output and the vendored dependency stand-ins.
pub fn classify(rel_path: &str) -> Option<FileScope> {
    let skip_dirs = [
        "tests/",
        "benches/",
        "examples/",
        "target/",
        "vendor/",
        ".git/",
    ];
    for dir in skip_dirs {
        if rel_path.starts_with(dir) || rel_path.contains(&format!("/{dir}")) {
            return None;
        }
    }
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let engine = ENGINE_CRATES.iter().any(|root| rel_path.starts_with(root));
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let server_guarded = SERVER_GUARDED_FILES.contains(&rel_path);
    let hot_path = server_guarded
        || (engine && (HOT_PATH_FILES.contains(&base) || rel_path.contains("/src/run/")));
    let codec = server_guarded || (engine && CODEC_FILES.contains(&base));
    Some(FileScope {
        engine,
        hot_path,
        codec,
    })
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Non-waived violations, in source order.
    pub violations: Vec<Violation>,
    /// Every well-formed waiver in the file, with its `used` flag set
    /// when it suppressed at least one violation.
    pub waivers: Vec<Waiver>,
}

/// Scans one file's source under the rules selected by `scope`.
/// W1 (waiver hygiene) is always checked.
pub fn scan_source(rel_path: &str, src: &str, scope: FileScope) -> ScanOutcome {
    Scanner::new(rel_path, src, scope).run()
}

/// Keywords that can legitimately precede a `[` without forming an index
/// expression (`&mut [u8]`, `dyn [T]`, `in [..]`, …).  `self` is absent
/// on purpose: `self[i]` through an `Index` impl is still indexing.
const NON_INDEXABLE_KEYWORDS: [&str; 30] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type",
];

/// Additional non-indexable keywords (split to keep the arrays readable).
const NON_INDEXABLE_KEYWORDS_2: [&str; 6] = ["unsafe", "use", "where", "while", "true", "false"];

fn is_non_indexable_keyword(text: &str) -> bool {
    NON_INDEXABLE_KEYWORDS.contains(&text) || NON_INDEXABLE_KEYWORDS_2.contains(&text)
}

/// Integer types an `as` cast can truncate into.  `usize` is included:
/// the codecs read `u64` lengths from the wire, and `u64 as usize`
/// truncates on 32-bit targets — each such cast must say why that is
/// either impossible or safe.
const TRUNCATING_CAST_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// The banned wall-clock / entropy / environment identifiers (D1).
const NONDETERMINISM_IDENTS: [&str; 3] = ["SystemTime", "Instant", "RandomState"];

/// A previously seen significant token (identity only, no text lifetime).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Prev {
    kind: Option<TokenKind>,
    text: String,
    line: u32,
    col: u32,
}

/// An own-line waiver or `#[cfg(test)]` marker waiting to attach to the
/// item or statement that follows it.
#[derive(Debug)]
struct Pending {
    /// Index into `Scanner::waivers`, or `None` for a cfg(test) marker.
    waiver: Option<usize>,
    /// Brace depth at which the marker was seen; a `;` at this depth
    /// retires it (brace-less statement / `#[cfg(test)] use …;`).
    arm_depth: u32,
}

/// An attached suppression region: active until the brace that opened it
/// closes.
#[derive(Debug)]
struct Region {
    /// Index into `Scanner::waivers`, or `None` for a cfg(test) region.
    waiver: Option<usize>,
    /// Depth *before* the opening brace; the region dies when depth
    /// returns to this value.
    close_depth: u32,
}

struct Scanner<'a> {
    rel_path: &'a str,
    src: &'a str,
    scope: FileScope,
    lines: Vec<&'a str>,
    violations: Vec<Violation>,
    waivers: Vec<Waiver>,
    depth: u32,
    prev: [Prev; 3],
    pendings: Vec<Pending>,
    regions: Vec<Region>,
    /// Own-line waivers not yet reached by the code walk, as indices
    /// into `waivers`, in file order.
    upcoming: Vec<usize>,
    /// Cursor into `upcoming`.
    next_upcoming: usize,
}

impl<'a> Scanner<'a> {
    fn new(rel_path: &'a str, src: &'a str, scope: FileScope) -> Scanner<'a> {
        Scanner {
            rel_path,
            src,
            scope,
            lines: src.lines().collect(),
            violations: Vec::new(),
            waivers: Vec::new(),
            depth: 0,
            prev: Default::default(),
            pendings: Vec::new(),
            regions: Vec::new(),
            upcoming: Vec::new(),
            next_upcoming: 0,
        }
    }

    fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map_or_else(String::new, |l| l.trim().to_string())
    }

    fn violation(&mut self, rule: RuleId, line: u32, col: u32, snippet: &str, message: String) {
        if rule != RuleId::W1 && self.suppressed(rule, line) {
            return;
        }
        self.violations.push(Violation {
            rule,
            file: self.rel_path.to_string(),
            line,
            col,
            snippet: snippet.to_string(),
            message,
        });
    }

    /// Looks for a waiver covering `rule` at `line`: a trailing waiver on
    /// the same line, a pending own-line waiver, or an enclosing region.
    /// The first match is marked used.
    fn suppressed(&mut self, rule: RuleId, line: u32) -> bool {
        // Trailing waiver on the violation's own line.
        for w in self.waivers.iter_mut() {
            if w.trailing && w.line == line && w.rule == rule {
                w.used = true;
                return true;
            }
        }
        // Own-line waiver still waiting to attach (covers the statement
        // being read right now).
        for p in &self.pendings {
            if let Some(idx) = p.waiver {
                if self.waivers[idx].rule == rule {
                    self.waivers[idx].used = true;
                    return true;
                }
            }
        }
        // Innermost enclosing waiver region.
        for r in self.regions.iter().rev() {
            if let Some(idx) = r.waiver {
                if self.waivers[idx].rule == rule {
                    self.waivers[idx].used = true;
                    return true;
                }
            }
        }
        false
    }

    fn in_test(&self) -> bool {
        self.regions.iter().any(|r| r.waiver.is_none())
            || self.pendings.iter().any(|p| p.waiver.is_none())
    }

    fn push_prev(&mut self, tok: &Token<'_>) {
        self.prev.rotate_right(1);
        self.prev[0] = Prev {
            kind: Some(tok.kind),
            text: tok.text.to_string(),
            line: tok.line,
            col: tok.col,
        };
    }

    fn prev_text(&self, back: usize) -> &str {
        &self.prev[back].text
    }

    fn run(mut self) -> ScanOutcome {
        let src_tokens = lex(self.src);
        self.collect_comments(&src_tokens);
        let code: Vec<&Token<'_>> = src_tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let mut i = 0;
        while i < code.len() {
            let tok = code[i];
            self.arm_waivers_before(tok.line);
            // Attributes are consumed as a unit: their brackets are not
            // index expressions, and `#[cfg(test)]` gates the next item.
            if tok.text == "#" {
                i = self.consume_attribute(&code, i);
                continue;
            }
            self.check(tok, code.get(i + 1).copied());
            self.track_nesting(tok);
            self.push_prev(tok);
            i += 1;
        }
        ScanOutcome {
            violations: self.violations,
            waivers: self.waivers,
        }
    }

    fn collect_comments(&mut self, tokens: &[Token<'_>]) {
        let mut last_code_line = 0u32;
        for t in tokens {
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment => {
                    let trailing = t.line == last_code_line;
                    match parse_comment(t.text, t.line, trailing) {
                        ParsedComment::NotAWaiver => {}
                        ParsedComment::Waiver(w) => {
                            let own_line = !w.trailing;
                            self.waivers.push(w);
                            if own_line {
                                self.upcoming.push(self.waivers.len() - 1);
                            }
                        }
                        ParsedComment::Malformed(detail) => {
                            let snippet = self.line_text(t.line);
                            self.violations.push(Violation {
                                rule: RuleId::W1,
                                file: self.rel_path.to_string(),
                                line: t.line,
                                col: t.col,
                                snippet,
                                message: format!("malformed waiver: {detail}"),
                            });
                        }
                    }
                }
                TokenKind::Whitespace => {}
                _ => last_code_line = t.line,
            }
        }
    }

    /// Moves own-line waivers whose comment line has been passed into the
    /// pending set, so they attach to the next item or statement.
    fn arm_waivers_before(&mut self, code_line: u32) {
        while let Some(&idx) = self.upcoming.get(self.next_upcoming) {
            if self.waivers[idx].line < code_line {
                self.pendings.push(Pending {
                    waiver: Some(idx),
                    arm_depth: self.depth,
                });
                self.next_upcoming += 1;
            } else {
                break;
            }
        }
    }

    /// Consumes `# [ … ]` (or `# ! [ … ]`) starting at `code[i] == "#"`,
    /// returning the index just past the closing bracket.  Marks a
    /// pending test region for `#[cfg(test)]` / `#[test]` attributes.
    fn consume_attribute(&mut self, code: &[&Token<'_>], i: usize) -> usize {
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.text == "!") {
            j += 1;
        }
        if !code.get(j).is_some_and(|t| t.text == "[") {
            return i + 1; // a stray `#`; skip it
        }
        let mut depth = 0i32;
        let mut idents: Vec<&str> = Vec::new();
        while let Some(tok) = code.get(j) {
            match tok.text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ if tok.kind == TokenKind::Ident => idents.push(tok.text),
                _ => {}
            }
            j += 1;
        }
        let has = |name: &str| idents.contains(&name);
        // `#[cfg(test)]` (and cfg(all/any(test, …))) gates the next item,
        // as does a bare `#[test]`.  `#[cfg(not(test))]` stays checked,
        // and `#[cfg_attr(test, …)]` does not gate compilation at all.
        let gates_test =
            (has("cfg") && has("test") && !has("not") && !has("cfg_attr")) || idents == ["test"];
        if gates_test {
            self.pendings.push(Pending {
                waiver: None,
                arm_depth: self.depth,
            });
        }
        j
    }

    fn track_nesting(&mut self, tok: &Token<'_>) {
        match tok.text {
            "{" => {
                // Pendings attach: they cover this whole brace body.
                for p in self.pendings.drain(..) {
                    self.regions.push(Region {
                        waiver: p.waiver,
                        close_depth: self.depth,
                    });
                }
                self.depth += 1;
            }
            "}" => {
                self.depth = self.depth.saturating_sub(1);
                while self
                    .regions
                    .last()
                    .is_some_and(|r| r.close_depth >= self.depth)
                {
                    self.regions.pop();
                }
                // A pending that never attached inside this block dies
                // with it.
                self.pendings.retain(|p| p.arm_depth <= self.depth);
            }
            ";" => {
                // Brace-less statement: pendings armed at this depth have
                // covered their statement; retire them.
                let depth = self.depth;
                self.pendings.retain(|p| p.arm_depth != depth);
            }
            _ => {}
        }
    }

    fn check(&mut self, tok: &Token<'_>, next: Option<&Token<'_>>) {
        if self.in_test() {
            return;
        }
        let snippet = self.line_text(tok.line);
        match tok.kind {
            TokenKind::Ident => {
                if self.scope.engine {
                    if NONDETERMINISM_IDENTS.contains(&tok.text) {
                        self.violation(
                            RuleId::D1,
                            tok.line,
                            tok.col,
                            &snippet,
                            format!(
                                "`{}` reads wall-clock time or ambient entropy; engine crates \
                                 must stay bit-deterministic (derive everything from the seed \
                                 schedule)",
                                tok.text
                            ),
                        );
                    }
                    if self.path_tail_is("std", "env") && tok.text == "env" {
                        self.violation(
                            RuleId::D1,
                            tok.line,
                            tok.col,
                            &snippet,
                            "`std::env` makes results depend on the process environment; \
                             engine crates must take all configuration as explicit arguments"
                                .to_string(),
                        );
                    }
                    if self.path_tail_is("thread", "current") && tok.text == "current" {
                        self.violation(
                            RuleId::D1,
                            tok.line,
                            tok.col,
                            &snippet,
                            "`thread::current()` exposes scheduler-dependent identity; engine \
                             results must be invariant across thread counts"
                                .to_string(),
                        );
                    }
                    if tok.text == "HashMap" || tok.text == "HashSet" {
                        self.violation(
                            RuleId::D2,
                            tok.line,
                            tok.col,
                            &snippet,
                            format!(
                                "`{}` iterates in unspecified order; use a sorted structure \
                                 (BTreeMap/sorted Vec), or waive with a reason proving order \
                                 cannot leak into results",
                                tok.text
                            ),
                        );
                    }
                }
                if self.scope.codec
                    && self.prev_text(0) == "as"
                    && self.prev[0].kind == Some(TokenKind::Ident)
                    && TRUNCATING_CAST_TARGETS.contains(&tok.text)
                {
                    self.violation(
                        RuleId::C1,
                        tok.line,
                        tok.col,
                        &snippet,
                        format!(
                            "`as {}` can truncate; codec/fingerprint paths must audit every \
                             narrowing cast (prefer try_from with an error path, or waive with \
                             the reason the value provably fits)",
                            tok.text
                        ),
                    );
                }
            }
            TokenKind::Punct => match tok.text {
                "(" if self.scope.hot_path => {
                    let callee = self.prev_text(0);
                    if (callee == "unwrap" || callee == "expect")
                        && self.prev[0].kind == Some(TokenKind::Ident)
                        && self.prev_text(1) == "."
                    {
                        let (line, col) = (self.prev[0].line, self.prev[0].col);
                        let snippet = self.line_text(line);
                        self.violation(
                            RuleId::P1,
                            line,
                            col,
                            &snippet,
                            format!(
                                "`.{callee}()` panics on the failure path; hot-path modules \
                                 must construct infallibly, return an error, or carry a waiver \
                                 stating the invariant that rules the panic out"
                            ),
                        );
                    }
                }
                "!" if self.scope.hot_path => {
                    let callee = self.prev_text(0);
                    if matches!(callee, "panic" | "unreachable" | "todo")
                        && self.prev[0].kind == Some(TokenKind::Ident)
                        && next.is_some_and(|n| n.text == "(")
                    {
                        let (line, col) = (self.prev[0].line, self.prev[0].col);
                        let snippet = self.line_text(line);
                        self.violation(
                            RuleId::P1,
                            line,
                            col,
                            &snippet,
                            format!(
                                "`{callee}!` aborts the campaign mid-run; hot-path modules \
                                 must handle the case or waive with the invariant that makes \
                                 it unreachable"
                            ),
                        );
                    }
                }
                "[" if self.scope.hot_path => {
                    let indexable = match self.prev[0].kind {
                        Some(TokenKind::Ident) => !is_non_indexable_keyword(self.prev_text(0)),
                        Some(TokenKind::Punct) => matches!(self.prev_text(0), ")" | "]"),
                        _ => false,
                    };
                    if indexable {
                        self.violation(
                            RuleId::P1,
                            tok.line,
                            tok.col,
                            &snippet,
                            "slice indexing panics out of bounds; hot-path modules must use \
                             get/iterators, or waive with the written bounds argument"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Do the previous three significant tokens spell `first :: second`,
    /// with the current token being `second`?  (Checked as: prev0 == ':',
    /// prev1 == ':', prev2 == first.)
    fn path_tail_is(&self, first: &str, _second: &str) -> bool {
        self.prev_text(0) == ":" && self.prev_text(1) == ":" && self.prev_text(2) == first
    }
}
