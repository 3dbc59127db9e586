//! Waiver comments: the only sanctioned way to silence a rule.
//!
//! A waiver is a comment of the form
//!
//! ```text
//! // randmod: allow(P1, bounds proven by the assert at the top of the fn)
//! ```
//!
//! and its *reason is mandatory*: a waiver that names no rule, names an
//! unknown rule, or carries an empty reason is itself a violation
//! ([`crate::rules::RuleId::W1`]) — an unexplained suppression is exactly
//! the kind of silent invariant erosion this tool exists to stop.
//!
//! Scope:
//! * a **trailing** waiver (code before it on the same line) covers that
//!   line only;
//! * an **own-line** waiver covers the item or statement that follows it —
//!   through the end of the next brace-delimited body, or through the next
//!   `;` at the same nesting depth for brace-less statements.  Placing one
//!   above an `fn` therefore waives the whole function, which is the
//!   intended granularity for hot loops whose bounds argument is written
//!   once in the function's doc comment.

use crate::rules::RuleId;

/// The marker every waiver comment must contain.
pub const WAIVER_MARKER: &str = "randmod:";

/// A parsed waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule being waived.
    pub rule: RuleId,
    /// The mandatory free-text justification.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Whether code precedes the comment on its line (trailing waiver).
    pub trailing: bool,
    /// Set when the waiver suppressed at least one violation.
    pub used: bool,
}

/// Outcome of inspecting one comment for waiver syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedComment {
    /// The comment does not carry the `randmod:` marker.
    NotAWaiver,
    /// A well-formed waiver.
    Waiver(Waiver),
    /// The marker is present but the waiver is malformed; the string
    /// explains how.
    Malformed(String),
}

/// Parses one comment's text (including its `//` / `/*` fence).
pub fn parse_comment(text: &str, line: u32, trailing: bool) -> ParsedComment {
    let Some(marker) = text.find(WAIVER_MARKER) else {
        return ParsedComment::NotAWaiver;
    };
    let directive = text[marker + WAIVER_MARKER.len()..].trim_start();
    // Only `randmod: allow…` is a waiver attempt; anything else with the
    // marker (`randmod::core` paths in doc comments, prose) is ordinary
    // text.  A misspelled `allow` is safe to ignore: it suppresses
    // nothing, so the violation it aimed at still fires.
    if !directive.starts_with("allow") {
        return ParsedComment::NotAWaiver;
    }
    let Some(args) = directive.strip_prefix("allow(") else {
        return ParsedComment::Malformed(
            "expected `randmod: allow(RULE, reason)` after the marker".to_string(),
        );
    };
    let Some(close) = args.find(')') else {
        return ParsedComment::Malformed("waiver is missing its closing `)`".to_string());
    };
    let args = &args[..close];
    let (rule_text, reason) = match args.split_once(',') {
        Some((rule, reason)) => (rule.trim(), reason.trim()),
        None => (args.trim(), ""),
    };
    let Some(rule) = RuleId::parse(rule_text) else {
        return ParsedComment::Malformed(format!(
            "unknown rule `{rule_text}` (expected one of {})",
            RuleId::ALL_NAMES
        ));
    };
    if reason.is_empty() {
        return ParsedComment::Malformed(format!(
            "waiver for {rule_text} carries no reason; write `randmod: allow({rule_text}, why \
             this is sound)`"
        ));
    }
    ParsedComment::Waiver(Waiver {
        rule,
        reason: reason.to_string(),
        line,
        trailing,
        used: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_waiver_parses() {
        let parsed = parse_comment(
            "// randmod: allow(P1, index bounded by lane count)",
            7,
            true,
        );
        match parsed {
            ParsedComment::Waiver(w) => {
                assert_eq!(w.rule, RuleId::P1);
                assert_eq!(w.reason, "index bounded by lane count");
                assert_eq!(w.line, 7);
                assert!(w.trailing);
                assert!(!w.used);
            }
            other => panic!("expected a waiver, got {other:?}"),
        }
    }

    #[test]
    fn missing_reason_is_malformed() {
        assert!(matches!(
            parse_comment("// randmod: allow(D2)", 1, false),
            ParsedComment::Malformed(_)
        ));
        assert!(matches!(
            parse_comment("// randmod: allow(D2,   )", 1, false),
            ParsedComment::Malformed(_)
        ));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        assert!(matches!(
            parse_comment("// randmod: allow(Z9, because)", 1, false),
            ParsedComment::Malformed(_)
        ));
    }

    #[test]
    fn prose_without_marker_is_ignored() {
        assert_eq!(
            parse_comment("// plain prose about allow(P1, x)", 1, false),
            ParsedComment::NotAWaiver
        );
    }
}
