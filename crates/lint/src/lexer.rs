//! A hand-rolled Rust lexer.
//!
//! The rule engine only needs a *token-level* view of the source — it never
//! parses expressions — but that view must be trustworthy: a forbidden
//! identifier inside a string literal or a comment is not a violation, and
//! a waiver comment inside a raw string is not a waiver.  The lexer
//! therefore handles the full token surface that can confuse a naive
//! scanner: raw strings with arbitrary `#` fences, byte and raw-byte
//! strings, nested block comments, lifetimes vs. character literals, raw
//! identifiers, and numeric literals with exponents and type suffixes.
//!
//! The lexer is *lossless*: every byte of the input ends up in exactly one
//! token, so concatenating `Token::text` in order reproduces the source.
//! The round-trip property is what the tests pin, and it is what makes the
//! line/column bookkeeping trustworthy for violation reports.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (spaces, tabs, newlines).
    Whitespace,
    /// A `//` comment, including `///` and `//!` doc comments, without the
    /// trailing newline.
    LineComment,
    /// A `/* … */` comment, with nesting, including `/** … */` doc forms.
    BlockComment,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A string literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`.
    Str,
    /// A character or byte-character literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal, including exponents and suffixes (`1.0e-9f64`).
    Num,
    /// Any single punctuation character not covered above.
    Punct,
}

/// One lexeme of the source, with its starting position (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Lexical class.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in characters) of the token's first byte.
    pub col: u32,
}

/// Lexes `src` into a lossless token stream: concatenating the tokens'
/// `text` fields in order reproduces `src` exactly.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut tokens = Vec::new();
    let mut cursor = Cursor {
        src,
        pos: 0,
        line: 1,
        col: 1,
    };
    while cursor.pos < src.len() {
        let start = cursor.pos;
        let (line, col) = (cursor.line, cursor.col);
        let kind = cursor.next_token();
        debug_assert!(cursor.pos > start, "lexer must always make progress");
        tokens.push(Token {
            kind,
            text: &src[start..cursor.pos],
            line,
            col,
        });
    }
    tokens
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

impl Cursor<'_> {
    fn peek(&self) -> Option<char> {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
    }

    fn peek_at(&self, chars_ahead: usize) -> Option<char> {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().nth(chars_ahead))
    }

    /// Consumes one character, updating line/column bookkeeping.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn bump_while(&mut self, test: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&test) {
            self.bump();
        }
    }

    fn next_token(&mut self) -> TokenKind {
        let first = self.peek().unwrap_or('\0');
        match first {
            c if c.is_whitespace() => {
                self.bump_while(char::is_whitespace);
                TokenKind::Whitespace
            }
            '/' if self.peek_at(1) == Some('/') => {
                self.bump_while(|c| c != '\n');
                TokenKind::LineComment
            }
            '/' if self.peek_at(1) == Some('*') => self.block_comment(),
            '"' => self.string(),
            '\'' => self.lifetime_or_char(),
            'r' if self.raw_string_ahead(1) => {
                self.bump();
                self.raw_string()
            }
            'r' if self.peek_at(1) == Some('#') && self.peek_at(2).is_some_and(is_ident_start) => {
                // Raw identifier: r#match
                self.bump();
                self.bump();
                self.bump_while(is_ident_continue);
                TokenKind::Ident
            }
            'b' if self.peek_at(1) == Some('"') => {
                self.bump();
                self.string()
            }
            'b' if self.peek_at(1) == Some('\'') => {
                self.bump();
                self.char_literal()
            }
            'b' if self.peek_at(1) == Some('r') && self.raw_string_ahead(2) => {
                self.bump();
                self.bump();
                self.raw_string()
            }
            c if is_ident_start(c) => {
                self.bump_while(is_ident_continue);
                TokenKind::Ident
            }
            c if c.is_ascii_digit() => self.number(),
            _ => {
                self.bump();
                TokenKind::Punct
            }
        }
    }

    /// Is `r#*"` (zero or more hashes then a quote) ahead, starting
    /// `chars_ahead` characters past the cursor?
    fn raw_string_ahead(&self, chars_ahead: usize) -> bool {
        let mut at = chars_ahead;
        while self.peek_at(at) == Some('#') {
            at += 1;
        }
        self.peek_at(at) == Some('"')
    }

    /// Consumes a raw string starting at its first `#` or `"` (the `r`
    /// or `br` prefix is already consumed).
    fn raw_string(&mut self) -> TokenKind {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                None => break, // unterminated: tolerate, report nothing
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some('#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        TokenKind::Str
    }

    /// Consumes a `"…"` string (cursor on the opening quote).
    fn string(&mut self) -> TokenKind {
        self.bump();
        loop {
            match self.bump() {
                None | Some('"') => break,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
        TokenKind::Str
    }

    /// Consumes a `'…'` char literal (cursor on the opening quote).
    fn char_literal(&mut self) -> TokenKind {
        self.bump();
        loop {
            match self.bump() {
                None | Some('\'') => break,
                Some('\\') => {
                    self.bump();
                }
                Some(_) => {}
            }
        }
        TokenKind::Char
    }

    /// Disambiguates `'a` (lifetime) from `'a'` (char literal).
    fn lifetime_or_char(&mut self) -> TokenKind {
        match self.peek_at(1) {
            // An escape is always a char literal: '\n', '\''.
            Some('\\') => self.char_literal(),
            Some(c) if is_ident_start(c) => {
                // `'a'` is a char literal, `'a` / `'static` a lifetime:
                // scan the identifier run and look for a closing quote.
                let mut at = 2;
                while self.peek_at(at).is_some_and(is_ident_continue) {
                    at += 1;
                }
                if self.peek_at(at) == Some('\'') {
                    self.char_literal()
                } else {
                    self.bump(); // the quote
                    self.bump_while(is_ident_continue);
                    TokenKind::Lifetime
                }
            }
            // `'('`, `' '`, …: a char literal of a non-identifier char.
            _ => self.char_literal(),
        }
    }

    /// Consumes a numeric literal (cursor on its first digit).
    fn number(&mut self) -> TokenKind {
        self.bump();
        loop {
            match self.peek() {
                Some(c) if is_ident_continue(c) => {
                    let was_exponent = c == 'e' || c == 'E';
                    self.bump();
                    // `1e-9` / `1E+10`: a sign directly after the exponent
                    // marker belongs to the literal when digits follow.
                    if was_exponent
                        && matches!(self.peek(), Some('+' | '-'))
                        && self.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                    {
                        self.bump();
                    }
                }
                // A fractional part only when a digit follows the dot, so
                // `0..10` and `1.max(2)` keep the dot as punctuation.
                Some('.') if self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                    self.bump();
                }
                _ => break,
            }
        }
        TokenKind::Num
    }

    /// Consumes a `/* … */` comment with nesting (cursor on the `/`).
    fn block_comment(&mut self) -> TokenKind {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                None => break,
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
            }
        }
        TokenKind::BlockComment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &str) -> Vec<Token<'_>> {
        let tokens = lex(src);
        let rebuilt: String = tokens.iter().map(|t| t.text).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless");
        tokens
    }

    fn kinds<'a>(tokens: &'a [Token<'a>]) -> Vec<(TokenKind, &'a str)> {
        tokens
            .iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = round_trip(r####"let s = r#"quote " inside"#; let t = r##"a "# b"##;"####);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(
            strs,
            [r###"r#"quote " inside"#"###, r####"r##"a "# b"##"####]
        );
    }

    #[test]
    fn raw_byte_strings_and_byte_literals() {
        let toks = round_trip(r##"let a = br#"raw ' bytes"#; let b = b"x\""; let c = b'\'';"##);
        let lits: Vec<(TokenKind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str | TokenKind::Char))
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            lits,
            [
                (TokenKind::Str, r##"br#"raw ' bytes"#"##),
                (TokenKind::Str, r#"b"x\"""#),
                (TokenKind::Char, r"b'\''"),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = round_trip("a /* outer /* inner */ still outer */ b");
        assert_eq!(
            kinds(&toks),
            [
                (TokenKind::Ident, "a"),
                (
                    TokenKind::BlockComment,
                    "/* outer /* inner */ still outer */"
                ),
                (TokenKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks =
            round_trip("fn f<'a>(x: &'a str) -> char { 'a' } // 'static too: &'static '\\n'");
        let interesting: Vec<(TokenKind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Lifetime | TokenKind::Char))
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            interesting,
            [
                (TokenKind::Lifetime, "'a"),
                (TokenKind::Lifetime, "'a"),
                (TokenKind::Char, "'a'"),
            ]
        );
    }

    #[test]
    fn underscore_lifetime_and_static() {
        let toks = round_trip("&'_ T; &'static str; ' '");
        let interesting: Vec<(TokenKind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Lifetime | TokenKind::Char))
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            interesting,
            [
                (TokenKind::Lifetime, "'_"),
                (TokenKind::Lifetime, "'static"),
                (TokenKind::Char, "' '"),
            ]
        );
    }

    #[test]
    fn numbers_with_exponents_suffixes_and_ranges() {
        let toks = round_trip("1.0e-9 + 0xff_u8 + 1_000u64 + x.0; for i in 0..10 {} 1.max(2)");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(
            nums,
            ["1.0e-9", "0xff_u8", "1_000u64", "0", "0", "10", "1", "2"]
        );
    }

    #[test]
    fn raw_identifiers() {
        let toks = round_trip("let r#match = r#type; r#\"not an ident\"#");
        assert_eq!(
            kinds(&toks),
            [
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "r#match"),
                (TokenKind::Punct, "="),
                (TokenKind::Ident, "r#type"),
                (TokenKind::Punct, ";"),
                (TokenKind::Str, "r#\"not an ident\"#"),
            ]
        );
    }

    #[test]
    fn forbidden_names_inside_literals_are_not_idents() {
        let toks = round_trip(r#"let msg = "SystemTime::now() is banned"; // HashMap too"#);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, ["let", "msg"]);
    }

    #[test]
    fn line_and_column_positions() {
        let toks = lex("ab\n  cd");
        let cd = toks.last().expect("has tokens");
        assert_eq!((cd.text, cd.line, cd.col), ("cd", 2, 3));
    }

    #[test]
    fn unterminated_forms_do_not_hang() {
        round_trip("/* never closed");
        round_trip("\"never closed");
        round_trip("r#\"never closed");
    }
}
