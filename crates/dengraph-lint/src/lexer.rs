//! A minimal, dependency-free Rust surface lexer.
//!
//! The lint rules are line-oriented pattern checks, but they must never
//! fire on text inside a string literal or a comment (`"for k in &map"`
//! is data, not code), and conversely must be able to *read* comments
//! (`// SAFETY:`, `// lint: allow(...)`).  This module does the one
//! transformation that makes both possible: it splits every source line
//! into its **code text** and its **comment text**.
//!
//! * Comment characters are removed from the code text entirely.
//! * String and char literal *contents* are replaced by `s` filler of
//!   equal length (the delimiters stay), so downstream length checks —
//!   e.g. "does this `expect` message actually say anything?" — still
//!   work while `.iter()` inside a string can no longer match a rule.
//! * Lifetimes (`'scope`) are kept verbatim in code; nested block
//!   comments and raw strings (`r#"…"#`, `br"…"`) are handled.
//!
//! The output is intentionally *not* a token stream: every rule in this
//! project is expressible over comment-stripped lines plus brace depth,
//! and a full Rust grammar would be a liability to maintain by hand.

/// One source line, split into code and comment halves.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// The line's code with comments removed and literal contents
    /// replaced by `s` filler of the same length.
    pub code: String,
    /// The concatenated text of every comment on the line (without the
    /// `//` / `/*` markers).
    pub comment: String,
}

/// Lexer mode between characters.
enum Mode {
    Code,
    LineComment,
    /// Block comment with nesting depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside `"…"`; `raw_hashes == None` for ordinary strings (escape
    /// processing on), `Some(n)` for raw strings closed by `"` + n `#`s.
    Str {
        raw_hashes: Option<u32>,
    },
    /// Inside `'…'` (a char literal, not a lifetime).
    Char,
}

/// Splits `source` into per-line code/comment halves.
pub fn split(source: &str) -> Vec<Line> {
    let bytes: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut line = Line::default();
    let mut mode = Mode::Code;
    let mut i = 0usize;

    // True when the previous code character could end an identifier —
    // used to tell a raw-string prefix `r"` from an identifier that
    // merely ends in `r` followed by a string (`war"x"` is `war` + str).
    let mut prev_ident = false;

    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            if let Mode::LineComment = mode {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            prev_ident = false;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw-string prefixes: r"…", r#"…"#, br"…", br#"…"# —
                // only when `r`/`br` is not the tail of an identifier.
                if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
                    let after_r = if c == 'b' { i + 2 } else { i + 1 };
                    let mut hashes = 0usize;
                    while bytes.get(after_r + hashes) == Some(&'#') {
                        hashes += 1;
                    }
                    if bytes.get(after_r + hashes) == Some(&'"') {
                        for &p in &bytes[i..=after_r + hashes] {
                            line.code.push(p);
                        }
                        i = after_r + hashes + 1;
                        mode = Mode::Str {
                            raw_hashes: Some(hashes as u32),
                        };
                        prev_ident = false;
                        continue;
                    }
                }
                if c == '"' {
                    line.code.push('"');
                    mode = Mode::Str { raw_hashes: None };
                    i += 1;
                    prev_ident = false;
                    continue;
                }
                if c == '\'' {
                    // Lifetime or char literal?  `'\…'` and `'x'` are
                    // literals; `'ident` not closed by a quote is a
                    // lifetime and stays in the code text.
                    let is_char_literal = match next {
                        Some('\\') => true,
                        Some(_) => bytes.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_literal {
                        line.code.push('\'');
                        mode = Mode::Char;
                        i += 1;
                        prev_ident = false;
                        continue;
                    }
                    line.code.push('\'');
                    i += 1;
                    prev_ident = false;
                    continue;
                }
                line.code.push(c);
                prev_ident = c.is_alphanumeric() || c == '_';
                i += 1;
            }
            Mode::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        mode = Mode::Code;
                        // Keep statements on either side apart.
                        line.code.push(' ');
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                line.comment.push(c);
                i += 1;
            }
            Mode::Str { raw_hashes } => {
                match raw_hashes {
                    None => {
                        if c == '\\' {
                            // Escape: blank both characters.
                            line.code.push('s');
                            if bytes.get(i + 1).is_some_and(|&e| e != '\n') {
                                line.code.push('s');
                                i += 2;
                            } else {
                                i += 1;
                            }
                            continue;
                        }
                        if c == '"' {
                            line.code.push('"');
                            mode = Mode::Code;
                            i += 1;
                            continue;
                        }
                    }
                    Some(hashes) => {
                        if c == '"' {
                            let h = hashes as usize;
                            if (1..=h).all(|k| bytes.get(i + k) == Some(&'#')) {
                                line.code.push('"');
                                for _ in 0..h {
                                    line.code.push('#');
                                }
                                mode = Mode::Code;
                                i += 1 + h;
                                continue;
                            }
                        }
                    }
                }
                line.code.push('s');
                i += 1;
            }
            Mode::Char => {
                if c == '\\' {
                    line.code.push('s');
                    if bytes.get(i + 1).is_some_and(|&e| e != '\n') {
                        line.code.push('s');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '\'' {
                    line.code.push('\'');
                    mode = Mode::Code;
                    i += 1;
                    continue;
                }
                line.code.push('s');
                i += 1;
            }
        }
    }
    lines.push(line);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        split(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_move_to_comment_half() {
        let lines = split("let x = 1; // trailing note");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert_eq!(lines[0].comment, " trailing note");
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let lines = code_of("a /* outer /* inner */ still comment */ b");
        assert_eq!(lines[0].replace(' ', ""), "ab");
    }

    #[test]
    fn string_contents_are_blanked_but_length_preserved() {
        let lines = code_of("x.expect(\"map is non-empty\")");
        assert_eq!(lines[0], "x.expect(\"ssssssssssssssss\")");
    }

    #[test]
    fn code_inside_strings_cannot_match_rules() {
        let lines = code_of("let s = \"for k in &map { map.iter() }\";");
        assert!(!lines[0].contains("iter"));
        assert!(!lines[0].contains("for k"));
    }

    #[test]
    fn raw_strings_and_hashes_close_correctly() {
        let lines = code_of("let s = r#\"quote \" inside\"# + tail();");
        assert!(lines[0].contains("tail()"));
        assert!(!lines[0].contains("inside"));
    }

    #[test]
    fn byte_and_identifier_adjacent_strings() {
        // `br` prefix is a raw byte string; `war` is not a prefix.
        let lines = code_of("let a = br\"xy\"; let war = 1;");
        assert!(lines[0].contains("war = 1"));
        assert!(!lines[0].contains("xy"));
    }

    #[test]
    fn lifetimes_stay_in_code_char_literals_are_blanked() {
        let lines = code_of("fn f<'scope>(c: char) { if c == 'x' || c == '\\n' {} }");
        assert!(lines[0].contains("'scope"));
        assert!(!lines[0].contains("'x'"));
    }

    #[test]
    fn byte_char_literals_and_escapes_are_blanked() {
        // `b'\''`, `b'\\'`, `b'\n'`, `b'x'`: the byte prefix must not
        // derail the char-literal scan, and escaped quotes must not
        // reopen code mode early.
        let lines = code_of("let a = b'\\''; let b = b'\\\\'; let c = b'\\n'; let d = b'x';");
        assert_eq!(
            lines[0],
            "let a = b'ss'; let b = b'ss'; let c = b'ss'; let d = b's';"
        );
    }

    #[test]
    fn lifetime_vs_char_ambiguity_in_generics_labels_and_ranges() {
        // Generic and label positions keep lifetimes in code; literal
        // positions blank the contents.  These are the exact shapes that
        // defeat naive one-character lookahead.
        let cases = [
            ("struct S<'a,'b>(&'a u8, &'b u8);", "'a,'b"),
            ("'outer: loop { break 'outer; }", "'outer: loop"),
            ("fn f<'a>(x: &'a str) -> &'a str { x }", "<'a>"),
        ];
        for (src, must_keep) in cases {
            let code = &code_of(src)[0];
            assert!(
                code.contains(must_keep),
                "{src:?} lost {must_keep:?}: {code:?}"
            );
        }
        let code = &code_of("let r = 'a'..='z'; let u = '\\u{1F600}'; let q = '\\'';")[0];
        assert!(!code.contains("'a'"), "char literal leaked: {code:?}");
        assert_eq!(
            code,
            "let r = 's'..='s'; let u = 'sssssssss'; let q = 'ss';"
        );
    }

    #[test]
    fn multiline_strings_and_comments_span_lines() {
        let src = "let s = \"line one\nline two\";\n/* c1\nc2 */ let y = 2;";
        let lines = split(src);
        assert!(!lines[0].code.contains("one"));
        assert!(!lines[1].code.contains("two"));
        assert!(lines[1].code.ends_with('"') || lines[1].code.contains('"'));
        assert_eq!(lines[2].comment, " c1");
        assert!(lines[3].code.contains("let y = 2;"));
    }
}
