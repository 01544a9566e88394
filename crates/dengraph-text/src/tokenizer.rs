//! Tokenisation of raw microblog text.
//!
//! Microblog messages mix natural-language words with platform artefacts:
//! URLs, `@mentions`, `#hashtags`, emoticons and numbers such as "5.9"
//! (which the paper explicitly keeps — the magnitude joins the earthquake
//! cluster in Figure 1).  The tokenizer therefore classifies tokens instead
//! of blindly splitting on whitespace.
//!
//! Tokens borrow from the message: [`tokenize`] is an iterator over
//! sub-slices of its input and allocates nothing.  Case folding is a
//! separate step ([`Token::fold_into`]) into a buffer the caller reuses.

/// The syntactic class of a token as produced by [`tokenize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A plain word made of alphabetic characters.
    Word,
    /// A `#hashtag`; the leading `#` is stripped from [`Token::text`].
    Hashtag,
    /// An `@mention`; the leading `@` is stripped from [`Token::text`].
    Mention,
    /// A number, possibly with a decimal point (e.g. `5.9`, `500`).
    Number,
    /// A URL; kept so callers can drop or count it, never used as a keyword.
    Url,
}

/// A single token borrowed from a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token<'a> {
    /// The token as the message spells it (case included), with any sigil
    /// (`#`, `@`) removed.
    pub text: &'a str,
    /// Syntactic class of the token.
    pub kind: TokenKind,
}

impl<'a> Token<'a> {
    /// Convenience constructor used heavily in tests.
    pub fn new(text: &'a str, kind: TokenKind) -> Self {
        Self { text, kind }
    }

    /// Replaces `buf` with the token's lower-cased spelling.  ASCII tokens
    /// fold in place inside `buf`; anything else takes
    /// [`str::to_lowercase`] (final sigma, `İ` → `i̇`), which allocates.
    pub fn fold_into(&self, buf: &mut String) {
        buf.clear();
        if self.text.is_ascii() {
            buf.push_str(self.text);
            buf.make_ascii_lowercase();
        } else {
            buf.push_str(&self.text.to_lowercase());
        }
    }
}

/// What the scanner does with a byte: one table lookup per ASCII byte,
/// a decode and a Unicode property lookup only for multi-byte scalars.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// ASCII punctuation and controls: splits tokens inside a chunk.
    Separator,
    /// ASCII letter, `'`, `-` or `_`.
    Word,
    /// ASCII digit (a word character that keeps a token numeric).
    Digit,
    /// ASCII whitespace: ends the chunk.
    Space,
    /// First byte of a multi-byte scalar.
    Wide,
}

static CLASS: [Class; 256] = {
    let mut table = [Class::Separator; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        table[b] = if byte.is_ascii_digit() {
            Class::Digit
        } else if byte.is_ascii_alphabetic() || matches!(byte, b'\'' | b'-' | b'_') {
            Class::Word
        } else if matches!(byte, b' ' | 0x09..=0x0d) {
            Class::Space
        } else if byte >= 0x80 {
            Class::Wide
        } else {
            Class::Separator
        };
        b += 1;
    }
    table
};

fn class(b: u8) -> Class {
    CLASS[usize::from(b)]
}

/// The scalar starting at byte `at` (always a boundary: the scanner steps
/// whole scalars).
fn scalar_at(s: &str, at: usize) -> char {
    s.get(at..)
        .and_then(|tail| tail.chars().next())
        .unwrap_or('\0')
}

/// Returns `true` when the chunk looks like a URL (case-sensitively).
fn is_url(raw: &str) -> bool {
    // Every pattern except the `www.` prefix contains a '/', and most
    // chunks contain none: one byte search instead of two substring ones.
    raw.starts_with("www.")
        || raw.as_bytes().contains(&b'/')
            && (raw.starts_with("http://")
                || raw.starts_with("https://")
                || raw.contains(".com/")
                || raw.contains(".ly/"))
}

/// Byte length of the whitespace `text` starts with.
fn whitespace_len(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        match class(b) {
            Class::Space => at += 1,
            Class::Wide => {
                let c = scalar_at(text, at);
                if !c.is_whitespace() {
                    break;
                }
                at += c.len_utf8();
            }
            _ => break,
        }
    }
    at
}

/// Byte length of the whitespace-free chunk `text` starts with.
fn chunk_len(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        match class(b) {
            Class::Space => break,
            Class::Wide => {
                let c = scalar_at(text, at);
                if c.is_whitespace() {
                    break;
                }
                at += c.len_utf8();
            }
            _ => at += 1,
        }
    }
    at
}

/// Iterator over the tokens of one message; see [`tokenize`].
///
/// One forward pass.  *Chunks* — the pieces [`str::split_whitespace`]
/// would yield — matter only at their first byte, where a sigil or a URL
/// is recognised, so no chunk is scanned ahead unless it could be a URL.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    /// The unscanned tail of the message.
    rest: &'a str,
    /// `rest` begins at a chunk boundary (whitespace, or the message start).
    chunk_start: bool,
    /// The kind the current chunk's sigil forces on all its tokens.
    sigil: Option<TokenKind>,
    /// The message contains a `/`; without one only `www.` marks a URL.
    has_slash: bool,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let text = self.rest;
        let bytes = text.as_bytes();
        let mut at = 0;
        // Find the token's first byte, entering chunks on the way.
        let start = loop {
            if self.chunk_start {
                let chunk = text.get(at..)?;
                let chunk = chunk.get(whitespace_len(chunk)..)?;
                if chunk.starts_with("www.") || self.has_slash {
                    let (chunk, tail) = chunk.split_at(chunk_len(chunk));
                    if is_url(chunk) {
                        self.rest = tail;
                        return Some(Token::new(chunk, TokenKind::Url));
                    }
                }
                at = text.len() - chunk.len();
                self.chunk_start = false;
                // The sigil byte itself is skipped below as a separator.
                self.sigil = match bytes.get(at) {
                    Some(b'#') => Some(TokenKind::Hashtag),
                    Some(b'@') => Some(TokenKind::Mention),
                    _ => None,
                };
            }
            let Some(&b) = bytes.get(at) else {
                self.rest = "";
                return None;
            };
            match class(b) {
                Class::Word | Class::Digit => break at,
                Class::Separator => at += 1,
                Class::Space => self.chunk_start = true,
                Class::Wide => {
                    let c = scalar_at(text, at);
                    if c.is_alphanumeric() {
                        break at;
                    } else if c.is_whitespace() {
                        self.chunk_start = true;
                    } else {
                        at += c.len_utf8();
                    }
                }
            }
        };
        // Extend over word characters, so that "earthquake!!!" and
        // "turkey," yield clean words, keeping one decimal point inside a
        // number ("5.9").  `digits`: only ASCII digits so far, so a point
        // may join; `numeric`: only ASCII digits and that point so far.
        let (mut digits, mut numeric) = (true, true);
        while let Some(&b) = bytes.get(at) {
            match class(b) {
                Class::Digit => at += 1,
                Class::Word => {
                    (digits, numeric) = (false, false);
                    at += 1;
                }
                Class::Wide => {
                    let c = scalar_at(text, at);
                    if !c.is_alphanumeric() {
                        break;
                    }
                    (digits, numeric) = (false, false);
                    at += c.len_utf8();
                }
                _ if b == b'.' && digits && bytes.get(at + 1).is_some_and(u8::is_ascii_digit) => {
                    digits = false;
                    at += 1;
                }
                _ => break,
            }
        }
        let (scanned, tail) = text.split_at(at);
        self.rest = tail;
        let kind = self.sigil.unwrap_or(if numeric {
            TokenKind::Number
        } else {
            TokenKind::Word
        });
        Some(Token::new(scanned.get(start..)?, kind))
    }
}

/// Tokenises one message into classified tokens borrowed from `text`.
///
/// The output preserves message order and may contain duplicates; case
/// folding, stemming and the de-duplication into a keyword *set* happen in
/// [`crate::pipeline::KeywordPipeline`].
pub fn tokenize(text: &str) -> Tokens<'_> {
    Tokens {
        rest: text,
        chunk_start: true,
        sigil: None,
        has_slash: text.as_bytes().contains(&b'/'),
    }
}

/// The owned-`String` tokenizer this module replaced, kept verbatim as the
/// reference the differential tests (here and in `pipeline`) compare the
/// scanner against.
#[cfg(test)]
pub(crate) mod reference {
    use super::TokenKind;

    fn is_word_char(c: char) -> bool {
        c.is_alphanumeric() || c == '\'' || c == '-' || c == '_'
    }

    fn is_url(raw: &str) -> bool {
        raw.starts_with("http://")
            || raw.starts_with("https://")
            || raw.starts_with("www.")
            || raw.contains(".com/")
            || raw.contains(".ly/")
    }

    fn classify_chunk(raw: &str, out: &mut Vec<(String, TokenKind)>) {
        if raw.is_empty() {
            return;
        }
        if is_url(raw) {
            out.push((raw.to_ascii_lowercase(), TokenKind::Url));
            return;
        }
        let (kind, stripped) = match raw.chars().next() {
            Some('#') => (Some(TokenKind::Hashtag), &raw[1..]),
            Some('@') => (Some(TokenKind::Mention), &raw[1..]),
            _ => (None, raw),
        };
        let mut current = String::new();
        let mut chars = stripped.chars().peekable();
        let flush = |current: &mut String, out: &mut Vec<(String, TokenKind)>| {
            if current.is_empty() {
                return;
            }
            let text = current.to_lowercase();
            let token_kind = kind.unwrap_or_else(|| {
                if text.chars().all(|c| c.is_ascii_digit() || c == '.') {
                    TokenKind::Number
                } else {
                    TokenKind::Word
                }
            });
            out.push((text, token_kind));
            current.clear();
        };
        while let Some(c) = chars.next() {
            if is_word_char(c) {
                current.push(c);
            } else if c == '.'
                && current.chars().all(|c| c.is_ascii_digit())
                && !current.is_empty()
                && chars.peek().is_some_and(|n| n.is_ascii_digit())
            {
                // Keep decimal points inside numbers ("5.9").
                current.push(c);
            } else {
                flush(&mut current, out);
            }
        }
        flush(&mut current, out);
    }

    /// Lower-cased `(text, kind)` tokens of one message.
    pub(crate) fn tokenize(text: &str) -> Vec<(String, TokenKind)> {
        let mut out = Vec::new();
        for chunk in text.split_whitespace() {
            classify_chunk(chunk, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens with their folded spelling, as the pipeline sees them.
    fn folded(text: &str) -> Vec<(String, TokenKind)> {
        let mut buf = String::new();
        tokenize(text)
            .map(|t| {
                t.fold_into(&mut buf);
                (buf.clone(), t.kind)
            })
            .collect()
    }

    fn texts(tokens: &[(String, TokenKind)]) -> Vec<&str> {
        tokens.iter().map(|(t, _)| t.as_str()).collect()
    }

    #[test]
    fn splits_plain_words() {
        let toks = folded("earthquake struck eastern Turkey");
        assert_eq!(
            texts(&toks),
            vec!["earthquake", "struck", "eastern", "turkey"]
        );
        assert!(toks.iter().all(|(_, kind)| *kind == TokenKind::Word));
    }

    #[test]
    fn lowercases_everything() {
        let raw: Vec<&str> = tokenize("BREAKING NEWS Turkey").map(|t| t.text).collect();
        assert_eq!(raw, vec!["BREAKING", "NEWS", "Turkey"], "tokens borrow");
        assert!(folded("BREAKING NEWS Turkey ΟΔΟΣ İstanbul")
            .iter()
            .all(|(t, _)| t.chars().all(|c| !c.is_uppercase())));
    }

    #[test]
    fn classifies_hashtags_and_mentions() {
        let toks: Vec<Token<'_>> = tokenize("#jobs alert @cnn").collect();
        assert_eq!(toks[0], Token::new("jobs", TokenKind::Hashtag));
        assert_eq!(toks[1], Token::new("alert", TokenKind::Word));
        assert_eq!(toks[2], Token::new("cnn", TokenKind::Mention));
    }

    #[test]
    fn keeps_decimal_numbers_whole() {
        assert!(tokenize("magnitude 5.9 quake").any(|t| t == Token::new("5.9", TokenKind::Number)));
        let toks = folded("v1.2.3 1.2.3 .5 5.9abc");
        assert_eq!(texts(&toks), vec!["v1", "2.3", "1.2", "3", "5", "5.9abc"]);
        assert_eq!(toks[2].1, TokenKind::Number);
        assert_eq!(toks[5].1, TokenKind::Word);
    }

    #[test]
    fn strips_trailing_punctuation() {
        let toks = folded("Turkey, earthquake!!! (breaking)");
        assert_eq!(texts(&toks), vec!["turkey", "earthquake", "breaking"]);
    }

    #[test]
    fn detects_urls() {
        let toks: Vec<Token<'_>> = tokenize("read https://t.co/abc123 now").collect();
        assert_eq!(toks[1].kind, TokenKind::Url);
        let kind = |chunk| tokenize(chunk).next().map(|t| t.kind);
        for url in ["www.x", "x.com/y", "bit.ly/x", "http://a"] {
            assert_eq!(kind(url), Some(TokenKind::Url), "{url}");
        }
        for not in ["BIT.LY/x", "a/b", "WWW.x", "x.com", "http:/a"] {
            assert_eq!(kind(not), Some(TokenKind::Word), "{not}");
        }
    }

    #[test]
    fn empty_and_whitespace_only_messages() {
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("   \t\n ").count(), 0);
        assert_eq!(tokenize("!!! ... # @").count(), 0);
    }

    #[test]
    fn hyphenated_and_apostrophe_words_survive() {
        let toks = folded("pro-democracy worker's rights");
        assert_eq!(texts(&toks), vec!["pro-democracy", "worker's", "rights"]);
    }

    #[test]
    fn sentence_final_number_is_not_glued_to_dot() {
        assert!(
            tokenize("death toll rises to 150.").any(|t| t == Token::new("150", TokenKind::Number))
        );
    }

    /// The scanner against the tokenizer it replaced, token for token.
    #[test]
    fn scanner_matches_the_reference_tokenizer() {
        for text in [
            "A massive earthquake struck eastern Turkey today",
            "#Jobs,alert @CNN's #a.b @x!y",
            "5.9 1.2.3 150. .5 5. 5.x ５.９ 1.２ x1.5 1-2.5",
            "worker's ross's '' -- _ a b's",
            "ΟΔΟΣ İstanbul ΣΑΣ straße ǅ",
            "a\u{3000}b\u{a0}c\u{2003}d\te",
            "www.a WWW.a http://x https://y x.com/y BIT.LY/x bit.ly/ü a/b #x.com/y",
            "emoji🦀crab 🦀 日本語テキスト １２３",
            "#１２ @5.9 #5.9 #",
        ] {
            let got: Vec<(String, TokenKind)> = folded(text)
                .into_iter()
                .zip(tokenize(text))
                .map(|((lower, kind), token)| match kind {
                    // The old tokenizer folded URLs ASCII-only.
                    TokenKind::Url => (token.text.to_ascii_lowercase(), kind),
                    _ => (lower, kind),
                })
                .collect();
            assert_eq!(got, reference::tokenize(text), "{text:?}");
        }
    }
}
