//! Tokenisation of raw microblog text.
//!
//! Microblog messages mix natural-language words with platform artefacts:
//! URLs, `@mentions`, `#hashtags`, emoticons and numbers such as "5.9"
//! (which the paper explicitly keeps — the magnitude joins the earthquake
//! cluster in Figure 1).  The tokenizer therefore classifies tokens instead
//! of blindly splitting on whitespace.
//!
//! [`scan`] is one forward pass over a message.  It writes each token it
//! keeps, already lower-cased, into a buffer the caller reuses and hands
//! it on, and skips a URL or sigil chunk whose kind the caller drops
//! without tokenising it.

/// The syntactic class of a token as produced by [`scan`].
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
}

/// What the scanner does with a byte: one table lookup per ASCII byte,
/// a decode and a Unicode property lookup only for multi-byte scalars.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// ASCII punctuation and controls: splits tokens inside a chunk.
    Separator,
    /// ASCII lower-case letter, `'`, `-` or `_`: copied as it is.
    Word,
    /// ASCII upper-case letter: copied lower-cased.
    Upper,
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
        } else if byte.is_ascii_uppercase() {
            Class::Upper
        } else if byte.is_ascii_lowercase() || matches!(byte, b'\'' | b'-' | b'_') {
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

/// Scans one message in one forward pass and calls `each` with every
/// token whose kind `keep` accepts, in message order (repeats included),
/// and with `folded` holding its lower-cased spelling: ASCII letters fold
/// as they are copied, and a token holding a multi-byte scalar is
/// re-folded once by [`str::to_lowercase`] (final sigma, `İ` → `i̇`).  A
/// URL folds ASCII letters only.
///
/// *Chunks* — the pieces [`str::split_whitespace`] would yield — matter
/// only at their first byte, where a sigil or a URL is recognised: a URL,
/// `#hashtag` or `@mention` chunk that `keep` rejects is skipped without
/// being tokenised, and no other chunk is scanned ahead unless it could be
/// a URL.  Stemming and the de-duplication into a keyword *set* happen in
/// [`crate::pipeline::KeywordPipeline`].
pub fn scan<'a>(
    text: &'a str,
    folded: &mut String,
    keep: impl Fn(TokenKind) -> bool,
    mut each: impl FnMut(Token<'a>, &mut String),
) {
    let bytes = text.as_bytes();
    // Without a '/' only a `www.` prefix marks a URL.
    let has_slash = bytes.contains(&b'/');
    let mut at = 0;
    // One chunk per iteration; `at` is always on a scalar boundary.
    loop {
        at += whitespace_len(&text[at..]);
        let chunk = &text[at..];
        let Some(&first) = chunk.as_bytes().first() else {
            return;
        };
        if chunk.starts_with("www.") || has_slash {
            let url = &chunk[..chunk_len(chunk)];
            if is_url(url) {
                if keep(TokenKind::Url) {
                    folded.clear();
                    folded.push_str(url);
                    folded.make_ascii_lowercase();
                    each(Token::new(url, TokenKind::Url), folded);
                }
                at += url.len();
                continue;
            }
        }
        // A sigil forces its kind on every token of the chunk; the sigil
        // byte itself is skipped below as a separator.
        let sigil = match first {
            b'#' => Some(TokenKind::Hashtag),
            b'@' => Some(TokenKind::Mention),
            _ => None,
        };
        if sigil.is_some_and(|kind| !keep(kind)) {
            at += chunk_len(chunk);
            continue;
        }
        // The chunk's tokens, up to the whitespace that ends it.
        while let Some(&b) = bytes.get(at) {
            match class(b) {
                Class::Word | Class::Upper | Class::Digit => {}
                Class::Separator => {
                    at += 1;
                    continue;
                }
                Class::Space => break,
                Class::Wide => {
                    let c = scalar_at(text, at);
                    if c.is_whitespace() {
                        break;
                    }
                    if !c.is_alphanumeric() {
                        at += c.len_utf8();
                        continue;
                    }
                }
            }
            // Extend over word characters, so that "earthquake!!!" and
            // "turkey," yield clean words, keeping one decimal point inside
            // a number ("5.9").  `digits`: only ASCII digits so far, so a
            // point may join; `numeric`: only ASCII digits and that point
            // so far; `wide`: a multi-byte scalar was met and left out of
            // `folded`, which is rebuilt from the token if it is kept.
            let start = at;
            let (mut digits, mut numeric, mut wide) = (true, true, false);
            folded.clear();
            while let Some(&b) = bytes.get(at) {
                match class(b) {
                    Class::Digit => folded.push(char::from(b)),
                    Class::Word => {
                        (digits, numeric) = (false, false);
                        folded.push(char::from(b));
                    }
                    Class::Upper => {
                        (digits, numeric) = (false, false);
                        folded.push(char::from(b.to_ascii_lowercase()));
                    }
                    Class::Wide => {
                        let c = scalar_at(text, at);
                        if !c.is_alphanumeric() {
                            break;
                        }
                        (digits, numeric, wide) = (false, false, true);
                        at += c.len_utf8();
                        continue;
                    }
                    _ if b == b'.'
                        && digits
                        && bytes.get(at + 1).is_some_and(u8::is_ascii_digit) =>
                    {
                        digits = false;
                        folded.push('.');
                    }
                    _ => break,
                }
                at += 1;
            }
            let kind = sigil.unwrap_or(if numeric {
                TokenKind::Number
            } else {
                TokenKind::Word
            });
            if keep(kind) {
                let raw = &text[start..at];
                if wide {
                    folded.clear();
                    folded.push_str(&raw.to_lowercase());
                }
                each(Token::new(raw, kind), folded);
            }
        }
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

    fn all(_: TokenKind) -> bool {
        true
    }

    /// Every kept token with its folded spelling, as the pipeline sees them.
    fn folded_by(text: &str, keep: impl Fn(TokenKind) -> bool) -> Vec<(String, TokenKind)> {
        let mut out = Vec::new();
        scan(text, &mut String::new(), keep, |t, folded| {
            out.push((folded.clone(), t.kind))
        });
        out
    }

    fn folded(text: &str) -> Vec<(String, TokenKind)> {
        folded_by(text, all)
    }

    /// Every token as the message spells it.
    fn tokens(text: &str) -> Vec<Token<'_>> {
        let mut out = Vec::new();
        scan(text, &mut String::new(), all, |t, _| out.push(t));
        out
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
        let raw: Vec<&str> = tokens("BREAKING NEWS Turkey")
            .iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(raw, vec!["BREAKING", "NEWS", "Turkey"], "tokens borrow");
        assert!(folded("BREAKING NEWS Turkey ΟΔΟΣ İstanbul")
            .iter()
            .all(|(t, _)| t.chars().all(|c| !c.is_uppercase())));
    }

    #[test]
    fn classifies_hashtags_and_mentions() {
        let toks = tokens("#jobs alert @cnn");
        assert_eq!(toks[0], Token::new("jobs", TokenKind::Hashtag));
        assert_eq!(toks[1], Token::new("alert", TokenKind::Word));
        assert_eq!(toks[2], Token::new("cnn", TokenKind::Mention));
    }

    #[test]
    fn keeps_decimal_numbers_whole() {
        assert!(tokens("magnitude 5.9 quake").contains(&Token::new("5.9", TokenKind::Number)));
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
        let toks = tokens("read https://t.co/abc123 now");
        assert_eq!(toks[1].kind, TokenKind::Url);
        let kind = |chunk| tokens(chunk).first().map(|t| t.kind);
        for url in ["www.x", "x.com/y", "bit.ly/x", "http://a"] {
            assert_eq!(kind(url), Some(TokenKind::Url), "{url}");
        }
        for not in ["BIT.LY/x", "a/b", "WWW.x", "x.com", "http:/a"] {
            assert_eq!(kind(not), Some(TokenKind::Word), "{not}");
        }
    }

    #[test]
    fn empty_and_whitespace_only_messages() {
        assert!(tokens("").is_empty());
        assert!(tokens("   \t\n ").is_empty());
        assert!(tokens("!!! ... # @").is_empty());
    }

    #[test]
    fn hyphenated_and_apostrophe_words_survive() {
        let toks = folded("pro-democracy worker's rights");
        assert_eq!(texts(&toks), vec!["pro-democracy", "worker's", "rights"]);
    }

    #[test]
    fn sentence_final_number_is_not_glued_to_dot() {
        assert!(tokens("death toll rises to 150.").contains(&Token::new("150", TokenKind::Number)));
    }

    /// The scanner against the tokenizer it replaced, token for token,
    /// under the keep predicates the pipeline uses and one keeping all.
    #[test]
    fn scanner_matches_the_reference_tokenizer() {
        let keeps: [fn(TokenKind) -> bool; 3] = [
            all,
            |kind| !matches!(kind, TokenKind::Mention | TokenKind::Url),
            |kind| matches!(kind, TokenKind::Word | TokenKind::Number),
        ];
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
            "@a#b #c@d (#e) @ # ##f @@g x@y #5.9 @5.9 @x.com/y #www.a",
        ] {
            for keep in keeps {
                let mut want = reference::tokenize(text);
                want.retain(|(_, kind)| keep(*kind));
                assert_eq!(folded_by(text, keep), want, "{text:?}");
            }
        }
    }
}
