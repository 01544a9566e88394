//! End-to-end keyword extraction: raw text → de-duplicated `KeywordId` set
//! (plus author interning, so a full post becomes dense ids in one call).

use crate::interner::{KeywordId, KeywordInterner, SymbolTable, UserSym};
use crate::stemmer;
use crate::stopwords;
use crate::tokenizer::{scan, TokenKind};

/// Configuration of the keyword-extraction pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Keep `#hashtag` tokens as keywords (default `true`).
    pub keep_hashtags: bool,
    /// Keep numeric tokens such as `5.9` as keywords (default `true` — the
    /// paper's Figure 1 adds "5.9" to the earthquake cluster).
    pub keep_numbers: bool,
    /// Apply the light stemmer (default `true`).
    pub stem: bool,
    /// Drop tokens shorter than this many characters (default `2`).
    pub min_token_len: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            keep_hashtags: true,
            keep_numbers: true,
            stem: true,
            min_token_len: 2,
        }
    }
}

/// Stateful keyword pipeline: owns the stream's [`SymbolTable`] so
/// repeated messages map the same word to the same [`KeywordId`] and the
/// same author to the same [`UserSym`].
#[derive(Debug, Default)]
pub struct KeywordPipeline {
    config: PipelineConfig,
    symbols: SymbolTable,
    /// The one buffer the scanner folds every kept token into and the
    /// stemmer trims in place before its interner lookup, so a post
    /// allocates only its returned id list.
    scratch: String,
}

impl KeywordPipeline {
    /// Creates a pipeline with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a pipeline with an explicit configuration.
    pub fn with_config(config: PipelineConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Processes one message, returning its de-duplicated keyword ids in
    /// first-occurrence order.
    pub fn process(&mut self, text: &str) -> Vec<KeywordId> {
        // Room for a typical post's keywords in the one allocation.
        let mut out: Vec<KeywordId> = Vec::with_capacity(8);
        let config = &self.config;
        let keywords = &mut self.symbols.keywords;
        let keep = |kind| match kind {
            TokenKind::Word => true,
            TokenKind::Hashtag => config.keep_hashtags,
            TokenKind::Number => config.keep_numbers,
            TokenKind::Mention | TokenKind::Url => false,
        };
        scan(text, &mut self.scratch, keep, |token, word| {
            if token.kind != TokenKind::Number {
                if config.stem {
                    stemmer::stem(word);
                }
                // A char is at most four bytes: count only short words.
                let min = config.min_token_len;
                if word.len() < min.saturating_mul(4) && word.chars().count() < min {
                    return;
                }
                if stopwords::is_stopword(word) {
                    return;
                }
            }
            let id = keywords.intern(word);
            if !out.contains(&id) {
                out.push(id);
            }
        });
        out
    }

    /// Processes one complete post: interns the author and extracts the
    /// keyword ids in a single call, so everything downstream of
    /// tokenization works on dense integers.  The stream layer wraps the
    /// returned [`UserSym`] in its `UserId` newtype.
    pub fn process_post(&mut self, author: &str, text: &str) -> (UserSym, Vec<KeywordId>) {
        let user = self.symbols.users.intern(author);
        (user, self.process(text))
    }

    /// The stream's symbol table (keywords and users).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Access to the shared keyword interner.
    pub fn interner(&self) -> &KeywordInterner {
        &self.symbols.keywords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process, then resolve at the boundary.
    fn words_of(p: &mut KeywordPipeline, text: &str) -> Vec<String> {
        p.process(text)
            .into_iter()
            .filter_map(|id| p.symbols().keywords.resolve(id).map(str::to_string))
            .collect()
    }

    #[test]
    fn figure1_style_message() {
        let mut p = KeywordPipeline::new();
        let words = words_of(&mut p, "A massive earthquake struck eastern Turkey today");
        assert_eq!(
            words,
            vec![
                "massive",
                "earthquake",
                "struck",
                "eastern",
                "turkey",
                "today"
            ]
        );
    }

    #[test]
    fn duplicates_within_a_message_collapse() {
        let mut p = KeywordPipeline::new();
        let ids = p.process("earthquake earthquake EARTHQUAKE");
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn same_word_across_messages_maps_to_same_id() {
        let mut p = KeywordPipeline::new();
        let a = p.process("earthquake in turkey");
        let b = p.process("turkey earthquake magnitude 5.9");
        assert_eq!(a[0], b[1]); // earthquake
        assert_eq!(a[1], b[0]); // turkey
    }

    #[test]
    fn numbers_kept_and_droppable() {
        let mut keep = KeywordPipeline::new();
        assert!(words_of(&mut keep, "magnitude 5.9").contains(&"5.9".to_string()));
        let mut drop = KeywordPipeline::with_config(PipelineConfig {
            keep_numbers: false,
            ..Default::default()
        });
        assert!(!words_of(&mut drop, "magnitude 5.9").contains(&"5.9".to_string()));
    }

    #[test]
    fn process_post_interns_author_and_keywords() {
        let mut p = KeywordPipeline::new();
        let (u1, kws1) = p.process_post("@reporter", "earthquake in turkey");
        let (u2, kws2) = p.process_post("@reporter", "turkey earthquake again");
        assert_eq!(u1, u2, "same author maps to the same dense id");
        assert_eq!(kws1[0], kws2[1], "earthquake id is stable");
        assert_eq!(p.symbols().users.resolve(u1), Some("@reporter"));
        let (u3, _) = p.process_post("@witness", "quake");
        assert_ne!(u1, u3);
    }

    #[test]
    fn stemming_unifies_plurals() {
        let mut p = KeywordPipeline::new();
        let a = p.process("earthquakes");
        let b = p.process("earthquake");
        assert_eq!(a, b);
    }

    #[test]
    fn mentions_and_urls_never_become_keywords() {
        let mut p = KeywordPipeline::new();
        let words = words_of(&mut p, "@cnn breaking https://t.co/x earthquake");
        assert_eq!(words, vec!["breaking", "earthquake"]);
    }

    #[test]
    fn stop_words_removed_after_stemming() {
        let mut p = KeywordPipeline::new();
        // "gets" stems to "get" which is a stop word.
        let words = words_of(&mut p, "gets worse tornado");
        assert_eq!(words, vec!["worse", "tornado"]);
    }

    #[test]
    fn empty_message_yields_no_keywords() {
        let mut p = KeywordPipeline::new();
        assert!(p.process("").is_empty());
        assert!(p.process("the a of and").is_empty());
    }

    /// The `process` this module replaced, verbatim, over the reference
    /// tokenizer and stemmer and a hash set of the stop list.
    fn reference_process(
        config: &PipelineConfig,
        stop: &std::collections::HashSet<&str>,
        interner: &mut KeywordInterner,
        text: &str,
    ) -> Vec<KeywordId> {
        let mut out: Vec<KeywordId> = Vec::new();
        for (text, kind) in crate::tokenizer::reference::tokenize(text) {
            let keep = match kind {
                TokenKind::Word => true,
                TokenKind::Hashtag => config.keep_hashtags,
                TokenKind::Number => config.keep_numbers,
                TokenKind::Mention | TokenKind::Url => false,
            };
            if !keep {
                continue;
            }
            let mut word = text;
            if kind != TokenKind::Number && config.stem {
                word = stemmer::reference_normalize(&word);
            }
            if word.chars().count() < config.min_token_len && kind != TokenKind::Number {
                continue;
            }
            if kind != TokenKind::Number && stop.contains(word.as_str()) {
                continue;
            }
            let id = interner.intern(&word);
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// One generated post: chunks glued from word-like atoms, sigils,
    /// punctuation and URL shapes, split by assorted Unicode whitespace.
    fn random_text(rng: &mut rand_chacha::ChaCha8Rng) -> String {
        use rand::Rng;
        #[rustfmt::skip]
        const WORDS: &[&str] = &[
            "earthquake", "Earthquakes", "TURKEY", "turkey's", "worker's", "ross's", "ROSS'",
            "stories", "Parties", "crashes", "boxes", "buzzes", "bus", "loss", "virus", "gets",
            "this", "The", "and", "you're", "RT", "via", "a", "I", "x", "é", "''", "--", "_",
            "pro-democracy", "ΟΔΟΣ", "ΣΑΣ", "İstanbul", "STRASSE", "straße", "日本語", "ǅungla",
            "5.9", "1.2.3", "150.", "500", "0", "７５", "５.９", "3rd", "b2b", "covid-19", "🦀",
        ];
        #[rustfmt::skip]
        const URLS: &[&str] = &[
            "www.news.example", "WWW.news.example", "http://t.co/abc", "https://t.co/ÀB",
            "x.com/y", "BIT.LY/x", "bit.ly/x", "a/b", "http:/x", "news.com",
        ];
        const GLUE: &[&str] = &[
            "", "", ",", ".", "!", "?", "...", "(", ")", "\"", ":", "/", "#", "@", "'", "-", "’",
        ];
        #[rustfmt::skip]
        const SPACE: &[&str] = &[
            " ", " ", " ", "  ", "\t", "\n", "\u{3000}", "\u{a0}", " \u{2003} ",
        ];
        let pick = |rng: &mut rand_chacha::ChaCha8Rng, from: &[&'static str]| {
            from[rng.gen_range(0..from.len())]
        };
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..14usize) {
            match rng.gen_range(0..10u32) {
                0 => text.push('#'),
                1 => text.push('@'),
                _ => {}
            }
            if rng.gen_bool(0.12) {
                text.push_str(pick(rng, URLS));
            }
            for _ in 0..rng.gen_range(1..4usize) {
                let word = pick(rng, WORDS);
                match rng.gen_range(0..6u32) {
                    0 => text.push_str(&word.to_uppercase()),
                    1 => text.push_str(&word.to_lowercase()),
                    _ => text.push_str(word),
                }
                text.push_str(pick(rng, GLUE));
            }
            text.push_str(pick(rng, SPACE));
        }
        text
    }

    /// Ids **and** interner spellings equal the replaced pipeline's on
    /// generated posts, under every configuration shape.
    #[test]
    fn matches_the_reference_pipeline_on_generated_text() {
        use rand::SeedableRng;
        let stop = stopwords::STOPWORDS.iter().copied().collect();
        let configs = [
            PipelineConfig::default(),
            PipelineConfig {
                stem: false,
                min_token_len: 1,
                ..Default::default()
            },
            PipelineConfig {
                keep_hashtags: false,
                keep_numbers: false,
                min_token_len: 4,
                ..Default::default()
            },
            PipelineConfig {
                min_token_len: 0,
                ..Default::default()
            },
        ];
        for (seed, config) in configs.into_iter().enumerate() {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2012 + seed as u64);
            let mut pipeline = KeywordPipeline::with_config(config.clone());
            let mut reference = KeywordInterner::new();
            let mut keywords = 0;
            // Sigil chunks the scanner skips whole under one setting of
            // `keep_hashtags` and tokenises under the other.
            let fixed = "@a#b #c@d (#e) @ # ##f @@g x@y #5.9 @5.9 @x.com/y #www.a";
            let generated = (0..3_000).map(|_| random_text(&mut rng));
            for text in std::iter::once(fixed.to_string()).chain(generated) {
                let got = pipeline.process(&text);
                let want = reference_process(&config, &stop, &mut reference, &text);
                assert_eq!(got, want, "{config:?} on {text:?}");
                keywords += got.len();
            }
            assert!(keywords > 3_000, "the generator must exercise the pipeline");
            let spelled: Vec<&str> = pipeline.interner().iter().map(|(_, w)| w).collect();
            let want: Vec<&str> = reference.iter().map(|(_, w)| w).collect();
            assert_eq!(spelled, want, "interner spellings under {config:?}");
        }
    }
}
