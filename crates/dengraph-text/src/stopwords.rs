//! Embedded English stop-word list.
//!
//! The paper removes stop words before any keyword is allowed to become a
//! node of the correlated-keyword graph (Section 1.1, Section 3.1).  The
//! list below is the classic "long" English stop-word list extended with a
//! handful of microblog-specific fillers (`rt`, `via`, `amp`).

use std::sync::OnceLock;

/// The raw stop-word list.  Kept sorted for readability; lookup goes through
/// a lazily built bucket index ([`is_stopword`]).
pub const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "aren't",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "can't",
    "cannot",
    "could",
    "couldn't",
    "did",
    "didn't",
    "do",
    "does",
    "doesn't",
    "doing",
    "don't",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "get",
    "got",
    "had",
    "hadn't",
    "has",
    "hasn't",
    "have",
    "haven't",
    "having",
    "he",
    "he'd",
    "he'll",
    "he's",
    "her",
    "here",
    "here's",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "how's",
    "i",
    "i'd",
    "i'll",
    "i'm",
    "i've",
    "if",
    "in",
    "into",
    "is",
    "isn't",
    "it",
    "it's",
    "its",
    "itself",
    "just",
    "let's",
    "like",
    "me",
    "more",
    "most",
    "mustn't",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "shan't",
    "she",
    "she'd",
    "she'll",
    "she's",
    "should",
    "shouldn't",
    "so",
    "some",
    "such",
    "than",
    "that",
    "that's",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "there's",
    "these",
    "they",
    "they'd",
    "they'll",
    "they're",
    "they've",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "wasn't",
    "we",
    "we'd",
    "we'll",
    "we're",
    "we've",
    "were",
    "weren't",
    "what",
    "what's",
    "when",
    "when's",
    "where",
    "where's",
    "which",
    "while",
    "who",
    "who's",
    "whom",
    "why",
    "why's",
    "will",
    "with",
    "won't",
    "would",
    "wouldn't",
    "you",
    "you'd",
    "you'll",
    "you're",
    "you've",
    "your",
    "yours",
    "yourself",
    "yourselves",
    // Microblog-specific fillers.
    "rt",
    "via",
    "amp",
    "u",
    "ur",
    "im",
    "dont",
    "cant",
    "lol",
    "omg",
    "pls",
    "plz",
];

/// The list is static, so membership needs no keyed hash: words are
/// grouped by a mix of their length, first and last byte, and a probe
/// compares against the few sharing its group (none, for most keywords).
struct StopIndex {
    /// [`STOPWORDS`] ordered by [`Self::bucket`].
    words: Vec<&'static str>,
    /// Bucket `b` is `words[starts[b]..starts[b + 1]]`.
    starts: [u16; Self::BUCKETS + 1],
    /// Length of the longest stop word.
    max_len: usize,
}

impl StopIndex {
    /// About five buckets per word, so most hold none.
    const BUCKETS: usize = 1024;

    fn bucket(word: &str) -> usize {
        let bytes = word.as_bytes();
        let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
            return 0;
        };
        (bytes.len() * 961 + usize::from(first) * 31 + usize::from(last)) % Self::BUCKETS
    }

    fn build() -> Self {
        let mut words = STOPWORDS.to_vec();
        words.sort_unstable_by_key(|w| Self::bucket(w));
        let mut starts = [0u16; Self::BUCKETS + 1];
        for word in &words {
            starts[Self::bucket(word) + 1] += 1;
        }
        for b in 0..Self::BUCKETS {
            starts[b + 1] += starts[b];
        }
        let max_len = words.iter().map(|w| w.len()).max().unwrap_or(0);
        Self {
            words,
            starts,
            max_len,
        }
    }

    fn contains(&self, word: &str) -> bool {
        if word.len() > self.max_len {
            return false;
        }
        let b = Self::bucket(word);
        let (from, to) = (usize::from(self.starts[b]), usize::from(self.starts[b + 1]));
        self.words[from..to].contains(&word)
    }
}

/// Returns `true` if `word` (already lower-cased) is a stop word.
pub fn is_stopword(word: &str) -> bool {
    static INDEX: OnceLock<StopIndex> = OnceLock::new();
    INDEX.get_or_init(StopIndex::build).contains(word)
}

/// Removes stop words (and single-character tokens, which carry no signal)
/// from a token list in place.
pub fn remove_stopwords(words: &mut Vec<String>) {
    words.retain(|w| w.chars().count() > 1 && !is_stopword(w));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "and", "is", "of", "you're"] {
            assert!(is_stopword(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn content_words_are_not_stopwords() {
        for w in ["earthquake", "turkey", "tornado", "apple"] {
            assert!(!is_stopword(w), "{w} should not be a stop word");
        }
    }

    #[test]
    fn microblog_fillers_are_stopwords() {
        assert!(is_stopword("rt"));
        assert!(is_stopword("via"));
    }

    #[test]
    fn remove_stopwords_filters_in_place() {
        let mut words: Vec<String> = ["the", "earthquake", "struck", "a", "turkey", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        remove_stopwords(&mut words);
        assert_eq!(words, vec!["earthquake", "struck", "turkey"]);
    }

    /// The bucketed index against a plain hash set of the same list.
    #[test]
    fn index_agrees_with_a_hash_set_of_the_list() {
        let set: std::collections::HashSet<&str> = STOPWORDS.iter().copied().collect();
        let mut probes: Vec<String> = STOPWORDS.iter().map(|w| w.to_string()).collect();
        for w in STOPWORDS {
            // Near misses that share a bucket, a prefix or a length.
            probes.push(format!("{w}s"));
            probes.push(w[..w.len() - 1].to_string());
            probes.push(w.to_uppercase());
            probes.push(w.chars().rev().collect());
            probes.push(format!("{}\u{e9}", &w[..1]));
        }
        probes.extend(["", "é", "themselvesandmore", "\u{0}", "zzzzzzzzzz"].map(String::from));
        for p in &probes {
            assert_eq!(is_stopword(p), set.contains(p.as_str()), "{p:?}");
        }
    }

    #[test]
    fn stopword_list_is_lowercase_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase(), "stop word {w} must be lower-case");
            assert!(seen.insert(*w), "duplicate stop word {w}");
        }
    }
}
